"""The discriminating mode checked against the process it claims to be.

With crossover and mutation off, a step's next population is N' draws with
replacement from the current one, N' = max(population_floor, ceil(D * mean
length)) for D agents, and each draw lands on member i with probability
w_i / sum w.  The weight w_i is member i's raw fitness, divided by
1 + coefficient * (length_i - mean length) when it is longer than the mean.
So for any per-member value x, such as raw fitness or length, the next
population's mean of x has expectation E = sum w_i x_i / sum w and variance
sum w_i (x_i - E)**2 / (sum w * N'): the replicator equation, or the
selection term of the Price equation (Price, Nature 227:520, 1970).

Both are computed here from that definition, raw fitness included, never
through the library's scoring or parsimony code, so a fault in either shows
as a shift of the observed means.  Over the seeds,
z = sum(observed - E) / sqrt(sum variance).

Each seed runs the default world, every setting at its default but the
two fractions.  The seeds, the steps checked and the bound |z| <= 4 were
fixed before the first run and are not to be re-chosen to pass.
"""

import math
from functools import cache
from statistics import fmean

import pytest

from evotropy import RunConfig, build_evolution_config, evolve

SEEDS = range(300)
STEPS = (0, 4)  # each checks the step from generation t to t + 1
BOUND = 4.0


def raw_fitness(member, config):
    """1 / (1 + the summed gaps from each request value to the closest
    attribute value of any agent of `member`)."""
    pool = [value for agent in member for value in config.alphabet[agent]]
    gap = sum(min(abs(wanted - value) for value in pool) for wanted in config.request)
    return 1.0 / (1.0 + gap)


def weight(member, fitness, mean_length, coefficient):
    excess = len(member) - mean_length
    return fitness / (1.0 + coefficient * excess) if excess > 0 else fitness


def replicator_step(members, next_members, config):
    """{statistic: (observed - expected, variance)} of the mean raw fitness
    and the mean length of `next_members`, drawn from `members`."""
    fitness = [raw_fitness(member, config) for member in members]
    mean_length = fmean(map(len, members))
    weights = [
        weight(member, score, mean_length, config.parsimony_coefficient)
        for member, score in zip(members, fitness)
    ]
    total = math.fsum(weights)
    drawn = max(config.population_floor, math.ceil(len(config.alphabet) * mean_length))
    assert len(next_members) == drawn
    values = {
        "fitness": (fitness, [raw_fitness(member, config) for member in next_members]),
        "length": (list(map(len, members)), list(map(len, next_members))),
    }
    moments = {}
    for name, (now, after) in values.items():
        expected = math.fsum(w * x for w, x in zip(weights, now)) / total
        spread = math.fsum(w * (x - expected) ** 2 for w, x in zip(weights, now))
        moments[name] = (fmean(after) - expected, spread / (total * drawn))
    return moments


@cache
def z_scores():
    """{(statistic, t): z} over the seeds, for each step checked."""
    excess, variance = {}, {}
    for seed in SEEDS:
        config = build_evolution_config(
            RunConfig(
                rng_seed=seed,
                crossover_fraction=0.0,
                mutation_fraction=0.0,
                generations=max(STEPS) + 1,
            )
        )
        members = [state.population.members for state, _ in evolve(config)]
        for t in STEPS:
            for name, (shift, spread) in replicator_step(
                members[t], members[t + 1], config
            ).items():
                excess[name, t] = excess.get((name, t), 0.0) + shift
                variance[name, t] = variance.get((name, t), 0.0) + spread
    return {key: excess[key] / math.sqrt(variance[key]) for key in excess}


@pytest.mark.parametrize("statistic", ["fitness", "length"])
def test_mean_follows_the_replicator_step(statistic):
    z = {t: z_scores()[statistic, t] for t in STEPS}
    assert all(abs(value) <= BOUND for value in z.values()), z
