"""The nondiscriminating baseline checked against the process it claims to be.

Each survivor is a uniform draw with replacement from the parents
(rand_below, one random() call per draw), so one generation is a
Wright-Fisher step.  With mutation off no member outgrows the initial 5
symbols, so ceil(16 * mean length) stays below the floor of 160 and N
stays at the floor; crossover cuts at 1 or later, so site 1 of every
member is copied unchanged.  The site-1 heterozygosity
H = 1 - sum_a p_a**2 then obeys E[H_t | H_0] = H_0 (1 - 1/N)**t (Wright
1931; Kimura and Crow, Genetics 49:725, 1964).

Since each draw picks a member uniformly, a site-1 symbol's expected
share among the next generation's members is its share now, whatever
size the population takes: the share is a martingale.  An
agent that stays at site 1 alone is fixed there, and it fixes with
probability its initial share (Kimura, Genetics 47:713, 1962).  This holds
in a small world too, where N = max(8, ceil(8 * mean length)) moves with
the mean length.

The seeds, the generations checked and the bounds |z| <= 4 were fixed
before the first run and are not to be re-chosen to pass.
"""

import math
from collections import Counter
from statistics import fmean, stdev

from evotropy import RunConfig, build_evolution_config, evolve

SEEDS = range(300)
FLOOR = 160
CHECKED = (10, 25, 50)
BOUND = 4.0


def site_1_heterozygosity(population):
    counts = Counter(member[0] for member in population.members)
    size = len(population)
    return 1.0 - sum((count / size) ** 2 for count in counts.values())


def heterozygosity_ratios(seed):
    """{t: H_t / H_0} at the checked generations of one drift run."""
    config = build_evolution_config(
        RunConfig(
            rng_seed=seed,
            mode="nondiscriminating",
            crossover_fraction=0.0,
            mutation_fraction=0.0,
            population_floor=FLOOR,
            generations=max(CHECKED),
        )
    )
    ratios = {}
    for state, stats in evolve(config):
        assert len(state.population) == stats.population_size == FLOOR
        if state.generation == 0:
            initial = site_1_heterozygosity(state.population)
        elif state.generation in CHECKED:
            ratios[state.generation] = site_1_heterozygosity(state.population) / initial
    return ratios


def test_site_1_heterozygosity_decays_as_wright_fisher_drift():
    runs = [heterozygosity_ratios(seed) for seed in SEEDS]
    z_scores = {}
    for t in CHECKED:
        ratios = [run[t] for run in runs]
        expected = (1.0 - 1.0 / FLOOR) ** t
        standard_error = stdev(ratios) / math.sqrt(len(ratios))
        z_scores[t] = (fmean(ratios) - expected) / standard_error
    assert all(abs(z) <= BOUND for z in z_scores.values()), z_scores


FIXATION_SEEDS = range(2000)
FIXATION_POOL = 8


def site_1_fixation(seed):
    """(p, X) of one drift run: agent 0's share of site 1 at generation 0,
    and 1 if agent 0 is the agent site 1 fixes on, else 0."""
    config = build_evolution_config(
        RunConfig(
            rng_seed=seed,
            mode="nondiscriminating",
            crossover_fraction=0.0,
            mutation_fraction=0.0,
            pool_size=FIXATION_POOL,
            population_floor=FIXATION_POOL,
            generations=5000,
        )
    )
    for state, _ in evolve(config):
        counts = Counter(member[0] for member in state.population.members)
        if state.generation == 0:
            initial = counts[0] / len(state.population)
        if len(counts) == 1:
            return initial, int(0 in counts)
    raise AssertionError(f"seed {seed}: site 1 is not fixed by the last generation")


def test_an_agent_fixes_at_site_1_with_its_initial_share():
    runs = [site_1_fixation(seed) for seed in FIXATION_SEEDS]
    excess = math.fsum(fixed - share for share, fixed in runs)
    variance = math.fsum(share * (1.0 - share) for share, _ in runs)
    z = excess / math.sqrt(variance)
    assert abs(z) <= BOUND, z
