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

Labels follow the draws alone: give each generation-0 member its own
founder label and each survivor the label of the member it was drawn as.
Crossover keeps each position's prefix and mutation keeps the member, so
with both on the founders with descendants at generation t are the
generation-0 ancestors of N lineages traced back t uniform steps.  k
lineages have j distinct parents with the chance that k uniform draws
from N members hit j of them; Kingman's coalescent (Stoch. Proc. Appl.
13:235, 1982) is the large-N limit of this chain.

The seeds, the generations checked and the bounds |z| <= 4 were fixed
before the first run and are not to be re-chosen to pass.
"""

import math
from collections import Counter
from statistics import fmean, stdev

from evotropy import RunConfig, build_evolution_config, evolution, evolve

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


FOUNDER_CHECKED = (10, 50, 100)


def founder_moments(size, checked):
    """{t: (E, Var)} of the founders with descendants after t Wright-Fisher
    steps of `size` members, from the exact lineage-count chain."""
    # occupancy[k][j]: the chance that k uniform draws from `size` hit j members
    occupancy = [[1.0]]
    for _ in range(size):
        row = [0.0] * (len(occupancy) + 1)
        for hit, chance in enumerate(occupancy[-1]):
            row[hit] += chance * hit / size
            row[hit + 1] += chance * (size - hit) / size
        occupancy.append(row)
    lineages = [0.0] * size + [1.0]
    moments = {}
    for t in range(1, max(checked) + 1):
        parents = [0.0] * (size + 1)
        for count, chance in enumerate(lineages):
            if chance:
                for hit, share in enumerate(occupancy[count]):
                    parents[hit] += chance * share
        lineages = parents
        if t in checked:
            mean = math.fsum(j * chance for j, chance in enumerate(lineages))
            square = math.fsum(j * j * chance for j, chance in enumerate(lineages))
            moments[t] = mean, square - mean * mean
    return moments


def founder_counts(seed, draws):
    """{t: founders with descendants} at the checked generations of one
    drift run, crossover and mutation on; `draws` is the list the wrapped
    step appends each step's `drawn` to."""
    config = build_evolution_config(
        RunConfig(
            rng_seed=seed,
            mode="nondiscriminating",
            population_floor=FLOOR,
            generations=max(FOUNDER_CHECKED),
        )
    )
    draws.clear()
    counts = {}
    for state, stats in evolve(config):
        assert len(state.population) == stats.population_size == FLOOR
        if state.generation == 0:
            labels = list(range(FLOOR))
            continue
        assert len(draws) == state.generation
        labels = list(map(labels.__getitem__, draws[-1]))
        if state.generation in FOUNDER_CHECKED:
            counts[state.generation] = len(set(labels))
    return counts


def test_founder_lineages_coalesce_as_wright_fisher_drift(monkeypatch):
    draws = []

    def recording(population, config, rng, raw):
        result = original(population, config, rng, raw)
        draws.append(result[1])
        return result

    original = evolution.step_generation
    monkeypatch.setattr(evolution, "step_generation", recording)
    runs = [founder_counts(seed, draws) for seed in SEEDS]
    moments = founder_moments(FLOOR, (1,) + FOUNDER_CHECKED)
    # one step: N draws from N members hit N (1 - (1 - 1/N)**N) on average
    assert math.isclose(moments[1][0], FLOOR * (1.0 - (1.0 - 1.0 / FLOOR) ** FLOOR))
    z_scores = {}
    for t in FOUNDER_CHECKED:
        mean, variance = moments[t]
        excess = math.fsum(run[t] - mean for run in runs)
        z_scores[t] = excess / math.sqrt(len(runs) * variance)
    assert all(abs(z) <= BOUND for z in z_scores.values()), z_scores
