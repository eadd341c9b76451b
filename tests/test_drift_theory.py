"""The nondiscriminating baseline checked against the process it claims to be.

With flat weights the roulette is multinomial sampling with replacement,
so one generation is a Wright-Fisher step.  With mutation off no member
outgrows the initial 5 symbols, so ceil(16 * mean length) stays below the
floor of 160 and N stays at the floor; crossover cuts at 1 or later, so
site 1 of every member is copied unchanged.  The site-1 heterozygosity
H = 1 - sum_a p_a**2 then obeys E[H_t | H_0] = H_0 (1 - 1/N)**t (Wright
1931; Kimura and Crow, Genetics 49:725, 1964).

The seeds, the generations checked and the bound |z| <= 4 were fixed
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
