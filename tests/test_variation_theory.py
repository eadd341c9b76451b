"""The variation half of the step checked against its documented definition.

A step draws its survivors S (N' members), crosses a random even-sized
slice of them, then applies one point mutation to each of m = int(f * N')
positions drawn without replacement.  A mutation inserts, replaces or
deletes with probability 1/3 each; a delete from a length-1 member is
replaced instead.  So a mutated member of length 1 grows by 1 with
probability 1/3 and otherwise keeps its length (mean 1/3, variance 2/9),
and a longer one grows or shrinks by 1 with probability 1/3 each (mean 0,
variance 2/3).  Crossover at a shared cut swaps the lengths of a pair's
children, so it keeps the number K of length-1 members.  The change in
total length from S to the next generation then has, given S,

    E = (m / N') * K / 3
    Var = (m / N') * (2/3 * (N' - K) + 2/9 * K)
          + (1/9) * m * (K / N') * (1 - K / N') * (N' - m) / (N' - 1),

the second term the hypergeometric spread of the number of length-1
members among the m positions.

S is read off a twin run with both fractions 0: sample_indices draws
nothing for 0, so the twin consumes the same random() calls up to
variation and its generation 1 is S itself.  Both are computed here from
the definition, never through `mutate`, so a fault in it shows as a shift
of the observed change.  Over the seeds, z = sum(observed - E) /
sqrt(sum Var).

Each seed runs the default world, every setting at its default but the
mode and the two fractions.  The seeds, the step checked (0 -> 1) and the
bound |z| <= 4 were fixed before the first run and are not to be
re-chosen to pass.
"""

import math

import pytest

from evotropy import MODES, RunConfig, build_evolution_config, evolve

SEEDS = range(300)
BOUND = 4.0


def generation_1(seed, mode, crossover_fraction, mutation_fraction):
    config = build_evolution_config(
        RunConfig(
            rng_seed=seed,
            mode=mode,
            generations=1,
            crossover_fraction=crossover_fraction,
            mutation_fraction=mutation_fraction,
        )
    )
    *_, (state, _) = evolve(config)
    return state.population.members


def length_change(seed, mode, crossover_fraction, mutation_fraction):
    """(observed - expected, variance) of the change in total length over
    the variation half of one seed's step 0 -> 1."""
    survivors = generation_1(seed, mode, 0.0, 0.0)
    varied = generation_1(seed, mode, crossover_fraction, mutation_fraction)
    size = len(survivors)
    assert len(varied) == size
    ones = sum(len(member) == 1 for member in survivors)
    mutated = int(mutation_fraction * size)
    share = mutated / size
    expected = share * ones / 3
    variance = share * (2 / 3 * (size - ones) + 2 / 9 * ones) + (1 / 9) * mutated * (
        ones / size
    ) * (1 - ones / size) * (size - mutated) / (size - 1)
    observed = sum(map(len, varied)) - sum(map(len, survivors))
    return observed - expected, variance


@pytest.mark.parametrize(
    "crossover_fraction, mutation_fraction",
    [(RunConfig.crossover_fraction, RunConfig.mutation_fraction), (0.0, 1.0)],
)
@pytest.mark.parametrize("mode", MODES)
def test_total_length_changes_as_point_mutation_predicts(
    mode, crossover_fraction, mutation_fraction
):
    runs = [
        length_change(seed, mode, crossover_fraction, mutation_fraction)
        for seed in SEEDS
    ]
    z = math.fsum(excess for excess, _ in runs) / math.sqrt(
        math.fsum(variance for _, variance in runs)
    )
    assert abs(z) <= BOUND, z
