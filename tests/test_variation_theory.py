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

With crossover off and f = 1, every survivor is mutated exactly once and
in place, independently of the others.  Take one of length L over D
agents, with site-1 symbol a and, for L >= 2, site-2 symbol b.  An insert
lands at the front with probability i = (1/3) / (L + 1) and draws its
symbol uniformly from all D agents; a replace hits site 1 with
probability r = (1/3) / L and draws from the other D - 1; a delete hits
it with probability d = (1/3) / L and moves b to the front.  For L = 1
the delete is a replace, so r = 2/3 and d = 0.  Then

    P(site 1 changes) = i * (D - 1) / D + r + d * [b != a],

and, for c the survivors' commonest site-1 symbol (the smallest id on a
tie), P(site 1 is c) = 1 - P(site 1 changes) when a = c, and
i / D + r / (D - 1) + d * [b = c] otherwise.  The number of members whose
site 1 changed and the number whose site 1 is c are each a sum of
independent indicators: E = sum p, Var = sum p * (1 - p).

S is read off a twin run with both fractions 0: sample_indices draws
nothing for 0, so the twin consumes the same random() calls up to
variation and its generation 1 is S itself.  Every expectation is
computed here from the definition, never through `mutate`, so a fault in
it shows as a shift of the observed count.  Over the seeds,
z = sum(observed - E) / sqrt(sum Var).

Each seed runs the default world, every setting at its default but the
mode and the two fractions.  The seeds, the step checked (0 -> 1) and the
bound |z| <= 4 were fixed before the first run and are not to be
re-chosen to pass.
"""

import math
from collections import Counter

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


def z_score(runs):
    """sum(observed - E) / sqrt(sum Var) over (observed - E, Var) pairs."""
    excesses, variances = zip(*runs)
    return math.fsum(excesses) / math.sqrt(math.fsum(variances))


@pytest.mark.parametrize(
    "crossover_fraction, mutation_fraction",
    [(RunConfig.crossover_fraction, RunConfig.mutation_fraction), (0.0, 1.0)],
)
@pytest.mark.parametrize("mode", MODES)
def test_total_length_changes_as_point_mutation_predicts(
    mode, crossover_fraction, mutation_fraction
):
    z = z_score(
        length_change(seed, mode, crossover_fraction, mutation_fraction)
        for seed in SEEDS
    )
    assert abs(z) <= BOUND, z


def site_1_counts(seed, mode):
    """(observed - expected, variance) of the members whose site 1
    changed and of those whose site 1 is the survivors' commonest
    symbol, over one seed's step 0 -> 1 with every survivor mutated once
    and crossover off."""
    survivors = generation_1(seed, mode, 0.0, 0.0)
    varied = generation_1(seed, mode, 0.0, 1.0)
    assert len(varied) == len(survivors)
    agents = RunConfig.pool_size
    firsts = Counter(member[0] for member in survivors)
    common = min(firsts, key=lambda symbol: (-firsts[symbol], symbol))
    changes, commons = [], []
    for member in survivors:
        length, first = len(member), member[0]
        insert = (1 / 3) / (length + 1)
        if length == 1:
            replace, delete, second = 2 / 3, 0.0, None
        else:
            replace = delete = (1 / 3) / length
            second = member[1]
        changed = insert * (agents - 1) / agents + replace + delete * (second != first)
        changes.append(changed)
        if first == common:
            commons.append(1 - changed)
        else:
            commons.append(
                insert / agents + replace / (agents - 1) + delete * (second == common)
            )
    observed_changes = sum(a[0] != b[0] for a, b in zip(survivors, varied))
    observed_commons = sum(member[0] == common for member in varied)
    return [
        (observed - math.fsum(chances), math.fsum(p * (1 - p) for p in chances))
        for observed, chances in (
            (observed_changes, changes),
            (observed_commons, commons),
        )
    ]


@pytest.mark.parametrize("mode", MODES)
def test_site_1_changes_as_point_mutation_predicts(mode):
    changes, commons = zip(*(site_1_counts(seed, mode) for seed in SEEDS))
    z = {"changes": z_score(changes), "commonest": z_score(commons)}
    assert all(abs(value) <= BOUND for value in z.values()), z
