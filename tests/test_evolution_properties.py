"""Property tests for the variation and selection operators."""

import bisect
import random
from collections import Counter
from statistics import fmean

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from conftest import make_alphabet, make_population
from evotropy import (
    EvolutionConfig,
    Population,
    UserRequest,
    crossover_pair,
    evolve,
    fitness,
    mutate,
    parsimony_adjusted_fitness,
    rand_below,
    rand_int,
    run,
    sample_indices,
    select,
    target_population_size,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def sequence_pairs(draw):
    alphabet_size = draw(st.integers(min_value=2, max_value=6))
    symbols = st.integers(min_value=0, max_value=alphabet_size - 1)
    first = draw(st.lists(symbols, min_size=1, max_size=8))
    second = draw(st.lists(symbols, min_size=1, max_size=8))
    return alphabet_size, tuple(first), tuple(second)


class TestCrossoverInvariants:
    @given(sequence_pairs(), seeds)
    def test_children_are_never_empty(self, pair, seed):
        _, parent1, parent2 = pair
        child1, child2 = crossover_pair(parent1, parent2, random.Random(seed))
        assert len(child1) >= 1
        assert len(child2) >= 1

    @given(sequence_pairs(), seeds)
    def test_total_length_is_conserved(self, pair, seed):
        _, parent1, parent2 = pair
        child1, child2 = crossover_pair(parent1, parent2, random.Random(seed))
        assert len(child1) + len(child2) == len(parent1) + len(parent2)

    @given(sequence_pairs(), seeds)
    def test_symbol_multiset_is_conserved(self, pair, seed):
        _, parent1, parent2 = pair
        child1, child2 = crossover_pair(parent1, parent2, random.Random(seed))
        assert Counter(child1) + Counter(child2) == Counter(parent1) + Counter(parent2)

    @given(sequence_pairs(), seeds)
    def test_lengths_are_swapped_not_invented(self, pair, seed):
        _, parent1, parent2 = pair
        child1, child2 = crossover_pair(parent1, parent2, random.Random(seed))
        assert sorted((len(child1), len(child2))) == sorted(
            (len(parent1), len(parent2))
        )


class TestMutationInvariants:
    @given(sequence_pairs(), seeds)
    def test_exactly_one_edit(self, pair, seed):
        alphabet_size, individual, _ = pair
        alphabet = make_alphabet(alphabet_size)
        mutant = mutate(individual, alphabet, random.Random(seed))
        assert oracle.is_single_edit(list(individual), list(mutant))

    @given(sequence_pairs(), seeds)
    def test_never_empty_and_symbols_stay_in_range(self, pair, seed):
        alphabet_size, individual, _ = pair
        alphabet = make_alphabet(alphabet_size)
        mutant = mutate(individual, alphabet, random.Random(seed))
        assert len(mutant) >= 1
        assert all(0 <= symbol < alphabet_size for symbol in mutant)

    @given(sequence_pairs(), seeds)
    def test_length_changes_by_at_most_one(self, pair, seed):
        alphabet_size, individual, _ = pair
        alphabet = make_alphabet(alphabet_size)
        mutant = mutate(individual, alphabet, random.Random(seed))
        assert abs(len(mutant) - len(individual)) <= 1


class TestSelectionInvariants:
    @given(
        st.integers(min_value=2, max_value=5),
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=30),
        seeds,
    )
    def test_closure_and_size(self, alphabet_size, weights, target, seed):
        rows = [[index % alphabet_size] for index in range(len(weights))]
        population = make_population(make_alphabet(alphabet_size), rows)
        chosen = select(population, weights, target, random.Random(seed))
        assert len(chosen) == target
        allowed = {tuple(row) for row in rows}
        assert all(member in allowed for member in chosen.members)


def loop_select(population, adjusted_fitness, target_size, rng):
    """The roulette as a Python loop: running sum, bisect, clamp with min."""
    members = population.members
    cumulative = []
    running = 0.0
    for value in adjusted_fitness:
        running += value
        cumulative.append(running)
    last = len(members) - 1
    return tuple(
        members[min(bisect.bisect_right(cumulative, rng.random() * running), last)]
        for _ in range(target_size)
    )


class TestSelectMatchesLoop:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=60),
        seeds,
    )
    def test_same_members_and_rng_state(self, weights, target, seed):
        rows = [[index % 3] for index in range(len(weights))]
        population = make_population(make_alphabet(3), rows)
        rng, loop_rng = random.Random(seed), random.Random(seed)
        chosen = select(population, weights, target, rng)
        assert chosen.members == loop_select(population, weights, target, loop_rng)
        assert rng.getstate() == loop_rng.getstate()

    @pytest.mark.parametrize("top", [1 - 2**-53, 1.0])
    def test_draw_at_the_top_of_the_wheel_is_clamped_to_the_last_member(self, top):
        class TopRandom:
            def random(self):
                return top

        population = make_population(make_alphabet(3), [[0], [1], [2]])
        weights = [0.5, 0.25, 0.25]
        chosen = select(population, weights, 4, TopRandom())
        assert chosen.members == loop_select(population, weights, 4, TopRandom())
        assert list(chosen.members) == [(2,)] * 4


def scalar_parsimony(raw, length, mean_length, coefficient):
    """The one-member parsimony formula, applied member by member."""
    excess = max(0.0, length - mean_length)
    return raw / (1.0 + coefficient * excess)


class TestParsimonyMatchesScalarFormula:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-300, max_value=1.0),
                st.integers(min_value=1, max_value=400),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=1.0, max_value=400.0),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_equal_lists(self, members, mean, coefficient):
        raw = [score for score, _ in members]
        lengths = [length for _, length in members]
        assert parsimony_adjusted_fitness(raw, lengths, mean, coefficient) == [
            scalar_parsimony(score, length, mean, coefficient)
            for score, length in members
        ]


def pooled_fitness(individual, request, alphabet):
    """The pooled-attribute formula, scanning every pooled value per request value."""
    pool = [
        value
        for symbol in individual
        for value in alphabet.agents[symbol].attributes
    ]
    total_gap = 0
    for wanted in request.required:
        total_gap += min(abs(wanted - value) for value in pool)
    return 1.0 / (1.0 + total_gap)


values = st.integers(min_value=-20, max_value=20)


@st.composite
def worlds(draw):
    pools = draw(
        st.lists(st.lists(values, min_size=1, max_size=4), min_size=2, max_size=8)
    )
    alphabet = make_alphabet(len(pools), [tuple(pool) for pool in pools])
    request = UserRequest(tuple(draw(st.lists(values, min_size=1, max_size=8))))
    return alphabet, request


class TestFitnessMatchesPooledFormula:
    @given(worlds(), st.data())
    def test_equal_for_any_individual(self, world, data):
        alphabet, request = world
        symbols = st.integers(min_value=0, max_value=alphabet.size - 1)
        individual = tuple(data.draw(st.lists(symbols, min_size=1, max_size=10)))
        assert fitness(individual, request, alphabet) == pooled_fitness(
            individual, request, alphabet
        )

    @given(worlds(), seeds)
    def test_equal_over_a_seeded_population(self, world, seed):
        alphabet, request = world
        config = EvolutionConfig(
            request=request,
            alphabet=alphabet,
            rng_seed=seed,
            population_floor=alphabet.size * 4,
            generations=0,
        )
        stats, state, _ = run(config)
        expected = [
            pooled_fitness(member, request, alphabet)
            for member in state.population.members
        ]
        assert stats[0].max_fitness == max(expected)
        assert stats[0].mean_fitness == fmean(expected)


class TestFitnessInvariants:
    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
            min_size=2,
            max_size=6,
        ),
        st.data(),
    )
    def test_positive_bounded_and_exact_iff_covered(self, wanted, pools, data):
        alphabet = make_alphabet(len(pools), [tuple(pool) for pool in pools])
        request = UserRequest(tuple(wanted))
        length = data.draw(st.integers(min_value=1, max_value=4))
        symbols = tuple(
            data.draw(st.integers(min_value=0, max_value=len(pools) - 1))
            for _ in range(length)
        )
        score = fitness(symbols, request, alphabet)
        assert 0.0 < score <= 1.0
        pooled = {
            value for symbol in symbols for value in alphabet.agents[symbol].attributes
        }
        covered = all(value in pooled for value in wanted)
        assert (score == 1.0) == covered

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=1.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_parsimony_never_raises_fitness(self, raw, length, mean, coefficient):
        [adjusted] = parsimony_adjusted_fitness([raw], [length], mean, coefficient)
        assert 0.0 < adjusted <= raw
        if length <= mean:
            assert adjusted == raw


class TestHelperInvariants:
    @given(st.integers(min_value=1, max_value=1000), seeds)
    def test_rand_below_range(self, n, seed):
        assert 0 <= rand_below(random.Random(seed), n) < n

    @given(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=0, max_value=100),
        seeds,
    )
    def test_rand_int_range(self, low, span, seed):
        value = rand_int(random.Random(seed), low, low + span)
        assert low <= value <= low + span

    @given(st.integers(min_value=0, max_value=40), st.data(), seeds)
    def test_sample_indices_distinct(self, n, data, seed):
        k = data.draw(st.integers(min_value=0, max_value=n))
        picks = sample_indices(random.Random(seed), n, k)
        assert len(picks) == k
        assert len(set(picks)) == k
        assert all(0 <= index < n for index in picks)

    @given(
        st.floats(min_value=1.0, max_value=50.0),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=500),
    )
    def test_target_size_dominates_both_terms(self, mean, alphabet_size, floor):
        import math

        target = target_population_size(mean, alphabet_size, floor)
        assert target >= floor
        assert target >= math.ceil(alphabet_size * mean)
        assert target == max(floor, math.ceil(alphabet_size * mean))


@st.composite
def small_configs(draw):
    pool_size = draw(st.integers(min_value=2, max_value=5))
    values = st.integers(min_value=0, max_value=9)
    pools = draw(st.lists(st.tuples(values), min_size=pool_size, max_size=pool_size))
    wanted = draw(st.lists(values, min_size=1, max_size=3))
    fraction = st.floats(min_value=0.0, max_value=1.0)
    return EvolutionConfig(
        request=UserRequest(tuple(wanted)),
        alphabet=make_alphabet(pool_size, pools),
        rng_seed=draw(seeds),
        crossover_fraction=draw(fraction),
        mutation_fraction=draw(fraction),
        population_floor=draw(st.integers(min_value=pool_size, max_value=12)),
        generations=draw(st.integers(min_value=1, max_value=4)),
        discriminating=draw(st.booleans()),
    )


class TestLoopBuildsValidPopulations:
    @given(small_configs())
    def test_every_yielded_population_passes_the_public_check(self, config):
        # the loop builds its populations unchecked; the constructor must
        # accept each of them as it stands
        for state, _ in evolve(config):
            assert state.population.alphabet_size == config.alphabet.size
            Population(state.population.members, config.alphabet.size)


class TestLoopMeasuresEveryGeneration:
    @given(small_configs())
    def test_every_row_is_measured(self, config):
        # the floor is never below the pool size, so site 1 always clears
        # the alphabet_size threshold
        for _, stats in evolve(config):
            assert stats.calculable_length >= 1
            assert isinstance(stats.complexity, float)
            assert isinstance(stats.efficiency, float)
