"""Property tests for the variation and selection operators."""

import math
import random
import sys
from collections import Counter
from statistics import fmean

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from conftest import make_alphabet, make_population
from evotropy import (
    MODES,
    EvolutionConfig,
    EvolutionState,
    Population,
    RunConfig,
    build_evolution_config,
    crossover_pair,
    evolve,
    fitness,
    mutate,
    parsimony_adjusted_fitness,
    rand_below,
    rand_int,
    sample_indices,
    select,
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
        assert all(member in allowed for member in chosen)


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
        # select rejects a subnormal total (TestSelect covers it)
        assume(sum(weights) >= sys.float_info.min)
        rows = [[index % 3] for index in range(len(weights))]
        population = make_population(make_alphabet(3), rows)
        rng, loop_rng = random.Random(seed), random.Random(seed)
        chosen = select(population, weights, target, rng)
        assert chosen == oracle.roulette(loop_rng, population.members, weights, target)
        assert rng.getstate() == loop_rng.getstate()

    @pytest.mark.parametrize("top", [1 - 2**-53, 1.0])
    def test_draw_at_the_top_of_the_wheel_is_clamped_to_the_last_member(self, top):
        class TopRandom:
            def random(self):
                return top

        population = make_population(make_alphabet(3), [[0], [1], [2]])
        weights = [0.5, 0.25, 0.25]
        chosen = select(population, weights, 4, TopRandom())
        assert chosen == oracle.roulette(TopRandom(), population.members, weights, 4)
        assert chosen == [(2,)] * 4


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
            oracle.parsimony(score, length, mean, coefficient)
            for score, length in members
        ]


values = st.integers(min_value=-20, max_value=20)


@st.composite
def worlds(draw):
    pools = draw(
        st.lists(st.lists(values, min_size=1, max_size=4), min_size=2, max_size=8)
    )
    alphabet = make_alphabet(len(pools), [tuple(pool) for pool in pools])
    request = tuple(draw(st.lists(values, min_size=1, max_size=8)))
    return alphabet, request


class TestFitnessMatchesPooledFormula:
    @given(worlds(), st.data())
    def test_equal_for_any_individual(self, world, data):
        alphabet, request = world
        symbols = st.integers(min_value=0, max_value=len(alphabet) - 1)
        individual = tuple(data.draw(st.lists(symbols, min_size=1, max_size=10)))
        assert fitness(individual, request, alphabet) == oracle.pooled_fitness(
            individual, request, alphabet
        )

    @given(worlds(), seeds)
    def test_equal_over_a_seeded_population(self, world, seed):
        alphabet, request = world
        config = EvolutionConfig(
            request=request,
            alphabet=alphabet,
            rng_seed=seed,
            population_floor=len(alphabet) * 4,
            generations=0,
        )
        [(state, stats)] = evolve(config)
        expected = [
            oracle.pooled_fitness(member, request, alphabet)
            for member in state.population.members
        ]
        assert stats.max_fitness == max(expected)
        assert stats.mean_fitness == fmean(expected)


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
        request = tuple(wanted)
        length = data.draw(st.integers(min_value=1, max_value=4))
        symbols = tuple(
            data.draw(st.integers(min_value=0, max_value=len(pools) - 1))
            for _ in range(length)
        )
        score = fitness(symbols, request, alphabet)
        assert 0.0 < score <= 1.0
        pooled = {value for symbol in symbols for value in alphabet[symbol]}
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


@st.composite
def small_configs(draw):
    pool_size = draw(st.integers(min_value=2, max_value=5))
    values = st.integers(min_value=0, max_value=9)
    pools = draw(st.lists(st.tuples(values), min_size=pool_size, max_size=pool_size))
    wanted = draw(st.lists(values, min_size=1, max_size=3))
    fraction = st.floats(min_value=0.0, max_value=1.0)
    return EvolutionConfig(
        request=tuple(wanted),
        alphabet=make_alphabet(pool_size, pools),
        rng_seed=draw(seeds),
        crossover_fraction=draw(fraction),
        mutation_fraction=draw(fraction),
        population_floor=draw(st.integers(min_value=pool_size, max_value=12)),
        generations=draw(st.integers(min_value=1, max_value=4)),
        mode=draw(st.sampled_from(MODES)),
    )


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

    @given(small_configs())
    def test_target_size_dominates_both_terms(self, config):
        # each step selects max(floor, ceil(D * the parents' mean length))
        yielded = [state.population for state, _ in evolve(config)]
        for parents, stepped in zip(yielded, yielded[1:]):
            mean = fmean(map(len, parents.members))
            scaled = math.ceil(len(config.alphabet) * mean)
            assert len(stepped) == max(config.population_floor, scaled)


class TestLoopBuildsValidPopulations:
    @given(small_configs())
    def test_every_yielded_population_passes_the_public_check(self, config):
        # the loop builds its populations unchecked; the constructor must
        # accept each of them as it stands
        for state, _ in evolve(config):
            assert state.population.alphabet_size == len(config.alphabet)
            Population(state.population.members, len(config.alphabet))


class TestLoopMeasuresEveryGeneration:
    @given(small_configs())
    def test_every_row_is_measured(self, config):
        # the floor is never below the pool size, so site 1 always clears
        # the alphabet_size threshold
        for _, stats in evolve(config):
            assert stats.calculable_length >= 1
            assert isinstance(stats.complexity, float)
            assert isinstance(stats.efficiency, float)


@st.composite
def oracle_configs(draw):
    pool_size = draw(st.integers(min_value=2, max_value=8))
    values = st.integers(min_value=0, max_value=9)
    attributes = st.lists(values, min_size=1, max_size=3).map(tuple)
    pools = draw(st.lists(attributes, min_size=pool_size, max_size=pool_size))
    fraction = st.one_of(
        st.sampled_from((0.0, 1.0)), st.floats(min_value=0.0, max_value=1.0)
    )
    floor = st.one_of(
        st.just(pool_size), st.integers(min_value=pool_size + 1, max_value=24)
    )
    return EvolutionConfig(
        request=tuple(draw(st.lists(values, min_size=1, max_size=4))),
        alphabet=pools,
        rng_seed=draw(seeds),
        crossover_fraction=draw(fraction),
        mutation_fraction=draw(fraction),
        parsimony_coefficient=draw(st.sampled_from((0.0, 0.1, 0.5, 2.0))),
        population_floor=draw(floor),
        generations=draw(st.integers(min_value=0, max_value=12)),
        mode=draw(st.sampled_from(MODES)),
    )


MEASURE_FIELDS = ("complexity", "efficiency")


def assert_same_trajectory(config):
    replayed = list(oracle.evolve_naive(config))
    assert len(replayed) == config.generations + 1
    assert_same_rows(list(evolve(config)), replayed)


def assert_same_rows(evolved, replayed):
    # members, the RNG state and every stat but the measure's two floats
    # agree exactly; those agree to 1e-12, as the measure does with the
    # oracle's entropies
    assert len(evolved) == len(replayed)
    for (state, stats), (members, rng_state, expected) in zip(evolved, replayed):
        assert list(state.population.members) == members
        assert state.rng_state == rng_state
        for name, value in expected.items():
            if name in MEASURE_FIELDS:
                assert getattr(stats, name) == pytest.approx(value, abs=1e-12)
            else:
                assert getattr(stats, name) == value, name


class TestLoopMatchesNaiveOracle:
    @settings(deadline=None)
    @given(oracle_configs())
    def test_whole_trajectories_agree(self, config):
        assert_same_trajectory(config)

    @pytest.mark.parametrize("mode", MODES)
    def test_full_length_seed_42_run_agrees(self, mode):
        assert_same_trajectory(
            build_evolution_config(RunConfig(rng_seed=42, mode=mode))
        )

    @settings(deadline=None)
    @given(oracle_configs(), st.data())
    def test_a_resumed_run_continues_the_trajectory(self, config, data):
        # the start is rebuilt from the oracle's own row, so the resumed
        # run has nothing of the first run but what a state stores
        replayed = list(oracle.evolve_naive(config))
        cut = data.draw(st.integers(min_value=0, max_value=config.generations))
        members, rng_state, _ = replayed[cut]
        population = Population(members, len(config.alphabet))
        start = EvolutionState(cut, population, rng_state)
        assert_same_rows(list(evolve(config, start=start)), replayed[cut + 1 :])
