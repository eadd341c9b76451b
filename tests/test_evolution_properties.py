"""Property tests for the variation and selection operators."""

import functools
import math
import random
import sys
from collections import Counter
from functools import reduce
from operator import or_
from statistics import fmean
from unittest import mock

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
    evolution,
    evolve,
    fitness,
    mutate,
    parsimony_adjusted_fitness,
    physical_complexity_variable,
    rand_below,
    rand_int,
    sample_indices,
    select,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TopRandom:
    """A Random stand-in whose every draw is `top`, the top of the unit interval."""

    def __init__(self, top):
        self.top = top

    def random(self):
        return self.top


@functools.cache
def one_symbol_population(n):
    """A population of n members (0,); each size is built once per session."""
    return Population._trusted(((0,),) * n, 2)


@st.composite
def sequence_pairs(draw):
    alphabet_size = draw(st.integers(min_value=2, max_value=6))
    symbols = st.integers(min_value=0, max_value=alphabet_size - 1)
    first = draw(st.lists(symbols, min_size=1, max_size=8))
    second = draw(st.lists(symbols, min_size=1, max_size=8))
    return alphabet_size, tuple(first), tuple(second)


@st.composite
def measurable_populations(draw):
    """An alphabet size and at least as many rows, which the measure reports on."""
    alphabet_size = draw(st.integers(min_value=2, max_value=8))
    symbols = st.integers(min_value=0, max_value=alphabet_size - 1)
    row = st.lists(symbols, min_size=1, max_size=12).map(tuple)
    return alphabet_size, draw(st.lists(row, min_size=alphabet_size, max_size=40))


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

    @given(sequence_pairs(), seeds)
    def test_each_site_keeps_its_symbol_counts(self, pair, seed):
        # the cut is shared, so each tail moves at the same site indices
        _, parent1, parent2 = pair
        children = crossover_pair(parent1, parent2, random.Random(seed))

        def site_counts(members):
            return Counter(
                (site, symbol) for member in members for site, symbol in enumerate(member)
            )

        assert site_counts(children) == site_counts((parent1, parent2))

    @given(measurable_populations(), seeds)
    def test_crossing_disjoint_pairs_leaves_the_measure_equal(self, world, seed):
        alphabet_size, rows = world
        rng = random.Random(seed)
        order = list(range(len(rows)))
        rng.shuffle(order)
        crossed = list(rows)
        for first, second in zip(order[::2], order[1::2]):
            crossed[first], crossed[second] = crossover_pair(
                rows[first], rows[second], rng
            )
        before = physical_complexity_variable(Population.from_rows(alphabet_size, rows))
        after = physical_complexity_variable(Population.from_rows(alphabet_size, crossed))
        assert after == before


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
        assert set(chosen) <= set(range(len(rows)))


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
        members = population.members
        chosen = [members[i] for i in select(population, weights, target, rng)]
        assert chosen == oracle.roulette(loop_rng, members, weights, target)
        assert rng.getstate() == loop_rng.getstate()

    @pytest.mark.parametrize("top", [1 - 2**-53, 1.0])
    def test_draw_at_the_top_of_the_wheel_is_clamped_to_the_last_member(self, top):
        population = make_population(make_alphabet(3), [[0], [1], [2]])
        weights = [0.5, 0.25, 0.25]
        chosen = select(population, weights, 4, TopRandom(top))
        assert chosen == [2] * 4
        members = oracle.roulette(TopRandom(top), population.members, weights, 4)
        assert members == [(2,)] * 4


class TestFlatWheelMatchesRandBelow:
    """A wheel of flat weights draws as rand_below does, index for index.

    Its running sums are the integers 1.0 .. n, exact below 2**53, so the
    bisection of draw * n lands on min(int(draw * n), n - 1): the
    nondiscriminating step draws its survivors with rand_below and no wheel.
    """

    @staticmethod
    def assert_same_draws(n, target, seed):
        population = one_symbol_population(n)
        rng, below_rng = random.Random(seed), random.Random(seed)
        chosen = select(population, [1.0] * n, target, rng)
        assert chosen == [rand_below(below_rng, n) for _ in range(target)]
        assert rng.getstate() == below_rng.getstate()

    @given(
        st.integers(min_value=1, max_value=5_000),
        st.integers(min_value=1, max_value=200),
        seeds,
    )
    def test_same_indices_and_rng_state(self, n, target, seed):
        self.assert_same_draws(n, target, seed)

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1])
    def test_same_indices_and_rng_state_around_a_power_of_two(self, n):
        self.assert_same_draws(n, 4_096, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 2**16 + 1])
    @pytest.mark.parametrize("top", [1 - 2**-53, 1.0])
    def test_draw_at_the_top_is_clamped_to_the_last_index(self, n, top):
        chosen = select(one_symbol_population(n), [1.0] * n, 4, TopRandom(top))
        below = TopRandom(top)
        assert chosen == [rand_below(below, n) for _ in range(4)] == [n - 1] * 4


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


huge = st.integers(min_value=-(10**30), max_value=10**30)


@st.composite
def coded_worlds(draw):
    """A config whose agents and request draw on a few huge values, so
    that gaps tie, and members over its agents, each single agent first."""
    palette = st.sampled_from(draw(st.lists(huge, min_size=1, max_size=4)))
    pools = draw(
        st.lists(st.lists(palette, min_size=1, max_size=3), min_size=2, max_size=6)
    )
    request = draw(st.lists(palette | huge, min_size=1, max_size=5))
    config = EvolutionConfig(request=request, alphabet=pools, rng_seed=0)
    symbols = st.integers(min_value=0, max_value=len(pools) - 1)
    drawn = draw(st.lists(st.lists(symbols, min_size=1, max_size=6), max_size=12))
    return config, [(agent,) for agent in range(len(pools))] + list(map(tuple, drawn))


def tables(config):
    """The gap table of a config's world and its agents' coverage codes."""
    gaps = evolution._gap_table(config.request, config.alphabet)
    return gaps, evolution._coverage_codes(gaps)


def code_of(codes, agents):
    return reduce(or_, map(codes.__getitem__, agents))


class TestCoverageCodes:
    @given(coded_worlds())
    def test_equal_codes_mean_equal_profiles_and_scores(self, world):
        config, members = world
        gaps, codes = tables(config)
        profiles, scores = {}, {}
        for symbols in members:
            code = code_of(codes, symbols)
            # the closest gap to each request value over the member's agents
            rows = [gaps[agent] for agent in symbols]
            profile = tuple(map(min, rows[0], *rows))
            assert profiles.setdefault(code, profile) == profile
            score = evolution._score(symbols, gaps)
            assert scores.setdefault(code, score) == score
        assert len(set(profiles.values())) == len(profiles)

    @given(coded_worlds(), st.data())
    def test_a_code_is_that_of_the_distinct_agents_in_any_order(self, world, data):
        config, members = world
        _, codes = tables(config)
        for symbols in members:
            agents = data.draw(st.permutations(sorted(set(symbols))))
            assert code_of(codes, agents) == code_of(codes, symbols)

    @given(
        coded_worlds(),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from(MODES),
        seeds,
    )
    def test_each_step_hands_on_the_fitness_of_every_member(
        self, world, crossover, mutation, mode, seed
    ):
        # the world's members hold every single agent, so crossover meets
        # length-1 parents that it passes through
        config, members = world
        config = EvolutionConfig(
            request=config.request,
            alphabet=config.alphabet,
            rng_seed=seed,
            crossover_fraction=crossover,
            mutation_fraction=mutation,
            population_floor=len(members),
            generations=3,
            mode=mode,
        )
        population = Population(members, len(config.alphabet))
        start = EvolutionState(0, population, random.Random(seed).getstate())
        # the (population, raw fitness) pairs each step was handed, and
        # those evolve carried after scoring each population, the last included
        handed, carried = [], []

        def recording(population, config, rng, raw):
            handed.append((population.members, raw))
            return original(population, config, rng, raw)

        def rescoring(raw, members, positions, codes, gaps, known):
            table = original_rescore(raw, members, positions, codes, gaps, known)
            carried.append((members, raw))
            return table

        original, original_rescore = evolution.step_generation, evolution._rescore
        with mock.patch.object(evolution, "step_generation", recording):
            with mock.patch.object(evolution, "_rescore", rescoring):
                list(evolve(config, start=start))
        assert len(handed) == config.generations
        assert len(carried) == config.generations + 1
        # each step is handed the very list evolve carried for its parents
        for (members, raw), (scored, kept) in zip(handed, carried):
            assert members is scored and raw is kept
        for members, raw in carried:
            assert raw == [
                fitness(symbols, config.request, config.alphabet) for symbols in members
            ]


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

    @given(
        st.integers(min_value=2, max_value=40), st.data(), st.sampled_from(MODES), seeds
    )
    def test_generation_0_is_what_the_checked_constructor_builds(
        self, pool_size, data, mode, seed
    ):
        floor = data.draw(st.integers(min_value=pool_size, max_value=200))
        config = EvolutionConfig(
            request=(0,),
            alphabet=make_alphabet(pool_size),
            rng_seed=seed,
            population_floor=floor,
            generations=0,
            mode=mode,
        )
        [(state, _)] = evolve(config)
        population = state.population
        assert population == Population(population.members, pool_size)
        assert len(population) == floor
        low, high = evolution.INITIAL_LENGTH_RANGE
        for member in population.members:
            assert type(member) is tuple
            assert low <= len(member) <= high
            assert all(type(symbol) is int for symbol in member)
            assert all(0 <= symbol < pool_size for symbol in member)


class TestStepReportsItsDraws:
    @given(small_configs())
    def test_unchanged_positions_hold_the_member_they_were_drawn_as(self, config):
        # evolve carries raw fitness by `drawn` and rescores only `changed`
        steps = []

        def recording(population, config, rng, raw):
            result = original(population, config, rng, raw)
            steps.append((population, *result))
            return result

        original = evolution.step_generation
        with mock.patch.object(evolution, "step_generation", recording):
            list(evolve(config))
        assert len(steps) == config.generations
        for parents, made, drawn, changed in steps:
            assert len(drawn) == len(made)
            assert all(0 <= i < len(parents) for i in drawn)
            assert all(0 <= i < len(made) for i in changed)
            for i in set(range(len(made))) - set(changed):
                assert made.members[i] == parents.members[drawn[i]]


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
