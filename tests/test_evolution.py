import copy
import math
import pickle
import random
import sys
from collections import Counter
from functools import reduce
from operator import or_

import pytest

import oracle
from conftest import make_alphabet, make_population
from evotropy import (
    INITIAL_LENGTH_RANGE,
    ConfigError,
    EvolutionConfig,
    EvolutionState,
    GenerationStats,
    Population,
    UnmeasurablePopulationError,
    crossover_pair,
    evolution,
    evolve,
    fitness,
    mutate,
    parsimony_adjusted_fitness,
    physical_complexity_variable,
    rand_below,
    rand_int,
    RunConfig,
    run_experiment,
    sample_indices,
    select,
)


def symbol_rows(population):
    return [list(member) for member in population.members]


class TestRandomHelpers:
    def test_rand_below_stays_in_range(self):
        rng = random.Random(1)
        values = [rand_below(rng, 7) for _ in range(2000)]
        assert set(values) <= set(range(7))
        assert set(values) == set(range(7))

    def test_rand_below_one_is_always_zero(self):
        rng = random.Random(2)
        assert all(rand_below(rng, 1) == 0 for _ in range(50))

    def test_rand_below_rejects_empty_range(self):
        with pytest.raises(ValueError):
            rand_below(random.Random(0), 0)

    def test_rand_int_is_inclusive_on_both_ends(self):
        rng = random.Random(3)
        values = [rand_int(rng, 2, 4) for _ in range(1000)]
        assert set(values) == {2, 3, 4}

    def test_rand_int_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            rand_int(random.Random(0), 5, 4)

    def test_sample_indices_are_distinct_and_in_range(self):
        rng = random.Random(4)
        for _ in range(200):
            picks = sample_indices(rng, 10, 4)
            assert len(picks) == 4
            assert len(set(picks)) == 4
            assert all(0 <= index < 10 for index in picks)

    def test_sample_indices_can_take_everything_or_nothing(self):
        rng = random.Random(5)
        assert sorted(sample_indices(rng, 6, 6)) == list(range(6))
        assert sample_indices(rng, 6, 0) == []

    def test_sample_indices_rejects_overdraw(self):
        with pytest.raises(ValueError):
            sample_indices(random.Random(0), 3, 4)

    def test_helpers_are_deterministic(self):
        a, b = random.Random(99), random.Random(99)
        assert [rand_below(a, 12) for _ in range(100)] == [
            rand_below(b, 12) for _ in range(100)
        ]


class TestFitness:
    def test_exact_coverage_scores_one(self):
        alphabet = make_alphabet(2, [(3,), (5,)])
        individual = (0, 1)
        assert fitness(individual, (3, 5), alphabet) == 1.0

    def test_single_gap_of_two(self):
        alphabet = make_alphabet(2, [(6,), (6,)])
        individual = (0,)
        assert fitness(individual, (4,), alphabet) == pytest.approx(1.0 / 3.0)

    def test_gaps_sum_across_request_values(self):
        alphabet = make_alphabet(2, [(2,), (9,)])
        individual = (0, 1)
        # 2 matched exactly, 7 is 2 away from 9
        assert fitness(individual, (2, 7), alphabet) == pytest.approx(1.0 / 3.0)

    def test_attributes_pool_across_agents(self):
        alphabet = make_alphabet(2, [(1, 8), (4,)])
        individual = (0,)
        # the second attribute of agent 0 covers 8 without agent 1
        assert fitness(individual, (8,), alphabet) == 1.0

    def test_duplicate_agents_do_not_change_the_score(self):
        alphabet = make_alphabet(2, [(3,), (5,)])
        once = fitness((0,), (4,), alphabet)
        thrice = fitness((0, 0, 0), (4,), alphabet)
        assert once == thrice

    @pytest.mark.parametrize(
        "symbols, message",
        [
            ((-1,), "^symbol -1 is not a valid agent id for an alphabet of size 2$"),
            ((), "^agent sequence must be non-empty$"),
            ((2,), "^symbol 2 is not a valid agent id for an alphabet of size 2$"),
            (("0",), "^symbol '0' is not a valid agent id for an alphabet of size 2$"),
        ],
    )
    def test_a_run_it_cannot_score_is_refused(self, symbols, message):
        with pytest.raises(ValueError, match=message):
            fitness(symbols, (1,), ((1,), (2,)))

    def test_a_valid_run_scores_as_before(self):
        # agent 1 alone leaves a gap of 1 to the request
        assert fitness((1,), (1,), ((1,), (2,))) == 0.5


class TestParsimony:
    def test_long_member_is_penalised(self):
        assert parsimony_adjusted_fitness([0.8], [7], 5.0, 0.1) == pytest.approx(
            [0.6666666666666667], abs=1e-12
        )

    def test_at_mean_length_is_untouched(self):
        assert parsimony_adjusted_fitness([0.8], [5], 5.0, 0.1) == [0.8]

    def test_below_mean_length_is_untouched(self):
        assert parsimony_adjusted_fitness([0.8], [2], 5.0, 0.1) == [0.8]

    def test_zero_coefficient_disables_the_penalty(self):
        assert parsimony_adjusted_fitness([0.5], [30], 2.0, 0.0) == [0.5]

    def test_result_stays_positive(self):
        assert parsimony_adjusted_fitness([1e-6], [1000], 1.0, 10.0)[0] > 0.0

    def test_rejects_nonpositive_raw(self):
        with pytest.raises(ValueError):
            parsimony_adjusted_fitness([0.0], [3], 3.0, 0.1)

    def test_rejects_negative_coefficient(self):
        with pytest.raises(ValueError):
            parsimony_adjusted_fitness([0.5], [3], 3.0, -0.1)

    @pytest.mark.parametrize("coefficient", [math.nan, math.inf])
    def test_rejects_non_finite_coefficient(self, coefficient):
        with pytest.raises(ValueError):
            parsimony_adjusted_fitness([0.5], [3], 3.0, coefficient)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            parsimony_adjusted_fitness([0.5, 0.5], [3], 3.0, 0.1)


class TestSelect:
    def test_overwhelming_weight_dominates(self, alphabet2):
        population = make_population(alphabet2, [[0, 0], [1, 1]])
        chosen = select(population, [0.9, 1e-9], 100, random.Random(7))
        assert chosen.count(0) >= 95

    def test_uniform_weights_are_roughly_even(self, alphabet2):
        population = make_population(alphabet2, [[0], [1]])
        chosen = select(population, [1.0, 1.0], 10000, random.Random(8))
        # 3 sigma around 5000 for a fair coin over 10000 draws
        assert abs(chosen.count(0) - 5000) < 150

    def test_reaches_requested_size_with_replacement(self, alphabet2):
        population = make_population(alphabet2, [[0], [1]])
        chosen = select(population, [1.0, 1.0], 9, random.Random(9))
        assert len(chosen) == 9

    def test_output_members_come_from_the_input(self, alphabet3):
        rows = [[0, 1], [2], [1, 1, 0]]
        population = make_population(alphabet3, rows)
        chosen = select(population, [0.3, 0.5, 0.2], 20, random.Random(10))
        # each draw is the index of the member it landed on
        assert all(type(draw) is int for draw in chosen)
        assert set(chosen) <= set(range(len(rows)))

    def test_same_seed_means_same_outcome(self, alphabet2):
        population = make_population(alphabet2, [[0], [1], [0, 1]])
        first = select(population, [0.2, 0.3, 0.5], 50, random.Random(11))
        second = select(population, [0.2, 0.3, 0.5], 50, random.Random(11))
        assert first == second

    def test_rejects_mismatched_weights(self, alphabet2):
        population = make_population(alphabet2, [[0], [1]])
        with pytest.raises(ValueError):
            select(population, [1.0], 5, random.Random(0))

    def test_rejects_nonpositive_weights(self, alphabet2):
        population = make_population(alphabet2, [[0], [1]])
        with pytest.raises(ValueError):
            select(population, [1.0, 0.0], 5, random.Random(0))

    def test_rejects_nonpositive_target(self, alphabet2):
        population = make_population(alphabet2, [[0], [1]])
        with pytest.raises(ValueError):
            select(population, [1.0, 1.0], 0, random.Random(0))

    @pytest.mark.parametrize(
        "weights",
        [[1.0, math.nan, 1.0], [1.0, math.inf, 1.0], [1e308] * 3],
        ids=["nan", "inf", "overflowing-total"],
    )
    def test_rejects_non_finite_weights(self, alphabet3, weights):
        population = make_population(alphabet3, [[0], [1], [2]])
        with pytest.raises(ValueError):
            select(population, weights, 12, random.Random(3))

    def test_rejects_a_subnormal_total(self, alphabet2):
        # r * total rounds onto a subnormal total's few steps: two weights of
        # 5e-324 gave member 0 a quarter of the draws, not half
        population = make_population(alphabet2, [[0], [1]])
        with pytest.raises(ValueError, match="finite normal sum"):
            select(population, [5e-324, 5e-324], 10, random.Random(1))
        weights = [sys.float_info.min] * 2
        chosen = select(population, weights, 10000, random.Random(1))
        # 3 sigma around 5000 for a fair coin over 10000 draws
        assert abs(chosen.count(0) - 5000) < 150


class TestCrossover:
    def test_every_cut_produces_a_consistent_pair(self):
        parent1 = (0, 1, 2)
        parent2 = (3, 4, 5, 6, 7)
        seen = set()
        for seed in range(200):
            child1, child2 = crossover_pair(parent1, parent2, random.Random(seed))
            seen.add((child1, child2))
        # cuts 1 and 2 are the only interior cuts of the shorter parent
        assert seen == {
            ((0, 4, 5, 6, 7), (3, 1, 2)),
            ((0, 1, 5, 6, 7), (3, 4, 2)),
        }

    def test_pair_conserves_total_length_and_symbols(self):
        parent1 = (0, 0, 1, 1)
        parent2 = (2, 3)
        child1, child2 = crossover_pair(parent1, parent2, random.Random(13))
        assert len(child1) + len(child2) == len(parent1) + len(parent2)
        assert Counter(child1 + child2) == Counter(parent1 + parent2)

    def test_children_swap_parent_lengths(self):
        parent1 = (0, 1, 0, 1, 0)
        parent2 = (1, 1)
        child1, child2 = crossover_pair(parent1, parent2, random.Random(14))
        assert {len(child1), len(child2)} == {len(parent1), len(parent2)}

    def test_length_one_parent_passes_through(self):
        parent1 = (0,)
        parent2 = (1, 2, 3)
        rng = random.Random(15)
        state_before = rng.getstate()
        child1, child2 = crossover_pair(parent1, parent2, rng)
        assert child1 is parent1
        assert child2 is parent2
        assert rng.getstate() == state_before  # no randomness consumed

    def test_same_seed_means_same_children(self):
        parent1 = (0, 1, 2, 3)
        parent2 = (3, 2, 1, 0)
        first = crossover_pair(parent1, parent2, random.Random(16))
        second = crossover_pair(parent1, parent2, random.Random(16))
        assert first == second


class TestMutate:
    def test_result_is_exactly_one_edit_away(self, alphabet4):
        rng = random.Random(17)
        individual = (0, 1, 2, 3, 0)
        for _ in range(500):
            mutant = mutate(individual, alphabet4, rng)
            assert oracle.is_single_edit(list(individual), list(mutant))

    def test_never_produces_an_empty_individual(self, alphabet2):
        rng = random.Random(18)
        individual = (0,)
        for _ in range(300):
            mutant = mutate(individual, alphabet2, rng)
            assert len(mutant) >= 1
            individual = mutant

    def test_length_one_never_shrinks(self, alphabet3):
        rng = random.Random(19)
        lengths = {len(mutate((1,), alphabet3, rng)) for _ in range(300)}
        assert lengths == {1, 2}

    def test_replacement_always_changes_the_symbol(self, alphabet2):
        rng = random.Random(20)
        individual = (0, 1)
        for _ in range(400):
            mutant = mutate(individual, alphabet2, rng)
            assert mutant != individual

    def test_all_three_kinds_appear(self, alphabet3):
        rng = random.Random(21)
        individual = (0, 1, 2, 0, 1, 2)
        deltas = Counter(
            len(mutate(individual, alphabet3, rng)) - len(individual)
            for _ in range(3000)
        )
        assert set(deltas) == {-1, 0, 1}
        for count in deltas.values():
            assert abs(count - 1000) < 200

    def test_inserted_symbols_cover_the_alphabet(self, alphabet4):
        rng = random.Random(22)
        individual = (0,)
        inserted = set()
        for _ in range(2000):
            mutant = mutate(individual, alphabet4, rng)
            if len(mutant) == 2:
                extra = Counter(mutant) - Counter(individual)
                inserted.update(extra)
        assert inserted == {0, 1, 2, 3}

    def test_same_seed_means_same_mutant(self, alphabet3):
        individual = (2, 0, 1)
        assert mutate(individual, alphabet3, random.Random(23)) == mutate(
            individual, alphabet3, random.Random(23)
        )


class TestNextGenerationSize:
    """A step selects max(population_floor, ceil(D * the parents' mean
    length)) members."""

    def stepped_size(self, alphabet_size, floor, rows):
        config = EvolutionConfig(
            request=(0,),
            alphabet=make_alphabet(alphabet_size),
            rng_seed=7,
            population_floor=floor,
        )
        next_state, _ = stepped(config, make_state(config, rows))
        return len(next_state.population)

    def test_floor_wins_for_short_sequences(self):
        assert self.stepped_size(2, 15, [[0]] * 15) == 15

    def test_scaling_term_matches_floor(self):
        assert self.stepped_size(2, 10, [[0] * 5] * 10) == 10

    def test_scaling_term_wins_and_rounds_up(self):
        # mean length 8.5: ceil(3 * 8.5) = 26
        assert self.stepped_size(3, 20, [[0] * 8, [0] * 9] * 10) == 26


class TestConfigAndState:
    def request(self):
        return (3, 5)

    def config(self, **overrides):
        alphabet = make_alphabet(2, [(3,), (5,)])
        defaults = dict(
            request=self.request(), alphabet=alphabet, rng_seed=1
        )
        defaults.update(overrides)
        return EvolutionConfig(**defaults)

    def test_defaults(self):
        config = self.config()
        assert config.crossover_fraction == 0.10
        assert config.mutation_fraction == 0.10
        assert config.parsimony_coefficient == 0.1
        assert config.population_floor == 160
        assert config.generations == 300
        assert config.mode == "discriminating"

    @pytest.mark.parametrize(
        "overrides,key",
        [
            (dict(rng_seed=1.0), "rng_seed"),
            (dict(generations=2.5), "generations"),
            (dict(crossover_fraction="0.1"), "crossover_fraction"),
            (dict(mode=False), "mode"),
            (dict(mode=0), "mode"),
        ],
    )
    def test_a_value_of_another_kind_names_its_key(self, overrides, key):
        with pytest.raises(ConfigError, match=f"^{key} expects "):
            self.config(**overrides)

    def test_integers_are_stored_as_operator_index_gives_them(self):
        config = self.config(rng_seed=True, generations=False, population_floor=2)
        assert config == self.config(rng_seed=1, generations=0, population_floor=2)
        assert type(config.rng_seed) is int and type(config.generations) is int

    def test_rejects_out_of_range_fractions(self):
        with pytest.raises(ValueError):
            self.config(crossover_fraction=1.5)
        with pytest.raises(ValueError):
            self.config(mutation_fraction=-0.1)

    def test_rejects_negative_parsimony(self):
        with pytest.raises(ValueError):
            self.config(parsimony_coefficient=-1.0)

    @pytest.mark.parametrize("coefficient", [float("nan"), float("inf"), 1e308])
    def test_rejects_non_finite_parsimony(self, coefficient):
        with pytest.raises(ValueError, match="parsimony_coefficient"):
            self.config(parsimony_coefficient=coefficient)

    def test_smallest_weight_must_be_a_normal_float(self):
        # every raw score is at least 1/3 and a member outgrows the mean by
        # under 5 symbols, so the smallest weight is (1/3) / (1 + 5c)
        self.config(parsimony_coefficient=1e306, generations=0)
        with pytest.raises(ConfigError, match="parsimony_coefficient"):
            self.config(parsimony_coefficient=1e307, generations=0)

    def test_rejects_a_gap_sum_beyond_float(self):
        alphabet = make_alphabet(2, [(0,), (10**308,)])
        with pytest.raises(ConfigError, match="attribute_max"):
            self.config(alphabet=alphabet, request=(10**308,) * 2)

    def test_the_weight_floor_binds_only_under_selection(self):
        # the raw scores still go to the stats, so the gap-sum limit holds
        # in both modes; the coefficient only weighs the roulette
        def yielded(coefficient):
            return list(
                evolve(
                    self.config(
                        mode="nondiscriminating",
                        parsimony_coefficient=coefficient,
                        generations=20,
                    )
                )
            )

        assert yielded(1e308) == yielded(0.1)
        with pytest.raises(ConfigError, match="^parsimony_coefficient "):
            self.config(parsimony_coefficient=1e308, generations=20)
        alphabet = make_alphabet(2, [(0,), (10**308,)])
        with pytest.raises(ConfigError, match="attribute_max"):
            self.config(
                alphabet=alphabet, request=(10**308,) * 2, mode="nondiscriminating"
            )

    def test_gap_table_is_kept_out_of_eq_hash_repr(self):
        config = self.config()
        assert config.gaps == ((0, 2), (2, 0))
        assert config == self.config() and hash(config) == hash(self.config())
        assert "gaps" not in repr(config) and "codes" not in repr(config)
        # equality cannot see them, so no edit may change what a run scores
        with pytest.raises(TypeError):
            config.gaps[0][0] = 50
        with pytest.raises(TypeError):
            config.gaps[1] = (0, 0)
        with pytest.raises(TypeError):
            config.codes[0] = 0

    def test_gap_table_survives_pickle_and_copy(self):
        config = self.config()
        for twin in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
            assert twin.gaps == config.gaps == ((0, 2), (2, 0))
            # one block per request value, ranks 0 and 1: bits 0b11 and 0b10
            assert twin.codes == config.codes == (0b1011, 0b1110)
            with pytest.raises(TypeError):
                twin.gaps[0][0] = 50
            with pytest.raises(TypeError):
                twin.codes[0] = 0

    def test_rejects_floor_below_alphabet_size(self):
        with pytest.raises(ValueError):
            self.config(population_floor=1)

    def test_rejects_negative_generations(self):
        with pytest.raises(ValueError):
            self.config(generations=-1)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            self.config(rng_seed=-1)
        with pytest.raises(ValueError):
            self.config(rng_seed=2**64)

    def test_state_rejects_negative_generation(self, alphabet2):
        population = make_population(alphabet2, [[0]])
        with pytest.raises(ValueError):
            EvolutionState(-1, population, random.Random(0).getstate())

    def test_state_rejects_empty_population(self, alphabet2):
        with pytest.raises(ValueError):
            EvolutionState(0, Population((), len(alphabet2)), random.Random(0).getstate())

    def test_state_rejects_a_population_that_is_not_a_population(self):
        state = random.Random(0).getstate()
        with pytest.raises(ValueError, match="population must be a Population"):
            EvolutionState(0, [(0, 1)], state)

    def test_stats_reject_max_below_mean(self):
        with pytest.raises(ValueError):
            GenerationStats(
                generation=0,
                max_fitness=0.4,
                mean_fitness=0.6,
                mean_length=2.0,
                population_size=4,
                calculable_length=1,
                complexity=0.5,
                efficiency=0.5,
            )

    def test_stats_reject_an_empty_population(self):
        with pytest.raises(ValueError, match="^population_size must be >= 1$"):
            GenerationStats(
                generation=0,
                max_fitness=0.6,
                mean_fitness=0.6,
                mean_length=2.0,
                population_size=0,
                calculable_length=1,
                complexity=0.5,
                efficiency=0.5,
            )


def make_state(config, rows, generation=0):
    population = make_population(config.alphabet, rows)
    return EvolutionState(generation, population, random.Random(config.rng_seed).getstate())


def stepped(config, state):
    """The (state, stats) of the generation after `state`."""
    return next(evolve(config, start=state))


class TestNextGeneration:
    def perfect_config(self, **overrides):
        # members spelling (0, 1) pool attributes {3, 5} and match exactly
        alphabet = make_alphabet(2, [(3,), (5,)])
        defaults = dict(
            request=(3, 5),
            alphabet=alphabet,
            rng_seed=5,
            crossover_fraction=0.0,
            mutation_fraction=0.0,
            population_floor=4,
        )
        defaults.update(overrides)
        return EvolutionConfig(**defaults)

    def test_unanimous_perfect_population_is_a_fixed_point(self):
        config = self.perfect_config()
        state = make_state(config, [[0, 1]] * 4)
        next_state, stats = stepped(config, state)
        assert symbol_rows(next_state.population) == [[0, 1]] * 4
        assert next_state.generation == 1
        assert stats.generation == 1
        assert stats.max_fitness == 1.0
        assert stats.mean_fitness == 1.0
        assert stats.mean_length == 2.0
        assert stats.population_size == 4
        assert stats.calculable_length == 2
        assert stats.complexity == 2.0
        assert stats.efficiency == 1.0

    def test_population_grows_to_the_dynamic_target(self):
        config = self.perfect_config(population_floor=4)
        # mean length 4 -> target max(4, ceil(2 * 4)) = 8
        state = make_state(config, [[0, 1, 0, 1]] * 4)
        next_state, stats = stepped(config, state)
        assert stats.population_size == 8
        assert len(next_state.population) == 8

    def test_fitness_columns_describe_the_parents(self):
        alphabet = make_alphabet(2, [(3,), (5,)])
        config = EvolutionConfig(
            request=(3, 5),
            alphabet=alphabet,
            rng_seed=6,
            crossover_fraction=0.0,
            mutation_fraction=1.0,  # every child mutates
            population_floor=4,
        )
        state = make_state(config, [[0, 1]] * 4)
        _, stats = stepped(config, state)
        # parents were all perfect even though every child changed
        assert stats.max_fitness == 1.0
        assert stats.mean_fitness == 1.0

    def test_selection_pressure_favours_the_fit(self):
        alphabet = make_alphabet(2, [(3,), (9,)])
        config = EvolutionConfig(
            request=(3,),
            alphabet=alphabet,
            rng_seed=7,
            crossover_fraction=0.0,
            mutation_fraction=0.0,
            population_floor=20,
        )
        # half the members are perfect (fitness 1), half far off (1/7)
        rows = [[0]] * 10 + [[1]] * 10
        state = make_state(config, rows)
        next_state, _ = stepped(config, state)
        perfect = sum(
            1 for member in next_state.population.members if member == (0,)
        )
        assert perfect > 14  # expectation is 17.5 of 20

    def test_children_of_an_unmeasurable_parent_are_measured(self):
        # the floor, never below the pool size, makes the children of any
        # parent population measurable, however small the parent
        alphabet = make_alphabet(3)
        config = EvolutionConfig(
            request=(0,),
            alphabet=alphabet,
            rng_seed=8,
            crossover_fraction=0.0,
            mutation_fraction=0.0,
            population_floor=3,
            parsimony_coefficient=0.0,
        )
        # 2 members of an alphabet-3 world: site 1 needs 3 samples
        state = make_state(config, [[0, 1], [1, 2]])
        with pytest.raises(UnmeasurablePopulationError):
            physical_complexity_variable(state.population)
        next_state, stats = stepped(config, state)
        # the target is max(floor, ceil(3 * mean length 2)) = 6 members
        assert stats.population_size == len(next_state.population) == 6
        assert stats.calculable_length == 2
        assert isinstance(stats.complexity, float)
        assert isinstance(stats.efficiency, float)

    @pytest.mark.parametrize(
        "attributes, rows",
        [
            # a symbol the config's alphabet lacks
            ([(3,), (5,), (7,)], [[0, 2]] * 4),
            # another size, every symbol in range of the config's alphabet
            ([(3,), (5,), (7,)], [[0, 1]] * 4),
        ],
    )
    def test_rejects_a_population_over_another_alphabet(self, attributes, rows):
        config = self.perfect_config()
        other = make_alphabet(len(attributes), attributes)
        state = EvolutionState(
            0, make_population(other, rows), random.Random(5).getstate()
        )
        with pytest.raises(ValueError, match="config's alphabet"):
            stepped(config, state)

    def test_step_is_deterministic(self):
        config = self.perfect_config(
            crossover_fraction=0.5, mutation_fraction=0.5, rng_seed=9
        )
        rows = [[0, 1], [1, 0], [0, 0, 1], [1], [0, 1, 1, 0]] * 4
        first_state, first_stats = stepped(config, make_state(config, rows))
        second_state, second_stats = stepped(config, make_state(config, rows))
        assert symbol_rows(first_state.population) == symbol_rows(
            second_state.population
        )
        assert first_stats == second_stats
        assert first_state.rng_state == second_state.rng_state

    def test_modes_agree_when_everyone_is_identical(self):
        # equal members make the survivors independent of how they are drawn,
        # one random() call per draw in both modes, so the two modes must
        # produce byte-for-byte the same step
        base = self.perfect_config(
            crossover_fraction=0.25, mutation_fraction=0.25, rng_seed=10
        )
        flat = self.perfect_config(
            crossover_fraction=0.25,
            mutation_fraction=0.25,
            rng_seed=10,
            mode="nondiscriminating",
        )
        rows = [[0, 1]] * 8
        state_disc, stats_disc = stepped(base, make_state(base, rows))
        state_flat, stats_flat = stepped(flat, make_state(flat, rows))
        assert symbol_rows(state_disc.population) == symbol_rows(state_flat.population)
        assert stats_disc == stats_flat
        assert state_disc.rng_state == state_flat.rng_state

    def test_nondiscriminating_ignores_fitness(self):
        alphabet = make_alphabet(2, [(3,), (9,)])
        config = EvolutionConfig(
            request=(3,),
            alphabet=alphabet,
            rng_seed=11,
            crossover_fraction=0.0,
            mutation_fraction=0.0,
            population_floor=1000,
            mode="nondiscriminating",
        )
        rows = [[0]] * 500 + [[1]] * 500
        state = make_state(config, rows)
        next_state, _ = stepped(config, state)
        perfect = sum(
            1 for member in next_state.population.members if member == (0,)
        )
        # uniform draws: a fair coin over 1000 draws, 3 sigma band
        assert abs(perfect - 500) < 50

    @pytest.mark.parametrize("mode", ["discriminating", "nondiscriminating"])
    def test_only_selection_weighs_and_spins_the_wheel(self, monkeypatch, mode):
        # every digest would still match if the control went back through a
        # wheel of flat weights; this guard sees the route, not the outcome
        reached = set()

        def guarded(real):
            def wrapper(*args):
                reached.add(real.__name__)
                if mode == "nondiscriminating":
                    raise AssertionError(f"the control reached {real.__name__}")
                return real(*args)

            return wrapper

        for name in ("select", "parsimony_adjusted_fitness"):
            monkeypatch.setattr(evolution, name, guarded(getattr(evolution, name)))
        config = self.perfect_config(
            crossover_fraction=0.25, mutation_fraction=0.25, generations=3, mode=mode
        )
        assert [state.generation for state, _ in evolve(config)] == [0, 1, 2, 3]
        if mode == "discriminating":
            assert reached == {"select", "parsimony_adjusted_fitness"}
        else:
            assert reached == set()


def collect(config):
    """The stats rows and the final state of a whole evolve(config) run."""
    stats = []
    for state, row in evolve(config):
        stats.append(row)
    return stats, state


def snapshot_files(*generations):
    """The snap_<generation>.txt and .ppm names of `generations`."""
    return [
        f"snap_{generation}.{kind}"
        for generation in generations
        for kind in ("txt", "ppm")
    ]


class TestWholeRuns:
    def quick_config(self, **overrides):
        alphabet = make_alphabet(2, [(3,), (5,)])
        defaults = dict(
            request=(3, 5),
            alphabet=alphabet,
            rng_seed=12,
            generations=5,
            population_floor=12,
        )
        defaults.update(overrides)
        return EvolutionConfig(**defaults)

    def written_files(self, directory, **overrides):
        """The files run_experiment writes for a quick run with `overrides`."""
        values = dict(rng_seed=12, generations=5, population_floor=12, pool_size=2)
        values.update(overrides)
        run_experiment(RunConfig(**values, output_dir=str(directory)))
        return sorted(path.name for path in directory.iterdir())

    def test_row_count_is_generations_plus_one(self):
        stats, state = collect(self.quick_config())
        assert len(stats) == 6
        assert [row.generation for row in stats] == [0, 1, 2, 3, 4, 5]
        assert state.generation == 5

    def test_zero_generations_still_measures_the_seed_population(self):
        stats, state = collect(self.quick_config(generations=0))
        assert len(stats) == 1
        assert stats[0].generation == 0
        assert state.generation == 0
        assert len(state.population) == 12

    def test_initial_lengths_come_from_the_documented_range(self):
        _, state = collect(self.quick_config(generations=0, population_floor=200))
        low, high = INITIAL_LENGTH_RANGE
        lengths = {len(member) for member in state.population.members}
        assert lengths <= set(range(low, high + 1))
        assert lengths == set(range(low, high + 1))  # 200 draws cover 1..5

    def test_snapshots_fall_on_the_grid_and_the_end(self, tmp_path, capsys):
        written = self.written_files(tmp_path, generations=5, snapshot_every=2)
        assert written == sorted(snapshot_files(0, 2, 4, 5) + ["stats.csv"])

    def test_snapshot_every_zero_disables_snapshots(self, tmp_path, capsys):
        written = self.written_files(tmp_path, generations=5, snapshot_every=0)
        assert written == ["stats.csv"]

    def test_final_snapshot_not_duplicated_when_on_grid(self, tmp_path, capsys):
        written = self.written_files(tmp_path, generations=4, snapshot_every=2)
        assert written == sorted(snapshot_files(0, 2, 4) + ["stats.csv"])

    def test_identical_configs_replay_identical_histories(self):
        config = self.quick_config(generations=20)
        first, second = (
            [
                (state.population.members, state.rng_state, row)
                for state, row in evolve(config)
            ]
            for _ in range(2)
        )
        assert first == second

    def test_different_seeds_diverge(self):
        first, _ = collect(self.quick_config(rng_seed=1, generations=10))
        second, _ = collect(self.quick_config(rng_seed=2, generations=10))
        assert first != second

    def test_fitness_improves_under_selection(self):
        config = self.quick_config(generations=60, population_floor=60, rng_seed=13)
        stats, _ = collect(config)
        assert stats[-1].max_fitness >= stats[0].max_fitness
        assert stats[-1].max_fitness == 1.0


class TestEvolve:
    def config(self, **overrides):
        # crossover and mutation touch half the members every generation
        settings = dict(
            request=(3, 5, 7),
            alphabet=make_alphabet(3, [(3,), (5,), (7,)]),
            rng_seed=21,
            crossover_fraction=0.5,
            mutation_fraction=0.5,
            population_floor=12,
            generations=8,
        )
        return EvolutionConfig(**{**settings, **overrides})

    def test_stepping_any_yielded_state_gives_the_next(self):
        config = self.config()
        yielded = list(evolve(config))
        assert [state.generation for state, _ in yielded] == list(range(9))
        for (state, _), (expected, expected_stats) in zip(yielded, yielded[1:]):
            resumed, stats = stepped(config, state)
            assert resumed.population.members == expected.population.members
            assert resumed.rng_state == expected.rng_state
            assert stats == expected_stats

    @pytest.mark.parametrize("generation", [8, 9])
    def test_a_start_at_or_past_the_last_generation_yields_nothing(self, generation):
        state = make_state(self.config(), [[0, 1, 2]] * 12, generation)
        assert list(evolve(self.config(), start=state)) == []

    @pytest.mark.parametrize("rng_state", [(), None, (3, (1, 2), None)])
    def test_a_start_whose_rng_state_random_refuses_names_it(self, rng_state):
        population = make_population(self.config().alphabet, [[0, 1, 2]] * 12)
        state = EvolutionState(0, population, rng_state)
        with pytest.raises(ValueError, match="rng_state"):
            stepped(self.config(), state)

    def long_start(self, **overrides):
        # seven length-1 members and one far longer than any run grows
        settings = dict(
            request=(3, 5),
            alphabet=make_alphabet(2, [(3,), (5,)]),
            rng_seed=1,
            generations=1,
            population_floor=4,
        )
        config = EvolutionConfig(**{**settings, **overrides})
        return config, make_state(config, [[0]] * 7 + [[0] * 1000])

    def test_a_start_too_long_for_the_weight_floor_names_the_coefficient(self):
        config, state = self.long_start(parsimony_coefficient=1e306)
        yielded = []
        with pytest.raises(ConfigError, match="^parsimony_coefficient "):
            yielded.extend(evolve(config, start=state))
        assert yielded == []

    def test_a_long_start_without_selection_runs_under_any_coefficient(self):
        def yielded(coefficient):
            config, state = self.long_start(
                mode="nondiscriminating",
                parsimony_coefficient=coefficient,
                generations=3,
            )
            return list(evolve(config, start=state))

        assert yielded(1e308) == yielded(0.1)
        assert [state.generation for state, _ in yielded(1e308)] == [1, 2, 3]

    def test_a_long_start_under_a_small_coefficient_runs(self):
        config, state = self.long_start(parsimony_coefficient=0.1, generations=3)
        yielded = list(evolve(config, start=state))
        assert [state.generation for state, _ in yielded] == [1, 2, 3]

    def test_each_step_scores_only_the_positions_it_changed(self, monkeypatch):
        # agent 3 covers what agents 0 and 2 cover together, so members
        # over different agents share a coverage code
        config = self.config(alphabet=make_alphabet(4, [(3,), (5,), (7,), (3, 7)]))
        # per generation: the positions the step returned as changed, the
        # table handed to _rescore, the members _score ran on and the table
        # _rescore handed on; seeding scores every position of generation 0
        steps = [dict(changed=set(range(config.population_floor)), scored=[])]

        def code(symbols):
            return reduce(or_, map(config.codes.__getitem__, symbols))

        def counting(symbols, gaps):
            steps[-1]["scored"].append(symbols)
            return original(symbols, gaps)

        def step(population, config, rng, raw):
            result = original_step(population, config, rng, raw)
            steps.append(dict(changed=set(result[2]), scored=[]))
            return result

        def rescore(raw, members, positions, config, known):
            table = original_rescore(raw, members, positions, config, known)
            steps[-1].update(known=known, handed_on=table)
            return table

        original, original_step = evolution._score, evolution.step_generation
        original_rescore = evolution._rescore
        monkeypatch.setattr(evolution, "_score", counting)
        monkeypatch.setattr(evolution, "step_generation", step)
        monkeypatch.setattr(evolution, "_rescore", rescore)
        populations = [state.population for state, _ in evolve(config)]
        assert len(steps) == len(populations) == config.generations + 1
        # seeding starts from an empty table; each step gets the last one's
        assert steps[0]["known"] == {}
        for before, after in zip(steps, steps[1:]):
            assert after["known"] is before["handed_on"]
        shared = False  # whether changed members over other agents share a code
        for made, spent in zip(populations, steps):
            members = made.members
            changed = {code(members[i]) for i in spent["changed"]}
            agent_sets = {frozenset(members[i]) for i in spent["changed"]}
            shared |= len(agent_sets) > len(changed)
            scored = list(map(code, spent["scored"]))
            # _score runs once per code that a changed position holds and
            # neither table held
            assert len(scored) == len(set(scored))
            assert set(scored) == changed - set(spent["known"])
            # the table handed on holds the changed positions' codes alone
            assert set(spent["handed_on"]) == changed
        assert shared
        # some step met a code its last step had scored
        assert any(set(spent["known"]) & set(spent["handed_on"]) for spent in steps)

    @pytest.mark.parametrize(
        "mode, calls", [("nondiscriminating", 0), ("discriminating", 3)]
    )
    def test_parsimony_runs_only_under_selection(self, monkeypatch, mode, calls):
        # the nondiscriminating baseline weighs every member alike, so it
        # has no use for the penalised scores
        counted = []

        def counting(*args):
            counted.append(args)
            return original(*args)

        original = evolution.parsimony_adjusted_fitness
        monkeypatch.setattr(evolution, "parsimony_adjusted_fitness", counting)
        config = self.config(mode=mode, generations=3)
        list(evolve(config))
        assert len(counted) == calls

    def test_generations_stream_one_step_at_a_time(self, monkeypatch):
        monkeypatch.setattr(evolution, "step_generation", _raise_on_step)
        generations = evolve(self.config())
        state, stats = next(generations)
        assert state.generation == stats.generation == 0
        with pytest.raises(RuntimeError, match="stepped"):
            next(generations)

    def test_evolve_measures_each_generation_outside_the_step(self, monkeypatch):
        # each measure records whether a step was running when it was called
        stepping, measured = [False], []

        def step(*args):
            stepping[0] = True
            try:
                return original_step(*args)
            finally:
                stepping[0] = False

        def measure(population):
            measured.append(stepping[0])
            return original_measure(population)

        original_step = evolution.step_generation
        original_measure = evolution.physical_complexity_variable
        monkeypatch.setattr(evolution, "step_generation", step)
        monkeypatch.setattr(evolution, "physical_complexity_variable", measure)
        config = self.config(generations=3)
        seeded = list(evolve(config))
        assert measured == [False] * 4
        measured.clear()
        resumed = list(evolve(config, start=seeded[1][0]))
        assert resumed == seeded[2:]
        assert measured == [False] * len(resumed)


def _raise_on_step(*_):
    raise RuntimeError("stepped")
