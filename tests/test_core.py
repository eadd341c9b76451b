import inspect
from decimal import Decimal
from itertools import chain

import pytest

from conftest import DIGIT_LIMIT, make_alphabet, make_population, needs_digit_limit
from evotropy import (
    ConfigError,
    EvolutionConfig,
    Population,
    evolve,
    format_snapshot,
    read_population_file,
)


def world(alphabet=((0,), (1,)), request=(0,)):
    """A config over `alphabet` and `request`.

    An alphabet and a request are plain tuples; the config that holds
    them turns rows of ints into those tuples and checks them, so their
    rules are tested through it.
    """
    return EvolutionConfig(request=request, alphabet=alphabet, rng_seed=0)


class TestAgentTuples:
    """An agent is the tuple of its attribute values, at its id's index."""

    def test_list_attributes_come_back_as_tuples(self):
        assert world([[1, 4], (0,)]).alphabet == ((1, 4), (0,))

    def test_rejects_empty_attributes(self):
        with pytest.raises(
            ValueError, match="^agent must carry at least one attribute value$"
        ):
            world(((0,), ()))

    def test_is_immutable(self):
        config = world(make_alphabet(2))
        assert isinstance(config.alphabet[0], tuple)
        with pytest.raises(AttributeError, match="^cannot assign to field 'alphabet'$"):
            config.alphabet = ((1,), (0,))


class TestAlphabetSize:
    def test_size(self):
        # the number of agents is the size every population is drawn over
        config = EvolutionConfig(
            request=(0,), alphabet=make_alphabet(5), rng_seed=0, generations=0
        )
        [(state, _)] = evolve(config)
        assert state.population.alphabet_size == len(config.alphabet) == 5

    def test_rejects_fewer_than_two_agents(self):
        message = "^alphabet needs at least 2 agents, got 1$"
        with pytest.raises(ValueError, match=message):
            world(((0,),))


class TestPopulationMembers:
    """A member is a non-empty tuple of agent ids and nothing more."""

    def test_length(self):
        assert len(Population.from_rows(2, [(0, 1, 0)]).members[0]) == 3

    def test_rejects_empty(self):
        for rows in ([()], [[0, 1], []]):
            with pytest.raises(ValueError, match="^agent sequence must be non-empty$"):
                Population(rows, 2)

    def test_normalises_to_tuple(self):
        population = Population([[0, 1], (1,)], 2)
        assert population.members == ((0, 1), (1,))
        assert all(type(member) is tuple for member in population.members)

    def test_value_equality(self):
        assert Population([[0, 1]], 2) == Population(((0, 1),), 2)
        assert hash(Population([[0, 1]], 2)) == hash(Population(((0, 1),), 2))

    def test_symbol_range_is_checked_on_list_rows(self):
        with pytest.raises(ValueError, match=r"^symbol 2 is not a valid agent id"):
            Population([[0, 1], [2]], 2)

    @pytest.mark.parametrize(
        "rows, bad",
        [
            ([(0.5, 1)] * 2 + [(1.0,)] * 2, "0.5"),
            # 1.0 == 1, so a set of the symbols alone would keep only the 1
            ([(0, 1), (1.0,)], "1.0"),
            # a text or Decimal symbol is named by its repr, not read as an int
            ([(0, "1")], "'1'"),
            ([(Decimal(1),)], "Decimal('1')"),
        ],
    )
    def test_rejects_a_symbol_that_is_not_an_integer(self, rows, bad):
        with pytest.raises(ValueError) as excinfo:
            Population(rows, 2)
        assert str(excinfo.value) == (
            f"symbol {bad} is not a valid agent id for an alphabet of size 2"
        )

    def test_accepts_what_operator_index_takes(self, tmp_path):
        population = Population([(True, 0), (1, False)], 2)
        assert population.members == ((1, 0), (1, 0))
        # stored as ints, so a snapshot writes `1 0`, a line the reader takes
        assert all(type(symbol) is int for symbol in chain(*population.members))
        path = tmp_path / "snap.txt"
        path.write_text("alphabet_size=2\n" + format_snapshot(population), "ascii")
        assert read_population_file(path) == population


class TestPopulation:
    def test_from_rows(self, alphabet2):
        population = make_population(alphabet2, [[0, 1], [1]])
        assert len(population) == 2
        assert population.members == ((0, 1), (1,))

    def test_rejects_symbols_outside_alphabet(self, alphabet2):
        with pytest.raises(ValueError):
            make_population(alphabet2, [[0, 2]])
        with pytest.raises(ValueError):
            make_population(alphabet2, [[-1]])

    def test_error_names_first_bad_symbol_in_member_order(self, alphabet2):
        # the first bad member holds both a too-large and a negative symbol
        with pytest.raises(ValueError, match=r"^symbol 5 is not a valid agent id"):
            make_population(alphabet2, [[0, 1], [1, 5, -1], [-3]])

    def test_error_names_an_out_of_range_symbol_before_a_later_non_integer(self):
        with pytest.raises(ValueError, match=r"^symbol 5 is not a valid agent id"):
            Population([(0, 5), (0.5,)], 2)

    def test_rejects_an_empty_population(self, alphabet2):
        message = "^population needs at least one member$"
        with pytest.raises(ValueError, match=message):
            Population((), len(alphabet2))
        with pytest.raises(ValueError, match=message):
            Population.from_rows(len(alphabet2), [])

    def test_records_the_alphabet_size_and_no_agents(self):
        population = Population.from_rows(3, [[0, 2]])
        assert population.alphabet_size == 3
        fields = list(inspect.signature(Population).parameters)
        assert fields == ["members", "alphabet_size"]

    @pytest.mark.parametrize("size", [1, 0, -2, True])
    def test_rejects_an_alphabet_size_below_two(self, size):
        with pytest.raises(ValueError, match="at least 2 agents"):
            Population(((0,),), size)

    @pytest.mark.parametrize("size", [2.5, 3.0, "3"])
    def test_rejects_an_alphabet_size_that_is_not_an_integer(self, size):
        # entropies in base 2.5 would be measured in no alphabet's unit
        with pytest.raises(ConfigError, match="^alphabet_size expects an integer"):
            Population([(0,), (1,)] * 2, size)

    @needs_digit_limit
    def test_a_symbol_past_the_digit_limit_is_named_by_it(self):
        message = f"^symbol an integer of more than {DIGIT_LIMIT} digits is not"
        with pytest.raises(ValueError, match=message):
            Population([(0, 10**DIGIT_LIMIT)], 2)

    def test_duplicates_are_distinct_members(self, alphabet2):
        population = make_population(alphabet2, [[0], [0], [0]])
        assert len(population) == 3


class TestRequestTuple:
    def test_rejects_empty(self):
        with pytest.raises(
            ValueError, match="^request must name at least one attribute value$"
        ):
            world(request=())

    def test_holds_values(self):
        assert world(request=[4, 4, 2]).request == (4, 4, 2)


class TestWorldValuesAreIntegers:
    @pytest.mark.parametrize(
        "alphabet, wanted, field",
        [
            (((3,), (5,)), "35", "request"),
            (((3,), (5,)), (3.5,), "request"),
            (((3.0,), (5,)), (3,), "alphabet"),
        ],
        ids=["string-request", "float-request", "float-attribute"],
    )
    def test_rejects_a_non_integer_value(self, alphabet, wanted, field):
        with pytest.raises(ValueError, match=f"^{field} .*must be integers$"):
            world(alphabet, wanted)

    def test_turns_integer_like_values_into_ints(self):
        config = world(((True,), (5,)), (False,))
        assert config.alphabet == ((1,), (5,))
        assert type(config.alphabet[0][0]) is int
        assert type(config.request[0]) is int
