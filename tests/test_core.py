import dataclasses

import pytest

from conftest import make_alphabet, make_population
from evotropy import (
    Agent,
    Alphabet,
    Population,
    UserRequest,
)


class TestAgent:
    def test_holds_id_and_attributes(self):
        agent = Agent(3, (1, 4))
        assert agent.id == 3
        assert agent.attributes == (1, 4)

    def test_rejects_empty_attributes(self):
        with pytest.raises(ValueError):
            Agent(0, ())

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            Agent(-1, (0,))

    def test_is_immutable(self):
        agent = Agent(0, (5,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            agent.id = 1


class TestAlphabet:
    def test_size(self):
        assert make_alphabet(5).size == 5
        assert len(make_alphabet(5)) == 5

    def test_rejects_fewer_than_two_agents(self):
        with pytest.raises(ValueError):
            Alphabet((Agent(0, (0,)),))

    def test_rejects_ids_out_of_position(self):
        with pytest.raises(ValueError):
            Alphabet((Agent(0, (0,)), Agent(2, (1,))))


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
            ([(0, "1")], "1"),
        ],
    )
    def test_rejects_a_symbol_that_is_not_an_integer(self, rows, bad):
        with pytest.raises(ValueError) as excinfo:
            Population(rows, 2)
        assert str(excinfo.value) == (
            f"symbol {bad} is not a valid agent id for an alphabet of size 2"
        )

    def test_accepts_what_operator_index_takes(self):
        assert Population([(True, 0)], 2).members == ((1, 0),)


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

    def test_empty_population_is_allowed(self, alphabet2):
        assert len(Population((), alphabet2.size)) == 0

    def test_records_the_alphabet_size_and_no_agents(self):
        population = Population.from_rows(3, [[0, 2]])
        assert population.alphabet_size == 3
        fields = [field.name for field in dataclasses.fields(Population)]
        assert fields == ["members", "alphabet_size"]

    @pytest.mark.parametrize("size", [1, 0, -2])
    def test_rejects_an_alphabet_size_below_two(self, size):
        with pytest.raises(ValueError, match="at least 2 agents"):
            Population(((0,),), size)

    def test_duplicates_are_distinct_members(self, alphabet2):
        population = make_population(alphabet2, [[0], [0], [0]])
        assert len(population) == 3


class TestUserRequest:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UserRequest(())

    def test_holds_values(self):
        assert UserRequest((4, 4, 2)).required == (4, 4, 2)

