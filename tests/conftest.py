import pytest

from evotropy import (
    Population,
    UnmeasurablePopulationError,
    complexity,
    physical_complexity_variable,
)


def make_alphabet(size, attributes=None):
    """Alphabet of `size` agents, a tuple of attribute tuples; agent i
    carries attributes[i] or (i,)."""
    if attributes is None:
        attributes = [(index,) for index in range(size)]
    return tuple(map(tuple, attributes[:size]))


def make_population(alphabet, rows):
    """Population of `rows` over the size of `alphabet`."""
    return Population.from_rows(len(alphabet), rows)


def sample_sizes(rows, alphabet_size=2):
    """Per-site sample sizes of the first 10 sites, as the measure counts them.

    Sample sizes do not depend on the alphabet, so the rows are measured
    over one with more agents than there are members: no site clears
    the threshold, and the error carries the sizes of the first
    min(10, longest row) sites, every site for rows up to 10 long.
    """
    population = Population.from_rows(max(alphabet_size, len(rows) + 1), rows)
    with pytest.raises(UnmeasurablePopulationError) as excinfo:
        physical_complexity_variable(population)
    return excinfo.value.sample_sizes


def site_entropy(counts, alphabet_size):
    """The measure's entropy of one site's {symbol: count} tally, such as
    oracle.site_counts gives: non-zero counts in symbol order and their sum."""
    return complexity._entropy(
        [count for _, count in sorted(counts.items())],
        sum(counts.values()),
        alphabet_size,
    )


@pytest.fixture
def alphabet2():
    return make_alphabet(2)


@pytest.fixture
def alphabet3():
    return make_alphabet(3)


@pytest.fixture
def alphabet4():
    return make_alphabet(4)
