import pytest

from evotropy import Population, complexity


def make_alphabet(size, attributes=None):
    """Alphabet of `size` agents, a tuple of attribute tuples; agent i
    carries attributes[i] or (i,)."""
    if attributes is None:
        attributes = [(index,) for index in range(size)]
    return tuple(map(tuple, attributes[:size]))


def make_population(alphabet, rows):
    """Population of `rows` over the size of `alphabet`."""
    return Population.from_rows(len(alphabet), rows)


def sample_sizes(rows):
    """{site: sample size} of every site of `rows`, as the measure counts
    them: a threshold of 0 lets every site through."""
    ordered = sorted(map(tuple, rows), key=len)
    return dict(enumerate(complexity._sample_sizes(ordered, 0), start=1))


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
