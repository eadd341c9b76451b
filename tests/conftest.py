import random
import sys

import pytest

from evotropy import Population, complexity

# CPython's limit on the digits int() converts from text (0: none)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    DIGIT_LIMIT == 0, reason="this Python converts integers of any length"
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


def analyze_like_rows(members, seed):
    """Rows shaped like the analyze-large benchmark file: alphabet 16,
    99 in 100 members of lengths 1..40 and the rest of 41..80."""
    rng = random.Random(seed)
    lengths = [1 + i % 40 + 40 * (i < members // 100) for i in range(members)]
    rng.shuffle(lengths)
    return tuple(tuple(rng.choices(range(16), k=length)) for length in lengths)


def sample_sizes(rows):
    """{site: sample size} of every site of `rows`, as the measure counts
    them: a threshold of 0 lets every site through."""
    by_length = complexity._by_length(rows)
    return dict(enumerate(complexity._sample_sizes(by_length, 0), start=1))


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
