"""Information-theoretic structure measures over agent populations.

The population is read as an ensemble: at each 1-based site the symbols
of every sequence long enough to reach that site form a distribution,
whose Shannon entropy (base alphabet size, so each site contributes at
most 1) says how disordered the site is.  Physical complexity is the
number of measured sites minus the summed site entropies: the amount of
sequence that is actually pinned down rather than free.

For mixed-length populations only a prefix of sites carries enough
samples to be trusted; the calculable length is the longest such prefix
and the efficiency is the complexity achieved per measurable site.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from itertools import chain, islice, repeat
from operator import add, itemgetter

from .core import Population, _Record

__all__ = [
    "ComplexityReport",
    "UnmeasurablePopulationError",
    "physical_complexity_variable",
]


class ComplexityReport(_Record):
    """Everything measured about one population in a single pass."""

    calculable_length: int
    per_site_entropy: tuple[float, ...]
    complexity: float
    efficiency: float
    max_length: int


# counting from byte columns scans each site once per symbol, after one
# conversion of every member: it beats counting member by member only
# for alphabets of at most this many symbols, over at least this many
# members per symbol (measured crossover, CPython 3.11)
_BYTE_COLUMNS_UP_TO = 32


class UnmeasurablePopulationError(ValueError):
    """No site has enough samples for a trustworthy entropy estimate:
    the population has fewer members than its alphabet has agents."""


def _entropy(counts: list[int], size: int, alphabet_size: int) -> float:
    """Shannon entropy of one site, in units of base alphabet_size.

    `counts` holds the site's non-zero symbol counts in symbol order, and
    `size`, their sum, its sample size.  A unanimous site is exactly 0.0
    and counts spread uniformly over the whole alphabet are exactly 1.0;
    everything else lands strictly between, clamped against last-bit
    rounding.  The measure's counts always meet these preconditions, so
    nothing here checks them again.
    """
    if len(counts) == 1:
        return 0.0
    if len(counts) == alphabet_size and len(set(counts)) == 1:
        return 1.0
    log_base = math.log(alphabet_size)
    entropy = 0.0
    # symbol order keeps the summation independent of member order
    for count in counts:
        p = count / size
        entropy -= p * math.log(p) / log_base
    return min(1.0, max(0.0, entropy))


def _by_length(members) -> list[list]:
    """The members grouped by length: the members of length L, in member
    order, at index L, up to the longest member's group, the last."""
    by_length: list[list] = []
    appends: list = []  # each group's append, bound once
    for member in members:
        try:
            appends[len(member)](member)
        except IndexError:
            # the longest member so far: open the groups up to its length
            while len(by_length) <= len(member):
                by_length.append([])
                appends.append(by_length[-1].append)
            appends[len(member)](member)
    return by_length


def _sample_sizes(by_length: list[list], alphabet_size: int) -> Iterator[int]:
    """Sample sizes of sites 1, 2, ... of members grouped by length.

    Each site's sample is the last site's less the members too short to
    reach it, so a size is counted only when it is asked for.  The sizes
    stop before the first site with fewer than alphabet_size * site
    samples: sizes only shrink as that threshold grows, so they cover the
    calculable prefix.
    """
    size = sum(map(len, by_length))
    for site in range(1, len(by_length)):
        size -= len(by_length[site - 1])
        if size < alphabet_size * site:
            return
        yield size


def _member_counts(
    by_length: list[list], measured: int, alphabet_size: int
) -> Iterator[list[int]]:
    """Non-zero symbol counts, in symbol order, of sites 1..measured of
    members grouped by length, tallied member by member."""
    for site in range(measured):
        reaching = chain.from_iterable(islice(by_length, site + 1, None))
        tally = Counter(map(itemgetter(site), reaching))
        yield list(filter(None, map(tally.get, range(alphabet_size))))


def _byte_column_counts(
    by_length: list[list], measured: int, alphabet_size: int
) -> Iterator[list[int]]:
    """Non-zero symbol counts, in symbol order, of sites 1..measured of
    members grouped by length.

    Every symbol fits in a byte.  Each group shorter than `measured`, and
    the members reaching past it cut to it, become one byte string of that
    width; a site's share of it is the slice at its offset with the width
    as step, so bytes.count tallies every member of a site in C.  Each
    site's counts add up run by run, and the byte strings go one by one.
    """
    tallies = [[0] * alphabet_size for _ in range(measured)]
    runs = [(width, group) for width, group in enumerate(by_length[:measured]) if group]
    past = chain.from_iterable(by_length[measured:])
    runs.append((measured, map(itemgetter(slice(measured)), past)))
    for width, run in runs:
        flat = bytes(chain.from_iterable(run))
        for site in range(width):
            counts = map(flat[site::width].count, range(alphabet_size))
            tallies[site] = list(map(add, tallies[site], counts))
    for tally in tallies:
        yield list(filter(None, tally))


def physical_complexity_variable(population: Population) -> ComplexityReport:
    """Measure a variable-length population over its calculable prefix.

    Raises UnmeasurablePopulationError when no site clears the sampling
    threshold.  Every member reaches site 1, so its sample size is the
    member count, and every later site has no more samples against a
    higher threshold: the population is measurable exactly when it has
    at least alphabet_size members.
    """
    alphabet_size = population.alphabet_size
    if len(population) < alphabet_size:
        raise UnmeasurablePopulationError(
            f"member count {len(population)} is below alphabet_size "
            f"{alphabet_size}; population is too small to measure"
        )
    by_length = _by_length(population.members)
    sizes = list(_sample_sizes(by_length, alphabet_size))
    few_symbols = alphabet_size <= _BYTE_COLUMNS_UP_TO
    if few_symbols and len(population) >= _BYTE_COLUMNS_UP_TO * alphabet_size:
        counts = _byte_column_counts(by_length, len(sizes), alphabet_size)
    else:
        counts = _member_counts(by_length, len(sizes), alphabet_size)
    entropies = tuple(map(_entropy, counts, sizes, repeat(alphabet_size)))
    calculable = len(sizes)
    complexity = max(0.0, calculable - sum(entropies))
    return ComplexityReport(
        calculable_length=calculable,
        per_site_entropy=entropies,
        complexity=complexity,
        efficiency=complexity / calculable,
        max_length=len(by_length) - 1,
    )
