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
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterator
from itertools import chain, repeat
from operator import itemgetter

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
    complexity_potential: float
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


def _sample_sizes(rows: list, alphabet_size: int) -> Iterator[int]:
    """Sample sizes of sites 1, 2, ... of `rows`, sorted shortest first.

    The rows reaching a site are a suffix of the sorted rows, found by
    bisection, so a size is counted only when it is asked for.  The sizes
    stop before the first site with fewer than alphabet_size * site
    samples: sizes only shrink as that threshold grows, so they cover the
    calculable prefix.
    """
    for site in range(1, len(rows[-1]) + 1):
        size = len(rows) - bisect_left(rows, site, key=len)
        if size < alphabet_size * site:
            return
        yield size


def _member_counts(rows: list, sizes: list[int]) -> Iterator[list[int]]:
    """Non-zero symbol counts, in symbol order, of sites 1..len(sizes) of
    `rows`, sorted shortest first, tallied member by member; `sizes` are
    the sites' sample sizes."""
    for site, size in enumerate(sizes):
        tally = Counter(map(itemgetter(site), rows[len(rows) - size :]))
        yield [count for _, count in sorted(tally.items())]


def _byte_column_counts(
    rows: list, measured: int, alphabet_size: int
) -> Iterator[list[int]]:
    """Non-zero symbol counts, in symbol order, of sites 1..measured of
    `rows`, sorted shortest first.

    Every symbol fits in a byte.  Each run of rows of one length, and the
    rows reaching past `measured` cut to it, become one byte string of
    that width; a site's share of it is the slice at its offset with the
    width as step, so bytes.count tallies every member of a site in C.
    """
    columns: list[list[bytes]] = [[] for _ in range(measured)]
    start = 0
    while start < len(rows):
        width = len(rows[start])
        if width < measured:
            end = bisect_right(rows, width, start, key=len)
            run = rows[start:end]
        else:
            width, end = measured, len(rows)
            run = map(itemgetter(slice(measured)), rows[start:])
        flat = bytes(chain.from_iterable(run))
        for site in range(width):
            columns[site].append(flat[site::width])
        start = end
    for slices in columns:
        column = b"".join(slices)
        yield [count for count in map(column.count, range(alphabet_size)) if count]


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
    rows = sorted(population.members, key=len)
    sizes = list(_sample_sizes(rows, alphabet_size))
    few_symbols = alphabet_size <= _BYTE_COLUMNS_UP_TO
    if few_symbols and len(rows) >= _BYTE_COLUMNS_UP_TO * alphabet_size:
        counts = _byte_column_counts(rows, len(sizes), alphabet_size)
    else:
        counts = _member_counts(rows, sizes)
    entropies = tuple(map(_entropy, counts, sizes, repeat(alphabet_size)))
    potential = float(len(sizes))
    complexity = max(0.0, potential - sum(entropies))
    return ComplexityReport(
        calculable_length=len(sizes),
        per_site_entropy=entropies,
        complexity=complexity,
        complexity_potential=potential,
        efficiency=complexity / potential,
        max_length=len(rows[-1]),
    )
