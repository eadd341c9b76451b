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
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .core import Population

__all__ = [
    "ComplexityReport",
    "UnmeasurablePopulationError",
    "per_site_entropy",
    "calculable_length",
    "physical_complexity_variable",
    "efficiency",
]


@dataclass(frozen=True)
class ComplexityReport:
    """Everything measured about one population in a single pass."""

    calculable_length: int
    per_site_entropy: tuple[float, ...]
    complexity: float
    complexity_potential: float
    efficiency: float
    max_length: int


class UnmeasurablePopulationError(ValueError):
    """No site has enough samples for a trustworthy entropy estimate.

    Carries the per-site sample sizes so callers can see how far short
    the population falls of the alphabet_size * site threshold.
    """

    def __init__(self, message: str, sample_sizes: dict[int, int]):
        super().__init__(message)
        self.sample_sizes = dict(sample_sizes)


def per_site_entropy(counts: dict[int, int], alphabet_size: int) -> float:
    """Shannon entropy of one site's symbol counts, in units of base alphabet_size.

    `counts` maps each symbol to how many members carry it at the site.
    Zero-probability symbols contribute nothing (0 log 0 = 0).  A
    unanimous site is exactly 0.0 and counts spread uniformly over the
    whole alphabet are exactly 1.0; everything else lands strictly
    between, clamped against last-bit rounding.
    """
    if alphabet_size < 2:
        raise ValueError(f"alphabet_size must be >= 2, got {alphabet_size}")
    if any(count < 0 for count in counts.values()):
        raise ValueError("symbol counts must be non-negative")
    occupied = {
        symbol: count
        for symbol, count in counts.items()
        if count > 0
    }
    if not occupied:
        raise ValueError("entropy is undefined for an empty site (sample size 0)")
    if len(occupied) > alphabet_size:
        raise ValueError(
            f"{len(occupied)} distinct symbols cannot come from an "
            f"alphabet of size {alphabet_size}"
        )
    if len(occupied) == 1:
        return 0.0
    if len(occupied) == alphabet_size and len(set(occupied.values())) == 1:
        return 1.0
    log_base = math.log(alphabet_size)
    total = sum(occupied.values())
    entropy = 0.0
    # sorted symbol order keeps the summation independent of member order
    for symbol in sorted(occupied):
        p = occupied[symbol] / total
        entropy -= p * math.log(p) / log_base
    return min(1.0, max(0.0, entropy))


def _rows_and_reach(rows: Iterable[Sequence[int]]) -> tuple[list, list[int]]:
    """Member symbol rows, longest first, and the sample size of every site.

    reach[site] counts the rows long enough to reach `site` (1-based;
    reach[0] is unused).  Because the rows are sorted by length, the
    rows reaching a site are exactly rows[:reach[site]].
    """
    rows = sorted(rows, key=len, reverse=True)
    histogram = Counter(map(len, rows))
    reach = [0] * (len(rows[0]) + 1)
    running = 0
    for site in range(len(reach) - 1, 0, -1):
        running += histogram[site]
        reach[site] = running
    return rows, reach


def _measurable_prefix(reach: list[int], alphabet_size: int) -> int:
    """The calculable length read off the per-site sample sizes."""
    best = 0
    for site in range(1, len(reach)):
        if reach[site] < alphabet_size * site:
            break
        best = site
    return best


def calculable_length(population: Population) -> int:
    """Longest site prefix with enough samples to measure, 0 if none.

    A site L is measurable when at least alphabet_size * L members reach
    it.  Sample sizes only shrink with L while the threshold grows, so
    the measurable sites form a contiguous prefix.
    """
    if len(population) == 0:
        raise ValueError("calculable length of an empty population is undefined")
    _, reach = _rows_and_reach(population.members)
    return _measurable_prefix(reach, population.alphabet_size)


def physical_complexity_variable(population: Population) -> ComplexityReport:
    """Measure a variable-length population over its calculable prefix.

    Raises UnmeasurablePopulationError when no site clears the sampling
    threshold, attaching the per-site sample sizes for diagnosis.
    """
    if len(population) == 0:
        raise ValueError("complexity of an empty population is undefined")
    alphabet_size = population.alphabet_size
    rows, reach = _rows_and_reach(population.members)
    measured = _measurable_prefix(reach, alphabet_size)
    if measured == 0:
        raise UnmeasurablePopulationError(
            f"no site has sample size >= {alphabet_size} * site; "
            "population is too small to measure",
            {site: reach[site] for site in range(1, len(reach))},
        )
    entropies = tuple(
        per_site_entropy(
            Counter(map(itemgetter(site - 1), rows[: reach[site]])), alphabet_size
        )
        for site in range(1, measured + 1)
    )
    potential = float(measured)
    complexity = max(0.0, potential - sum(entropies))
    return ComplexityReport(
        calculable_length=measured,
        per_site_entropy=entropies,
        complexity=complexity,
        complexity_potential=potential,
        efficiency=complexity / potential,
        max_length=len(rows[0]),
    )


def efficiency(population: Population) -> float:
    """Fraction of the measurable information space actually filled.

    1.0 means every measurable site is fully pinned down, 0.0 means the
    measured prefix is pure noise.
    """
    return physical_complexity_variable(population).efficiency
