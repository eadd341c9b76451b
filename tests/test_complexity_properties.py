"""Property tests: invariants that must hold for any population."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import make_population, sample_sizes
from evotropy import (
    UnmeasurablePopulationError,
    calculable_length,
    per_site_entropy,
    physical_complexity_variable,
)


@st.composite
def populations(draw, min_size=1, max_size=24, fixed_length=None):
    alphabet_size = draw(st.integers(min_value=2, max_value=6))
    symbols = st.integers(min_value=0, max_value=alphabet_size - 1)
    if fixed_length is None:
        row = st.lists(symbols, min_size=1, max_size=6)
    else:
        length = draw(st.integers(min_value=1, max_value=6))
        row = st.lists(symbols, min_size=length, max_size=length)
    rows = draw(st.lists(row, min_size=min_size, max_size=max_size))
    return alphabet_size, rows


def build(alphabet_size, rows):
    from conftest import make_alphabet

    return make_population(make_alphabet(alphabet_size), rows)


def entropies_or_none(alphabet_size, rows):
    try:
        return physical_complexity_variable(build(alphabet_size, rows)).per_site_entropy
    except UnmeasurablePopulationError:
        return None


class TestSampleSize:
    @given(populations())
    def test_never_increases_with_site(self, pop):
        alphabet_size, rows = pop
        sizes = sample_sizes(rows, alphabet_size)
        ordered = [sizes[site] for site in sorted(sizes)]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    @given(populations())
    def test_site_one_counts_everyone(self, pop):
        alphabet_size, rows = pop
        assert sample_sizes(rows, alphabet_size)[1] == len(rows)

    @given(populations())
    def test_matches_oracle(self, pop):
        alphabet_size, rows = pop
        longest = max(map(len, rows))
        assert sample_sizes(rows, alphabet_size) == {
            site: oracle.sample_size(rows, site) for site in range(1, longest + 1)
        }


class TestEntropy:
    @given(populations())
    def test_stays_in_unit_interval(self, pop):
        alphabet_size, rows = pop
        for site in range(1, max(map(len, rows)) + 1):
            entropy = per_site_entropy(oracle.site_counts(rows, site), alphabet_size)
            assert 0.0 <= entropy <= 1.0

    @given(populations())
    def test_matches_oracle_everywhere(self, pop):
        alphabet_size, rows = pop
        for site in range(1, max(map(len, rows)) + 1):
            counts = oracle.site_counts(rows, site)
            ours = per_site_entropy(counts, alphabet_size)
            theirs = oracle.entropy(counts, alphabet_size)
            assert ours == pytest.approx(theirs, abs=1e-12)

    @given(populations(), st.randoms(use_true_random=False))
    def test_member_order_is_irrelevant(self, pop, rng):
        alphabet_size, rows = pop
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert entropies_or_none(alphabet_size, rows) == entropies_or_none(
            alphabet_size, shuffled
        )

    @given(populations(max_size=8), st.integers(min_value=2, max_value=4))
    def test_duplicating_every_member_changes_nothing(self, pop, copies):
        alphabet_size, rows = pop
        entropies = entropies_or_none(alphabet_size, rows)
        duplicated = entropies_or_none(alphabet_size, rows * copies)
        # duplication can only make more sites measurable
        if entropies is not None:
            assert duplicated[: len(entropies)] == entropies


class TestCalculableLength:
    @given(populations())
    def test_bounded_by_max_length(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        assert 0 <= calculable_length(population) <= max(map(len, rows))

    @given(populations())
    def test_matches_oracle(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        assert calculable_length(population) == oracle.calculable_length(
            rows, alphabet_size
        )

    @given(populations(max_size=8), st.integers(min_value=2, max_value=3))
    def test_never_shrinks_under_duplication(self, pop, copies):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        duplicated = build(alphabet_size, rows * copies)
        assert calculable_length(duplicated) >= calculable_length(population)


class TestComplexityReport:
    @settings(max_examples=200)
    @given(populations())
    def test_matches_oracle_or_both_unmeasurable(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        expected = oracle.complexity_report(rows, alphabet_size)
        if expected is None:
            with pytest.raises(UnmeasurablePopulationError):
                physical_complexity_variable(population)
            return
        measured, entropies, complexity, eff = expected
        report = physical_complexity_variable(population)
        assert report.calculable_length == measured
        assert report.max_length == max(map(len, rows))
        assert len(report.per_site_entropy) == measured
        for ours, theirs in zip(report.per_site_entropy, entropies):
            assert ours == pytest.approx(theirs, abs=1e-12)
        assert report.complexity == pytest.approx(complexity, abs=1e-12)
        assert report.efficiency == pytest.approx(eff, abs=1e-12)

    @given(populations())
    def test_complexity_bounded_by_potential(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        try:
            report = physical_complexity_variable(population)
        except UnmeasurablePopulationError:
            return
        assert 0.0 <= report.complexity <= report.complexity_potential
        assert 0.0 <= report.efficiency <= 1.0
        assert report.complexity_potential == float(report.calculable_length)

    @given(populations(min_size=12, fixed_length=True))
    def test_variable_agrees_with_fixed_on_equal_lengths(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        try:
            report = physical_complexity_variable(population)
        except UnmeasurablePopulationError:
            return
        length = len(rows[0])
        if report.calculable_length != length:
            return
        # fixed-length formula: every site measured, length minus entropies
        fixed = length - sum(
            oracle.entropy(oracle.site_counts(rows, site), alphabet_size)
            for site in range(1, length + 1)
        )
        assert report.complexity == pytest.approx(max(0.0, fixed), abs=1e-12)
