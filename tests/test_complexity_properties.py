"""Property tests: invariants that must hold for any population."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import make_population
from evotropy import (
    UnmeasurablePopulationError,
    calculable_length,
    per_site_entropy,
    physical_complexity_variable,
    sample_size,
    site_distribution,
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


class TestSampleSize:
    @given(populations())
    def test_never_increases_with_site(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        sizes = [
            sample_size(population, site)
            for site in range(1, population.max_length + 2)
        ]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    @given(populations())
    def test_site_one_counts_everyone(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        assert sample_size(population, 1) == len(rows)

    @given(populations())
    def test_matches_oracle(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        for site in range(1, population.max_length + 1):
            assert sample_size(population, site) == oracle.sample_size(rows, site)


class TestEntropy:
    @given(populations())
    def test_stays_in_unit_interval(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        for site in range(1, population.max_length + 1):
            entropy = per_site_entropy(
                site_distribution(population, site), alphabet_size
            )
            assert 0.0 <= entropy <= 1.0

    @given(populations())
    def test_matches_oracle_everywhere(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        for site in range(1, population.max_length + 1):
            ours = per_site_entropy(
                site_distribution(population, site), alphabet_size
            )
            theirs = oracle.entropy(oracle.site_counts(rows, site), alphabet_size)
            assert ours == pytest.approx(theirs, abs=1e-12)

    @given(populations(), st.randoms(use_true_random=False))
    def test_member_order_is_irrelevant(self, pop, rng):
        alphabet_size, rows = pop
        shuffled = list(rows)
        rng.shuffle(shuffled)
        population = build(alphabet_size, rows)
        reordered = build(alphabet_size, shuffled)
        for site in range(1, population.max_length + 1):
            assert per_site_entropy(
                site_distribution(population, site), alphabet_size
            ) == per_site_entropy(site_distribution(reordered, site), alphabet_size)

    @given(populations(max_size=8), st.integers(min_value=2, max_value=4))
    def test_duplicating_every_member_changes_nothing(self, pop, copies):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        duplicated = build(alphabet_size, rows * copies)
        for site in range(1, population.max_length + 1):
            assert per_site_entropy(
                site_distribution(population, site), alphabet_size
            ) == per_site_entropy(site_distribution(duplicated, site), alphabet_size)


class TestCalculableLength:
    @given(populations())
    def test_bounded_by_max_length(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        assert 0 <= calculable_length(population) <= population.max_length

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
        length = population.max_length
        if report.calculable_length != length:
            return
        # fixed-length formula: every site measured, length minus entropies
        fixed = length - sum(
            oracle.entropy(oracle.site_counts(rows, site), alphabet_size)
            for site in range(1, length + 1)
        )
        assert report.complexity == pytest.approx(max(0.0, fixed), abs=1e-12)

    @settings(max_examples=200)
    @given(populations(max_size=40))
    def test_one_pass_equals_the_per_site_api_exactly(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        sites = range(1, population.max_length + 1)
        sizes = {site: sample_size(population, site) for site in sites}
        measured = 0
        for site in sites:
            if sizes[site] < alphabet_size * site:
                break
            measured = site
        assert calculable_length(population) == measured
        if measured == 0:
            with pytest.raises(UnmeasurablePopulationError) as excinfo:
                physical_complexity_variable(population)
            assert excinfo.value.sample_sizes == sizes
            return
        report = physical_complexity_variable(population)
        assert report.per_site_entropy == tuple(
            per_site_entropy(site_distribution(population, site), alphabet_size)
            for site in range(1, measured + 1)
        )
        assert report.max_length == population.max_length
