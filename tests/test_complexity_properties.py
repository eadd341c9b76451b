"""Property tests: invariants that must hold for any population."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import make_population, sample_sizes, site_entropy
from evotropy import (
    UnmeasurablePopulationError,
    complexity,
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
        sizes = sample_sizes(rows)
        ordered = [sizes[site] for site in sorted(sizes)]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    @given(populations())
    def test_site_one_counts_everyone(self, pop):
        alphabet_size, rows = pop
        assert sample_sizes(rows)[1] == len(rows)

    @given(populations())
    def test_matches_oracle(self, pop):
        alphabet_size, rows = pop
        longest = max(map(len, rows))
        assert sample_sizes(rows) == {
            site: oracle.sample_size(rows, site) for site in range(1, longest + 1)
        }


class TestEntropy:
    @given(populations())
    def test_stays_in_unit_interval(self, pop):
        alphabet_size, rows = pop
        for site in range(1, max(map(len, rows)) + 1):
            entropy = site_entropy(oracle.site_counts(rows, site), alphabet_size)
            assert 0.0 <= entropy <= 1.0

    @given(populations())
    def test_matches_oracle_everywhere(self, pop):
        alphabet_size, rows = pop
        for site in range(1, max(map(len, rows)) + 1):
            counts = oracle.site_counts(rows, site)
            ours = site_entropy(counts, alphabet_size)
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


@st.composite
def counting_populations(draw):
    """Rows sorted shortest first, on both sides of the byte-column cut:
    alphabets of at most and of more than _BYTE_COLUMNS_UP_TO symbols, with
    fewer and more than _BYTE_COLUMNS_UP_TO members per symbol, some
    symbols left unused."""
    cut = complexity._BYTE_COLUMNS_UP_TO
    alphabet_size = draw(st.sampled_from([2, 3, cut - 1, cut, cut + 1, 2 * cut]))
    per_symbol = draw(st.sampled_from([1, 2, cut - 1, cut, cut + 1]))
    longest = draw(st.integers(min_value=1, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    used = rng.sample(range(alphabet_size), rng.randint(1, alphabet_size))
    rows = [
        [rng.choice(used) for _ in range(rng.randint(1, longest))]
        for _ in range(per_symbol * alphabet_size)
    ]
    return alphabet_size, sorted(rows, key=len)


class TestCountingPaths:
    """The measure hands _entropy each site's non-zero counts in symbol
    order and their sum, unchecked; both counting paths must give them."""

    @settings(deadline=None)
    @given(counting_populations())
    def test_both_paths_give_the_sites_counts_in_symbol_order(self, pop):
        alphabet_size, rows = pop
        sizes = list(complexity._sample_sizes(rows, alphabet_size))
        by_member = list(complexity._member_counts(rows, sizes))
        by_column = list(
            complexity._byte_column_counts(rows, len(sizes), alphabet_size)
        )
        assert by_member == by_column
        assert len(by_member) == len(sizes) >= 1
        for site, (counts, size) in enumerate(zip(by_member, sizes), start=1):
            assert all(counts)
            assert sum(counts) == size
            tally = oracle.site_counts(rows, site)
            assert counts == [tally[symbol] for symbol in sorted(tally)]


def measured_length(alphabet_size, rows):
    """The report's calculable_length; 0 where the measure raises."""
    try:
        report = physical_complexity_variable(build(alphabet_size, rows))
    except UnmeasurablePopulationError:
        return 0
    return report.calculable_length


class TestCalculableLength:
    @given(populations())
    def test_bounded_by_max_length(self, pop):
        alphabet_size, rows = pop
        assert 0 <= measured_length(alphabet_size, rows) <= max(map(len, rows))

    @given(populations())
    def test_matches_oracle(self, pop):
        alphabet_size, rows = pop
        # a report's calculable_length is at least 1, so the oracle's 0
        # matches only where the measure raises
        assert measured_length(alphabet_size, rows) == oracle.calculable_length(
            rows, alphabet_size
        )

    @given(populations(max_size=8), st.integers(min_value=2, max_value=3))
    def test_never_shrinks_under_duplication(self, pop, copies):
        alphabet_size, rows = pop
        duplicated = measured_length(alphabet_size, rows * copies)
        assert duplicated >= measured_length(alphabet_size, rows)


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

    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda size: st.tuples(
                st.just(size),
                st.lists(
                    st.lists(st.integers(0, size - 1), min_size=1, max_size=8),
                    min_size=1,
                    max_size=30,
                ),
            )
        )
    )
    def test_raises_exactly_when_members_are_fewer_than_agents(self, pop):
        alphabet_size, rows = pop
        try:
            physical_complexity_variable(build(alphabet_size, rows))
        except UnmeasurablePopulationError:
            raised = True
        else:
            raised = False
        assert raised == (len(rows) < alphabet_size)
        assert raised == (oracle.calculable_length(rows, alphabet_size) == 0)

    @given(populations())
    def test_complexity_bounded_by_potential(self, pop):
        alphabet_size, rows = pop
        population = build(alphabet_size, rows)
        try:
            report = physical_complexity_variable(population)
        except UnmeasurablePopulationError:
            return
        assert 0.0 <= report.complexity <= report.calculable_length
        assert 0.0 <= report.efficiency <= 1.0

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
