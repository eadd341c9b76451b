import copy
import math
import pickle
import random
import tracemalloc

import pytest

import oracle
from conftest import (
    analyze_like_rows,
    make_population,
    sample_sizes,
    site_entropy,
)
from evotropy import (
    Population,
    complexity,
    UnmeasurablePopulationError,
    physical_complexity_variable,
)

# entropy of a 3:1 split in base 2, frozen from a 40-digit computation
H_3_TO_1_BASE2 = 0.8112781244591328
# entropy of a 2:1 split in base 2, log2(3) - 2/3 to 19 digits
H_2_TO_1_BASE2 = 0.9182958340544895

MIXED_LENGTH_ROWS = [[0, 1, 2, 0, 1, 2] for _ in range(10)] + [
    [2, 2, 2, 2, 2] for _ in range(6)
]


def mixed_length_population(alphabet3):
    # 10 members of length 6 and 6 of length 5
    return make_population(alphabet3, MIXED_LENGTH_ROWS)


class TestMembersReachingEachSite:
    def test_counts_members_reaching_site(self):
        sizes = sample_sizes(MIXED_LENGTH_ROWS)
        assert sizes[5] == 16
        assert sizes[6] == 10

    def test_beyond_max_length_is_zero(self):
        # the table ends at the longest member
        assert max(sample_sizes(MIXED_LENGTH_ROWS)) == 6

    def test_site_one_is_population_size(self):
        assert sample_sizes(MIXED_LENGTH_ROWS)[1] == 16


class TestReportedSiteEntropies:
    """The symbols at one site, over the members that reach it."""

    def test_unanimous_site(self, alphabet2):
        population = make_population(alphabet2, [[0, 1], [0], [0, 0]])
        assert physical_complexity_variable(population).per_site_entropy == (0.0,)

    def test_short_members_are_skipped(self, alphabet2):
        # site 2 is reached by the four [0, 1] members only
        population = make_population(alphabet2, [[0, 1]] * 4 + [[1]] * 2)
        report = physical_complexity_variable(population)
        assert report.per_site_entropy == (
            pytest.approx(H_2_TO_1_BASE2, abs=1e-12),
            0.0,
        )

    def test_split_site(self, alphabet2):
        population = make_population(alphabet2, [[0, 1], [1, 0]])
        assert physical_complexity_variable(population).per_site_entropy == (1.0,)


class TestEntropyOfCounts:
    """The measure's site entropy: non-zero counts in symbol order, their sum
    and the alphabet size."""

    def test_unanimous_is_exactly_zero(self):
        assert complexity._entropy([4], 4, 4) == 0.0

    def test_uniform_over_alphabet_is_exactly_one(self):
        assert complexity._entropy([1, 1, 1, 1], 4, 4) == 1.0

    def test_three_to_one_split(self):
        assert complexity._entropy([3, 1], 4, 2) == pytest.approx(
            H_3_TO_1_BASE2, abs=1e-9
        )

    def test_growing_the_base_shrinks_nonzero_entropy(self):
        # the same 3:1 counts measured against a larger alphabet
        base2 = complexity._entropy([3, 1], 4, 2)
        base3 = complexity._entropy([3, 1], 4, 3)
        assert base3 == pytest.approx(0.5118595071429148, abs=1e-9)
        assert base3 < base2


class TestReportedCalculableLength:
    """The report's calculable_length, the longest measurable site prefix."""

    def test_mixed_length_example(self, alphabet3):
        # site 5: 16 >= 15 qualifies; site 6: 10 < 18 does not
        report = physical_complexity_variable(mixed_length_population(alphabet3))
        assert report.calculable_length == 5

    def test_fixed_length_with_enough_members(self, alphabet2):
        population = make_population(alphabet2, [[0, 1, 0]] * 6)
        assert physical_complexity_variable(population).calculable_length == 3

    def test_small_population_measures_first_site_only(self, alphabet4):
        population = make_population(alphabet4, [[0, 1, 2]] * 5)
        # site 1: 5 >= 4; site 2: 5 < 8
        assert physical_complexity_variable(population).calculable_length == 1

    def test_too_small_population_yields_zero(self, alphabet3):
        # no measurable site: the oracle's length is 0 and the measure raises
        rows = [[0], [1]]
        assert oracle.calculable_length(rows, 3) == 0
        with pytest.raises(UnmeasurablePopulationError):
            physical_complexity_variable(make_population(alphabet3, rows))

    def test_rejects_empty_population(self, alphabet3):
        with pytest.raises(ValueError):
            physical_complexity_variable(Population((), len(alphabet3)))

    def test_agrees_with_naive_oracle(self, alphabet3):
        rows = [[0, 1], [1], [2, 2, 2], [0, 0], [1, 1], [2, 0], [0, 1, 2]]
        report = physical_complexity_variable(make_population(alphabet3, rows))
        assert report.calculable_length == oracle.calculable_length(rows, 3)


class TestComplexityOfEqualLengths:
    """Equal-length populations large enough to measure every site: the
    calculable-length measure reduces to length minus summed entropies."""

    def test_unanimous_population(self, alphabet2):
        population = make_population(alphabet2, [[0, 1, 0, 1]] * 8)
        assert physical_complexity_variable(population).complexity == 4.0

    def test_fully_random_population(self, alphabet2):
        population = make_population(alphabet2, [[0, 0], [0, 1], [1, 0], [1, 1]])
        assert physical_complexity_variable(population).complexity == 0.0

    def test_three_to_one_site(self, alphabet2):
        population = make_population(alphabet2, [[0, 0], [0, 0], [0, 0], [0, 1]])
        expected = 2.0 - H_3_TO_1_BASE2
        assert physical_complexity_variable(population).complexity == pytest.approx(
            expected, abs=1e-9
        )


class TestPhysicalComplexityVariable:
    def test_report_fields_for_mixed_population(self, alphabet3):
        report = physical_complexity_variable(mixed_length_population(alphabet3))
        assert report.calculable_length == 5
        assert report.max_length == 6
        assert len(report.per_site_entropy) == 5
        assert report.complexity == pytest.approx(
            report.calculable_length - sum(report.per_site_entropy), abs=1e-12
        )
        assert report.efficiency == pytest.approx(
            report.complexity / report.calculable_length, abs=1e-12
        )

    def test_unanimous_population(self, alphabet3):
        population = make_population(alphabet3, [[0, 1, 2, 0]] * 16)
        report = physical_complexity_variable(population)
        assert report.calculable_length == 4
        assert report.complexity == 4.0
        assert report.efficiency == 1.0

    def test_matches_oracle_on_mixed_population(self, alphabet3):
        rows = [[0, 1, 2], [1, 1], [2, 0, 1], [0, 0], [1, 2, 0], [2], [0, 1], [1, 0, 2]]
        report = physical_complexity_variable(make_population(alphabet3, rows))
        expected = oracle.complexity_report(rows, 3)
        assert expected is not None
        measured, entropies, complexity, eff = expected
        assert report.calculable_length == measured
        for ours, theirs in zip(report.per_site_entropy, entropies):
            assert ours == pytest.approx(theirs, abs=1e-12)
        assert report.complexity == pytest.approx(complexity, abs=1e-12)
        assert report.efficiency == pytest.approx(eff, abs=1e-12)

    def test_unmeasurable_population_raises_naming_both_counts(self, alphabet3):
        population = make_population(alphabet3, [[0, 1], [1]])
        with pytest.raises(UnmeasurablePopulationError) as excinfo:
            physical_complexity_variable(population)
        assert str(excinfo.value) == (
            "member count 2 is below alphabet_size 3; "
            "population is too small to measure"
        )

    def test_unmeasurable_footprint_does_not_grow_with_member_length(self):
        # one member, fewer than the 2 agents, however long it is
        peaks, errors = {}, {}
        for length in (50, 50_000):
            population = Population.from_rows(2, [[0] * length])
            tracemalloc.start()
            try:
                physical_complexity_variable(population)
            except UnmeasurablePopulationError as error:
                errors[length] = error
            finally:
                peaks[length] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        assert peaks[50_000] <= 1.5 * peaks[50]
        assert str(errors[50_000]) == str(errors[50])

    def test_unmeasurable_error_survives_pickle_and_copy(self):
        error = UnmeasurablePopulationError("too small")
        for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
            assert type(clone) is UnmeasurablePopulationError
            assert str(clone) == str(error) == "too small"
            assert clone.args == ("too small",)

    def test_agrees_with_fixed_formula_when_lengths_equal(self, alphabet2):
        rows = [[0, 0], [0, 1], [1, 1], [0, 0], [1, 0], [0, 0]]
        population = make_population(alphabet2, rows)
        report = physical_complexity_variable(population)
        assert report.calculable_length == 2
        # both sites split 4:2
        assert report.complexity == pytest.approx(2.0 - 2 * H_2_TO_1_BASE2, abs=1e-12)

    def test_the_measure_holds_under_16_bytes_per_member(self):
        # members are grouped by length, not sorted, and each site's counts
        # are tallied as they come, with no column of symbols kept
        population = Population(analyze_like_rows(20_000, seed=13), 16)
        tracemalloc.start()
        try:
            report = physical_complexity_variable(population)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.calculable_length > 30
        assert peak < 16 * len(population)


def counting_path_rows(shape, alphabet_size, members):
    """Rows over the whole alphabet, half of each site on one symbol."""
    rng = random.Random(f"{shape}:{alphabet_size}:{members}")
    if shape == "longer than measured":
        lengths = [50] * members
    elif shape == "one length":
        lengths = [3] * members
    else:  # one member of each length
        lengths = list(range(1, members + 1))
        rng.shuffle(lengths)
    top = alphabet_size - 1
    return [
        [top if rng.random() < 0.5 else rng.randrange(alphabet_size) for _ in range(n)]
        for n in lengths
    ]


class TestCountingPaths:
    """Alphabets of up to 32 symbols with at least 32 members per symbol
    are counted from byte columns, everything else member by member; both
    must give the oracle's counts, hence the same entropies."""

    @pytest.mark.parametrize(
        "alphabet_size, per_symbol",
        [(size, 4) for size in (2, 16, 32, 33, 255, 256, 257, 300)]
        + [(size, 32) for size in (2, 16, 32, 33)],
    )
    @pytest.mark.parametrize(
        "shape", ["longer than measured", "one length", "one of each length"]
    )
    def test_matches_oracle(self, monkeypatch, shape, alphabet_size, per_symbol):
        rows = counting_path_rows(shape, alphabet_size, per_symbol * alphabet_size)
        byte_columns = []
        count = complexity._byte_column_counts

        def counted(*args):
            byte_columns.append(args)
            return count(*args)

        monkeypatch.setattr(complexity, "_byte_column_counts", counted)
        report = physical_complexity_variable(Population(rows, alphabet_size))
        assert bool(byte_columns) == (alphabet_size <= 32 and per_symbol == 32)
        measured, entropies, _, _ = oracle.complexity_report(rows, alphabet_size)
        assert report.calculable_length == measured
        assert report.per_site_entropy == tuple(
            site_entropy(oracle.site_counts(rows, site), alphabet_size)
            for site in range(1, measured + 1)
        )
        assert report.per_site_entropy == pytest.approx(entropies, abs=1e-12)


class TestEfficiency:
    """The report's efficiency, complexity per measured site."""

    def test_unanimous_is_exactly_one(self, alphabet2):
        population = make_population(alphabet2, [[0, 1, 1]] * 6)
        assert physical_complexity_variable(population).efficiency == 1.0

    def test_random_is_zero(self, alphabet2):
        population = make_population(alphabet2, [[0, 0], [0, 1], [1, 0], [1, 1]])
        efficiency = physical_complexity_variable(population).efficiency
        assert efficiency == pytest.approx(0.0, abs=1e-12)

    def test_one_ordered_site_out_of_four(self, alphabet2):
        # site 1 unanimous; sites 2-4 exactly uniform
        rows = [
            [0, i % 2, (i // 2) % 2, (i // 4) % 2] for i in range(16)
        ]
        population = make_population(alphabet2, rows)
        efficiency = physical_complexity_variable(population).efficiency
        assert efficiency == pytest.approx(0.25, abs=1e-12)

    def test_propagates_unmeasurable_population(self, alphabet3):
        population = make_population(alphabet3, [[0], [1]])
        with pytest.raises(UnmeasurablePopulationError):
            physical_complexity_variable(population)


def test_entropy_value_is_reproducible_against_log_identity():
    # same quantity through a different algebraic route
    ours = complexity._entropy([3, 1], 4, 2)
    theirs = (math.log(4) - (3 * math.log(3) + 1 * math.log(1)) / 4) / math.log(2)
    assert ours == pytest.approx(theirs, abs=1e-12)
