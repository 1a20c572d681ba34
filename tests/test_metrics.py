import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citegauge import errors
from citegauge.corpus import filter_cohort
from citegauge.metrics import (
    DEGENERATE,
    OTHER_VENUES_LABEL,
    GroupStats,
    _count_stats,
    _run_stats,
    group_by_early_threshold,
    group_by_venue,
    h_index,
    pool_venue_rows,
    venue_correlation_table,
    year_correlation_matrix,
)

from conftest import (
    entry,
    exact_pearson,
    make_cohort,
    random_cohort,
    venues_of,
    random_records,
)


def h_index_oracle(counts):
    """Brute force over every candidate h."""
    best = 0
    for h in range(len(counts) + 1):
        if sum(1 for c in counts if c >= h) >= h:
            best = h
    return best


def pearson_oracle(x, y):
    """Two-pass textbook formula, plain Python arithmetic."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


class TestHIndex:
    def test_empty(self):
        assert h_index([]) == 0

    def test_derived_example(self):
        # brute-force oracle over h in 0..5 gives 3
        assert h_index_oracle([5, 4, 3, 1, 1]) == 3
        assert h_index([5, 4, 3, 1, 1]) == 3

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, counts):
        assert h_index(counts) == h_index_oracle(counts)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=30))
    def test_adding_max_never_decreases(self, counts):
        assert h_index(counts + [max(counts)]) >= h_index(counts)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=30),
           st.data())
    def test_removing_any_never_increases(self, counts, data):
        i = data.draw(st.integers(min_value=0, max_value=len(counts) - 1))
        assert h_index(counts[:i] + counts[i + 1:]) <= h_index(counts)


def one_group_stats(count_rows):
    """The statistics of a one-venue cohort's counts at 2020 (the default
    future year of a 2016 cohort): its single venue row."""
    (row,) = group_by_venue(make_cohort(count_rows))
    return row


class TestGroupStats:
    def test_uniform_counts(self):
        s = one_group_stats([{2020: 2}] * 3)
        assert (s.h, s.median, s.mu, s.sigma, s.n) == (2, 2.0, 2.0, 0.0, 3)

    def test_empty_group(self):
        with pytest.raises(errors.EmptyCohort):
            one_group_stats([])

    def test_even_median_averages_middle_two(self):
        assert one_group_stats([{2020: c} for c in [1, 2, 4, 10]]).median == 3.0

    def test_sigma_is_population(self):
        # sample std would be ~2.83
        assert one_group_stats([{2020: 0}, {2020: 4}]).sigma == 2.0

    def test_missing_year_counts_as_zero(self):
        assert one_group_stats([{}, {2020: 4}]).mu == 2.0


class TestGroupByEarlyThreshold:
    def test_threshold_zero_is_whole_cohort(self):
        cohort = make_cohort([{2017: 0, 2020: 1}, {2017: 3, 2020: 5}])
        rows = group_by_early_threshold(cohort, [0])
        by_label = {r.label: r for r in rows}
        assert by_label["0+ citations"].n == 2
        assert by_label["0 citations"].n == 1

    def test_empty_threshold_group_omitted(self):
        cohort = make_cohort([{2017: 5, 2020: 1}] * 4)
        rows = group_by_early_threshold(cohort, [1, 10])
        labels = [r.label for r in rows]
        assert "1+ citations" in labels
        assert "10+ citations" not in labels
        assert "0 citations" not in labels  # nobody has zero early citations

    def test_nested_threshold_monotonicity(self):
        rng = random.Random(7)
        cohort = random_cohort(rng, 80, max_count=30)
        rows = group_by_early_threshold(cohort, [1, 2, 3, 10, 20])
        ts = [r for r in rows if r.label.endswith("+ citations")]
        for lo, hi in zip(ts, ts[1:]):
            assert hi.n <= lo.n
            assert hi.h <= lo.h

    def test_empty_cohort(self):
        with pytest.raises(errors.EmptyCohort):
            group_by_early_threshold(make_cohort([]), [1])


class TestGroupByVenue:
    def test_small_venue_pools_into_other(self):
        cohort = make_cohort(
            [{2020: 1}] * 4,
            venues=["A", "A", "A", "B"],
        )
        rows = group_by_venue(cohort, min_size=2)
        assert [r.label for r in rows] == ["A", "All other venues"]
        assert rows[1].n == 1

    def test_single_venue_no_other_row(self):
        cohort = make_cohort([{2020: 1}] * 3, venues=["A"] * 3)
        rows = group_by_venue(cohort, min_size=1)
        assert [r.label for r in rows] == ["A"]

    def test_partition_covers_cohort(self):
        rng = random.Random(3)
        cohort = random_cohort(rng, 60, venues=("A", "B", "C", "D", "E"))
        rows = group_by_venue(cohort, min_size=10)
        assert sum(r.n for r in rows) == len(cohort)


def numpy_stats(counts, label="", threshold=None):
    """A group's row as numpy's own reductions give it on the float64
    counts, with the brute-force h-index."""
    values = np.array(counts, dtype=np.int64).astype(np.float64)
    return GroupStats(label=label, threshold=threshold,
                      h=h_index_oracle(counts),
                      median=float(np.median(values)),
                      mu=float(np.mean(values)), sigma=float(np.std(values)),
                      n=len(counts))


#: Counts with ties, and counts where float64 rounds (near 2**53) and
#: where the squared deviations are huge (near 2**62).
COUNTS = st.one_of(st.integers(0, 4), st.integers(0, 10 ** 6),
                   st.integers(2 ** 53 - 3, 2 ** 53 + 3),
                   st.integers(2 ** 62 - 3, 2 ** 62 + 3))


class TestRunStatsOracle:
    """The grouped kernel against numpy's reductions on each group alone;
    repr tells -0.0 from 0.0, so the rows match bit for bit."""

    @given(st.lists(st.lists(COUNTS, min_size=1, max_size=12), min_size=1,
                    max_size=8))
    @example([[7]])
    @example([[3, 3]])
    @example([[1, 2, 3], [5, 0, 0, 9], [2 ** 53 + 1, 2 ** 53 + 3]])
    @example([[2 ** 62 + 3, 0, 2 ** 62 - 3, 1], [4]])
    @settings(max_examples=300, deadline=None)
    def test_each_run_is_numpy_stats_of_its_counts(self, groups):
        counts = np.array([c for group in groups for c in group], np.int64)
        sizes = np.array([len(group) for group in groups])
        labels = [f"g{i}" for i in range(len(groups))]
        rows = _run_stats(counts, sizes, labels, range(len(groups)))
        expected = [numpy_stats(group, label, i)
                    for i, (group, label) in enumerate(zip(groups, labels))]
        assert repr(rows) == repr(expected)
        assert repr(rows) == repr(
            [_count_stats(np.array(group, np.int64), label, i)
             for i, (group, label) in enumerate(zip(groups, labels))])

    @given(st.lists(st.tuples(st.sampled_from("ABCDE"), COUNTS), min_size=1,
                    max_size=40),
           st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_group_by_venue_is_numpy_stats_per_venue(self, papers, min_size):
        cohort = make_cohort([{2020: c} for _, c in papers],
                             venues=[v for v, _ in papers])
        by_venue = {}   # first appearance, in id order within a venue
        for venue, count in zip(venues_of(cohort),
                                cohort.counts_in(2020).tolist()):
            by_venue.setdefault(venue, []).append(count)
        kept = sorted((numpy_stats(counts, venue)
                       for venue, counts in by_venue.items()
                       if len(counts) >= min_size),
                      key=lambda r: (-r.mu, r.label))
        pooled = [c for counts in by_venue.values() if len(counts) < min_size
                  for c in counts]
        expected = kept + ([numpy_stats(pooled, OTHER_VENUES_LABEL)]
                           if pooled else [])
        rows = group_by_venue(cohort, min_size)
        assert repr(rows) == repr(expected)
        assert repr(pool_venue_rows(cohort, group_by_venue(cohort),
                                    min_size)) == repr(rows)


def pair_r(x, y):
    """The year table's entry for two count vectors, one paper per pair."""
    cohort = make_cohort([{2016: a, 2017: b} for a, b in zip(x, y)])
    return entry(year_correlation_matrix(cohort, [2016, 2017]), 2016, 2017)


class TestPearson:
    def test_perfectly_linear_two_papers(self):
        # counts (1,2) and (2,4): hand-check gives exactly 1
        assert pair_r([1, 2], [2, 4]) == pytest.approx(1.0, abs=1e-15)
        assert pair_r([1, 2], [2, 4]) == 1.0

    def test_degenerate_on_zero_variance(self):
        assert pair_r([3, 3, 3], [1, 2, 3]) is DEGENERATE

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)),
                    min_size=2, max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_matches_textbook_oracle(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        expected = pearson_oracle(x, y)
        got = pair_r(x, y)
        if expected is None:
            assert got is DEGENERATE
        else:
            assert got == pytest.approx(expected, abs=1e-12)
            assert -1.0 <= got <= 1.0

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                    min_size=3, max_size=40),
           st.integers(min_value=1, max_value=100),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_positive_affine(self, pairs, scale, shift):
        # r is exact before its one rounding, so the double is the same
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        base = pair_r(x, y)
        transformed = pair_r([scale * v + shift for v in x], y)
        if base is DEGENERATE:
            assert transformed is DEGENERATE
        else:
            assert transformed == base


#: Counts that keep the sums small, reach past 2**53 in int64, or push a
#: sum of products past 2**63 so the tables take Python ints.
COUNTS = st.one_of(st.integers(0, 6), st.integers(0, 2 ** 29),
                   st.integers(2 ** 62 - 4, 2 ** 62 + 4))


@st.composite
def small_cohorts(draw):
    """(rows, venues): 2-12 papers' counts in 2016..2018 and venues of A,
    B and C; each year is constant with some probability."""
    n = draw(st.integers(2, 12))
    columns = []
    for _ in range(3):
        if draw(st.booleans()):
            columns.append([draw(COUNTS)] * n)
        else:
            columns.append(draw(st.lists(COUNTS, min_size=n, max_size=n)))
    venues = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    return [dict(zip([2016, 2017, 2018], counts))
            for counts in zip(*columns)], venues


class TestExactTables:
    """Each entry of both tables is the double nearest the exact Pearson r."""

    @given(small_cohorts())
    @example(([{2016: 2 ** 62, 2017: 1}, {2016: 0, 2017: 2 ** 62},
               {2016: 2 ** 62 + 1, 2017: 3}], ["A", "B", "A"]))
    @settings(max_examples=300, deadline=None)
    def test_entries_are_the_rounded_exact_values(self, cohort_rows):
        rows, venues = cohort_rows
        cohort = make_cohort(rows, venues=venues)
        years = [2016, 2017, 2018]
        vectors = {y: [row.get(y, 0) for row in rows] for y in years}
        table = year_correlation_matrix(cohort, years)
        for i, a in enumerate(years):
            assert table.entries[i][i] in (1.0, DEGENERATE)
            for j, b in enumerate(years):
                assert table.entries[i][j] == exact_pearson(vectors[a],
                                                            vectors[b])
                assert table.entries[i][j] == table.entries[j][i]
        names = ["A", "B", "C", "absent"]
        table = venue_correlation_table(cohort, names, years)
        for i, name in enumerate(names):
            indicator = [int(v == name) for v in venues]
            for j, year in enumerate(years):
                assert table.entries[i][j] == exact_pearson(indicator,
                                                            vectors[year])


class TestYearCorrelationMatrix:
    def test_unit_diagonal(self):
        rng = random.Random(0)
        cohort = random_cohort(rng, 30)
        table = year_correlation_matrix(cohort, [2016, 2017, 2018])
        for y in (2016, 2017, 2018):
            assert entry(table, y, y) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_matches_oracle(self):
        rng = random.Random(42)
        for _ in range(20):
            records = random_records(rng, rng.randint(3, 100))
            cohort = filter_cohort(records, 2016)
            years = [2016, 2017, 2018, 2019]
            table = year_correlation_matrix(cohort, years)
            for i, a in enumerate(years):
                for j, b in enumerate(years):
                    assert table.entries[i][j] == table.entries[j][i]
                    x = [p.counts.get(a, 0) for p in records]
                    y = [p.counts.get(b, 0) for p in records]
                    expected = pearson_oracle(x, y)
                    got = table.entries[i][j]
                    if expected is None:
                        assert got is DEGENERATE
                    else:
                        assert got == pytest.approx(expected, abs=1e-12)

    def test_degenerate_year_marked(self):
        cohort = make_cohort([{2016: 1, 2019: 5}, {2016: 2, 2019: 5}])
        table = year_correlation_matrix(cohort, [2016, 2019])
        assert entry(table, 2019, 2019) is DEGENERATE
        assert entry(table, 2016, 2019) is DEGENERATE
        assert entry(table, 2016, 2016) == pytest.approx(1.0)

    def test_too_small_cohort(self):
        with pytest.raises(errors.EmptyCohort):
            year_correlation_matrix(make_cohort([{2016: 1}]), [2016])


def venue_indicator_r(cohort, venue, year):
    return entry(venue_correlation_table(cohort, [venue], [year]), venue, year)


class TestIndicatorCorrelation:
    def test_two_point_sign(self):
        # indicator [1,0] vs counts [5,1]: two-point Pearson is +1
        cohort = make_cohort([{2016: 5}, {2016: 1}], venues=["X", "Y"])
        r = venue_indicator_r(cohort, "X", 2016)
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_when_all_members(self):
        cohort = make_cohort([{2016: 5}, {2016: 1}], venues=["X", "X"])
        assert venue_indicator_r(cohort, "X", 2016) is DEGENERATE

    def test_matches_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            records = random_records(rng, rng.randint(4, 60))
            pred = lambda p: p.venue == "A"
            got = venue_indicator_r(filter_cohort(records, 2016), "A", 2017)
            x = [1 if pred(p) else 0 for p in records]
            y = [p.counts.get(2017, 0) for p in records]
            expected = pearson_oracle(x, y)
            if expected is None:
                assert got is DEGENERATE
            else:
                assert got == pytest.approx(expected, abs=1e-12)
