"""Differential test of the statistics that read the cohort as columns
(Cohort.counts_in, Cohort.venues) against the per-paper code they replaced.

The oracles below are the previous implementations, copied verbatim apart
from their names: each walked the cohort paper by paper.  Outputs must be
equal with ==, not approximately: the reports print full-precision floats,
so one ulp is a changed report.  The seeded cohorts include empty and
single-paper threshold groups, many small venues interleaved in id order and
pooled into "All other venues", venue names that differ only by a trailing
NUL, all-zero (degenerate) years, and cohorts over 8192 papers (numpy's
buffer size) with counts past 2**53, where a sum cast from int64 chunk by
chunk rounds differently from one over float64.
"""

import random
from collections import Counter

import numpy as np
import pytest

from citegauge.corpus import PaperRecord, Source, filter_cohort
from citegauge.errors import EmptyCohort, EmptyGroup, TooFewRows
from citegauge.metrics import (
    DEFAULT_EARLY_OFFSET,
    DEFAULT_FUTURE_OFFSET,
    OTHER_VENUES_LABEL,
    CorrelationTable,
    GroupStats,
    group_by_early_threshold,
    group_by_venue,
    h_index,
    pearson,
    venue_correlation_table,
    year_correlation_matrix,
)
from citegauge.model import (
    DEFAULT_MIN_VENUE_SIZE,
    DEFAULT_T,
    MISC_VENUE,
    BoxplotRow,
    DesignMatrix,
    FittedModel,
    PercentileFrame,
    boxplot_aggregate,
    build_design_matrix,
    percentile_transform,
)
from citegauge.triage import RankedPaper, ddi_rank


# --- oracles: the per-paper implementations ----------------------------------

def old_h_index(counts):
    ordered = sorted(counts, reverse=True)
    h = 0
    for i, c in enumerate(ordered, 1):
        if c >= i:
            h = i
        else:
            break
    return h


def old_future_counts(group, future_year):
    return np.array([p.citations_in(future_year) for p in group], dtype=float)


def old_group_stats(group, future_year, label="", threshold=None):
    if len(group) == 0:
        raise EmptyGroup(f"group {label!r} is empty")
    counts = old_future_counts(group, future_year)
    return GroupStats(
        label=label,
        threshold=threshold,
        h=old_h_index([int(c) for c in counts]),
        median=float(np.median(counts)),
        mu=float(np.mean(counts)),
        sigma=float(np.std(counts)),
        n=len(group),
    )


def old_group_by_early_threshold(cohort, thresholds,
                                 early_offset=DEFAULT_EARLY_OFFSET,
                                 future_offset=DEFAULT_FUTURE_OFFSET):
    if len(cohort) == 0:
        raise EmptyCohort("cannot group an empty cohort")
    early_year = cohort.pub_year + early_offset
    future_year = cohort.pub_year + future_offset
    rows = []
    zero_group = [p for p in cohort if p.citations_in(early_year) == 0]
    if zero_group:
        rows.append(old_group_stats(zero_group, future_year,
                                    label="0 citations", threshold=0))
    for t in thresholds:
        members = [p for p in cohort if p.citations_in(early_year) >= t]
        if not members:
            continue
        rows.append(old_group_stats(members, future_year,
                                    label=f"{t}+ citations", threshold=t))
    return rows


def old_group_by_venue(cohort, min_size=1, future_offset=DEFAULT_FUTURE_OFFSET):
    if len(cohort) == 0:
        raise EmptyCohort("cannot group an empty cohort")
    future_year = cohort.pub_year + future_offset
    by_venue = {}
    for p in cohort:
        by_venue.setdefault(p.venue, []).append(p)
    named, other = [], []
    for venue, members in by_venue.items():
        (named if len(members) >= min_size else other).append((venue, members))
    rows = [old_group_stats(members, future_year, label=venue)
            for venue, members in named]
    rows.sort(key=lambda r: (-r.mu, r.label))
    if other:
        pooled = [p for _, members in other for p in members]
        rows.append(old_group_stats(pooled, future_year,
                                    label=OTHER_VENUES_LABEL))
    return rows


def old_year_correlation_matrix(cohort, years):
    if len(cohort) < 2:
        raise EmptyCohort("correlation needs a cohort of size >= 2")
    if not years:
        raise ValueError("years must be non-empty")
    vectors = {y: old_future_counts(cohort.papers, y) for y in years}
    n = len(years)
    grid = [[None] * n for _ in range(n)]
    for i, a in enumerate(years):
        for j, b in enumerate(years[i:], start=i):
            r = pearson(vectors[a], vectors[b])
            grid[i][j] = r
            grid[j][i] = r
    return CorrelationTable(
        row_labels=tuple(years),
        col_labels=tuple(years),
        entries=tuple(tuple(row) for row in grid),
    )


def old_indicator_correlation(cohort, venue_predicate, year):
    if len(cohort) < 2:
        raise EmptyCohort("correlation needs a cohort of size >= 2")
    indicator = np.array([1.0 if venue_predicate(p) else 0.0 for p in cohort])
    counts = old_future_counts(cohort.papers, year)
    return pearson(indicator, counts)


def old_venue_correlation_table(cohort, venue_names, years, membership=None):
    if membership is None:
        membership = lambda p, v: p.venue == v
    entries = []
    for venue in venue_names:
        pred = lambda p, v=venue: membership(p, v)
        entries.append(tuple(old_indicator_correlation(cohort, pred, y)
                             for y in years))
    return CorrelationTable(
        row_labels=tuple(venue_names),
        col_labels=tuple(years),
        entries=tuple(entries),
    )


def old_percentile_transform(cohort, future_year=None):
    if len(cohort) == 0:
        raise EmptyCohort("cannot compute percentiles of an empty cohort")
    if future_year is None:
        future_year = cohort.pub_year + DEFAULT_FUTURE_OFFSET
    counts = np.array([p.citations_in(future_year) for p in cohort], dtype=np.int64)
    _, group, size = np.unique(counts, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(size) - (size - 1) / 2.0)[group]
    percentiles = 100.0 * (ranks - 0.5) / len(counts)
    return PercentileFrame(
        pub_year=cohort.pub_year,
        future_year=future_year,
        paper_ids=tuple(p.id for p in cohort),
        percentiles=tuple(percentiles.tolist()),
    )


def old_build_design_matrix(cohort, T=DEFAULT_T, early_offset=DEFAULT_EARLY_OFFSET,
                            min_venue_size=DEFAULT_MIN_VENUE_SIZE,
                            reference_venue=None):
    if len(cohort) == 0:
        raise EmptyCohort("cannot build a design matrix for an empty cohort")
    if T < 1:
        raise ValueError("T must be >= 1")
    early_year = cohort.pub_year + early_offset

    venue_sizes = Counter(p.venue for p in cohort)
    row_venues = tuple(
        p.venue if venue_sizes[p.venue] >= min_venue_size else MISC_VENUE
        for p in cohort
    )
    level_sizes = Counter(row_venues)

    if reference_venue is None:
        reference_venue = min(level_sizes, key=lambda v: (-level_sizes[v], v))
    elif reference_venue not in level_sizes:
        raise ValueError(f"reference venue {reference_venue!r} not a level "
                         f"of this cohort (levels: {sorted(level_sizes)})")

    venue_levels = tuple(sorted(v for v in level_sizes if v != reference_venue))
    early = np.array([p.citations_in(early_year) for p in cohort], dtype=np.int64)
    if np.any(early < 0):
        raise ValueError("count must be non-negative")
    row_early = np.minimum(early, T)
    early_levels = tuple(np.unique(row_early[row_early > 0]).tolist())

    columns = ["intercept"]
    columns += [f"venue:{v}" for v in venue_levels]
    columns += [f"early:{k}" for k in early_levels]
    n, k = len(cohort), len(columns)
    if n < k:
        raise TooFewRows(f"{n} rows < {k} columns")

    return DesignMatrix(
        column_names=tuple(columns),
        venue_levels=venue_levels,
        reference_venue=reference_venue,
        T=T,
        early_levels=early_levels,
        row_venues=row_venues,
        row_early=tuple(row_early.tolist()),
    )


def old_ddi_rank(cohort, early_offset=DEFAULT_EARLY_OFFSET, model=None):
    if len(cohort) == 0:
        raise EmptyCohort("cannot rank an empty cohort")
    early_year = cohort.pub_year + early_offset
    rows = []
    for p in cohort:
        early = p.citations_in(early_year)
        predicted = model.predict(p.venue, early) if model is not None else None
        rows.append(RankedPaper(p.id, early, p.venue, predicted))
    rows.sort(key=lambda r: (
        -r.early_count,
        -(r.predicted_percentile if r.predicted_percentile is not None else 0.0),
        r.paper_id,
    ))
    return rows


def old_boxplot_aggregate(values, groups, sort_by_median=False):
    if len(values) == 0:
        raise ValueError("no values to aggregate")
    buckets = {}
    for v, g in zip(values, groups):
        buckets.setdefault(g, []).append(float(v))
    rows = []
    for key in sorted(buckets, key=str):
        data = np.array(buckets[key])
        q1, med, q3 = np.percentile(data, [25, 50, 75])
        rows.append(BoxplotRow(
            label=str(key),
            minimum=float(data.min()),
            q1=float(q1),
            median=float(med),
            q3=float(q3),
            maximum=float(data.max()),
            n=len(data),
        ))
    if sort_by_median:
        rows.sort(key=lambda r: (-r.median, r.label))
    return rows


# --- seeded cohorts ----------------------------------------------------------

PUB_YEAR = 2016
YEARS = list(range(PUB_YEAR, PUB_YEAR + 8))


def seeded_cohort(seed, size=None, scale=1):
    """A cohort with heavy-tailed counts (times scale), Zipf-sized venues in
    random id order, and zero, one or two years in which every count is 0."""
    rng = random.Random(seed)
    if size is None:
        size = rng.choice([1, 2, 3, rng.randint(4, 40), rng.randint(40, 400)])
    names = [f"V{i:02d}" for i in range(rng.randint(1, 40))]
    names += rng.sample(["misc", "", "V00\x00", "V01\x00", "ünï"], 2)
    weights = [1.0 / (i + 1) ** rng.uniform(0.3, 1.5) for i in range(len(names))]
    zero_years = set(rng.sample(YEARS, rng.randint(0, 2)))
    ids = rng.sample(range(10 * size + 10), size)
    papers = []
    for pid in ids:
        quality = rng.paretovariate(1.1)
        counts = {}
        for year in YEARS:
            if year in zero_years or rng.random() < 0.25:
                continue
            counts[year] = scale * int(rng.expovariate(1.0) * quality
                                       * (year - PUB_YEAR + 1))
        papers.append(PaperRecord(id=f"p{pid:06d}", source=Source.ACL,
                                  venue=rng.choices(names, weights)[0],
                                  pub_year=PUB_YEAR, counts=counts))
    return rng, filter_cohort(papers, PUB_YEAR)


def outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("error", type(exc), str(exc))


SEEDS = range(120)
LARGE = [(1000, 9000, 1), (1001, 10500, 1), (1002, 9000, 10 ** 12 + 1)]


def check_all(rng, cohort):
    max_early = max((p.citations_in(PUB_YEAR + 1) for p in cohort), default=0)
    thresholds = sorted(rng.sample(range(1, max_early + 3), min(5, max_early + 2)))
    thresholds += [max_early, max_early + 1, 10 ** 6]   # one paper, then none
    early_offset = rng.randint(1, 3)
    future_offset = rng.choice([early_offset, 4, 7, 9])   # 9: no counts at all

    assert group_by_early_threshold(cohort, thresholds) == \
        old_group_by_early_threshold(cohort, thresholds)
    assert outcome(group_by_early_threshold, cohort, thresholds, early_offset,
                   future_offset) == \
        outcome(old_group_by_early_threshold, cohort, thresholds, early_offset,
                future_offset)
    for min_size in (1, 2, rng.randint(3, 60)):
        assert outcome(group_by_venue, cohort, min_size, future_offset) == \
            outcome(old_group_by_venue, cohort, min_size, future_offset)

    years = rng.sample(YEARS + [PUB_YEAR + 9], rng.randint(1, 9))
    assert outcome(year_correlation_matrix, cohort, years) == \
        outcome(old_year_correlation_matrix, cohort, years)
    venues = sorted({p.venue for p in cohort})
    venue_names = rng.sample(venues, min(4, len(venues))) + ["absent"]
    assert outcome(venue_correlation_table, cohort, venue_names, years) == \
        outcome(old_venue_correlation_table, cohort, venue_names, years)

    assert outcome(percentile_transform, cohort, PUB_YEAR + future_offset) == \
        outcome(old_percentile_transform, cohort, PUB_YEAR + future_offset)
    for T in (1, rng.randint(2, 12), 30):
        kwargs = dict(T=T, early_offset=early_offset,
                      min_venue_size=rng.choice([1, 2, 5, 40]))
        assert outcome(build_design_matrix, cohort, **kwargs) == \
            outcome(old_build_design_matrix, cohort, **kwargs)

    assert ddi_rank(cohort, early_offset) == old_ddi_rank(cohort, early_offset)
    # coefficients from a small set, so predictions tie and the id decides
    model = FittedModel(
        pub_year=PUB_YEAR, T=rng.randint(1, 6), reference_venue=venues[0],
        intercept=50.0,
        venue_coefs={v: rng.choice([-5.0, 0.0, 5.0]) for v in venues[1:]},
        early_coefs={k: rng.choice([1.5, 3.0]) for k in range(1, 7)},
        rss=0.0, r_squared=0.0)
    assert ddi_rank(cohort, early_offset, model) == \
        old_ddi_rank(cohort, early_offset, model)

    values = [rng.choice([rng.uniform(0, 100), 25.0, 50.0]) for _ in cohort]
    for groups in ([p.venue for p in cohort],
                   [f"{min(p.citations_in(PUB_YEAR + 1), 30):02d}"
                    for p in cohort],
                   [rng.choice([3, "3", 12, "b"]) for _ in cohort]):
        for by_median in (False, True):
            assert boxplot_aggregate(values, groups, by_median) == \
                old_boxplot_aggregate(values, groups, by_median)


@pytest.mark.parametrize("seed", SEEDS)
def test_statistics_match_per_paper_code(seed):
    check_all(*seeded_cohort(seed))


@pytest.mark.parametrize("seed,size,scale", LARGE)
def test_statistics_match_per_paper_code_large(seed, size, scale):
    check_all(*seeded_cohort(seed, size, scale))


def test_h_index_matches_per_paper_code():
    rng = random.Random(7)
    for _ in range(500):
        counts = [rng.choice([0, 1, 2, rng.randint(0, 50)])
                  for _ in range(rng.randint(0, 60))]
        assert h_index(counts) == old_h_index(counts)
        assert h_index(np.array(counts, dtype=np.int64)) == old_h_index(counts)


def test_trailing_nul_venues_stay_apart():
    """np.unique on a str array would merge "V" and "V\\x00"."""
    papers = [PaperRecord(f"p{i}", Source.ACL, venue, PUB_YEAR,
                          {PUB_YEAR + 4: i})
              for i, venue in enumerate(["V", "V\x00", "V", "V\x00", "V"])]
    cohort = filter_cohort(papers, PUB_YEAR)
    rows = group_by_venue(cohort)
    assert sorted((r.label, r.n) for r in rows) == [("V", 3), ("V\x00", 2)]


def test_counts_in_reads_cohort_order():
    _, cohort = seeded_cohort(3, 50)
    for year in YEARS:
        got = cohort.counts_in(year)
        assert got.dtype == np.int64
        assert got.tolist() == [p.citations_in(year) for p in cohort]
    assert cohort.venues == tuple(p.venue for p in cohort)
    assert cohort.ids == tuple(p.id for p in cohort)
