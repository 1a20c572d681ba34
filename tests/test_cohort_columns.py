"""Differential test of the statistics that read the cohort as columns
(Cohort.counts_in, Cohort.venue_codes) against the per-paper code they
replaced.

The oracles below are the previous implementations, copied verbatim apart
from their names and three later rules (the design refuses a kept venue named
misc while smaller venues fold into misc; boxplot rows come in group order,
not label order, which put early level 100 before 11; a correlation is the
exact r of the Python-int counts, rounded once, from conftest.exact_pearson):
each walked the cohort paper by paper.  They read a
PaperCohort, the record tuple a Cohort was before it became columns, built
from the same records as the Cohort under test.  The percentile,
design and ranking oracles return plain tuples of the fields they built,
since the new results hold arrays; they are compared with the same fields
of the new results (the design through its per-row expansion).  Outputs
must be equal with ==, not approximately: the reports print full-precision
floats, so one ulp is a changed report.  The seeded cohorts include empty and
single-paper threshold groups, many small venues interleaved in id order and
pooled into "All other venues", venue names that differ only by a trailing
NUL, all-zero (degenerate) years, and cohorts over 8192 papers (numpy's
buffer size) with counts past 2**53, where a sum cast from int64 chunk by
chunk rounds differently from one over float64.
"""

import random
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from citegauge.corpus import (
    PaperRecord,
    Source,
    filter_cohort,
    load_cohort,
    write_corpus,
)
from citegauge.errors import (
    EmptyCohort,
    EmptyGroup,
    PooledLabelClash,
    TooFewRows,
)
from citegauge.metrics import (
    DEFAULT_EARLY_OFFSET,
    DEFAULT_FUTURE_OFFSET,
    OTHER_VENUES_LABEL,
    CorrelationTable,
    GroupStats,
    group_by_early_threshold,
    group_by_venue,
    h_index,
    venue_correlation_table,
    year_correlation_matrix,
)
from citegauge.model import (
    DEFAULT_MIN_VENUE_SIZE,
    DEFAULT_T,
    MISC_VENUE,
    BoxplotRow,
    FittedModel,
    boxplot_aggregate,
    build_design_matrix,
    percentile_transform,
)
from citegauge.triage import ddi_rank

from conftest import exact_pearson, group_codes, ranked_rows, venues_of


# --- oracles: the per-paper implementations ----------------------------------

@dataclass(frozen=True)
class PaperCohort:
    """The records of a cohort sorted by id, as Cohort held them before it
    became columns."""

    pub_year: int
    papers: tuple

    def __len__(self):
        return len(self.papers)

    def __iter__(self):
        return iter(self.papers)


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
    return np.array([p.counts.get(future_year, 0) for p in group], dtype=float)


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
    zero_group = [p for p in cohort if p.counts.get(early_year, 0) == 0]
    if zero_group:
        rows.append(old_group_stats(zero_group, future_year,
                                    label="0 citations", threshold=0))
    for t in thresholds:
        members = [p for p in cohort if p.counts.get(early_year, 0) >= t]
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
    vectors = {y: [p.counts.get(y, 0) for p in cohort.papers] for y in years}
    n = len(years)
    grid = [[None] * n for _ in range(n)]
    for i, a in enumerate(years):
        for j, b in enumerate(years[i:], start=i):
            r = exact_pearson(vectors[a], vectors[b])
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
    indicator = [1 if venue_predicate(p) else 0 for p in cohort]
    counts = [p.counts.get(year, 0) for p in cohort.papers]
    return exact_pearson(indicator, counts)


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
    counts = np.array([p.counts.get(future_year, 0) for p in cohort], dtype=np.int64)
    _, group, size = np.unique(counts, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(size) - (size - 1) / 2.0)[group]
    percentiles = 100.0 * (ranks - 0.5) / len(counts)
    return cohort.pub_year, future_year, percentiles.tolist()


def old_build_design_matrix(cohort, T=DEFAULT_T, early_offset=DEFAULT_EARLY_OFFSET,
                            min_venue_size=DEFAULT_MIN_VENUE_SIZE,
                            reference_venue=None):
    if len(cohort) == 0:
        raise EmptyCohort("cannot build a design matrix for an empty cohort")
    if T < 1:
        raise ValueError("T must be >= 1")
    early_year = cohort.pub_year + early_offset

    venue_sizes = Counter(p.venue for p in cohort)
    if venue_sizes[MISC_VENUE] >= min_venue_size > min(venue_sizes.values()):
        raise PooledLabelClash(
            f"venue {MISC_VENUE!r} is named like the level that venues with "
            f"fewer than {min_venue_size} papers pool into; rename it with "
            f"--aliases")
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
    early = np.array([p.counts.get(early_year, 0) for p in cohort], dtype=np.int64)
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

    return (tuple(columns), venue_levels, reference_venue, T, early_levels,
            list(row_venues), row_early.tolist())


def old_ddi_rank(cohort, early_offset=DEFAULT_EARLY_OFFSET, model=None):
    if len(cohort) == 0:
        raise EmptyCohort("cannot rank an empty cohort")
    early_year = cohort.pub_year + early_offset
    rows = []
    for p in cohort:
        early = p.counts.get(early_year, 0)
        predicted = model.predict(p.venue, early) if model is not None else None
        rows.append((p.id, early, p.venue, predicted))
    rows.sort(key=lambda r: (
        -r[1],
        -(r[3] if r[3] is not None else 0.0),
        r[0],
    ))
    return rows


def old_boxplot_aggregate(values, groups, sort_by_median=False):
    if len(values) == 0:
        raise ValueError("no values to aggregate")
    buckets = {}
    for v, g in zip(values, groups):
        buckets.setdefault(g, []).append(float(v))
    rows = []
    for key in buckets:     # first appearance, as group_codes numbers them
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


def frame_fields(cohort, future_year):
    frame = percentile_transform(cohort, future_year)
    return frame.pub_year, frame.future_year, frame.percentiles.tolist()


def design_fields(cohort, **kwargs):
    d = build_design_matrix(cohort, **kwargs)
    return (d.column_names, d.venue_levels, d.reference_venue, d.T,
            d.early_levels, d.row_venues.tolist(), d.row_early.tolist())


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
    old = PaperCohort(PUB_YEAR, tuple(sorted(papers, key=lambda p: p.id)))
    return rng, filter_cohort(papers, PUB_YEAR), old


def outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("error", type(exc), str(exc))


SEEDS = range(120)
LARGE = [(1000, 9000, 1), (1001, 10500, 1), (1002, 9000, 10 ** 12 + 1)]


def check_all(rng, cohort, old):
    max_early = max((p.counts.get(PUB_YEAR + 1, 0) for p in old), default=0)
    thresholds = sorted(rng.sample(range(1, max_early + 3), min(5, max_early + 2)))
    thresholds += [max_early, max_early + 1, 10 ** 6]   # one paper, then none
    early_offset = rng.randint(1, 3)
    future_offset = rng.choice([early_offset, 4, 7, 9])   # 9: no counts at all

    assert group_by_early_threshold(cohort, thresholds) == \
        old_group_by_early_threshold(old, thresholds)
    assert outcome(group_by_early_threshold, cohort, thresholds, early_offset,
                   future_offset) == \
        outcome(old_group_by_early_threshold, old, thresholds, early_offset,
                future_offset)
    for min_size in (1, 2, rng.randint(3, 60)):
        assert outcome(group_by_venue, cohort, min_size, future_offset) == \
            outcome(old_group_by_venue, old, min_size, future_offset)

    years = rng.sample(YEARS + [PUB_YEAR + 9], rng.randint(1, 9))
    assert outcome(year_correlation_matrix, cohort, years) == \
        outcome(old_year_correlation_matrix, old, years)
    venues = sorted({p.venue for p in old})
    venue_names = rng.sample(venues, min(4, len(venues))) + ["absent"]
    assert outcome(venue_correlation_table, cohort, venue_names, years) == \
        outcome(old_venue_correlation_table, old, venue_names, years)

    assert outcome(frame_fields, cohort, PUB_YEAR + future_offset) == \
        outcome(old_percentile_transform, old, PUB_YEAR + future_offset)
    for T in (1, rng.randint(2, 12), 30):
        kwargs = dict(T=T, early_offset=early_offset,
                      min_venue_size=rng.choice([1, 2, 5, 40]))
        assert outcome(design_fields, cohort, **kwargs) == \
            outcome(old_build_design_matrix, old, **kwargs)

    assert ranked_rows(ddi_rank(cohort, early_offset)) == \
        old_ddi_rank(old, early_offset)
    # coefficients from a small set, so predictions tie and the id decides
    model = FittedModel(
        pub_year=PUB_YEAR, T=rng.randint(1, 6), reference_venue=venues[0],
        intercept=50.0,
        venue_coefs={v: rng.choice([-5.0, 0.0, 5.0]) for v in venues[1:]},
        early_coefs={k: rng.choice([1.5, 3.0]) for k in range(1, 7)},
        rss=0.0, r_squared=0.0)
    assert ranked_rows(ddi_rank(cohort, early_offset, model)) == \
        old_ddi_rank(old, early_offset, model)

    values = [rng.choice([rng.uniform(0, 100), 25.0, 50.0]) for _ in old]
    for groups in ([p.venue for p in old],
                   [f"{min(p.counts.get(PUB_YEAR + 1, 0), 30):02d}"
                    for p in old],
                   [rng.choice([3, "3", 12, "b"]) for _ in old]):
        for by_median in (False, True):
            assert boxplot_aggregate(values, *group_codes(groups),
                                     by_median) == \
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
    _, cohort, old = seeded_cohort(3, 50)
    for year in YEARS:
        got = cohort.counts_in(year)
        assert got.dtype == np.int64
        assert got.tolist() == [p.counts.get(year, 0) for p in old]
    assert venues_of(cohort) == tuple(p.venue for p in old)
    assert cohort.ids == tuple(p.id for p in old)


def old_venue_codes(old, aliases):
    """Per paper: the distinct (aliased) venue names in first-appearance id
    order, and each paper's index into them, as factorize gave them."""
    venues = [aliases.get(p.venue, p.venue) for p in old]
    names = tuple(dict.fromkeys(venues))
    return names, [names.index(v) for v in venues]


@pytest.mark.parametrize("seed", range(40))
def test_venue_codes_match_per_paper_venues(seed, tmp_path):
    """load_cohort's venue names and codes, with and without aliases that
    merge venues, against the per-paper venues of the same records.  The
    venue pool holds an empty name, non-ASCII names and names that differ
    only by a trailing NUL (which np.unique on strings would merge)."""
    _, _, old = seeded_cohort(seed)
    rng = random.Random(seed)
    records = list(old.papers)
    rng.shuffle(records)    # file order is not id order
    extra = ["", "ünï", "ünï\x00", "V00", "V00\x00", "日本"]
    records = [PaperRecord(p.id, p.source,
                           rng.choice(extra) if rng.random() < 0.3 else p.venue,
                           p.pub_year, p.counts) for p in records]
    path = tmp_path / "c.jsonl"
    write_corpus(records, path)
    old = PaperCohort(PUB_YEAR, tuple(sorted(records, key=lambda p: p.id)))
    venues = sorted({p.venue for p in old})
    merging = {v: rng.choice(venues + ["merged"]) for v in
               rng.sample(venues, min(len(venues), rng.randint(1, 4)))}
    for aliases in (None, merging, {"V00\x00": "V00", "": "ünï"}):
        got = load_cohort(path, PUB_YEAR, aliases=aliases)
        names, codes = old_venue_codes(old, aliases or {})
        assert got.venue_names == names
        assert got.venue_codes.tolist() == codes
        assert got.venue_codes.dtype == np.int32
        assert venues_of(got) == tuple(names[c] for c in codes)
    from_records = filter_cohort(records, PUB_YEAR)
    assert (from_records.venue_names, from_records.venue_codes.tolist()) == \
        old_venue_codes(old, {})
