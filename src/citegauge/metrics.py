"""Grouped summary statistics and correlation analyses over cohorts.

Groups are formed either by venue or by an early-citation threshold
(citations in the first calendar year after publication); statistics
summarize each member's citations in a later calendar year, by default
the fourth after publication.

Every group row comes from one kernel, _run_stats, over groups laid out
as contiguous runs of one array (venues after one stable sort by code): h
for all runs from one np.bincount, and per run only a partition for the
median and two reductions for mu and sigma, the float64 operations of
np.median, np.mean and np.std, so the rows are theirs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .corpus import Cohort
from .errors import EmptyCohort, PooledLabelClash

#: Marker for correlations undefined because a variable has zero variance.
DEGENERATE = "degenerate"

DEFAULT_EARLY_OFFSET = 1
DEFAULT_FUTURE_OFFSET = 4


@dataclass(frozen=True)
class GroupStats:
    """h-index, median, impact (mean), std dev and size of one paper group.

    mu is the arithmetic mean, sigma the population (divide-by-N) standard
    deviation, and the median of an even-sized group averages the two
    middle values.  threshold is 0 for the exact "0 citations" group, t
    for a "t+ citations" group and None for a venue group.
    """

    label: str
    h: int
    median: float
    mu: float
    sigma: float
    n: int
    threshold: int | None = None


@dataclass(frozen=True)
class CorrelationTable:
    """Matrix of Pearson correlations; entries are floats or DEGENERATE."""

    row_labels: tuple
    col_labels: tuple
    entries: tuple  # tuple of row tuples


def h_index(counts: Sequence[int]) -> int:
    """Largest h such that at least h of the counts are >= h."""
    counts = np.asarray(counts)
    return int(_h_indexes(counts, np.array([len(counts)]))[0])


def _h_indexes(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The h-index of each run of counts, run i being the next sizes[i].

    A run of n has n + 1 slots, and a count c tallies in slot min(c, n)
    (0 if c < 0) of its run, so one np.bincount tallies every run.  The
    tally from slot k up counts the run's counts >= k; it falls as k
    rises, so it is >= k exactly for k = 0..h.
    """
    slots = sizes + 1
    first = np.cumsum(slots) - slots
    run_of_count = np.repeat(np.arange(len(sizes)), sizes)
    tally = np.bincount(
        first[run_of_count] + np.clip(counts, 0, sizes[run_of_count]
                                      ).astype(np.intp),
        minlength=int(slots.sum()))
    from_here = np.append(np.cumsum(tally[::-1])[::-1], 0)
    at_least = from_here[:-1] - np.repeat(from_here[first + slots], slots)
    rank = np.arange(len(tally)) - np.repeat(first, slots)
    return np.add.reduceat(at_least >= rank, first) - 1


def _median(values: np.ndarray) -> float:
    """np.median(values): the middle value, or the mean of the two middle
    values, of a partition at the middle ranks."""
    half = len(values) // 2
    if len(values) % 2:
        return np.partition(values, half)[half]
    middle = np.partition(values, (half - 1, half))
    return (middle[half - 1] + middle[half]) / 2


def _run_stats(counts: np.ndarray, sizes: np.ndarray, labels: Iterable[str],
               thresholds: Iterable[int | None]) -> list[GroupStats]:
    """GroupStats of each run of the int64 counts, run i being the next
    sizes[i] >= 1 of them, labelled labels[i] with thresholds[i].

    Each statistic is the float64 value that np.median, np.mean and np.std
    give on the run: the counts become float64 first (a sum cast from int64
    chunk by chunk rounds differently past 2**53); mu is np.add.reduce of
    the run over its size, and sigma the root of np.add.reduce of the
    squared deviations over the size.  The deviations are taken over every
    run at once; the reductions and the median's partition run per run, on
    its contiguous slice, as numpy's pairwise sum depends on the order of
    the values and np.add.reduceat sums another way.
    """
    values = counts.astype(np.float64)
    ends = np.cumsum(sizes)
    runs = [slice(start, end) for start, end
            in zip((ends - sizes).tolist(), ends.tolist())]
    mu = np.array([np.add.reduce(values[run]) for run in runs]) / sizes
    deviation = values - np.repeat(mu, sizes)
    deviation *= deviation
    sigma = np.sqrt(np.array([np.add.reduce(deviation[run])
                              for run in runs]) / sizes)
    return [GroupStats(label=label, threshold=threshold, h=h,
                       median=float(_median(values[run])), mu=m, sigma=s,
                       n=n)
            for label, threshold, h, run, m, s, n in zip(
                labels, thresholds, _h_indexes(counts, sizes).tolist(), runs,
                mu.tolist(), sigma.tolist(), sizes.tolist())]


def _count_stats(counts: np.ndarray, label: str,
                 threshold: int | None = None) -> GroupStats:
    return _run_stats(counts, np.array([len(counts)]), [label], [threshold])[0]


def group_by_early_threshold(cohort: Cohort, thresholds: Sequence[int],
                             early_offset: int = DEFAULT_EARLY_OFFSET,
                             future_offset: int = DEFAULT_FUTURE_OFFSET,
                             ) -> list[GroupStats]:
    """Stats rows for the exact "0 citations" group and each "t+ citations" group.

    Group membership tests citations at pub_year + early_offset; statistics
    are computed at pub_year + future_offset.  Empty threshold groups are
    skipped (no row), not fatal.
    """
    if len(cohort) == 0:
        raise EmptyCohort("cannot group an empty cohort")
    early = cohort.counts_in(cohort.pub_year + early_offset)
    future = cohort.counts_in(cohort.pub_year + future_offset)
    groups = [("0 citations", 0, early == 0)]
    groups += [(f"{t}+ citations", t, early >= t) for t in thresholds]
    return [_count_stats(future[members], label, threshold)
            for label, threshold, members in groups if members.any()]


OTHER_VENUES_LABEL = "All other venues"


def refuse_pooled_label(venue_names: Sequence[str], sizes: Sequence[int],
                        min_size: int, label: str) -> None:
    """Raise PooledLabelClash if some venue pools into the level `label`
    and a venue of >= min_size papers, kept apart, has that name."""
    if min(sizes) < min_size <= dict(zip(venue_names, sizes)).get(label, 0):
        raise PooledLabelClash(
            f"venue {label!r} is named like the level that venues with "
            f"fewer than {min_size} papers pool into; rename it with "
            f"--aliases")


def group_by_venue(cohort: Cohort, min_size: int = 1,
                   future_offset: int = DEFAULT_FUTURE_OFFSET) -> list[GroupStats]:
    """One stats row per venue with >= min_size members, sorted by mu descending;
    smaller venues pool into a final "All other venues" row, and a kept
    venue of that name raises PooledLabelClash.

    Only the kept venues are summarised, all in one _run_stats call over
    their counts ordered by venue code.  The pooled counts come venue by
    venue in order of first appearance, and in id order within a venue.
    """
    future, codes, sizes = _venue_columns(cohort, min_size, future_offset)
    kept = sizes >= min_size
    names = cohort.venue_names
    rows = _run_stats(_by_code(future, codes, kept), sizes[kept],
                      [names[code] for code in np.flatnonzero(kept).tolist()],
                      repeat(None))
    rows.sort(key=lambda r: (-r.mu, r.label))
    return rows + _pooled_row(future, codes, ~kept)


def pool_venue_rows(cohort: Cohort, rows: Sequence[GroupStats], min_size: int,
                    future_offset: int = DEFAULT_FUTURE_OFFSET) -> list[GroupStats]:
    """group_by_venue(cohort, min_size, future_offset), made from rows, its
    result at min_size=1: the rows of >= min_size members, then the pooled
    row of the others."""
    future, codes, sizes = _venue_columns(cohort, min_size, future_offset)
    return ([row for row in rows if row.n >= min_size]
            + _pooled_row(future, codes, sizes < min_size))


def _venue_columns(cohort: Cohort, min_size: int, future_offset: int):
    """(future counts, venue codes, venue sizes) of a cohort that may be
    grouped by venue at min_size."""
    if len(cohort) == 0:
        raise EmptyCohort("cannot group an empty cohort")
    future = cohort.counts_in(cohort.pub_year + future_offset)
    codes = cohort.venue_codes
    sizes = np.bincount(codes, minlength=len(cohort.venue_names))
    refuse_pooled_label(cohort.venue_names, sizes.tolist(), min_size,
                        OTHER_VENUES_LABEL)
    return future, codes, sizes


def _by_code(values: np.ndarray, codes: np.ndarray,
             chosen: np.ndarray) -> np.ndarray:
    """The values whose code is chosen (a mask over the codes), ordered by
    code, and in the order they come in within a code.  The codes are sorted
    at their narrowest width: numpy's stable sort of 8- or 16-bit ints is a
    radix sort, 8 times as fast as its sort of the int32 codes at 14k."""
    rows = chosen[codes]
    if not rows.all():
        values, codes = values[rows], codes[rows]
    narrow = codes.astype(np.min_scalar_type(len(chosen)))
    return values[np.argsort(narrow, kind="stable")]


def _pooled_row(future: np.ndarray, codes: np.ndarray,
                pooled: np.ndarray) -> list[GroupStats]:
    """[the "All other venues" row of the pooled venues], or [] if none."""
    if not pooled.any():
        return []
    return [_count_stats(_by_code(future, codes, pooled), OTHER_VENUES_LABEL)]


def _year_counts(cohort: Cohort, years: Sequence[int]) -> np.ndarray:
    """The years' counts as one matrix, a row per year: int64, or Python
    ints (dtype object) when a sum of n products of two counts could pass
    2**63 - 1.  Years that are a run of the cohort's rows, none of them an
    overflow year, are a view of its matrix, not a copy."""
    if len(cohort) < 2:
        raise EmptyCohort("correlation needs a cohort of size >= 2")
    if not years:
        raise ValueError("years must be non-empty")
    years = tuple(years)
    first = cohort.years.index(years[0]) if years[0] in cohort.years else 0
    if (cohort.years[first:first + len(years)] == years
            and cohort.overflow_years.isdisjoint(years)):
        counts = cohort.counts[first:first + len(years)]
    else:
        counts = np.stack([cohort.counts_in(y) for y in years])
    wide = len(cohort) * counts.max().item() ** 2 >= 2 ** 63
    return counts.astype(object) if wide else counts


def _correlation_table(labels: Sequence, years: Sequence[int], n: int,
                       rows: tuple, columns: tuple, cross: list) -> CorrelationTable:
    """Pearson r of each labelled row vector with each year's counts, from
    exact integer sums over the n papers.

    rows and columns hold the sums and the sums of squares of the row
    vectors and of the years' counts, and cross[i][j] is the sum of
    products of row i and year j.  With each vector's Sx and
    Vx = n Sxx - Sx**2, an entry is (n Sxy - Sx Sy) / sqrt(Vx Vy) from
    exact ints, rounded once to the nearest double from 40 digits; it is
    DEGENERATE exactly when a vector is constant (V = 0).
    """
    rows, columns = ([(s, n * ss - s * s) for s, ss in zip(*m)] for m in (rows, columns))
    with localcontext() as ctx:
        ctx.prec = 40
        entries = tuple(
            tuple(DEGENERATE if vx * vy == 0 else
                  float(Decimal(n * sxy - sx * sy) / Decimal(vx * vy).sqrt())
                  for (sy, vy), sxy in zip(columns, row_cross))
            for (sx, vx), row_cross in zip(rows, cross))
    return CorrelationTable(tuple(labels), tuple(years), entries)


def year_correlation_matrix(cohort: Cohort, years: Sequence[int]) -> CorrelationTable:
    """Symmetric year x year Pearson correlation table over cohort counts."""
    counts = _year_counts(cohort, years)
    cross = (counts @ counts.T).tolist()
    moments = (counts.sum(axis=1).tolist(), [row[i] for i, row in enumerate(cross)])
    return _correlation_table(years, years, len(cohort), moments, moments, cross)


def venue_correlation_table(cohort: Cohort, venue_names: Sequence[str],
                            years: Sequence[int]) -> CorrelationTable:
    """Venue x year table of venue-indicator correlations (exact venue-string
    equality).

    An indicator's sum and sum of squares are its venue's size, and its
    cross sums are its venue's count sums, so no indicator is built: sums
    has a row per venue code, then a zero row (code -1) for a venue with
    no paper.
    """
    counts = _year_counts(cohort, years)
    sums = np.zeros((len(cohort.venue_names) + 1, len(years)), counts.dtype)
    np.add.at(sums, cohort.venue_codes, counts.T)
    code_of = {name: code for code, name in enumerate(cohort.venue_names)}
    codes = [code_of.get(venue, -1) for venue in venue_names]
    sizes = np.bincount(cohort.venue_codes, minlength=len(sums))[codes].tolist()
    columns = (counts.sum(axis=1).tolist(), (counts * counts).sum(axis=1).tolist())
    return _correlation_table(venue_names, years, len(cohort), (sizes, sizes),
                              columns, sums[codes].tolist())
