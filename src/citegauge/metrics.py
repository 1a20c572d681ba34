"""Grouped summary statistics and correlation analyses over cohorts.

Groups are formed either by venue or by an early-citation threshold
(citations in the first calendar year after publication); statistics
summarize each member's citations in a later calendar year, by default
the fourth after publication.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Sequence

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
    """Largest h such that at least h of the counts are >= h.

    Sorted descending, c_i - i falls strictly with the 1-based rank i, so
    c_i >= i holds on a prefix whose length is h.
    """
    ordered = np.sort(np.asarray(counts))[::-1]
    return int(np.count_nonzero(ordered >= np.arange(1, len(ordered) + 1)))


def split_by_code(values: np.ndarray, codes: np.ndarray,
                  n_levels: int) -> list[np.ndarray]:
    """values split into one array per code 0..n_levels-1, each in the
    order the values come in."""
    order = np.argsort(codes, kind="stable")
    ends = np.cumsum(np.bincount(codes, minlength=n_levels))
    return np.split(values[order], ends[:-1])


def _count_stats(counts: np.ndarray, label: str,
                 threshold: int | None = None) -> GroupStats:
    # float64 before the reductions, as the counts have always been: a sum
    # cast from int64 chunk by chunk rounds differently past 2**53
    values = counts.astype(np.float64)
    return GroupStats(
        label=label,
        threshold=threshold,
        h=h_index(counts),
        median=float(np.median(values)),
        mu=float(np.mean(values)),
        sigma=float(np.std(values)),
        n=len(counts),
    )


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

    The pooled counts come venue by venue in order of first appearance, and
    in id order within a venue.
    """
    if len(cohort) == 0:
        raise EmptyCohort("cannot group an empty cohort")
    future = cohort.counts_in(cohort.pub_year + future_offset)
    names = cohort.venue_names
    groups = split_by_code(future, cohort.venue_codes, len(names))
    refuse_pooled_label(names, [len(g) for g in groups], min_size,
                        OTHER_VENUES_LABEL)
    rows, other = [], []
    for venue, counts in zip(names, groups):
        if len(counts) >= min_size:
            rows.append(_count_stats(counts, venue))
        else:
            other.append(counts)
    rows.sort(key=lambda r: (-r.mu, r.label))
    if other:
        rows.append(_count_stats(np.concatenate(other), OTHER_VENUES_LABEL))
    return rows


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
