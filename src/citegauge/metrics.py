"""Grouped summary statistics and correlation analyses over cohorts.

Groups are formed either by venue or by an early-citation threshold
(citations in the first calendar year after publication); statistics
summarize each member's citations in a later calendar year, by default
the fourth after publication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Cohort
from .errors import EmptyCohort

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

    def at(self, row_label, col_label):
        i = self.row_labels.index(row_label)
        j = self.col_labels.index(col_label)
        return self.entries[i][j]


def h_index(counts: Sequence[int]) -> int:
    """Largest h such that at least h of the counts are >= h.

    Sorted descending, c_i - i falls strictly with the 1-based rank i, so
    c_i >= i holds on a prefix whose length is h.
    """
    ordered = np.sort(np.asarray(counts))[::-1]
    return int(np.count_nonzero(ordered >= np.arange(1, len(ordered) + 1)))


def factorize(values: Sequence) -> tuple[dict, np.ndarray]:
    """The distinct values, in first-appearance order, each mapped to its
    code 0, 1, ..., and the code of every value.

    Values are told apart as dict keys are.  np.unique would sort strings
    as fixed-width arrays, which drop trailing NUL characters.
    """
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return index, np.fromiter(map(index.__getitem__, values), dtype=np.intp,
                              count=len(values))


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


def group_by_venue(cohort: Cohort, min_size: int = 1,
                   future_offset: int = DEFAULT_FUTURE_OFFSET) -> list[GroupStats]:
    """One stats row per venue with >= min_size members, sorted by mu descending;
    smaller venues pool into a final "All other venues" row.

    The pooled counts come venue by venue in order of first appearance, and
    in id order within a venue.
    """
    if len(cohort) == 0:
        raise EmptyCohort("cannot group an empty cohort")
    future = cohort.counts_in(cohort.pub_year + future_offset)
    venues, codes = factorize(cohort.venues)
    rows, other = [], []
    for venue, counts in zip(venues, split_by_code(future, codes, len(venues))):
        if len(counts) >= min_size:
            rows.append(_count_stats(counts, venue))
        else:
            other.append(counts)
    rows.sort(key=lambda r: (-r.mu, r.label))
    if other:
        rows.append(_count_stats(np.concatenate(other), OTHER_VENUES_LABEL))
    return rows


def pearson(x: Sequence[float], y: Sequence[float]):
    """Pearson correlation, or DEGENERATE if either variable has zero variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        return DEGENERATE
    r = float(xc @ yc) / (sx * sy)
    return min(1.0, max(-1.0, r))


def year_correlation_matrix(cohort: Cohort, years: Sequence[int]) -> CorrelationTable:
    """Symmetric year x year Pearson correlation table over cohort counts."""
    if len(cohort) < 2:
        raise EmptyCohort("correlation needs a cohort of size >= 2")
    if not years:
        raise ValueError("years must be non-empty")
    vectors = {y: cohort.counts_in(y) for y in years}
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


def venue_correlation_table(cohort: Cohort, venue_names: Sequence[str],
                            years: Sequence[int]) -> CorrelationTable:
    """Venue x year table of venue-indicator correlations (exact venue-string
    equality)."""
    if len(cohort) < 2:
        raise EmptyCohort("correlation needs a cohort of size >= 2")
    vectors = {y: cohort.counts_in(y) for y in years}
    venues, codes = factorize(cohort.venues)
    entries = []
    for venue in venue_names:
        indicator = (codes == venues.get(venue, -1)).astype(np.float64)
        entries.append(tuple(pearson(indicator, vectors[y]) for y in years))
    return CorrelationTable(
        row_labels=tuple(venue_names),
        col_labels=tuple(years),
        entries=tuple(entries),
    )
