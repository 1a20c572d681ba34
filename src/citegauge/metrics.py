"""Grouped summary statistics and correlation analyses over cohorts.

Groups are formed either by venue or by an early-citation threshold
(citations in the first calendar year after publication); statistics
summarize each member's citations in a later calendar year, by default
the fourth after publication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import Cohort, PaperRecord
from .errors import EmptyCohort, EmptyGroup

#: Marker for correlations undefined because a variable has zero variance.
DEGENERATE = "degenerate"

DEFAULT_EARLY_OFFSET = 1
DEFAULT_FUTURE_OFFSET = 4


@dataclass(frozen=True)
class GroupStats:
    """h-index, median, impact (mean), std dev and size of one paper group.

    threshold is 0 for the exact "0 citations" group, t for a "t+ citations"
    group and None for a venue group.
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
    """Largest h such that at least h of the counts are >= h."""
    ordered = sorted(counts, reverse=True)
    h = 0
    for i, c in enumerate(ordered, 1):
        if c >= i:
            h = i
        else:
            break
    return h


def _future_counts(group: Sequence[PaperRecord], future_year: int) -> np.ndarray:
    return np.array([p.citations_in(future_year) for p in group], dtype=float)


def group_stats(group: Sequence[PaperRecord], future_year: int,
                label: str = "", threshold: int | None = None) -> GroupStats:
    """Summary statistics of the group's counts at future_year.

    mu is the arithmetic mean, sigma the population (divide-by-N) standard
    deviation, and the median of an even-sized group averages the two
    middle values.
    """
    if len(group) == 0:
        raise EmptyGroup(f"group {label!r} is empty")
    counts = _future_counts(group, future_year)
    return GroupStats(
        label=label,
        threshold=threshold,
        h=h_index([int(c) for c in counts]),
        median=float(np.median(counts)),
        mu=float(np.mean(counts)),
        sigma=float(np.std(counts)),
        n=len(group),
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
    early_year = cohort.pub_year + early_offset
    future_year = cohort.pub_year + future_offset
    rows = []
    zero_group = [p for p in cohort if p.citations_in(early_year) == 0]
    if zero_group:
        rows.append(group_stats(zero_group, future_year, label="0 citations",
                                threshold=0))
    for t in thresholds:
        members = [p for p in cohort if p.citations_in(early_year) >= t]
        if not members:
            continue
        rows.append(group_stats(members, future_year, label=f"{t}+ citations",
                                threshold=t))
    return rows


OTHER_VENUES_LABEL = "All other venues"


def group_by_venue(cohort: Cohort, min_size: int = 1,
                   future_offset: int = DEFAULT_FUTURE_OFFSET) -> list[GroupStats]:
    """One stats row per venue with >= min_size members, sorted by mu descending;
    smaller venues pool into a final "All other venues" row."""
    if len(cohort) == 0:
        raise EmptyCohort("cannot group an empty cohort")
    future_year = cohort.pub_year + future_offset
    by_venue: dict[str, list[PaperRecord]] = {}
    for p in cohort:
        by_venue.setdefault(p.venue, []).append(p)
    named, other = [], []
    for venue, members in by_venue.items():
        (named if len(members) >= min_size else other).append((venue, members))
    rows = [group_stats(members, future_year, label=venue)
            for venue, members in named]
    rows.sort(key=lambda r: (-r.mu, r.label))
    if other:
        pooled = [p for _, members in other for p in members]
        rows.append(group_stats(pooled, future_year, label=OTHER_VENUES_LABEL))
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
    vectors = {y: _future_counts(cohort.papers, y) for y in years}
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


def indicator_correlation(cohort: Cohort,
                          venue_predicate: Callable[[PaperRecord], bool],
                          year: int):
    """Point-biserial correlation between venue membership (0/1) and counts at year."""
    if len(cohort) < 2:
        raise EmptyCohort("correlation needs a cohort of size >= 2")
    indicator = np.array([1.0 if venue_predicate(p) else 0.0 for p in cohort])
    counts = _future_counts(cohort.papers, year)
    return pearson(indicator, counts)


def venue_correlation_table(cohort: Cohort, venue_names: Sequence[str],
                            years: Sequence[int],
                            membership: Callable[[PaperRecord, str], bool] | None = None,
                            ) -> CorrelationTable:
    """Venue x year table of indicator correlations.

    membership defaults to exact venue-string equality.
    """
    if membership is None:
        membership = lambda p, v: p.venue == v
    entries = []
    for venue in venue_names:
        pred = lambda p, v=venue: membership(p, v)
        entries.append(tuple(indicator_correlation(cohort, pred, y) for y in years))
    return CorrelationTable(
        row_labels=tuple(venue_names),
        col_labels=tuple(years),
        entries=tuple(entries),
    )
