"""Percentile-regression forecaster.

Pipeline: rank-based percentile transform of future-year counts, clipping
of early-citation counts to T factor levels, dummy-coded design (venue +
early-level factors), QR least-squares fit, sequential ANOVA variance
attribution, and boxplot aggregation of predictions.

The design has two one-hot factors, so rows in the same (venue level,
early level) cell are identical.  The fit, the ANOVA and the predictions
therefore work on the cell table: one 0/1 design row per populated cell,
its row count n_c and the mean of y in it.  Least squares on rows equals
weighted least squares on the cell means with weights n_c, which is exact
(the same coefficients, not an approximation); QR on the sqrt(n_c)-scaled
cell design has the same |diag R| as QR on the rows, so rank deficiency
is detected by the same rule.  Residual sums of squares are summed over
the row residuals y - fitted[cell] rather than derived from cell sums,
which would lose precision to cancellation.  The dense n x k design is
built only on request, through ``DesignMatrix.X``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import Cohort
from .errors import (
    DimensionMismatch,
    EmptyCohort,
    RankDeficient,
    TooFewRows,
)
from .metrics import (
    DEFAULT_EARLY_OFFSET,
    DEFAULT_FUTURE_OFFSET,
    factorize,
    split_by_code,
)

MISC_VENUE = "misc"
DEFAULT_MIN_VENUE_SIZE = 40
DEFAULT_T = 10


@dataclass(frozen=True)
class PercentileFrame:
    """Per-paper percentile (Hazen, tie-averaged) of future-year counts."""

    pub_year: int
    future_year: int
    paper_ids: tuple[str, ...]
    percentiles: tuple[float, ...]


@dataclass(frozen=True)
class DesignMatrix:
    """Dummy-coded design: intercept + venue levels + early levels up to T.

    Reference levels carry no column: one venue (default the most populous)
    and early level 0.  Early levels with no member rows also get no column
    (same treatment as a venue with no papers that year).

    The design is held as its cell table, derived from the row levels on
    construction: ``cell_X`` has one 0/1 row per populated (venue, early)
    cell, ``cell_counts`` the rows in each cell, ``row_cell`` the cell of
    each row, and ``cell_venue`` / ``cell_early`` each cell's factor codes
    (0 for the reference level, otherwise 1 + the level's index).
    """

    column_names: tuple[str, ...]
    venue_levels: tuple[str, ...]       # levels with a column (reference excluded)
    reference_venue: str
    T: int
    early_levels: tuple[int, ...]       # populated levels 1..T with a column
    row_venues: tuple[str, ...]         # resolved venue level per row
    row_early: tuple[int, ...]          # clipped early level per row
    row_cell: np.ndarray = field(init=False, repr=False, compare=False)
    cell_counts: np.ndarray = field(init=False, repr=False, compare=False)
    cell_X: np.ndarray = field(init=False, repr=False, compare=False)
    cell_venue: np.ndarray = field(init=False, repr=False, compare=False)
    cell_early: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        venue_code = {v: 1 + i for i, v in enumerate(self.venue_levels)}
        venue_code[self.reference_venue] = 0
        unknown = set(self.row_venues) - venue_code.keys()
        if unknown:
            raise ValueError(f"row venues {sorted(unknown)} are not levels "
                             f"of the design")
        row_early = np.asarray(self.row_early, dtype=np.intp)
        if not np.isin(row_early, (0, *self.early_levels)).all():
            raise ValueError("row early levels are not levels of the design")
        early_code = np.zeros(self.T + 1, dtype=np.intp)
        early_code[list(self.early_levels)] = 1 + np.arange(len(self.early_levels))
        row_e = early_code[row_early]
        row_v = np.fromiter(map(venue_code.__getitem__, self.row_venues),
                            dtype=np.intp, count=len(self.row_venues))

        n_early = 1 + len(self.early_levels)
        cells, row_cell, counts = np.unique(row_v * n_early + row_e,
                                            return_inverse=True,
                                            return_counts=True)
        cell_v, cell_e = np.divmod(cells, n_early)
        cell_X = np.zeros((len(cells), len(self.column_names)))
        cell_X[:, 0] = 1.0
        has_v, has_e = np.flatnonzero(cell_v), np.flatnonzero(cell_e)
        cell_X[has_v, cell_v[has_v]] = 1.0
        cell_X[has_e, len(self.venue_levels) + cell_e[has_e]] = 1.0
        for name, value in (("row_cell", row_cell),
                            ("cell_counts", counts), ("cell_X", cell_X),
                            ("cell_venue", cell_v), ("cell_early", cell_e)):
            object.__setattr__(self, name, value)

    @property
    def n_rows(self) -> int:
        return len(self.row_early)

    @property
    def X(self) -> np.ndarray:
        """The dense n x k design, expanded from the cell table."""
        return self.cell_X[self.row_cell]


@dataclass(frozen=True)
class FittedModel:
    """Least-squares coefficients plus fit diagnostics."""

    pub_year: int
    T: int
    reference_venue: str
    intercept: float
    venue_coefs: Mapping[str, float]
    early_coefs: Mapping[int, float]    # levels 1..T
    rss: float
    r_squared: float

    def predict(self, venue: str, early_count: int) -> float:
        """intercept + venue coefficient + clipped-early-level coefficient.

        Unknown venues resolve to misc when the model has a misc level,
        otherwise to the reference (contribution 0).
        """
        value = self.intercept
        if venue != self.reference_venue:
            if venue in self.venue_coefs:
                value += self.venue_coefs[venue]
            elif MISC_VENUE in self.venue_coefs:
                value += self.venue_coefs[MISC_VENUE]
        level = clip_early(early_count, self.T)
        if level > 0:
            if level in self.early_coefs:
                value += self.early_coefs[level]
            else:
                # level unseen at fit time: nearest populated level below
                lower = [k for k in self.early_coefs if k < level]
                if lower:
                    value += self.early_coefs[max(lower)]
        return value

    def to_dict(self) -> dict:
        return {
            "pub_year": self.pub_year,
            "T": self.T,
            "reference_venue": self.reference_venue,
            "intercept": self.intercept,
            "venue_coefs": dict(self.venue_coefs),
            "early_coefs": {str(k): v for k, v in self.early_coefs.items()},
            "rss": self.rss,
            "r_squared": self.r_squared,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedModel":
        return cls(
            pub_year=d["pub_year"],
            T=d["T"],
            reference_venue=d["reference_venue"],
            intercept=d["intercept"],
            venue_coefs=dict(d["venue_coefs"]),
            early_coefs={int(k): v for k, v in d["early_coefs"].items()},
            rss=d["rss"],
            r_squared=d["r_squared"],
        )


@dataclass(frozen=True)
class AnovaRow:
    factor: str
    ss: float
    eta_squared: float


@dataclass(frozen=True)
class AnovaTable:
    """Sequential (Type I) sums of squares for both factor orderings."""

    ss_total: float
    venue_first: tuple[AnovaRow, ...]   # venue, early, residual
    early_first: tuple[AnovaRow, ...]   # early, venue, residual


@dataclass(frozen=True)
class BoxplotRow:
    label: str
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    n: int


def percentile_transform(cohort: Cohort,
                         future_year: int | None = None) -> PercentileFrame:
    """Hazen percentiles 100*(r - 0.5)/N of counts at future_year, average
    rank over ties."""
    if len(cohort) == 0:
        raise EmptyCohort("cannot compute percentiles of an empty cohort")
    if future_year is None:
        future_year = cohort.pub_year + DEFAULT_FUTURE_OFFSET
    counts = cohort.counts_in(future_year)
    # average rank of a tie group: its last 1-based position minus
    # (size - 1) / 2; exact in float64 for any realistic cohort size
    _, group, size = np.unique(counts, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(size) - (size - 1) / 2.0)[group]
    percentiles = 100.0 * (ranks - 0.5) / len(counts)
    return PercentileFrame(
        pub_year=cohort.pub_year,
        future_year=future_year,
        paper_ids=cohort.ids,
        percentiles=tuple(percentiles.tolist()),
    )


def clip_early(count: int, T: int) -> int:
    """min(count, T); caps the early-citation factor at T levels."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if count < 0:
        raise ValueError("count must be non-negative")
    return min(count, T)


def build_design_matrix(cohort: Cohort, T: int = DEFAULT_T,
                        early_offset: int = DEFAULT_EARLY_OFFSET,
                        min_venue_size: int = DEFAULT_MIN_VENUE_SIZE,
                        reference_venue: str | None = None) -> DesignMatrix:
    """Dummy-code the cohort.

    Venues with >= min_venue_size members keep their name; the rest fold
    into the misc level.  The reference venue (default: most populous
    level) and early level 0 get no column.
    """
    if len(cohort) == 0:
        raise EmptyCohort("cannot build a design matrix for an empty cohort")
    if T < 1:
        raise ValueError("T must be >= 1")
    early_year = cohort.pub_year + early_offset

    venues, codes = factorize(cohort.venues)
    sizes = np.bincount(codes, minlength=len(venues)).tolist()
    level_of = [v if size >= min_venue_size else MISC_VENUE
                for v, size in zip(venues, sizes)]
    row_venues = tuple(map(level_of.__getitem__, codes.tolist()))
    level_sizes = Counter()
    for level, size in zip(level_of, sizes):
        level_sizes[level] += size

    if reference_venue is None:
        # most populous level; name breaks ties deterministically
        reference_venue = min(level_sizes, key=lambda v: (-level_sizes[v], v))
    elif reference_venue not in level_sizes:
        raise ValueError(f"reference venue {reference_venue!r} not a level "
                         f"of this cohort (levels: {sorted(level_sizes)})")

    venue_levels = tuple(sorted(v for v in level_sizes if v != reference_venue))
    early = cohort.counts_in(early_year)
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


_RANK_TOL = 1e-10


def _qr_solve(X: np.ndarray, y: np.ndarray, column_names: Sequence[str]) -> np.ndarray:
    """Least squares via Householder QR; raises RankDeficient with the
    offending columns.

    X may have fewer rows than columns (fewer cells than columns); the
    columns past the last row then have r_jj = 0, as they would in the
    QR of the rows.
    """
    q, r = np.linalg.qr(X)
    diag = np.zeros(X.shape[1])
    diag[:min(X.shape)] = np.abs(np.diag(r))
    scale = diag.max() if diag.size else 0.0
    bad = [column_names[j] for j in range(len(diag)) if diag[j] <= _RANK_TOL * scale]
    if bad or scale == 0.0:
        raise RankDeficient(bad or list(column_names))
    return np.linalg.solve(r, q.T @ y)


def _cell_means(design: DesignMatrix, frame: PercentileFrame):
    """(y, weights sqrt(n_c), mean of y per cell), after the length check."""
    y = np.asarray(frame.percentiles, dtype=float)
    if y.shape[0] != design.n_rows:
        raise DimensionMismatch(
            f"{design.n_rows} design rows vs {y.shape[0]} percentiles")
    sums = np.bincount(design.row_cell, weights=y,
                       minlength=len(design.cell_counts))
    return y, np.sqrt(design.cell_counts), sums / design.cell_counts


def _row_rss(y: np.ndarray, fitted: np.ndarray, row_group: np.ndarray) -> float:
    """Sum of squared row residuals y - fitted[group of the row]."""
    resid = y - fitted[row_group]
    return float(resid @ resid)


def fit_ols(design: DesignMatrix, frame: PercentileFrame) -> FittedModel:
    """Fit percentiles on the design by QR least squares on the
    sqrt(n_c)-weighted cell means (exactly the row least-squares fit)."""
    y, w, means = _cell_means(design, frame)
    beta = _qr_solve(design.cell_X * w[:, None], w * means, design.column_names)

    rss = _row_rss(y, design.cell_X @ beta, design.row_cell)
    tss = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - rss / tss if tss > 0 else 1.0

    n_venue = len(design.venue_levels)
    venue_coefs = {v: float(beta[1 + i]) for i, v in enumerate(design.venue_levels)}
    early_coefs = {lvl: float(beta[1 + n_venue + i])
                   for i, lvl in enumerate(design.early_levels)}
    return FittedModel(
        pub_year=frame.pub_year,
        T=design.T,
        reference_venue=design.reference_venue,
        intercept=float(beta[0]),
        venue_coefs=venue_coefs,
        early_coefs=early_coefs,
        rss=rss,
        r_squared=r_squared,
    )


def _one_way_rss(y: np.ndarray, row_group: np.ndarray) -> float:
    """RSS of intercept + one factor: residuals from the group means."""
    counts = np.bincount(row_group)
    means = np.bincount(row_group, weights=y) / np.maximum(counts, 1)
    return _row_rss(y, means, row_group)


def anova_decompose(design: DesignMatrix, frame: PercentileFrame) -> AnovaTable:
    """Sequential (Type I) sums of squares for venue-first and early-first
    orderings, with eta^2 = SS / SS_total per factor."""
    y, w, means = _cell_means(design, frame)
    ss_total = float(np.sum((y - y.mean()) ** 2))
    # lstsq rather than _qr_solve: a rank-deficient design still has a
    # well-defined projection, hence a full-model RSS
    beta, *_ = np.linalg.lstsq(design.cell_X * w[:, None], w * means, rcond=None)
    rss_full = _row_rss(y, design.cell_X @ beta, design.row_cell)

    def ordering(first_cells, first_name, second_name):
        rss_first = _one_way_rss(y, first_cells[design.row_cell])
        ss_first = ss_total - rss_first
        ss_second = rss_first - rss_full
        rows = (
            AnovaRow(first_name, ss_first, ss_first / ss_total if ss_total else 0.0),
            AnovaRow(second_name, ss_second, ss_second / ss_total if ss_total else 0.0),
            AnovaRow("residual", rss_full, rss_full / ss_total if ss_total else 0.0),
        )
        return rows

    venue_first = ordering(design.cell_venue, "venue", "early")
    early_first = ordering(design.cell_early, "early", "venue")
    return AnovaTable(ss_total=ss_total, venue_first=venue_first,
                      early_first=early_first)


def predict_cohort(model: FittedModel, design: DesignMatrix) -> np.ndarray:
    """Model predictions for every design row, computed once per cell."""
    venues = (model.reference_venue,) + design.venue_levels
    early = (0,) + design.early_levels
    per_cell = np.array([
        model.predict(venues[v], early[e])
        for v, e in zip(design.cell_venue.tolist(), design.cell_early.tolist())
    ])
    return per_cell[design.row_cell]


def boxplot_aggregate(values: Sequence[float], groups: Sequence,
                      sort_by_median: bool = False) -> list[BoxplotRow]:
    """Five-number summary (linear-interpolation quartiles) per group.

    With sort_by_median the rows come out median-descending (venue plots);
    otherwise rows are in sorted group-key order (early-level plots).
    """
    if len(values) == 0:
        raise ValueError("no values to aggregate")
    if len(values) != len(groups):
        raise DimensionMismatch("values and groups differ in length")
    keys, codes = factorize(groups)
    buckets = split_by_code(np.asarray(values, dtype=np.float64), codes,
                            len(keys))
    rows = []
    for key, data in sorted(zip(keys, buckets), key=lambda kb: str(kb[0])):
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


def save_model(model: FittedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_model(path) -> FittedModel:
    with open(path, encoding="utf-8") as handle:
        return FittedModel.from_dict(json.load(handle))
