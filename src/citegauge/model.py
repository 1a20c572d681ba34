"""Percentile-regression forecaster.

Pipeline: rank-based percentile transform of future-year counts, clipping
of early-citation counts to T factor levels, dummy-coded design (venue +
early-level factors), least-squares fit, sequential ANOVA variance
attribution, and boxplot aggregation of predictions.

Rows in one (venue level, early level) cell have one design row, so the
fit and the ANOVA solve one reduced system from the venue x early tables
of cell sizes and sums of y (_additive_fit), with a rank rule that needs
no tolerance (_collinear_early).  Residual sums of squares are summed over
the row residuals, as cell sums would lose precision to cancellation, and
no sum goes through BLAS, whose digits depend on its thread count.

Predictions have one path, predict_codes: one FittedModel.predict call per
distinct (venue, clipped early level) pair, gathered per row, so the
boxplots (predict_cohort) and triage --model read the same table and each
value is bit for bit a predict call.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Cohort, read_json
from .errors import (
    ConstantOutcome,
    DimensionMismatch,
    EmptyCohort,
    ModelFileError,
    RankDeficient,
    TooFewRows,
)
from .metrics import DEFAULT_EARLY_OFFSET, refuse_pooled_label, split_by_code

MISC_VENUE = "misc"
DEFAULT_MIN_VENUE_SIZE = 40
DEFAULT_T = 10


@dataclass(frozen=True, eq=False)
class PercentileFrame:
    """Per-paper percentile (Hazen, tie-averaged) of future-year counts,
    a float64 vector in cohort order."""

    pub_year: int
    future_year: int
    percentiles: np.ndarray


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Dummy-coded design: intercept + venue levels + early levels up to T.

    Reference levels carry no column: one venue (default the most populous)
    and early level 0.  Early levels with no member rows also get no column
    (same treatment as a venue with no papers that year).

    The design is stored as its populated (venue, early) cells:
    ``cell_counts`` the rows in each cell, ``cell_venue`` / ``cell_early``
    each cell's factor codes (0 for the reference level, otherwise 1 + the
    level's index) and ``row_cell`` the cell of each row.  ``row_venues``,
    ``row_early`` and the dense ``X`` are expanded from them on request.
    """

    column_names: tuple[str, ...]
    venue_levels: tuple[str, ...]       # levels with a column (reference excluded)
    reference_venue: str
    T: int
    early_levels: tuple[int, ...]       # populated levels 1..T with a column
    row_cell: np.ndarray
    cell_counts: np.ndarray
    cell_venue: np.ndarray
    cell_early: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.row_cell)

    @property
    def row_venues(self) -> np.ndarray:
        """The venue level of each row (an object array of names)."""
        names = np.array((self.reference_venue, *self.venue_levels), dtype=object)
        return names[self.cell_venue[self.row_cell]]

    @property
    def row_early(self) -> np.ndarray:
        """The clipped early level of each row."""
        return np.array((0, *self.early_levels))[self.cell_early[self.row_cell]]

    @property
    def X(self) -> np.ndarray:
        """The dense n x k design."""
        rows = np.arange(self.n_rows)
        early = self.cell_early[self.row_cell]
        X = np.zeros((self.n_rows, len(self.column_names)))
        X[:, 0] = 1.0
        # the reference venue's code, 0, is the intercept's column
        X[rows, self.cell_venue[self.row_cell]] = 1.0
        X[rows[early > 0], len(self.venue_levels) + early[early > 0]] = 1.0
        return X


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
        return asdict(self) | {
            "early_coefs": {str(k): v for k, v in self.early_coefs.items()}}

    @classmethod
    def from_dict(cls, d) -> "FittedModel":
        """Inverse of to_dict; a missing field or a value of the wrong type
        raises ModelFileError naming the field."""
        if not isinstance(d, dict):
            raise ModelFileError(
                f"expected a JSON object, got {type(d).__name__}")
        for name, (ok, what) in _MODEL_FIELDS.items():
            if name not in d:
                raise ModelFileError(f"missing field {name!r}")
            if not ok(d[name]):
                raise ModelFileError(
                    f"field {name!r} must be {what}, got {_brief(d[name])}")
        try:
            early_coefs = {int(k): v for k, v in d["early_coefs"].items()}
        except ValueError:  # a key past int()'s digit limit
            raise ModelFileError("field 'early_coefs' has too long a key") from None
        return cls(**{name: d[name] for name in _MODEL_FIELDS} | {
            "venue_coefs": dict(d["venue_coefs"]), "early_coefs": early_coefs})


def _brief(value, width: int = 40) -> str:
    """repr(value), cut in the middle to at most width characters, so an
    error message echoes a bad value of any size in one short line."""
    text = repr(value)
    if len(text) <= width:
        return text
    head = (width - 3) // 2
    return f"{text[:head]}...{text[len(text) - (width - 3 - head):]}"


def _is_number(value, kinds=(int, float)) -> bool:
    """An int or float within float range, not a bool, NaN or infinite."""
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_coefs(value, key_ok=lambda key: True) -> bool:
    return (isinstance(value, dict) and all(map(key_ok, value))
            and all(map(_is_number, value.values())))


#: Each field of a model file: its check and what the check accepts.
_MODEL_FIELDS = {
    "pub_year": (lambda v: _is_number(v, int), "an integer"),
    "T": (lambda v: _is_number(v, int) and v >= 1, "an integer >= 1"),
    "reference_venue": (lambda v: isinstance(v, str), "a string"),
    "intercept": (_is_number, "a number within float range"),
    "venue_coefs": (_is_coefs, "an object of numbers within float range"),
    "early_coefs": (lambda v: _is_coefs(v, str.isdecimal), "an object of "
                    "numbers within float range keyed by early level"),
    "rss": (_is_number, "a number within float range"),
    "r_squared": (_is_number, "a number within float range"),
}


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


def percentile_transform(cohort: Cohort, future_year: int) -> PercentileFrame:
    """Hazen percentiles 100*(r - 0.5)/N of counts at future_year, average
    rank over ties."""
    if len(cohort) == 0:
        raise EmptyCohort("cannot compute percentiles of an empty cohort")
    counts = cohort.counts_in(future_year)
    # average rank of a tie group: its last 1-based position minus
    # (size - 1) / 2; exact in float64 for any realistic cohort size
    _, group, size = np.unique(counts, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(size) - (size - 1) / 2.0)[group]
    percentiles = 100.0 * (ranks - 0.5) / len(counts)
    return PercentileFrame(cohort.pub_year, future_year, percentiles)


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

    venues, codes = cohort.venue_names, cohort.venue_codes
    sizes = np.bincount(codes, minlength=len(venues)).tolist()
    refuse_pooled_label(venues, sizes, min_venue_size, MISC_VENUE)
    level_of = [v if size >= min_venue_size else MISC_VENUE
                for v, size in zip(venues, sizes)]
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
    venue_code = {v: i for i, v in enumerate((reference_venue, *venue_levels))}
    row_v = np.array([venue_code[level] for level in level_of],
                     dtype=np.intp)[codes]
    early = cohort.counts_in(early_year)
    if np.any(early < 0):
        raise ValueError("count must be non-negative")
    # early code: 0 for level 0, 1 + i for the i-th populated level 1..T
    levels, row_e = np.unique(np.minimum(early, T), return_inverse=True)
    if levels[0] != 0:
        row_e += 1
    early_levels = tuple(levels[levels > 0].tolist())

    columns = ["intercept"]
    columns += [f"venue:{v}" for v in venue_levels]
    columns += [f"early:{k}" for k in early_levels]
    n, k = len(cohort), len(columns)
    if n < k:
        raise TooFewRows(f"{n} rows < {k} columns")

    n_early = 1 + len(early_levels)
    # the populated cells as np.unique of the row keys finds them, from a
    # count of each key and a table of cell numbers, with no n-long sort
    row_key = row_v * n_early + row_e
    key_counts = np.bincount(row_key)
    cells = np.flatnonzero(key_counts)
    cell_of_key = np.zeros(len(key_counts), dtype=np.intp)
    cell_of_key[cells] = np.arange(len(cells))
    row_cell, cell_counts = cell_of_key[row_key], key_counts[cells]
    cell_venue, cell_early = np.divmod(cells, n_early)
    return DesignMatrix(tuple(columns), venue_levels, reference_venue, T,
                        early_levels, row_cell, cell_counts, cell_venue,
                        cell_early)


def _outcome(design: DesignMatrix, frame: PercentileFrame):
    """(y, total sum of squares), after the length check; an outcome
    without variance, which no fit explains, raises ConstantOutcome."""
    y = np.asarray(frame.percentiles, dtype=float)
    if y.shape[0] != design.n_rows:
        raise DimensionMismatch(
            f"{design.n_rows} design rows vs {y.shape[0]} percentiles")
    ss_total = float(np.sum((y - y.mean()) ** 2))
    if not ss_total > 0:
        raise ConstantOutcome(
            f"every paper has the same count in {frame.future_year}, so the "
            f"percentiles have no variance to explain")
    return y, ss_total


def _collinear_early(design: DesignMatrix) -> list[int]:
    """The early codes whose column is a sum of the columns before it: the
    highest of each connected component of the levels, joined by their
    populated cells, that does not hold early code 0 (its venue columns sum
    to its early columns).  No other column is."""
    n_venue = 1 + len(design.venue_levels)
    parent = list(range(n_venue + 1 + len(design.early_levels)))

    def root(node):
        while parent[node] != node:
            parent[node] = node = parent[parent[node]]
        return node

    for v, e in zip(design.cell_venue.tolist(), design.cell_early.tolist()):
        parent[root(v)] = root(n_venue + e)
    highest = {root(n_venue + e): e for e in range(len(parent) - n_venue)}
    highest.pop(root(n_venue))
    return sorted(highest.values())


def _additive_fit(design: DesignMatrix, y: np.ndarray):
    """(alpha, beta, collinear early codes, RSS): least squares of y =
    alpha[venue code] + beta[early code], beta 0 at code 0 and the collinear
    codes.  From the tables of cell sizes N and sums S, with D = N's row
    sums: (diag(N's column sums) - N' D^-1 N) beta = S's column sums -
    N' D^-1 (S's row sums), then alpha = (S's row sums - N beta) / D."""
    shape = (1 + len(design.venue_levels), 1 + len(design.early_levels))
    cells = (design.cell_venue, design.cell_early)
    N, S = np.zeros(shape), np.zeros(shape)
    N[cells] = design.cell_counts
    S[cells] = np.bincount(design.row_cell, weights=y,
                           minlength=len(design.cell_counts))
    collinear = _collinear_early(design)
    free = np.setdiff1d(np.arange(1, shape[1]), collinear)
    D, venue_sums = N.sum(axis=1), S.sum(axis=1)
    share = N[:, free] / D[:, None]
    system = (np.diag(N[:, free].sum(axis=0))
              - np.einsum("ve,vf->ef", share, N[:, free]))
    rhs = S[:, free].sum(axis=0) - np.einsum("ve,v->e", share, venue_sums)
    beta = np.zeros(shape[1])
    beta[free] = np.linalg.solve(system, rhs)
    alpha = (venue_sums - np.einsum("ve,e->v", N, beta)) / D
    fitted = alpha[design.cell_venue] + beta[design.cell_early]
    return alpha, beta, collinear, _row_rss(y, fitted, design.row_cell)


def _row_rss(y: np.ndarray, fitted: np.ndarray, row_group: np.ndarray) -> float:
    """Sum of squared row residuals y - fitted[group of the row]."""
    resid = y - fitted[row_group]
    return float(np.sum(resid * resid))   # not a BLAS dot: see above


def fit_ols(design: DesignMatrix, frame: PercentileFrame) -> FittedModel:
    """Fit percentiles on the design by least squares from its cell table;
    a design whose columns are not independent raises RankDeficient
    naming the columns that are sums of columns before them."""
    y, tss = _outcome(design, frame)
    alpha, beta, collinear, rss = _additive_fit(design, y)
    if collinear:
        raise RankDeficient(
            [f"early:{design.early_levels[e - 1]}" for e in collinear])
    return FittedModel(
        frame.pub_year, design.T, design.reference_venue, float(alpha[0]),
        venue_coefs={v: float(a - alpha[0])
                     for v, a in zip(design.venue_levels, alpha[1:])},
        early_coefs={lvl: float(b)
                     for lvl, b in zip(design.early_levels, beta[1:])},
        rss=rss, r_squared=1.0 - rss / tss)


def _one_way_rss(y: np.ndarray, row_group: np.ndarray) -> float:
    """RSS of intercept + one factor: residuals from the group means."""
    counts = np.bincount(row_group)
    means = np.bincount(row_group, weights=y) / np.maximum(counts, 1)
    return _row_rss(y, means, row_group)


def anova_decompose(design: DesignMatrix, frame: PercentileFrame) -> AnovaTable:
    """Sequential (Type I) sums of squares for venue-first and early-first
    orderings, with eta^2 = SS / SS_total per factor.

    A factor's SS is a difference of two residual sums of squares, so one
    that explains nothing can come out a rounding error below zero; it is
    reported as 0.0.
    """
    y, ss_total = _outcome(design, frame)
    # a rank-deficient design still has a projection, hence a full-model
    # RSS: its collinear columns add nothing to the column space
    rss_full = _additive_fit(design, y)[3]

    def ordering(first_cells, first_name, second_name):
        rss_first = _one_way_rss(y, first_cells[design.row_cell])
        return tuple(AnovaRow(name, ss, ss / ss_total) for name, ss in (
            (first_name, max(0.0, ss_total - rss_first)),
            (second_name, max(0.0, rss_first - rss_full)),
            ("residual", rss_full)))

    venue_first = ordering(design.cell_venue, "venue", "early")
    early_first = ordering(design.cell_early, "early", "venue")
    return AnovaTable(ss_total=ss_total, venue_first=venue_first,
                      early_first=early_first)


def predict_codes(model: FittedModel, venue_names: Sequence[str],
                  venue_codes: np.ndarray, early: np.ndarray) -> np.ndarray:
    """model.predict(venue_names[venue_codes[i]], early[i]) for every i, as
    a float64 vector: one predict call per distinct (venue code,
    min(early, T)) pair, gathered per row.

    The clip never exceeds the largest count, so a model's T of any size
    stays within int64."""
    early = np.minimum(early, min(model.T, int(np.max(early, initial=0))))
    levels, level_index = np.unique(early, return_inverse=True)
    pairs, row_pair = np.unique(np.asarray(venue_codes, np.int64) * len(levels)
                                + level_index, return_inverse=True)
    names = map(venue_names.__getitem__, (pairs // len(levels)).tolist())
    values = map(model.predict, names, levels[pairs % len(levels)].tolist())
    return np.fromiter(values, float, count=len(pairs))[row_pair]


def predict_cohort(model: FittedModel, design: DesignMatrix) -> np.ndarray:
    """Model predictions for every design row, one predict call per cell."""
    early = np.array((0, *design.early_levels), np.int64)[design.cell_early]
    return predict_codes(model, (design.reference_venue, *design.venue_levels),
                         design.cell_venue, early)[design.row_cell]


def boxplot_aggregate(values: Sequence[float], codes: np.ndarray,
                      labels: Sequence[str],
                      sort_by_median: bool = False) -> list[BoxplotRow]:
    """Five-number summary (linear-interpolation quartiles) per group.

    values[i] is in group codes[i], an int in range(len(labels)), whose row
    is labelled labels[codes[i]]; a group with no value gets no row.  The
    rows come out in code order (early-level plots), or with sort_by_median
    median-descending, then by label (venue plots).
    """
    codes = np.asarray(codes)
    if len(values) == 0:
        raise ValueError("no values to aggregate")
    if len(values) != len(codes):
        raise DimensionMismatch("values and groups differ in length")
    if codes.min() < 0 or codes.max() >= len(labels):
        raise ValueError(f"group codes must lie in [0, {len(labels)})")
    buckets = split_by_code(np.asarray(values, dtype=np.float64), codes,
                            len(labels))
    rows = []
    for label, data in zip(labels, buckets):
        if not len(data):
            continue
        q1, med, q3 = np.percentile(data, [25, 50, 75])
        rows.append(BoxplotRow(
            label=label,
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


def model_json(model: FittedModel) -> str:
    """The text of a saved model file."""
    return json.dumps(model.to_dict(), indent=2, sort_keys=True) + "\n"


def load_model(path) -> FittedModel:
    """Read a model_json file; a malformed one raises ModelFileError
    naming the file and the field."""
    raw = read_json(path, ModelFileError, "model file")
    try:
        return FittedModel.from_dict(raw)
    except ModelFileError as exc:
        raise ModelFileError(f"model file {path}: {exc}") from None
