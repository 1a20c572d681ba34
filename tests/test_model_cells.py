"""The cell-table fit, ANOVA and predictions against a dense row reference.

The reference builds the n x k dummy design row by row from the design's
level names, independently of the cell table, and fits it with QR (for the
rank rule) and lstsq (for the coefficients and the ANOVA projections), as
the row-based implementation did.  Every scenario runs on 30 seeded
cohorts.  On the fixture the fit also meets an exact rational solve.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from citegauge import errors
from citegauge.corpus import load_cohort
from citegauge.report import anova_csv
from citegauge.metrics import DEFAULT_EARLY_OFFSET
from citegauge.model import (
    MISC_VENUE,
    PercentileFrame,
    anova_decompose,
    build_design_matrix,
    fit_ols,
    percentile_transform,
    predict_cohort,
)

from conftest import make_cohort

TOL = 1e-9
RANK_TOL = 1e-10
SEEDS = range(30)


def dense_design(design):
    col = {name: j for j, name in enumerate(design.column_names)}
    X = np.zeros((design.n_rows, len(col)))
    X[:, 0] = 1.0
    for i, (venue, level) in enumerate(zip(design.row_venues, design.row_early)):
        if venue != design.reference_venue:
            X[i, col[f"venue:{venue}"]] = 1.0
        if level > 0:
            X[i, col[f"early:{level}"]] = 1.0
    return X


def dense_rank_deficient_columns(X, names):
    diag = np.abs(np.diag(np.linalg.qr(X)[1]))
    scale = diag.max()
    return [names[j] for j in range(len(diag)) if diag[j] <= RANK_TOL * scale]


def dense_rss(X, y):
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    return float(resid @ resid)


def dense_anova(X, y, n_venue):
    """(ss_total, venue-first SS, early-first SS), each (first, second, residual)."""
    ones = X[:, :1]
    venue, early = X[:, 1:1 + n_venue], X[:, 1 + n_venue:]
    ss_total = float(np.sum((y - y.mean()) ** 2))
    rss_null, rss_full = dense_rss(ones, y), dense_rss(X, y)
    orderings = []
    for block in (venue, early):
        rss_first = dense_rss(np.hstack([ones, block]), y)
        orderings.append((rss_null - rss_first, rss_first - rss_full, rss_full))
    return ss_total, orderings


def exact_least_squares(X, y):
    """(coefficients, RSS) of the least-squares fit of y on a full-rank 0/1
    design X, in exact rational arithmetic: Gauss-Jordan elimination of the
    normal equations, with each float of y taken at its exact value."""
    rows = [np.flatnonzero(row).tolist() for row in X]
    ys = [Fraction(v) for v in y.tolist()]
    k = X.shape[1]
    gram = [[Fraction(int(v)) for v in row]
            for row in X.astype(np.int64).T @ X.astype(np.int64)]
    rhs = [Fraction(0)] * k
    for cols, v in zip(rows, ys):
        for j in cols:
            rhs[j] += v
    for c in range(k):
        pivot = next(r for r in range(c, k) if gram[r][c])
        gram[c], gram[pivot] = gram[pivot], gram[c]
        rhs[c], rhs[pivot] = rhs[pivot], rhs[c]
        for r in range(k):
            if r != c and gram[r][c]:
                f = gram[r][c] / gram[c][c]
                gram[r] = [a - f * b for a, b in zip(gram[r], gram[c])]
                rhs[r] -= f * rhs[c]
    beta = [rhs[c] / gram[c][c] for c in range(k)]
    rss = sum((v - sum(beta[j] for j in cols)) ** 2 for cols, v in zip(rows, ys))
    return beta, rss


def assert_close(got, want, scale=1.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bound = TOL * np.maximum(np.maximum(np.abs(want), scale), 1.0)
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want))


# --- seeded cohorts ----------------------------------------------------------

def zipf_venues(rng, n, n_venues):
    weights = [1.0 / (i + 1) ** rng.uniform(0.3, 1.2) for i in range(n_venues)]
    return [f"V{i:02d}" for i in rng.choices(range(n_venues), weights, k=n)]


def skewed_counts(rng, n, hi):
    return [min(int(rng.paretovariate(1.2)) - 1, hi) for _ in range(n)]


def scenario(name, rng):
    """(venues, early counts, future counts, build_design_matrix kwargs)."""
    n = rng.randint(60, 400)
    T = rng.choice([2, 5, 10])
    venues = zipf_venues(rng, n, rng.randint(2, 10))
    early = skewed_counts(rng, n, 60)
    future = [rng.randint(0, rng.choice([3, 20, 500])) for _ in range(n)]
    kwargs = {"T": T, "min_venue_size": 1}
    if name == "misc":
        venues = zipf_venues(rng, n, rng.randint(8, 40))
        smallest = min(Counter(venues).values())
        kwargs["min_venue_size"] = smallest + rng.randint(1, 20)
    elif name == "reference":
        kwargs["reference_venue"] = rng.choice(sorted(set(venues)))
    elif name == "single_venue":
        venues = ["Only"] * n
    elif name == "T1":
        kwargs["T"] = 1
    elif name == "T30":
        kwargs["T"] = 30
    elif name == "gaps":
        # only a few early levels are populated; the others get no column
        levels = sorted(rng.sample(range(1, 40), rng.randint(1, 4)))
        early = [rng.choice([0] + levels) for _ in range(n)]
        kwargs["T"] = rng.choice([10, 30])
    elif name == "tied":
        future = [rng.randint(0, 9)] * n
    elif name == "confounded":
        # each venue sees one early level, so venue and early columns coincide
        level_of = {v: rng.randint(0, T) for v in sorted(set(venues))}
        early = [level_of[v] for v in venues]
    elif name == "blocks":
        # each venue draws from its own 1-3 early levels, so a connected
        # block of venues and levels can hold several early levels, and a
        # design can have fewer cells than columns
        levels_of = {v: rng.sample(range(T + 1), rng.randint(1, min(3, T + 1)))
                     for v in sorted(set(venues))}
        early = [rng.choice(levels_of[v]) for v in venues]
    return venues, early, future, kwargs


SCENARIOS = ["misc", "reference", "single_venue", "T1", "T30", "gaps",
             "tied", "confounded", "blocks"]


def build_case(name, seed):
    rng = random.Random(f"{name}-{seed}")
    venues, early, future, kwargs = scenario(name, rng)
    cohort = make_cohort([{2017: e, 2020: f} for e, f in zip(early, future)],
                         venues=venues)
    design = build_design_matrix(cohort, **kwargs)
    frame = percentile_transform(cohort, 2020)
    return cohort, design, frame


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_cells_match_dense_rows(name, seed):
    _, design, frame = build_case(name, seed)
    X = dense_design(design)
    y = np.array(frame.percentiles)
    assert np.array_equal(design.X, X)
    assert design.cell_counts.sum() == design.n_rows
    if name == "misc":
        assert MISC_VENUE in design.row_venues
    if name == "single_venue":
        assert design.venue_levels == ()

    ss_total, (venue_first, early_first) = dense_anova(
        X, y, len(design.venue_levels))
    if not ss_total:
        # every future count ties: nothing to fit or decompose
        for fn in (anova_decompose, fit_ols):
            with pytest.raises(errors.ConstantOutcome):
                fn(design, frame)
        return
    table = anova_decompose(design, frame)
    assert_close(table.ss_total, ss_total, ss_total)
    for rows, want in ((table.venue_first, venue_first),
                       (table.early_first, early_first)):
        assert_close([r.ss for r in rows], want, ss_total)
        assert_close([r.eta_squared for r in rows], np.array(want) / ss_total)

    bad = dense_rank_deficient_columns(X, design.column_names)
    if bad:
        with pytest.raises(errors.RankDeficient) as excinfo:
            fit_ols(design, frame)
        assert list(excinfo.value.columns) == bad
        return

    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    fitted = fit_ols(design, frame)
    got = ([fitted.intercept]
           + [fitted.venue_coefs[v] for v in design.venue_levels]
           + [fitted.early_coefs[k] for k in design.early_levels])
    assert_close(got, beta)
    rss = dense_rss(X, y)
    assert_close(fitted.rss, rss, ss_total)
    assert_close(fitted.r_squared, 1.0 - rss / ss_total)
    assert_close(predict_cohort(fitted, design)[design.row_cell], X @ beta)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_cells_are_np_unique_of_the_row_codes(name, seed):
    """The cells, each row's cell and the cell sizes are, to the dtype,
    those of np.unique over the rows' (venue level, early level) codes,
    found from the cohort's venue names and early counts."""
    cohort, design, _ = build_case(name, seed)
    venue_code = {v: i for i, v in
                  enumerate((design.reference_venue, *design.venue_levels))}
    early_code = {e: i for i, e in enumerate((0, *design.early_levels))}
    names = [cohort.venue_names[c] for c in cohort.venue_codes]
    early = cohort.counts_in(cohort.pub_year + DEFAULT_EARLY_OFFSET)
    misc = venue_code.get(MISC_VENUE)
    keys = np.array([venue_code.get(v, misc) * len(early_code)
                     + early_code[min(e, design.T)]
                     for v, e in zip(names, early.tolist())], dtype=np.intp)
    cells, row_cell, cell_counts = np.unique(keys, return_inverse=True,
                                             return_counts=True)
    got = design.cell_venue * len(early_code) + design.cell_early
    for mine, want in ((got, cells), (design.row_cell, row_cell),
                       (design.cell_counts, cell_counts)):
        assert mine.dtype == want.dtype
        assert np.array_equal(mine, want)


def test_rank_deficient_cases_occur():
    # the confounded and blocks scenarios must actually exercise the
    # RankDeficient path
    for name, least in (("confounded", len(SEEDS) // 2),
                        ("blocks", len(SEEDS) // 3)):
        hits = 0
        for seed in SEEDS:
            _, design, frame = build_case(name, seed)
            if dense_rank_deficient_columns(dense_design(design),
                                            design.column_names):
                with pytest.raises(errors.RankDeficient):
                    fit_ols(design, frame)
                hits += 1
        assert hits >= least, name


@pytest.mark.parametrize("T", [10, 30])
def test_fixture_fit_matches_exact_least_squares(T, fixture_corpus_path):
    """The fit of the fixture cohort against an exact rational solve of the
    same least-squares problem: every coefficient within 1e-12, and the
    RSS within 1e-13 of its exact value, relatively."""
    cohort = load_cohort(fixture_corpus_path, 2016)
    design = build_design_matrix(cohort, T=T)
    frame = percentile_transform(cohort, 2020)
    beta, rss = exact_least_squares(dense_design(design),
                                    np.asarray(frame.percentiles))
    fitted = fit_ols(design, frame)
    got = ([fitted.intercept]
           + [fitted.venue_coefs[v] for v in design.venue_levels]
           + [fitted.early_coefs[k] for k in design.early_levels])
    assert len(got) == len(beta) == len(design.column_names)
    assert max(abs(Fraction(g) - b) for g, b in zip(got, beta)) <= 1e-12
    assert abs(Fraction(fitted.rss) - rss) <= 1e-13 * rss


def test_tied_percentiles_have_zero_total():
    """Every future count ties, so every percentile is 50 and the total sum
    of squares is 0: the fit and the decomposition refuse the outcome
    instead of reporting R^2 1.0 and a table of zeros."""
    _, design, frame = build_case("tied", 0)
    assert frame.percentiles.tolist() == [50.0] * design.n_rows
    with pytest.raises(errors.ConstantOutcome, match="no variance"):
        anova_decompose(design, frame)
    with pytest.raises(errors.ConstantOutcome, match="no variance"):
        fit_ols(design, frame)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_venue_anova_has_no_negative_value(seed):
    """With one venue the venue factor explains nothing, and its SS, a
    difference of two residual sums of squares, used to come out a rounding
    error below zero."""
    _, design, frame = build_case("single_venue", seed)
    table = anova_decompose(design, frame)
    for ordering in (table.venue_first, table.early_first):
        for row in ordering:
            assert row.ss >= 0.0 and row.eta_squared >= 0.0, row
            assert math.copysign(1.0, row.ss) == 1.0, row
    for line in anova_csv(table).splitlines()[1:]:
        assert not any(field.startswith("-") for field in line.split(",")), line


@pytest.mark.parametrize("seed", range(40))
def test_percentiles_bit_identical_to_scipy_rankdata(seed):
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(seed)
    n = rng.choice([1, 2, 7, 100, 3000])
    counts = [rng.randint(0, rng.choice([0, 1, 5, 100, 10**6])) for _ in range(n)]
    frame = percentile_transform(make_cohort([{2020: c} for c in counts]), 2020)
    want = 100.0 * (stats.rankdata(counts, method="average") - 0.5) / n
    assert frame.percentiles.dtype == np.float64
    assert frame.percentiles.tolist() == want.tolist()


class TestErrors:
    def test_empty_cohort(self):
        with pytest.raises(errors.EmptyCohort):
            percentile_transform(make_cohort([]), 2020)
        with pytest.raises(errors.EmptyCohort):
            build_design_matrix(make_cohort([]))

    def test_too_few_rows(self):
        cohort = make_cohort([{2017: 1}, {2017: 2}, {2017: 3}],
                             venues=["A", "B", "C"])
        with pytest.raises(errors.TooFewRows):
            build_design_matrix(cohort, T=5, min_venue_size=1)

    @pytest.mark.parametrize("fn", [fit_ols, anova_decompose])
    def test_dimension_mismatch(self, fn):
        _, design, frame = build_case("reference", 0)
        short = PercentileFrame(pub_year=frame.pub_year,
                                future_year=frame.future_year,
                                percentiles=frame.percentiles[:-1])
        with pytest.raises(errors.DimensionMismatch):
            fn(design, short)
