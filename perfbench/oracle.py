"""Independent correctness oracle for the benchmark's outputs.

Nothing here imports citegauge.  Expected values come from textbook
formulas on the generated inputs: exact integer sums for means, variances
and Pearson correlations; exact average ranks; a least-squares fit on
(venue, early) cell means weighted by cell size, which equals the row-level
fit of a two-factor dummy design; one-way ANOVA between-group sums of
squares.  Each check returns a list of messages, empty when the output is
right.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

PUB_YEAR = 2016
EARLY_YEAR = PUB_YEAR + 1
FUTURE_YEAR = PUB_YEAR + 4
THRESHOLDS = [1, 2, 3, 10, 20]
MIN_VENUE_SIZE = 40
MISC = "misc"
CORPUS_KEYS = {"id", "source", "venue", "year", "counts"}
SOURCES = {"ACL", "ArXiv", "PubMed", "Other"}
REL = 1e-9


def close(got, want, rel=REL):
    return abs(got - want) <= rel * max(1.0, abs(want))


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


# --- the cohort, parsed independently ---------------------------------

def load_cohort(corpus_path, pub_year=PUB_YEAR):
    """Papers of pub_year, sorted by id: (id, venue, {year: count})."""
    papers = []
    with open(corpus_path, encoding="utf-8") as handle:
        for line in handle:
            rec = json.loads(line)
            if rec["year"] == pub_year:
                counts = {int(y): c for y, c in rec["counts"].items()}
                papers.append((rec["id"], rec["venue"], counts))
    papers.sort()
    return papers


def h_index(values):
    ordered = sorted(values, reverse=True)
    return sum(1 for i, c in enumerate(ordered, 1) if c >= i)


def median(values):
    s = sorted(values)
    n = len(s)
    return float(s[n // 2]) if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0


def summary(values):
    """(h, median, mu, sigma, N) with mu and sigma from exact integer sums."""
    n = len(values)
    s1 = sum(values)
    s2 = sum(v * v for v in values)
    return (h_index(values), median(values), s1 / n,
            math.sqrt((n * s2 - s1 * s1) / (n * n)), n)


def pearson(x, y):
    """Computational formula over exact integer sums; None when degenerate."""
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxx = n * sum(a * a for a in x) - sx * sx
    syy = n * sum(b * b for b in y) - sy * sy
    if sxx == 0 or syy == 0:
        return None
    sxy = n * sum(a * b for a, b in zip(x, y)) - sx * sy
    return sxy / math.sqrt(sxx * syy)


def hazen_percentiles(values):
    """100 * (average rank - 0.5) / N, ties sharing their average rank."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    out = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            out[order[k]] = 100.0 * (rank - 0.5) / n
        i = j + 1
    return out


# --- the two-factor model on cells -------------------------------------

class CellModel:
    """Percentile ~ venue level + early level, fitted on cells.

    Rows with the same (venue level, early level) share a design row, so the
    row-level least-squares fit equals weighted least squares on cell means;
    the row RSS is the weighted cell RSS plus the within-cell sum of squares.
    """

    def __init__(self, cohort, T):
        sizes = Counter(v for _, v, _ in cohort)
        level = {v: (v if n >= MIN_VENUE_SIZE else MISC) for v, n in sizes.items()}
        self.y = hazen_percentiles([c.get(FUTURE_YEAR, 0) for _, _, c in cohort])
        self.rows = [(level[v], min(c.get(EARLY_YEAR, 0), T)) for _, v, c in cohort]
        level_sizes = Counter(v for v, _ in self.rows)
        self.reference = min(level_sizes, key=lambda v: (-level_sizes[v], v))
        self.venues = sorted(v for v in level_sizes if v != self.reference)
        self.early = sorted({e for _, e in self.rows if e > 0})
        self.T = T
        n_cell, s1, s2 = Counter(), defaultdict(float), defaultdict(float)
        for cell, y in zip(self.rows, self.y):
            n_cell[cell] += 1
            s1[cell] += y
            s2[cell] += y * y
        self.cells = sorted(n_cell)
        self.n = np.array([n_cell[c] for c in self.cells], dtype=float)
        self.s1 = np.array([s1[c] for c in self.cells])
        self.s2 = np.array([s2[c] for c in self.cells])
        col = {("venue", v): 1 + i for i, v in enumerate(self.venues)}
        col.update({("early", e): 1 + len(self.venues) + i
                    for i, e in enumerate(self.early)})
        self.X = np.zeros((len(self.cells), 1 + len(self.venues) + len(self.early)))
        self.X[:, 0] = 1.0
        for r, (v, e) in enumerate(self.cells):
            if v != self.reference:
                self.X[r, col["venue", v]] = 1.0
            if e > 0:
                self.X[r, col["early", e]] = 1.0
        mean_y = math.fsum(self.y) / len(self.y)
        self.tss = math.fsum((y - mean_y) ** 2 for y in self.y)

    def rss(self, beta):
        """Row-level RSS of coefficients beta, from cell sums."""
        fit = self.X @ beta
        return float(np.sum(self.s2 - 2.0 * fit * self.s1 + self.n * fit * fit))

    def lstsq(self):
        w = np.sqrt(self.n)
        beta, *_ = np.linalg.lstsq(self.X * w[:, None], self.s1 / w, rcond=None)
        return beta

    def normal_residual(self, beta):
        """max_j |X'(y - X beta)|_j over scale_j, the column's total |y| mass."""
        fit = self.X @ beta
        xr = self.X.T @ (self.s1 - self.n * fit)
        scale = self.X.T @ (np.abs(self.s1) + self.n * np.abs(fit)) + 1.0
        return float(np.max(np.abs(xr) / scale))

    def between_ss(self, factor):
        """One-way between-group SS of the venue (0) or early (1) factor."""
        groups = defaultdict(list)
        for cell, y in zip(self.rows, self.y):
            groups[cell[factor]].append(y)
        mean_y = math.fsum(self.y) / len(self.y)
        return math.fsum(len(g) * (math.fsum(g) / len(g) - mean_y) ** 2
                         for g in groups.values())


# --- report checks -----------------------------------------------------

def check_corr(path, cohort):
    errors = []
    years = list(range(PUB_YEAR, PUB_YEAR + 8))
    rows = read_rows(path)
    if rows[0] != [""] + [str(y) for y in years]:
        return [f"header {rows[0]}"]
    vectors = {y: [c.get(y, 0) for _, _, c in cohort] for y in years}
    shown, full = rows[1:1 + len(years)], rows[3 + len(years):3 + 2 * len(years)]
    if rows[1 + len(years)] != [] or rows[2 + len(years)] != ["# full precision"]:
        errors.append("missing full-precision block")
    for i, a in enumerate(years):
        for j, b in enumerate(years):
            want = pearson(vectors[a], vectors[b])
            got_shown, got_full = shown[i][1 + j], full[i][1 + j]
            if want is None:
                if got_shown != "NA" or got_full != "NA":
                    errors.append(f"corr {a},{b}: want NA")
                continue
            if not close(float(got_full), want) or got_shown != f"{float(got_full):.2f}":
                errors.append(f"corr {a},{b}: {got_shown}/{got_full} vs {want!r}")
    return errors


def check_group_rows(rows, expected):
    """rows: CSV data rows; expected: [(label, values list)] in order."""
    errors = []
    if [r[0] for r in rows] != [label for label, _ in expected]:
        return [f"groups {[r[0] for r in rows]} vs {[label for label, _ in expected]}"]
    for row, (label, values) in zip(rows, expected):
        h, med, mu, sigma, n = summary(values)
        _, got_h, got_med, got_mu, got_sigma, got_n, mu_full, sigma_full, med_full = row
        shown_med = str(int(med)) if med.is_integer() else f"{med:.1f}"
        if (int(got_h) != h or int(got_n) != n or float(med_full) != med
                or got_med != shown_med):
            errors.append(f"{label}: h/N/median {got_h}/{got_n}/{med_full} vs {h}/{n}/{med}")
        if not (close(float(mu_full), mu) and close(float(sigma_full), sigma)):
            errors.append(f"{label}: mu/sigma {mu_full}/{sigma_full} vs {mu!r}/{sigma!r}")
        if got_mu != f"{float(mu_full):.1f}" or got_sigma != f"{float(sigma_full):.1f}":
            errors.append(f"{label}: display {got_mu}/{got_sigma}")
    return errors


def threshold_groups(cohort):
    future = lambda members: [c.get(FUTURE_YEAR, 0) for _, _, c in members]
    early = [(p, p[2].get(EARLY_YEAR, 0)) for p in cohort]
    groups = []
    zero = [p for p, e in early if e == 0]
    if zero:
        groups.append(("0 citations", future(zero)))
    for t in THRESHOLDS:
        members = [p for p, e in early if e >= t]
        if members:
            groups.append((f"{t}+ citations", future(members)))
    return groups


def venue_groups(cohort, min_size):
    by_venue = defaultdict(list)
    for _, v, c in cohort:
        by_venue[v].append(c.get(FUTURE_YEAR, 0))
    named = [(v, xs) for v, xs in by_venue.items() if len(xs) >= min_size]
    named.sort(key=lambda g: (-Fraction(sum(g[1]), len(g[1])), g[0]))
    other = [x for v, xs in by_venue.items() if len(xs) < min_size for x in xs]
    return named + ([("All other venues", other)] if other else [])


def check_groupstats_early(path, cohort):
    rows = read_rows(path)
    return check_group_rows(rows[1:], threshold_groups(cohort))


def check_groupstats_venue(path, cohort):
    rows = read_rows(path)
    return check_group_rows(rows[1:], venue_groups(cohort, MIN_VENUE_SIZE))


def check_fit(path, model_path, cm):
    errors = []
    rows = read_rows(path)
    labels = (["Intercept"] + cm.venues
              + [f"{e}+ early" if e == cm.T else f"{e} early" for e in cm.early]
              + ["R2"])
    if [r[0] for r in rows[1:]] != labels:
        return [f"coefficient rows {[r[0] for r in rows[1:]]}"]
    beta = np.array([float(r[2]) for r in rows[1:-1]])
    for r in rows[1:-1]:
        if r[1] != f"{float(r[2]):.1f}":
            errors.append(f"{r[0]}: display {r[1]} vs {r[2]}")
    residual = cm.normal_residual(beta)
    if residual > REL:
        errors.append(f"normal equations: max |X'(y - Xb)| / scale = {residual:.3g}")
    rss = cm.rss(beta)
    r2 = 1.0 - rss / cm.tss
    if not close(float(rows[-1][2]), r2) or rows[-1][1] != f"{float(rows[-1][2]):.3f}":
        errors.append(f"R2 {rows[-1][2]} vs {r2!r}")
    with open(model_path, encoding="utf-8") as handle:
        saved = json.load(handle)
    want = {"pub_year": PUB_YEAR, "T": cm.T, "reference_venue": cm.reference,
            "intercept": beta[0],
            "venue_coefs": dict(zip(cm.venues, beta[1:1 + len(cm.venues)])),
            "early_coefs": {str(e): b for e, b in
                            zip(cm.early, beta[1 + len(cm.venues):])}}
    for key, value in want.items():
        if saved.get(key) != value:
            errors.append(f"model.json {key} differs from the coefficient table")
    if not close(saved.get("rss", float("nan")), rss):
        errors.append(f"model.json rss {saved.get('rss')} vs {rss!r}")
    return errors


def check_anova(path, cm):
    errors = []
    rows = read_rows(path)
    want_labels = [["venue_first", "venue"], ["venue_first", "early"],
                   ["venue_first", "residual"], ["early_first", "early"],
                   ["early_first", "venue"], ["early_first", "residual"],
                   ["", "total"]]
    if [r[:2] for r in rows[1:]] != want_labels:
        return [f"anova rows {[r[:2] for r in rows[1:]]}"]
    ss = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    eta = {(r[0], r[1]): float(r[3]) for r in rows[1:]}
    total = ss["", "total"]
    if not close(total, cm.tss):
        errors.append(f"ss_total {total!r} vs {cm.tss!r}")
    rss = cm.rss(cm.lstsq())
    for order in ("venue_first", "early_first"):
        parts = [ss[order, f] for f in ("venue", "early", "residual")]
        if not close(math.fsum(parts), total):
            errors.append(f"{order}: {parts} do not add up to {total!r}")
        if not close(ss[order, "residual"], rss):
            errors.append(f"{order}: residual {ss[order, 'residual']!r} vs {rss!r}")
        for f in ("venue", "early", "residual"):
            if not close(eta[order, f], ss[order, f] / total):
                errors.append(f"{order}: eta^2 of {f}")
    for order, factor, index in (("venue_first", "venue", 0), ("early_first", "early", 1)):
        want = cm.between_ss(index)
        if not close(ss[order, factor], want):
            errors.append(f"{order}: {factor} SS {ss[order, factor]!r} vs {want!r}")
    return errors


def quantile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    h = (len(sorted_values) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def check_boxplot(path, cm, by):
    errors = []
    fitted = dict(zip(cm.cells, cm.X @ cm.lstsq()))
    groups = defaultdict(list)
    for cell in cm.rows:
        groups[f"{cell[1]:02d}" if by == "early" else cell[0]].append(fitted[cell])
    rows = read_rows(path)[1:]
    labels = [r[0] for r in rows]
    if by == "early":
        if labels != sorted(groups):
            return [f"boxplot groups {labels}"]
    else:
        if sorted(labels) != sorted(groups):
            return [f"boxplot groups {labels}"]
        keys = [(-float(r[3]), r[0]) for r in rows]
        if keys != sorted(keys):
            errors.append("boxplot rows not in descending-median order")
    for r in rows:
        values = sorted(groups[r[0]])
        want = [float(values[0]), float(quantile(values, 0.25)),
                float(quantile(values, 0.5)), float(quantile(values, 0.75)),
                float(values[-1])]
        got = [float(x) for x in r[1:6]]
        if int(r[6]) != len(values) or not all(close(g, w) for g, w in zip(got, want)):
            errors.append(f"boxplot {r[0]}: {got} n={r[6]} vs {want} n={len(values)}")
    return errors


def check_triage(path, cohort):
    errors = []
    rows = read_rows(path)
    split = rows.index([]) if [] in rows else len(rows)
    ranking, comparisons = rows[1:split], rows[split + 2:]
    want = sorted(((-c.get(EARLY_YEAR, 0), pid, v) for pid, v, c in cohort),
                  key=lambda t: (t[0], t[1]))
    expected = [[str(i), pid, str(-e), v, ""] for i, (e, pid, v) in enumerate(want, 1)]
    if ranking != expected:
        bad = next((i for i, (a, b) in enumerate(zip(ranking, expected)) if a != b),
                   min(len(ranking), len(expected)))
        errors.append(f"ranking differs from an independent sort at rank {bad + 1}")
    venues = venue_groups(cohort, 1)
    venue_mu = [Fraction(sum(xs), len(xs)) for _, xs in venues]
    venue_h = [h_index(xs) for _, xs in venues]
    expected = []
    for label, values in threshold_groups(cohort):
        if label == "0 citations":
            continue
        mu, h = Fraction(sum(values), len(values)), h_index(values)
        expected.append([label.split("+")[0], f"{float(mu):.1f}", str(h),
                         repr(sum(m < mu for m in venue_mu) / len(venues)),
                         repr(sum(x < h for x in venue_h) / len(venues))])
    if comparisons != expected:
        errors.append(f"threshold comparison rows {comparisons} vs {expected}")
    return errors


def check_report_run(corpus_path, out_dir):
    """{op name: [messages]} for one report run's output directory."""
    cohort = load_cohort(corpus_path)
    path = lambda name: f"{out_dir}/{name}"
    fit_model, box_model = CellModel(cohort, 10), CellModel(cohort, 30)
    checks = {
        "corr": lambda: check_corr(path("year_correlations.csv"), cohort),
        "groupstats_early": lambda: check_groupstats_early(
            path("early_threshold_groups.csv"), cohort),
        "groupstats_venue": lambda: check_groupstats_venue(
            path("venue_groups.csv"), cohort),
        "fit": lambda: check_fit(path("coefficients.csv"), path("model.json"), fit_model),
        "anova": lambda: check_anova(path("anova.csv"), fit_model),
        "boxplot_early": lambda: check_boxplot(path("boxplot_by_early.csv"), box_model, "early"),
        "boxplot_venue": lambda: check_boxplot(path("boxplot_by_venue.csv"), box_model, "venue"),
        "triage": lambda: check_triage(path("triage.csv"), cohort),
    }
    out = {}
    for name, check in checks.items():
        try:
            out[name] = check()
        except (OSError, ValueError, IndexError, KeyError, TypeError) as exc:
            out[name] = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return out


# --- ingest checks -----------------------------------------------------

def true_counts(meta):
    counts = Counter(y for y in meta["citing_years"]
                     if y is not None and y >= meta["year"])
    return {str(y): n for y, n in counts.items()}


def _strict_record(rec):
    if not isinstance(rec, dict) or set(rec) != CORPUS_KEYS:
        return False
    if not (isinstance(rec["id"], str) and rec["id"] and rec["source"] in SOURCES
            and isinstance(rec["venue"], str) and type(rec["year"]) is int
            and isinstance(rec["counts"], dict)):
        return False
    return all(len(y) == 4 and y.isdigit() and int(y) >= rec["year"]
               and type(n) is int and n >= 0 for y, n in rec["counts"].items())


def check_ingest_corpus(corpus_path, graph):
    """Ids that are not present exactly once with their true record."""
    seen = Counter()
    wrong = set()
    with open(corpus_path, encoding="utf-8") as handle:
        for line in handle:
            try:
                rec = json.loads(line)
            except ValueError:
                return set(graph["ids"])      # a torn line: nothing loads
            if not _strict_record(rec):
                return set(graph["ids"])
            pid = rec["id"]
            seen[pid] += 1
            meta = graph["papers"].get(pid)
            if meta is None or rec["counts"] != true_counts(meta) or (
                    rec["venue"], rec["source"], rec["year"]) != (
                    meta["venue"], meta["source"], meta["year"]):
                wrong.add(pid)
    missing = {pid for pid in graph["ids"] if seen[pid] != 1}
    extra = {pid for pid in seen if pid not in graph["papers"]}
    return missing | wrong | extra
