"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The reference dataset behind the published tables is not
distributed here, so the data-dependent table checks run against the
committed synthetic fixture (tests/data/fixture_corpus.jsonl) whose
expected values were frozen from independent textbook-formula oracles at
generation time (scripts/make_fixture.py).
"""

import functools
import json
import math
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import numpy as np
import pytest

from citegauge.cli import EXIT_OK, main
from citegauge.corpus import filter_cohort, load_corpus
from citegauge.ingest import import_table
from citegauge.metrics import (
    DEGENERATE,
    group_by_early_threshold,
    group_by_venue,
    h_index,
    venue_correlation_table,
    year_correlation_matrix,
)
from citegauge.model import (
    PercentileFrame,
    anova_decompose,
    build_design_matrix,
    fit_ols,
    percentile_transform,
)

from conftest import DATA_DIR, make_cohort, random_cohort
from ingest_harness import make_papers
from test_ingest import run_randomized_schedule
from test_metrics import h_index_oracle, pearson_oracle


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}")
        return wrapper
    return decorate


@criterion(1, "h-index matches brute force on 1,000 random groups, < 1 s")
def test_criterion_1_h_index_oracle():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(1000):
        counts = [rng.randint(0, 100) for _ in range(rng.randint(0, 50))]
        assert h_index(counts) == h_index_oracle(counts)
    assert time.perf_counter() - start < 1.0


@criterion(2, "correlations match the textbook oracle to 1e-12 on 200 cohorts, < 1 s")
def test_criterion_2_pearson_oracle():
    rng = random.Random(102)
    start = time.perf_counter()
    for _ in range(200):
        cohort = random_cohort(rng, rng.randint(2, 100),
                               years=[2016, 2017, 2018])
        years = [2016, 2017, 2018]
        table = year_correlation_matrix(cohort, years)
        for i, a in enumerate(years):
            for j, b in enumerate(years):
                got = table.entries[i][j]
                assert got == table.entries[j][i]
                expected = pearson_oracle(
                    [p.citations_in(a) for p in cohort],
                    [p.citations_in(b) for p in cohort])
                if expected is None:
                    assert got is DEGENERATE
                else:
                    assert abs(got - expected) <= 1e-12
                    assert -1.0 <= got <= 1.0
        pred = lambda p: p.venue == "A"
        got = venue_correlation_table(cohort, ["A"], [2017]).at("A", 2017)
        expected = pearson_oracle(
            [1 if pred(p) else 0 for p in cohort],
            [p.citations_in(2017) for p in cohort])
        if expected is None:
            assert got is DEGENERATE
        else:
            assert abs(got - expected) <= 1e-12
    assert time.perf_counter() - start < 1.0


def _linear_cohort(rng, n, beta_venue, beta_early, intercept, T, noise):
    """Cohort plus response y = X beta + noise on the real design builder."""
    venues = sorted(["A"] + list(beta_venue))
    rows = []
    chosen = []
    for i in range(n):
        venue = venues[rng.randrange(len(venues))]
        early = rng.randrange(0, T + 3)
        rows.append({2017: early})
        chosen.append(venue)
    cohort = make_cohort(rows, 2016, venues=chosen)
    design = build_design_matrix(cohort, T=T, min_venue_size=1,
                                 reference_venue="A")
    beta = [intercept]
    beta += [beta_venue[v] for v in design.venue_levels]
    beta += [beta_early[k] for k in design.early_levels]
    y = design.X @ np.array(beta)
    if noise:
        y = y + np.array([rng.gauss(0, noise) for _ in range(n)])
    frame = PercentileFrame(pub_year=2016, future_year=2020,
                            paper_ids=cohort.ids,
                            percentiles=tuple(y))
    return design, frame, np.array(beta)


def _coef_vector(fitted, design):
    return np.array(
        [fitted.intercept]
        + [fitted.venue_coefs[v] for v in design.venue_levels]
        + [fitted.early_coefs[k] for k in design.early_levels])


@criterion(3, "OLS recovers noiseless coefficients to 1e-8; error shrinks with N, < 5 s")
def test_criterion_3_ols_recovery():
    rng = random.Random(103)
    start = time.perf_counter()
    beta_venue = {"B": 5.4, "C": 10.7}
    beta_early = {k: 6.0 * k for k in range(1, 10)} | {10: 59.4}
    design, frame, beta = _linear_cohort(rng, 5000, beta_venue, beta_early,
                                         15.7, 10, noise=0.0)
    fitted = fit_ols(design, frame)
    assert np.max(np.abs(_coef_vector(fitted, design) - beta)) < 1e-8

    errors = []
    for n in (1000, 100000):
        design, frame, beta = _linear_cohort(rng, n, beta_venue, beta_early,
                                             15.7, 10, noise=1.0)
        fitted = fit_ols(design, frame)
        errors.append(np.max(np.abs(_coef_vector(fitted, design) - beta)))
    assert errors[1] < errors[0]
    assert time.perf_counter() - start < 5.0


@criterion(4, "sequential ANOVA sums of squares are additive to 1e-6 relative")
def test_criterion_4_anova_additivity():
    rng = random.Random(104)
    fits = []
    for _ in range(8):
        cohort = random_cohort(rng, rng.randint(50, 150),
                               venues=("A", "B", "C"), max_count=8)
        design = build_design_matrix(cohort, T=4, min_venue_size=1)
        frame = percentile_transform(cohort, 2020)
        fits.append((design, frame))
    fixture = load_corpus(DATA_DIR / "fixture_corpus.jsonl")
    cohort = filter_cohort(fixture, 2016)
    fits.append((build_design_matrix(cohort, T=10, min_venue_size=40),
                 percentile_transform(cohort, 2020)))
    for design, frame in fits:
        table = anova_decompose(design, frame)
        for ordering in (table.venue_first, table.early_first):
            total = sum(r.ss for r in ordering)
            assert abs(total - table.ss_total) <= 1e-6 * table.ss_total
            for r in ordering:
                assert r.ss >= -1e-6 * table.ss_total


TABLE1_CELLS = {
    "9724599": {2016: 5, 2017: 7, 2018: 5, 2019: 1, 2020: 3, 2021: 1},
    "12260053": {2016: 0, 2017: 0, 2018: 0, 2019: 1, 2020: 0, 2021: 0},
    "28309452": {2016: 2, 2017: 8, 2018: 4, 2019: 10, 2020: 7, 2021: 7},
    "1380793": {2016: 0, 2017: 2, 2018: 16, 2019: 19, 2020: 17, 2021: 19},
    "18649702": {2016: 0, 2017: 1, 2018: 2, 2019: 1, 2020: 3, 2021: 1},
    "17378758": {2016: 0, 2017: 0, 2018: 0, 2019: 2, 2020: 0, 2021: 0},
}


@criterion(5, "six-row mini-corpus import/round-trip reproduces every cell")
def test_criterion_5_table1_round_trip(table1_path, tmp_path):
    records = import_table(table1_path)
    assert len(records) == 6
    from citegauge.corpus import write_corpus
    out = tmp_path / "mini.jsonl"
    write_corpus(records, out)
    reloaded = {r.id: r for r in load_corpus(out)}
    for paper_id, cells in TABLE1_CELLS.items():
        for year, count in cells.items():
            assert reloaded[paper_id].citations_in(year) == count
    assert reloaded["1380793"].citations_in(2018) == 16


@criterion(6, "fixture cohort reproduces the frozen reference tables, < 60 s")
def test_criterion_6_fixture_tables(fixture_corpus_path,
                                    fixture_expected_path):
    expected = json.loads(Path(fixture_expected_path).read_text())
    start = time.perf_counter()
    records = load_corpus(fixture_corpus_path)
    cohort = filter_cohort(records, expected["pub_year"])

    # year-to-year correlations per source and pooled
    from citegauge.corpus import Source
    for source_name, rho in expected["corr_2016_2017"].items():
        if source_name == "all":
            sub = cohort
        else:
            sub = filter_cohort(records, expected["pub_year"],
                                {Source.parse(source_name)})
        table = year_correlation_matrix(sub, [2016, 2017])
        assert abs(table.at(2016, 2017) - rho) <= 0.01

    # early-threshold group rows: h, median, N exact; mu, sigma within 0.1
    rows = {s.label: s for s in group_by_early_threshold(
        cohort, [1, 2, 3, 10, 20])}
    for label, exp in expected["threshold_groups"].items():
        got = rows[label]
        assert got.h == exp["h"]
        assert got.n == exp["N"]
        assert got.median == exp["median"]
        assert abs(got.mu - exp["mu"]) <= 0.1
        assert abs(got.sigma - exp["sigma"]) <= 0.1

    # venue rows: h and N exact
    venue_rows = {s.label: s for s in group_by_venue(cohort, min_size=1)}
    for label, exp in expected["venue_groups"].items():
        got = venue_rows[label]
        assert got.h == exp["h"]
        assert got.n == exp["N"]
        assert abs(got.mu - exp["mu"]) <= 0.1
    assert time.perf_counter() - start < 60.0


@criterion(7, "coefficient table reproduction (synthetic stand-in): "
              "intercept and top early level within 1.0, early levels "
              "strictly increasing")
def test_criterion_7_coefficient_table():
    # the published fits are not reproducible without the posted dataset;
    # this stand-in generates data from a coefficient profile of the same
    # shape and requires the pipeline to recover it through noise
    rng = random.Random(107)
    beta_venue = {"ACL": 4.3, "ArXiv": 5.4, "PubMed": 10.7}
    beta_early = {1: 6.9, 2: 15.1, 3: 22.2, 4: 28.7, 5: 33.3,
                  6: 38.3, 7: 42.1, 8: 45.7, 9: 49.5, 10: 59.4}
    design, frame, _ = _linear_cohort(rng, 20000, beta_venue, beta_early,
                                      15.7, 10, noise=10.0)
    fitted = fit_ols(design, frame)
    assert abs(fitted.intercept - 15.7) <= 1.0
    assert abs(fitted.early_coefs[10] - 59.4) <= 1.0
    levels = sorted(fitted.early_coefs)
    coefs = [fitted.early_coefs[k] for k in levels]
    assert all(a < b for a, b in zip(coefs, coefs[1:]))


@criterion(8, "percentiles invariant under 100 random strictly increasing maps")
def test_criterion_8_percentile_invariance():
    rng = random.Random(108)
    counts = [rng.randint(0, 500) for _ in range(200)]
    base = percentile_transform(
        make_cohort([{2020: c} for c in counts]), 2020).percentiles
    values = sorted(set(counts))
    for _ in range(100):
        image = {}
        acc = rng.randint(0, 10)
        for v in values:
            image[v] = acc
            acc += rng.randint(1, 9)
        mapped = percentile_transform(
            make_cohort([{2020: image[c]} for c in counts]), 2020).percentiles
        assert mapped == base


@criterion(9, "exactly-once ingest and rate-budget compliance over 500 schedules")
def test_criterion_9_ingest_robustness(tmp_path):
    for seed in range(500):
        run_randomized_schedule(seed, tmp_path, n_papers=5)


class _GraphHandler(BaseHTTPRequestHandler):
    papers = {}

    def log_message(self, *args):
        pass

    def do_GET(self):
        parsed = urlparse(self.path)
        parts = parsed.path.strip("/").split("/")
        query = parse_qs(parsed.query)
        body = None
        if len(parts) == 2 and parts[0] == "paper":
            meta = self.papers.get(parts[1])
            if meta is not None:
                body = {"id": parts[1], "venue": meta["venue"],
                        "source": meta["source"], "year": meta["year"]}
        elif len(parts) == 3 and parts[0] == "paper" and parts[2] == "citations":
            meta = self.papers.get(parts[1])
            if meta is not None:
                offset = int(query.get("offset", ["0"])[0])
                limit = int(query.get("limit", ["100"])[0])
                citing = meta["citing_years"]
                body = {"total": len(citing),
                        "data": [{"year": y}
                                 for y in citing[offset:offset + limit]]}
        if body is None:
            self.send_response(404)
            self.end_headers()
            return
        payload = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@criterion(10, "every subcommand is byte-deterministic across repeated runs")
def test_criterion_10_cli_determinism(fixture_corpus_path, table1_path,
                                      tmp_path, capsys):
    base = ["--corpus", str(fixture_corpus_path), "--pub-year", "2016"]
    analysis_runs = [
        ["corr", *base, "--years", "2016..2023"],
        ["venuecorr", *base, "--years", "2016,2017",
         "--venues", "TopJournal,NLPConf"],
        ["groupstats", *base, "--thresholds", "1,2,3,10,20"],
        ["groupstats", *base, "--by", "venue", "--min-size", "40"],
        ["fit", *base, "--T", "5"],
        ["anova", *base, "--T", "5"],
        ["boxplot", *base],
        ["triage", *base, "--thresholds", "1,2,3"],
    ]
    for args in analysis_runs:
        out1, out2 = tmp_path / "a.out", tmp_path / "b.out"
        assert main([*args, "--out", str(out1)]) == EXIT_OK
        assert main([*args, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes(), args[0]

    # import: twice into separate files
    imp1, imp2 = tmp_path / "i1.jsonl", tmp_path / "i2.jsonl"
    assert main(["import", "--table", str(table1_path),
                 "--out", str(imp1)]) == EXIT_OK
    assert main(["import", "--table", str(table1_path),
                 "--out", str(imp2)]) == EXIT_OK
    assert imp1.read_bytes() == imp2.read_bytes()

    # fit + predict: model file and prediction output identical across runs
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for m in (m1, m2):
        assert main(["fit", *base, "--T", "5", "--model-out", str(m),
                     "--out", str(tmp_path / "coef.csv")]) == EXIT_OK
    assert m1.read_bytes() == m2.read_bytes()
    capsys.readouterr()
    assert main(["predict", "--model", str(m1), "--venue", "TopJournal",
                 "--early", "3"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["predict", "--model", str(m1), "--venue", "TopJournal",
                 "--early", "3"]) == EXIT_OK
    assert capsys.readouterr().out == first

    # ledger: same event sequence yields identical files
    l1, l2 = tmp_path / "l1.jsonl", tmp_path / "l2.jsonl"
    for path in (l1, l2):
        assert main(["ledger", "--file", str(path), "nominate",
                     "--nominator", "a", "--paper", "p"]) == EXIT_OK
        assert main(["ledger", "--file", str(path), "review",
                     "--nominator", "a", "--paper", "q"]) == EXIT_OK
    capsys.readouterr()
    assert l1.read_bytes() == l2.read_bytes()

    # ingest: against a local HTTP server, two fresh runs agree byte-for-byte
    _GraphHandler.papers = make_papers(4, rng=random.Random(9))
    server = ThreadingHTTPServer(("127.0.0.1", 0), _GraphHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("\n".join(sorted(_GraphHandler.papers)) + "\n")
        base_url = f"http://127.0.0.1:{server.server_address[1]}"
        corpora = []
        for tag in ("x", "y"):
            out = tmp_path / f"ing-{tag}.jsonl"
            assert main(["ingest", "--ids-file", str(ids_file),
                         "--out", str(out),
                         "--checkpoint", str(tmp_path / f"ck-{tag}.json"),
                         "--base-url", base_url, "--workers", "1"]) == EXIT_OK
            corpora.append(out.read_bytes())
        capsys.readouterr()
        assert corpora[0] == corpora[1]
    finally:
        server.shutdown()
        server.server_close()
