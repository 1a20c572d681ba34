#!/usr/bin/env python3
"""One benchmark run of citegauge, in a fresh interpreter started by run.py.

A closed loop with one client: the next operation starts when the previous
one has returned.  For the report workloads an operation is one subcommand
of scripts/run_reports.py called through citegauge.cli.main, and a group is
one pass over all eight; for ingest-resume an operation is one paper id and
a group is one build_corpus job over all ids, resumed after each restart
until it completes.  Groups repeat while the next one, if it takes as long
as the last, ends within --seconds (at least one always runs).

With --trace 1 the groups alternate untraced and traced, so the same run
gives both the per-layer spans and the tracing overhead.  The result (times,
hashes of every output, counters) goes to --result as JSON; the oracle in
run.py checks it.  This file imports citegauge; the oracle does not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import time

from citegauge import cli, corpus, ingest, metrics, model, report, triage

import calibrate
from transport import GraphTransport, Restart, VirtualClock
from tracer import Tracer

PUB_YEAR = "2016"
CAL_PER_JOB = 8          # calibration passes before each ingest job
WORKERS = 2
RATE = (100, 300.0)      # ingest rate budget: requests per window of seconds

REPORT_FUNCTIONS = {
    corpus: ["load_corpus", "filter_cohort"],
    metrics: ["year_correlation_matrix", "group_by_early_threshold",
              "group_by_venue"],
    model: ["percentile_transform", "build_design_matrix", "fit_ols",
            "anova_decompose", "predict_cohort", "boxplot_aggregate"],
    triage: ["ddi_rank", "rule_of_thumb"],
}
RENDERERS = ["correlation_csv", "group_stats_csv", "coefficients_csv",
             "anova_csv", "boxplot_csv", "triage_csv"]


def report_ops(corpus_path, out_dir):
    """The eight subcommands of scripts/run_reports.py: (name, argv, output)."""
    base = ["--corpus", corpus_path, "--pub-year", PUB_YEAR]
    y0 = int(PUB_YEAR)
    out = lambda name: os.path.join(out_dir, name)
    return [
        ("corr", ["corr", *base, "--years", f"{y0}..{y0 + 7}"],
         out("year_correlations.csv")),
        ("groupstats_early", ["groupstats", *base, "--thresholds", "1,2,3,10,20"],
         out("early_threshold_groups.csv")),
        ("groupstats_venue", ["groupstats", *base, "--by", "venue", "--min-size", "40"],
         out("venue_groups.csv")),
        ("fit", ["fit", *base, "--model-out", out("model.json")],
         out("coefficients.csv")),
        ("anova", ["anova", *base], out("anova.csv")),
        ("boxplot_early", ["boxplot", *base], out("boxplot_by_early.csv")),
        ("boxplot_venue", ["boxplot", *base, "--by", "venue"],
         out("boxplot_by_venue.csv")),
        ("triage", ["triage", *base, "--thresholds", "1,2,3,10,20"],
         out("triage.csv")),
    ]


def _design_attrs(design):
    cells = len(set(zip(design.row_venues, design.row_early)))
    return {"bytes": design.X.nbytes, "cols": design.X.shape[1], "cells": cells}


def install_report(tracer):
    attrs = {
        "load_corpus": lambda r: {"rows": len(r)},
        "filter_cohort": lambda r: {"rows": len(r)},
        "build_design_matrix": _design_attrs,
    }
    for module, names in REPORT_FUNCTIONS.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            tracer.wrap(module, name, f"{layer}.{name}", attrs=attrs.get(name))
    for name in RENDERERS:
        tracer.wrap(report, name, "report.render", attrs=lambda r: {"bytes": len(r)})


def install_ingest(tracer):
    tracer.wrap(ingest, "build_corpus", "ingest.build_corpus")
    by_id = lambda args: args[1]
    tracer.wrap(ingest.ApiClient, "fetch_paper_meta", "ingest.fetch", by_id)
    tracer.wrap(ingest.ApiClient, "fetch_citation_years", "ingest.fetch", by_id)
    tracer.wrap(ingest.FetchCheckpoint, "save", "ingest.checkpoint",
                lambda args: args[0].last_completed_paper_id)
    tracer.wrap(GraphTransport, "get_paper", "ingest.transport", by_id)
    tracer.wrap(GraphTransport, "get_citations", "ingest.transport", by_id)


def _sha(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_reports(args, tracer):
    groups = []
    deadline = time.perf_counter() + args.seconds
    while True:
        k = len(groups)
        traced = args.trace and k % 2 == 1
        out_dir = os.path.join(args.out, f"rep{k}")
        os.makedirs(out_dir)
        ops, cal, busy = [], [], 0.0
        if traced:
            install_report(tracer)
            tracer.group = k
        for name, argv, out_path in report_ops(args.input, out_dir):
            argv = [*argv, "--out", out_path]
            cal.append(calibrate.measure())
            t0 = time.perf_counter()
            if traced:
                tracer.trace = f"rep{k}.{name}"
                code = tracer.call(f"cli.{name}", cli.main, (argv,), {})
            else:
                code = cli.main(argv)
            files = [out_path] + ([os.path.join(out_dir, "model.json")]
                                  if name == "fit" else [])
            ops.append({"name": name, "s": time.perf_counter() - t0, "code": code,
                        "files": files})
            busy += ops[-1]["s"]
        tracer.uninstall()
        # only the first run's files are kept for the oracle; the others
        # are checked against them by hash
        for op in ops:
            op["sha"] = [_sha(f) if os.path.exists(f) else None for f in op["files"]]
            if k > 0:
                for f in op["files"]:
                    if os.path.exists(f):
                        os.remove(f)
        groups.append({"s": busy, "traced": traced, "ops": ops, "dir": out_dir,
                       "cal": cal})
        if time.perf_counter() + busy > deadline and len(groups) > args.trace:
            return groups


def ingest_job(graph, seed, job_dir):
    """One build_corpus job to completion, resuming after every restart."""
    corpus_path = os.path.join(job_dir, "corpus.jsonl")
    checkpoint = os.path.join(job_dir, "checkpoint.json")
    transport = GraphTransport(graph, seed)
    clock = VirtualClock()
    restarts = 0
    failures = {}
    while True:
        config = ingest.ClientConfig(page_size=graph["page_size"],
                                     rate_budget=ingest.RateBudget(*RATE))
        client = ingest.ApiClient(config, transport=transport, clock=clock,
                                  sleep=clock.sleep,
                                  rng=random.Random(seed * 1000 + restarts))
        try:
            result = ingest.build_corpus(graph["ids"], corpus_path, checkpoint,
                                         client, workers=WORKERS)
        except Restart:
            restarts += 1
            continue
        failures.update(result.failures)
        break
    return {"corpus": corpus_path, "restarts": restarts,
            "requests": transport.requests, "pages": transport.pages,
            "retries": transport.retried, "api_wait_s": clock.requested,
            "failures": failures}


def run_ingest(args, tracer):
    with open(args.input, encoding="utf-8") as handle:
        graph = json.load(handle)
    groups = []
    deadline = time.perf_counter() + args.seconds
    while True:
        k = len(groups)
        traced = args.trace and k % 2 == 1
        job_dir = os.path.join(args.out, f"job{k}")
        os.makedirs(job_dir)
        cal = [calibrate.measure() for _ in range(CAL_PER_JOB)]
        if traced:
            install_ingest(tracer)
            tracer.group = k
            tracer.trace = f"job{k}"
        start = time.perf_counter()
        job = ingest_job(graph, args.seed, job_dir)
        elapsed = time.perf_counter() - start
        tracer.uninstall()
        # a corpus byte-identical to the first job's is checked through that
        # one; deleting it at once keeps the disk from writing back a corpus
        # per job while the next jobs run
        job["sha"] = _sha(job["corpus"])
        if k > 0 and job["sha"] == groups[0]["sha"]:
            shutil.rmtree(job_dir)
            job["corpus"] = None
        groups.append({"s": elapsed, "traced": traced, "cal": cal, **job})
        if time.perf_counter() + elapsed > deadline and len(groups) > args.trace:
            return groups


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    # One CPU for the whole run, inherited by the ingest fetcher threads.
    # With two shared cores, their GIL hand-offs between cores made an
    # ingest job's time vary 2x with its number of context switches
    # (5k-21k per job); on one CPU the count held at 4.3k-4.6k.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = Tracer()
    run = run_ingest if args.workload == "ingest-resume" else run_reports
    groups = run(args, tracer)
    if args.trace:
        tracer.dump(os.path.join(args.out, "spans.jsonl"))
    result = {"groups": groups,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
