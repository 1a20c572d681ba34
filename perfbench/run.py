#!/usr/bin/env python3
"""citegauge benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload report-wide --seed 1 --seconds 25 --trace 0

Run it from the root of a citegauge checkout; it uses the sources in src/.
It generates the workload's inputs from the seed, times a fresh-interpreter
`import citegauge.cli` several times before and after the run (setup_s),
runs the workload for --seconds in a fresh child process (worker.py), checks
every output with an independent oracle, and prints one JSON object as the
last line of stdout: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.
See perfbench/README.md for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# One client, one BLAS thread, here (for the calibration loop) and in every
# child: on a shared 2-core machine a second BLAS thread makes every solve
# wait on whichever core is busier.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402  (after the thread settings above)
import gen
import oracle
from tracer import load_spans, per_group

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("report-wide", "report-long", "ingest-resume")
SETUP_REPEATS = 3         # before the run, and as many again after it
IMPORTS = ("numpy", "scipy.linalg", "scipy.stats", "requests", "citegauge.cli")
IMPORT_PROBE = f"""
import json, time
times = {{}}
for name in {IMPORTS!r}:
    start = time.perf_counter()
    __import__(name)
    times[name] = time.perf_counter() - start
print(json.dumps(times))
"""
DEADLINE_S = 170          # a run must end within 180 s, whatever happens
SETUP_RESERVE_S = 30      # of it, kept for the set-up probes after the run
CLI_OPS = ("corr", "groupstats_early", "groupstats_venue", "fit", "anova",
           "boxplot_early", "boxplot_venue", "triage")
REPORT_TIMES = ("corpus.load_corpus", "corpus.filter_cohort",
                "model.percentile_transform", "model.build_design_matrix",
                "model.fit_ols", "model.anova_decompose", "model.predict_cohort",
                "model.boxplot_aggregate", "metrics.year_correlation_matrix",
                "metrics.group_by_early_threshold", "metrics.group_by_venue",
                "triage.ddi_rank", "triage.rule_of_thumb", "report.render")
INGEST_TIMES = ("ingest.build_corpus", "ingest.fetch", "ingest.transport",
                "ingest.checkpoint")


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env, walls, parts, cal):
    """Wall time of a fresh interpreter importing citegauge.cli, and the
    share of each heavy dependency, SETUP_REPEATS times, appended to walls
    and parts; cal gets the mean of a calibration pass just before and one
    just after each."""
    for _ in range(SETUP_REPEATS):
        before = calibrate.measure()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        walls.append(time.perf_counter() - start)
        cal.append((before + calibrate.measure()) / 2)
        parts.append(json.loads(done.stdout))


def check_outputs(workload, input_path, groups):
    """(attempted, failed, messages): every op checked by the oracle."""
    attempted = failed = 0
    messages = []
    if workload == "ingest-resume":
        with open(input_path, encoding="utf-8") as handle:
            graph = json.load(handle)
        first = oracle.check_ingest_corpus(groups[0]["corpus"], graph)
        for k, g in enumerate(groups):
            # the worker deleted every corpus byte-identical to the first one
            bad = first if g["corpus"] is None else oracle.check_ingest_corpus(
                g["corpus"], graph)
            bad = bad | set(g["failures"])
            attempted += len(graph["ids"])
            failed += len(bad)
            if bad:
                messages.append(f"job {k}: {len(bad)} ids not exactly once "
                                f"with true counts, e.g. {sorted(bad)[:3]}")
        return attempted, failed, messages
    # every run writes the same bytes; the first run's files are checked in
    # full and later runs by hash against them
    checks = oracle.check_report_run(input_path, groups[0]["dir"])
    reference = {op["name"]: op["sha"] for op in groups[0]["ops"]}
    for name, errors in checks.items():
        messages += [f"{name}: {e}" for e in errors[:5]]
    for k, g in enumerate(groups):
        for op in g["ops"]:
            attempted += 1
            ok = (op["code"] == 0 and not checks[op["name"]]
                  and None not in op["sha"] and op["sha"] == reference[op["name"]])
            if not ok:
                failed += 1
                if op["code"] != 0 or op["sha"] != reference[op["name"]]:
                    messages.append(f"run {k} {op['name']}: exit {op['code']}, "
                                    f"output differs from run 0")
    return attempted, failed, messages


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def group_s(groups):
    """Mean group time in reference seconds: the mean wall time of the
    groups times REFERENCE_S over the mean time of the calibration passes
    run between them (see calibrate.py).  Means, not medians, because the
    host switches between a fast and a slow speed: the two means move
    together with the share of slow time in the run, a median jumps
    between the two speeds."""
    if not groups:
        return 0.0
    cal = [c for g in groups for c in g["cal"]]
    return (statistics.fmean(g["s"] for g in groups)
            * calibrate.REFERENCE_S / statistics.fmean(cal))


def setup_s(walls, cal):
    """Median set-up time in reference seconds: each probe's wall time
    rescaled by the calibration passes around it.  A median, as there are
    only a few probes and each is a process of its own."""
    return _median(w * calibrate.REFERENCE_S / c for w, c in zip(walls, cal))


def end_to_end(groups, walls, setup_cal, peak_rss_mb, records):
    run_s = group_s([g for g in groups if not g["traced"]])
    return {
        "setup_s": (setup_s(walls, setup_cal), "s"),
        "run_s": (run_s, "s"),
        "papers_per_s": (records / run_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(groups, spans, parts, fault_free, attempted, failed):
    traced = [k for k, g in enumerate(groups) if g["traced"]]
    table = per_group(spans)
    entry = lambda k, name: table[k].get(name, {"calls": 0, "s": 0.0, "attrs": []})
    med = lambda f: _median(f(k) for k in traced)
    attr_sum = lambda k, name, key: sum(a[key] for a in entry(k, name)["attrs"])
    attr_max = lambda k, name, key: max((a[key] for a in entry(k, name)["attrs"]),
                                        default=0)
    out = {}
    for name in REPORT_TIMES + INGEST_TIMES:
        out[f"{name}.s"] = (med(lambda k: entry(k, name)["s"]), "s")
    for name in CLI_OPS:
        out[f"cli.{name}.s"] = (med(lambda k: entry(k, f"cli.{name}")["s"]), "s")
    for name in ("corpus.load_corpus", "model.fit_ols", "ingest.checkpoint"):
        out[f"{name}.calls"] = (med(lambda k: entry(k, name)["calls"]), "count")

    def ratio(num, den):
        return lambda k: num(k) / den(k) if den(k) else 0.0

    loaded = lambda k: attr_sum(k, "corpus.load_corpus", "rows")
    out["corpus.records_per_s"] = (
        med(ratio(loaded, lambda k: entry(k, "corpus.load_corpus")["s"])), "1/s")
    out["corpus.cohort_share"] = (
        med(ratio(lambda k: attr_sum(k, "corpus.filter_cohort", "rows"), loaded)), "ratio")
    out["model.design_bytes"] = (
        med(lambda k: attr_max(k, "model.build_design_matrix", "bytes")), "bytes")
    out["model.design_cols"] = (
        med(lambda k: attr_max(k, "model.build_design_matrix", "cols")), "count")
    out["model.cells"] = (
        med(lambda k: attr_max(k, "model.build_design_matrix", "cells")), "count")
    out["report.bytes_out"] = (med(lambda k: attr_sum(k, "report.render", "bytes")), "bytes")

    counter = lambda key: med(lambda k: groups[k].get(key, 0))
    for key in ("requests", "pages", "retries", "restarts"):
        out[f"ingest.{key}"] = (counter(key), "count")
    out["ingest.api_wait_s"] = (counter("api_wait_s"), "s")
    out["ingest.useful_request_ratio"] = (
        med(lambda k: fault_free / groups[k]["requests"] if groups[k].get("requests") else 0.0),
        "ratio")

    for name in IMPORTS:
        label = name.split(".")[0] if name.startswith("citegauge") else name
        out[f"setup.import_s.{label}"] = (_median(p[name] for p in parts), "s")
    out["trace.overhead_s"] = (
        group_s([groups[k] for k in traced])
        - group_s([g for g in groups if not g["traced"]]), "s")
    out["error_rate"] = (failed / attempted, "ratio")
    return out, table, traced


def print_layer_table(table, traced):
    """Per span name: calls, inclusive and self seconds per group (median)."""
    names = sorted({name for k in traced for name in table[k]})
    print(f"{'span':36} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for name in names:
        rows = [table[k].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0}) for k in traced]
        print(f"{name:36} {_median(r['calls'] for r in rows):8g} "
              f"{_median(r['s'] for r in rows):10.4f} "
              f"{_median(r['self_s'] for r in rows):10.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "citegauge", "cli.py")):
        print("perfbench: no src/citegauge here; run from the root of a "
              "citegauge checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work",
                        f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        shape = gen.generate(args.workload, args.seed, os.path.join(work, "input"))
        print("input " + json.dumps(shape))
        env = child_env(root)
        walls, parts, setup_cal = [], [], []
        measure_setup(env, walls, parts, setup_cal)

        result_path = os.path.join(work, "result.json")
        out_dir = os.path.join(work, "out")
        os.makedirs(out_dir)
        try:
            subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 "--workload", args.workload, "--input", shape["path"],
                 "--out", out_dir, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--result", result_path],
                env=env, stdout=sys.stderr, check=True,
                timeout=DEADLINE_S - SETUP_RESERVE_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            print("perfbench: the run did not finish in time", file=sys.stderr)
            return 1
        # the other half of the set-up probes, so that they span the run
        measure_setup(env, walls, parts, setup_cal)
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        groups = result["groups"]

        attempted, failed, messages = check_outputs(args.workload, shape["path"], groups)
        for message in messages[:20]:
            print(f"oracle: {message}", file=sys.stderr)
        records = shape.get("records") or shape["ids"]
        if args.trace:
            spans = load_spans(os.path.join(out_dir, "spans.jsonl"))
            metrics, table, traced = per_layer(
                groups, spans, parts, shape.get("fault_free_requests", 0),
                attempted, failed)
            print_layer_table(table, traced)
        else:
            metrics = end_to_end(groups, walls, setup_cal, result["peak_rss_mb"], records)
        n_runs = sum(1 for g in groups if not g["traced"])
        cal = [c for g in groups for c in g["cal"]]
        print(f"groups={len(groups)} untraced={n_runs} setup_samples={len(walls)} "
              f"calibration_samples={len(cal)} attempted={attempted} failed={failed}")
        print("wall seconds before rescaling: " + json.dumps({
            "group_s": [round(g["s"], 4) for g in groups],
            "group_calibration_s": [round(_median(g["cal"]), 5) for g in groups],
            "op_pairs": [[[round(op["s"], 4), round(c, 5)] for op, c in zip(g["ops"], g["cal"])]
                         for g in groups if "ops" in g],
            "setup_s": [round(w, 4) for w in walls],
            "setup_calibration_s": [round(c, 5) for c in setup_cal],
            "reference_s": calibrate.REFERENCE_S}))
        for name, (value, unit) in metrics.items():
            print(f"{name:36} {value:>16.6g} {unit}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass    # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
