#!/usr/bin/env python3
"""Self-test of the benchmark's oracle: right outputs pass, wrong ones fail.

    python3 perfbench/selftest.py

Run from the root of a citegauge checkout.  It runs one report pass of
report-wide through worker.py, checks that the oracle accepts every output,
then corrupts report files one way at a time and checks that each corruption
is caught.  For ingest it writes the true corpus of a generated graph and
checks that a duplicated line, a missing line, a wrong count and a torn
line are caught.
Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import gen
import oracle
from run import HERE, child_env

FAILURES = []


def expect(label, caught, want_caught):
    ok = bool(caught) == want_caught
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {'caught' if caught else 'accepted'}")
    if not ok:
        FAILURES.append(label)


def report_cases(work):
    shape = gen.generate("report-wide", 7, os.path.join(work, "input"))
    out = os.path.join(work, "out")
    os.makedirs(out)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    "--workload", "report-wide", "--input", shape["path"],
                    "--out", out, "--seed", "7", "--seconds", "0", "--trace", "0",
                    "--result", os.path.join(work, "result.json")],
                   env=child_env(os.getcwd()), check=True, timeout=170)
    run_dir = os.path.join(out, "rep0")
    pristine = os.path.join(work, "pristine")
    shutil.copytree(run_dir, pristine)
    checks = oracle.check_report_run(shape["path"], run_dir)
    for name, errors in checks.items():
        expect(f"{name} as written by citegauge", errors, False)

    def corrupt(label, op, filename, mutate):
        shutil.rmtree(run_dir)
        shutil.copytree(pristine, run_dir)
        path = os.path.join(run_dir, filename)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        mutate(lines)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        expect(label, oracle.check_report_run(shape["path"], run_dir)[op], True)

    def scale_field(row, col):
        def mutate(lines):
            cells = lines[row].split(",")
            cells[col] = repr(float(cells[col]) * (1 + 1e-7))
            lines[row] = ",".join(cells)
        return mutate

    def swap(i, j):
        def mutate(lines):
            lines[i], lines[j] = lines[j], lines[i]
        return mutate

    def set_field(row, col, value):
        def mutate(lines):
            cells = lines[row].split(",")
            cells[col] = value
            lines[row] = ",".join(cells)
        return mutate

    corrupt("correlation off by 1e-7", "corr", "year_correlations.csv",
            scale_field(-2, -1))
    corrupt("group N off by one", "groupstats_early", "early_threshold_groups.csv",
            set_field(1, 5, "1"))
    corrupt("venue rows out of mu order", "groupstats_venue", "venue_groups.csv",
            swap(1, 2))
    corrupt("coefficient off by 1e-7 relative", "fit", "coefficients.csv",
            scale_field(2, 2))
    corrupt("residual SS off by 1e-7 relative", "anova", "anova.csv",
            scale_field(3, 2))
    corrupt("boxplot median changed", "boxplot_early", "boxplot_by_early.csv",
            set_field(1, 3, "0.5"))
    corrupt("boxplot venues out of median order", "boxplot_venue",
            "boxplot_by_venue.csv", swap(1, 2))
    corrupt("two ranks swapped", "triage", "triage.csv", swap(1, 2))
    corrupt("truncated report", "anova", "anova.csv", lambda lines: lines.__delitem__(
        slice(2, None)))


def ingest_cases(work):
    shape = gen.generate("ingest-resume", 7, os.path.join(work, "ingest"))
    with open(shape["path"], encoding="utf-8") as handle:
        graph = json.load(handle)
    lines = []
    for pid in graph["ids"]:
        meta = graph["papers"][pid]
        lines.append(json.dumps({"id": pid, "source": meta["source"],
                                 "venue": meta["venue"], "year": meta["year"],
                                 "counts": oracle.true_counts(meta)}) + "\n")
    path = os.path.join(work, "ingested.jsonl")

    def case(label, body, want_caught):
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(body)
        expect(label, oracle.check_ingest_corpus(path, graph), want_caught)

    case("ingested corpus with every id once", lines, False)
    case("ingested corpus with a duplicated id", lines + [lines[5]], True)
    case("ingested corpus with a missing id", lines[:10] + lines[11:], True)
    wrong = json.loads(lines[3])
    wrong["counts"][str(graph["papers"][wrong["id"]]["year"] + 2)] = 10 ** 6
    case("ingested corpus with a wrong count", lines[:3] + [json.dumps(wrong) + "\n"]
         + lines[4:], True)
    case("ingested corpus with a torn last line", lines[:-1] + [lines[-1][:20]], True)


def main():
    if not os.path.isfile(os.path.join("src", "citegauge", "cli.py")):
        print("selftest: run from the root of a citegauge checkout", file=sys.stderr)
        return 2
    work = os.path.join(os.getcwd(), ".perfbench_work", f"selftest-p{os.getpid()}")
    try:
        report_cases(work)
        ingest_cases(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass    # a benchmark run is still using it
    print(f"{len(FAILURES)} failed" if FAILURES else "all cases behaved")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
