#!/usr/bin/env python3
"""Seeded input generator for the citegauge benchmark.

Every workload's inputs come from one seed: the same seed gives byte-identical
files.  Written in the style of scripts/make_fixture.py (heavy-tailed paper
quality, per-year Poisson counts), but vectorised with numpy so that tens of
thousands of papers generate in well under a second.  Nothing here imports
citegauge.

    python3 perfbench/gen.py --workload report-wide --seed 1 --out /tmp/x

prints the shape of the generated input as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
from collections import Counter

import numpy as np

PUB_YEAR = 2016
MIN_VENUE_SIZE = 40      # citegauge's default; smaller venues fold into misc
T_FIT = 10               # early levels in fit/anova (citegauge default)
SOURCES = ("ACL", "ArXiv", "PubMed", "Other")

# Shapes.  report-wide: one publication year, 8 count years, 300 Zipf-sized
# venues whose tail folds into misc, so the dense design has over a hundred
# columns and about a thousand (venue, early) cells.  report-long: 10
# publication years, 30 count years, 6 venues, so each line is long, the
# cohort is 10% of the records and the design is tiny.  ingest-resume: a
# graph of papers with 0-250 citing papers each (1-3 pages at page size 100).
WIDE = {"papers": 14000, "venues": 300, "zipf": 0.5, "years": 8}
LONG = {"papers": 8000, "pub_years": 10, "years": 30}
INGEST = {"ids": 4000, "max_citing": 250, "restart_at": (0.5, 0.75), "page_size": 100}


def _paper_counts(rng, quality, pub_years, n_years):
    """Per-year Poisson counts ramping up over ~3 years, then plateauing."""
    age = np.arange(n_years)[None, :]
    lam = quality[:, None] * np.minimum(age + 0.3, 3.0)
    counts = rng.poisson(lam)
    return counts, pub_years[:, None] + age


def _write_corpus(path, ids, sources, venues, pub_years, counts, years):
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(len(ids)):
            row = {str(int(y)): int(c) for y, c in zip(years[i], counts[i]) if c > 0}
            handle.write(json.dumps(
                {"counts": row, "id": ids[i], "source": sources[i],
                 "venue": venues[i], "year": int(pub_years[i])},
                separators=(",", ":"), sort_keys=True) + "\n")


def _fixed_sizes(n, weights):
    """n split in proportion to weights, rounded so the sizes sum to n."""
    raw = n * np.asarray(weights, dtype=float) / np.sum(weights)
    sizes = np.floor(raw).astype(int)
    sizes[np.argsort(sizes - raw)[:n - sizes.sum()]] += 1
    return sizes


def _corpus(rng, n, venue_names, venue_weights, venue_quality, pub_year_choices,
            n_years):
    # venue and publication-year sizes are fixed by the shape, not drawn, so
    # every seed gives the same design size; the seed decides who goes where
    venue_idx = rng.permutation(np.repeat(np.arange(len(venue_names)),
                                          _fixed_sizes(n, venue_weights)))
    quality = rng.lognormal(np.log(venue_quality[venue_idx]), 1.1)
    pub_years = rng.permutation(np.repeat(
        pub_year_choices, _fixed_sizes(n, np.ones(len(pub_year_choices)))))
    counts, years = _paper_counts(rng, quality, pub_years, n_years)
    # ids are a seeded permutation so file order differs from cohort order
    ids = [f"p{k:07d}" for k in rng.permutation(n)]
    sources = [SOURCES[k] for k in rng.integers(0, len(SOURCES), size=n)]
    venues = [venue_names[k] for k in venue_idx]
    return ids, sources, venues, pub_years, counts, years


def generate_report(workload: str, seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng([seed, 1 if workload == "report-wide" else 2])
    if workload == "report-wide":
        shape = WIDE
        names = [f"V{k:03d}" for k in range(shape["venues"])]
        weights = 1.0 / np.arange(1, shape["venues"] + 1) ** shape["zipf"]
        pub_year_choices = np.array([PUB_YEAR])
    else:
        shape = LONG
        names = ["TopJournal", "MedArchive", "NLPConf", "NLPWorkshop",
                 "Preprints", "Letters"]
        weights = np.array([1.0, 1.5, 0.8, 1.2, 1.4, 0.6])
        pub_year_choices = PUB_YEAR - 6 + np.arange(shape["pub_years"])
    # the same set of venue qualities for every seed, dealt out by the seed
    venue_quality = rng.permutation(np.linspace(0.6, 2.4, len(names)))
    ids, sources, venues, pub_years, counts, years = _corpus(
        rng, shape["papers"], names, weights, venue_quality,
        pub_year_choices, shape["years"])
    path = os.path.join(out_dir, "corpus.jsonl")
    _write_corpus(path, ids, sources, venues, pub_years, counts, years)
    return describe_report(path)


def describe_report(path: str) -> dict:
    """Shape of a report input, read back from the file."""
    records = cohort = 0
    venue_sizes = Counter()
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            rec = json.loads(line)
            records += 1
            if rec["year"] != PUB_YEAR:
                continue
            cohort += 1
            venue_sizes[rec["venue"]] += 1
            rows.append((rec["venue"],
                         min(rec["counts"].get(str(PUB_YEAR + 1), 0), T_FIT)))
    kept = {v for v, n in venue_sizes.items() if n >= MIN_VENUE_SIZE}
    levels = {v if v in kept else "misc" for v in venue_sizes}
    early_levels = {lvl for _, lvl in rows if lvl > 0}
    cells = {(v if v in kept else "misc", lvl) for v, lvl in rows}
    return {
        "path": path,
        "records": records,
        "cohort": cohort,
        "venues": len(venue_sizes),
        "folded_into_misc": len(venue_sizes) - len(kept),
        "design_cols": 1 + (len(levels) - 1) + len(early_levels),
        "cells": len(cells),
        "bytes": os.path.getsize(path),
    }


def generate_ingest(seed: int, out_dir: str) -> dict:
    """A citation graph for one ingest job, written as graph.json.

    Holds the ids in input order, the ids whose first request raises a
    restart, and per paper its metadata and citing-paper years (None = year
    unknown; some precede publication and fold into the unknown bucket).
    """
    rng = np.random.default_rng([seed, 3])
    shape = INGEST
    n = shape["ids"]
    n_citing = rng.integers(0, shape["max_citing"] + 1, size=n)
    venue_idx = rng.integers(0, 6, size=n)
    source_idx = rng.integers(0, len(SOURCES), size=n)
    papers = {}
    ids = [f"q{k:07d}" for k in rng.permutation(n)]
    for k, pid in enumerate(ids):
        years = rng.integers(PUB_YEAR - 1, PUB_YEAR + 8, size=n_citing[k])
        unknown = rng.random(n_citing[k]) < 0.05
        papers[pid] = {
            "venue": f"Venue{venue_idx[k]}",
            "source": SOURCES[source_idx[k]],
            "year": PUB_YEAR,
            "citing_years": [None if u else int(y) for y, u in zip(years, unknown)],
        }
    # restarts at fixed positions, so that every seed wastes the same share
    # of the job; the seed decides which ids sit there
    picks = [int(n * f) for f in shape["restart_at"]]
    graph = {"page_size": shape["page_size"], "ids": ids,
             "restart_ids": [ids[i] for i in picks], "papers": papers}
    path = os.path.join(out_dir, "graph.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph, handle, separators=(",", ":"))
    pages = sum(max(1, -(-len(p["citing_years"]) // shape["page_size"]))
                for p in papers.values())
    return {
        "path": path,
        "ids": n,
        "restart_ids": len(picks),
        "citing_max": int(n_citing.max()),
        "fault_free_requests": n + pages,
        "bytes": os.path.getsize(path),
    }


def generate(workload: str, seed: int, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    if workload in ("report-wide", "report-long"):
        return generate_report(workload, seed, out_dir)
    if workload == "ingest-resume":
        return generate_ingest(seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["report-wide", "report-long", "ingest-resume"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out)))


if __name__ == "__main__":
    main()
