"""The benchmark's traced mode (`perfbench/run.py --trace 1`) wraps
citegauge's functions by name from the outside, so renaming one of them
breaks the traced runs.  This installs every wrapper the benchmark uses and
removes it again, without running a workload."""

import sys
from pathlib import Path

from citegauge import corpus, ingest, model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_hooks_name_existing_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    save = ingest.FetchCheckpoint.save
    try:
        import tracer
        import worker

        bench = tracer.Tracer()
        worker.install_report(bench)
        worker.install_ingest(bench)
        assert ingest.FetchCheckpoint.save.__wrapped__ is save
        bench.uninstall()
        assert ingest.FetchCheckpoint.save is save
    finally:
        # perfbench's modules have generic names; keep them out of the
        # other tests' imports
        for name in ("worker", "tracer", "calibrate", "transport"):
            sys.modules.pop(name, None)


def test_traced_attributes_read_the_program(monkeypatch, fixture_corpus_path):
    """The attributes the traced mode takes from a call's result: the
    design's bytes, columns and cells, and the row counts of load_corpus and
    filter_cohort.  A change to Cohort or DesignMatrix that breaks one of
    them breaks `--trace 1`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracer
        import worker

        records = corpus.load_corpus(fixture_corpus_path)
        cohort = corpus.filter_cohort(records, 2016)
        design = model.build_design_matrix(cohort)
        cells = len(set(zip(design.row_venues.tolist(),
                            design.row_early.tolist())))
        assert worker._design_attrs(design) == {
            "bytes": design.n_rows * len(design.column_names) * 8,
            "cols": len(design.column_names), "cells": cells}
        assert cells == len(design.cell_counts)

        bench = tracer.Tracer()
        worker.install_report(bench)
        try:
            traced_records = corpus.load_corpus(fixture_corpus_path)
            traced_cohort = corpus.filter_cohort(traced_records, 2016)
            model.build_design_matrix(traced_cohort)
        finally:
            bench.uninstall()
        attrs = {span[4]: span[8] for span in bench.spans}
        assert attrs["corpus.load_corpus"] == {"rows": len(records)}
        assert attrs["corpus.filter_cohort"] == {"rows": len(cohort)}
        assert attrs["model.build_design_matrix"] == \
            worker._design_attrs(design)
    finally:
        for name in ("worker", "tracer", "calibrate", "transport"):
            sys.modules.pop(name, None)
