"""The benchmark's traced mode (`perfbench/run.py --trace 1`) wraps
citegauge's functions by name from the outside, so renaming one of them
breaks the traced runs.  This installs every wrapper the benchmark uses and
removes it again, without running a workload."""

import sys
from pathlib import Path

from citegauge import ingest

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
