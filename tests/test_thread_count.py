"""Report bytes do not depend on the BLAS thread count.

The fixture is too small for OpenBLAS to thread, so the corpus here is the
benchmark's seed-1 report-wide input (14000 papers, 124 design columns at
the default --T 10), made by perfbench/gen.py.  `citegauge report` runs in
two child processes, one with one BLAS thread and one with two, and every
file must match byte for byte.  At --T 300 the same corpus has 185 design
columns, 71 of them early levels, so the solve is larger.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("T", ["10", "300"])
def test_report_bytes_do_not_depend_on_blas_threads(T, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import gen

        corpus = gen.generate("report-wide", 1, str(tmp_path / "input"))["path"]
    finally:
        # perfbench's modules have generic names; keep them out of the
        # other tests' imports
        sys.modules.pop("gen", None)

    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        outdir = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "citegauge.cli", "report",
                        "--corpus", corpus, "--pub-year", "2016",
                        "--T", T, "--outdir", str(outdir)],
                       env=env, check=True, capture_output=True)
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})

    one, two = outputs
    assert sorted(one) == sorted(two) and len(one) == 9
    for name in sorted(one):
        assert one[name] == two[name], name
