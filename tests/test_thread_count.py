"""Report bytes do not depend on the BLAS thread count.

The fixture is too small for OpenBLAS to thread, so the corpus here is the
benchmark's seed-1 report-wide input (14000 papers, 300 venues, 124 design
columns at the default --T 10), made by perfbench/gen.py.  Each command runs
in two child processes, one with one BLAS thread and one with two, and every
output must match byte for byte.  `citegauge report` runs at --T 10 and at
--T 300, where the same corpus has 185 design columns, 71 of them early
levels, so the solve is larger.  `venuecorr --format json` over every venue
prints the full-precision floats of 2400 correlations, which no report file
holds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from citegauge.corpus import load_cohort

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def wide_corpus(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import gen

        return gen.generate("report-wide", 1, str(tmp_path / "input"))["path"]
    finally:
        # perfbench's modules have generic names; keep them out of the
        # other tests' imports
        sys.modules.pop("gen", None)


def run_cli(args, threads):
    """stdout of `citegauge <args>` with `threads` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "citegauge.cli", *args],
                          env=env, check=True, capture_output=True).stdout


@pytest.mark.parametrize("T", ["10", "300"])
def test_report_bytes_do_not_depend_on_blas_threads(T, wide_corpus, tmp_path):
    outputs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"threads-{threads}"
        run_cli(["report", "--corpus", wide_corpus, "--pub-year", "2016",
                 "--T", T, "--outdir", str(outdir)], threads)
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})

    one, two = outputs
    assert sorted(one) == sorted(two) and len(one) == 9
    for name in sorted(one):
        assert one[name] == two[name], name


def test_venuecorr_bytes_do_not_depend_on_blas_threads(wide_corpus):
    venues = load_cohort(wide_corpus, 2016).venue_names
    assert len(venues) == 300
    args = ["venuecorr", "--corpus", wide_corpus, "--pub-year", "2016",
            "--years", "2016..2023", "--venues", ",".join(venues),
            "--format", "json"]
    one = run_cli(args, "1")
    assert one.count(b"\n") > 2400
    assert one == run_cli(args, "2")
