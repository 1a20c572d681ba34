"""Golden bytes of the full report run on the fixture corpus.

tests/data/reports/ holds what scripts/run_reports.py wrote for the committed
fixture corpus.  The six files with full-precision floats were last written
when the fit became one reduced solve of the venue x early table and the
sums left BLAS, and year_correlations.csv again when each correlation became
the exact r of integer sums, rounded once; the other three are as they were
before the statistics read the cohort as columns.  The run is repeated here, through the script and
through `citegauge report`, and every file must match byte for byte, so a
change that moves one float by one ulp shows up even when two runs of the
same build agree.  The fit's last digits depend on the LAPACK build; after a
deliberate change of output, regenerate the files from a commit whose
reports are known good.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from citegauge.cli import EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "reports"
FIXTURE = ROOT / "tests" / "data" / "fixture_corpus.jsonl"


def assert_golden(outdir):
    expected = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in outdir.iterdir()) == expected
    assert len(expected) == 9   # eight reports and the fitted model
    for name in expected:
        assert (outdir / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_run_reports_matches_golden_bytes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_reports.py"),
                    "--outdir", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    assert_golden(tmp_path)


def test_report_subcommand_matches_golden_bytes(tmp_path, capsys):
    outdir = tmp_path / "nested" / "reports"
    assert main(["report", "--corpus", str(FIXTURE), "--pub-year", "2016",
                 "--outdir", str(outdir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("wrote ") == 9
    assert_golden(outdir)


def test_report_bad_corpus_line_exit_1_names_line(tmp_path, capsys):
    lines = FIXTURE.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(5, '{"id": "torn", "source": "ACL", "ven\n')
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(lines), encoding="utf-8")
    code = main(["report", "--corpus", str(corpus), "--pub-year", "2016",
                 "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA_ERROR
    assert "citegauge report: error: line 6: invalid JSON" in err
    assert not (tmp_path / "out").exists()


def test_report_unwritable_outdir_exit_1(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    code = main(["report", "--corpus", str(FIXTURE), "--pub-year", "2016",
                 "--outdir", str(blocker / "reports")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA_ERROR
    assert "citegauge report: error:" in err and str(blocker) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("pub_year,bad_year", [("2094", "2101"),
                                               ("1899", "1899")])
def test_report_years_outside_bounds_exit_2(pub_year, bad_year, tmp_path,
                                            capsys):
    """The correlation table spans pub_year..pub_year + 7; a year past the
    corpus's bounds could hold no count, so it is refused, not printed NA."""
    code = main(["report", "--corpus", str(FIXTURE), "--pub-year", pub_year,
                 "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"year {bad_year} outside [1900, 2100]" in err
    assert not (tmp_path / "out").exists()
