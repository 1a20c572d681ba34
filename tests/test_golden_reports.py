"""Golden bytes of the full report run on the fixture corpus.

tests/data/reports/ holds what scripts/run_reports.py wrote for the committed
fixture corpus before the statistics read the cohort as columns.  The run is
repeated here and every file must match byte for byte, so a change that moves
one float by one ulp shows up even when two runs of the same build agree.
The fit's last digits depend on the LAPACK build; after a deliberate change
of output, regenerate the files from a commit whose reports are known good.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "reports"


def test_run_reports_matches_golden_bytes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_reports.py"),
                    "--outdir", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    expected = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    assert len(expected) == 9   # eight reports and the fitted model
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
