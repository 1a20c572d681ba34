"""Golden bytes of `triage --model` on the fixture corpus.

tests/data/triage_model/triage.csv holds what `triage --model` wrote for the
committed fixture corpus, with the model that `fit` writes for it
(tests/data/reports/model.json, itself pinned by test_golden_reports.py)
and thresholds 1,2,3,10,20, before the ranking was kept as columns.  The
predicted-percentile column and its tie-breaks are the part of the ranking
that no other golden file covers.
"""

import json
from pathlib import Path

from citegauge.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def test_triage_with_model_matches_golden_bytes(tmp_path):
    out = tmp_path / "triage.csv"
    code = main(["triage", "--corpus", str(DATA / "fixture_corpus.jsonl"),
                 "--pub-year", "2016",
                 "--model", str(DATA / "reports" / "model.json"),
                 "--thresholds", "1,2,3,10,20", "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == (DATA / "triage_model" / "triage.csv").read_bytes()


def test_triage_with_a_model_past_int64_T(tmp_path):
    """A model file may hold any integer T within float range.  With T =
    10**30, a count past 10 falls back to level 10, the nearest populated
    level below; with NLPWorkshop's coefficient moved to the misc level,
    NLPWorkshop resolves to it.  So the predictions, and the bytes, are the
    golden ones."""
    model = json.loads((DATA / "reports" / "model.json").read_text())
    model["T"] = 10 ** 30
    model["venue_coefs"]["misc"] = model["venue_coefs"].pop("NLPWorkshop")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "triage.csv"
    code = main(["triage", "--corpus", str(DATA / "fixture_corpus.jsonl"),
                 "--pub-year", "2016", "--model", str(path),
                 "--thresholds", "1,2,3,10,20", "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == (DATA / "triage_model" / "triage.csv").read_bytes()
