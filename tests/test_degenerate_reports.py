"""`citegauge report` on small and degenerate cohorts, checked end to end by
the benchmark's independent oracle.

Each seed writes a small corpus: 2-200 papers published in 2016, 1-10
venues, and Poisson citation counts for 2016-2023 whose mean is drawn from
0-30 (0 for every sixth seed, so no paper is ever cited).  A run that exits
0 must pass `perfbench/oracle.check_report_run` on every table.  A run that
exits 1 must name a known data error and leave no output directory.  The
oracle is imported from `sys.path`, as `tests/test_perfbench_hooks.py`
imports the benchmark's tracer.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from citegauge.cli import EXIT_DATA_ERROR, EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = ("ACL", "ArXiv", "PubMed", "Other")
VENUES = ("Conf", "Journal", "Workshop", "Ärchiv", "misc", "Letters",
          "Review", "Preprints", "Proc", "Bulletin")
#: The data errors a small cohort may meet, as `report` names them.
KNOWN_ERRORS = (
    "correlation needs a cohort of size >= 2",
    "no threshold groups to compare",
    "design matrix is rank deficient; collinear columns: ",
    " rows < ",
    "so the percentiles have no variance to explain",
)
SEEDS = range(48)


@pytest.fixture
def oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import oracle as module
        yield module
    finally:
        sys.modules.pop("oracle", None)


def write_corpus(seed, path):
    rng = np.random.default_rng([seed, 11])
    n = int(rng.choice([2, 3, rng.integers(4, 40), rng.integers(40, 201)]))
    venues = VENUES[:int(rng.integers(1, 11))]
    mean = 0.0 if seed % 6 == 0 else float(rng.uniform(0, 30))
    quality = rng.lognormal(0.0, 1.0, size=n) * mean
    with open(path, "w", encoding="utf-8") as handle:
        for i, pid in enumerate(rng.permutation(n)):
            counts = rng.poisson(quality[i] * rng.uniform(0.2, 1.0, size=8))
            handle.write(json.dumps({
                "id": f"p{pid:04d}", "source": str(rng.choice(SOURCES)),
                "venue": str(rng.choice(venues)), "year": 2016,
                "counts": {str(2016 + k): int(c)
                           for k, c in enumerate(counts) if c}}) + "\n")


@pytest.mark.parametrize("seed", SEEDS)
def test_report_is_right_or_names_its_error(seed, oracle, tmp_path, capsys):
    corpus, outdir = tmp_path / "c.jsonl", tmp_path / "reports"
    write_corpus(seed, corpus)
    code = main(["report", "--corpus", str(corpus), "--pub-year", "2016",
                 "--outdir", str(outdir)])
    err = capsys.readouterr().err
    if seed % 6 == 0:
        assert code == EXIT_DATA_ERROR
    if code == EXIT_OK:
        problems = oracle.check_report_run(str(corpus), str(outdir))
        assert problems == dict.fromkeys(problems, [])
        assert len(problems) == 8
    else:
        assert code == EXIT_DATA_ERROR
        message = err.splitlines()[-1]
        assert message.startswith("citegauge report: error: ")
        assert any(known in message for known in KNOWN_ERRORS), message
        assert not outdir.exists()


def test_both_outcomes_occur(tmp_path, capsys):
    codes = set()
    for seed in SEEDS:
        write_corpus(seed, tmp_path / f"c{seed}.jsonl")
        codes.add(main(["report", "--corpus", str(tmp_path / f"c{seed}.jsonl"),
                        "--pub-year", "2016",
                        "--outdir", str(tmp_path / f"out{seed}")]))
    capsys.readouterr()
    assert codes == {EXIT_OK, EXIT_DATA_ERROR}
