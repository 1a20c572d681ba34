#!/usr/bin/env python3
"""Run the full report pipeline on a corpus and write every table to a
directory, through `citegauge report`.  Defaults to the committed synthetic
fixture, so it doubles as an end-to-end smoke run:

    python3 scripts/run_reports.py --outdir reports/
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from citegauge.cli import main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus",
                        default=str(ROOT / "tests/data/fixture_corpus.jsonl"))
    parser.add_argument("--pub-year", default="2016")
    parser.add_argument("--outdir", default="reports")
    args = parser.parse_args()
    sys.exit(cli_main(["report", "--corpus", args.corpus,
                       "--pub-year", args.pub_year, "--outdir", args.outdir]))


if __name__ == "__main__":
    main()
