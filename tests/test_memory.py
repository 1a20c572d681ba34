"""Memory gates of the report path, measured with tracemalloc on the
benchmark's seed-1 report-wide corpus (14000 papers, made by
perfbench/gen.py as tests/test_thread_count.py makes it).

- load_cohort's traced peak over the traced size of the Cohort it returns.
  The count rows grow block by block in line order and the id-order matrix
  is filled one row at a time, so the counts are never held twice; the
  set of seen ids stays, as duplicates are refused in line order.
  Measured 1.28 (2.01 when the load built the matrix from flat per-entry
  arrays); the bound adds 0.17.
- triage_csv's traced transient over the length of its text.  The rows
  are rendered a chunk at a time and the text joined once from the
  chunks' texts, so the peak is the text twice.  Measured 2.00 (6.63 when
  every column was one n-long list); the bound adds 0.25.
- year_correlation_matrix's traced peak over the bytes of the counts it
  correlates, the cohort's 8 count years.  Those years are a run of the
  cohort's matrix, which it reads in place; a stacked copy of them would
  put the ratio past 1.  Measured 0.008; the bound is 0.05.

Each measure runs after a warm-up on the fixture, so that modules numpy
imports on first use are not counted.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

from citegauge import cli, metrics, report, triage
from citegauge.corpus import load_cohort

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

LOAD_PEAK_BOUND = 1.45
TRIAGE_TRANSIENT_BOUND = 2.25
YEAR_CORRELATION_PEAK_BOUND = 0.05


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen

        return gen.generate("report-wide", 1,
                            str(tmp_path_factory.mktemp("input")))["path"]
    finally:
        sys.path.remove(str(PERFBENCH))
        # perfbench's modules have generic names; keep them out of the
        # other tests' imports
        sys.modules.pop("gen", None)


def traced(fn):
    """(fn(), bytes it left allocated, its peak above where it started)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, end - start, peak - start


def triage_inputs(cohort):
    """The ranking and comparison rows of `citegauge report`."""
    stats = cli._threshold_groups(cohort, cli.REPORT_THRESHOLDS)
    comparisons = triage.rule_of_thumb(
        [s for s in stats if s.threshold != 0],
        metrics.group_by_venue(cohort))
    return triage.ddi_rank(cohort), comparisons


@pytest.fixture(autouse=True)
def warm_up(fixture_corpus_path):
    report.triage_csv(*triage_inputs(load_cohort(fixture_corpus_path, 2016)))


def test_load_peak_is_near_the_cohort_it_returns(wide_corpus):
    cohort, size, peak = traced(lambda: load_cohort(wide_corpus, 2016))
    assert len(cohort) == 14000
    assert peak / size <= LOAD_PEAK_BOUND, (peak, size)


def test_triage_csv_transient_is_near_its_text(wide_corpus):
    inputs = triage_inputs(load_cohort(wide_corpus, 2016))
    text, _, transient = traced(lambda: report.triage_csv(*inputs))
    assert text.count("\n") > 14000
    assert transient / len(text) <= TRIAGE_TRANSIENT_BOUND, (
        transient, len(text))


def test_year_correlation_reads_the_counts_in_place(wide_corpus):
    cohort = load_cohort(wide_corpus, 2016)
    assert len(cohort.years) == 8
    table, _, peak = traced(
        lambda: metrics.year_correlation_matrix(cohort, cohort.years))
    assert len(table.entries) == 8
    assert peak / cohort.counts.nbytes <= YEAR_CORRELATION_PEAK_BOUND, (
        peak, cohort.counts.nbytes)
