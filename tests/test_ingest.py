import json
import random
import sys

import pytest

from citegauge import errors
from citegauge.corpus import load_corpus, write_corpus
from citegauge.ingest import (
    UNKNOWN_YEAR,
    ApiClient,
    ClientConfig,
    FetchCheckpoint,
    RateBudget,
    build_corpus,
    import_table,
)

from ingest_harness import (
    MockTransport,
    Restart,
    VirtualClock,
    flaky_faults,
    make_papers,
)


def make_client(papers, clock=None, faults=None, **config_kw):
    clock = clock or VirtualClock()
    transport = MockTransport(papers, clock=clock, faults=faults)
    config = ClientConfig(page_size=config_kw.pop("page_size", 100),
                          **config_kw)
    client = ApiClient(config, transport=transport, clock=clock,
                       sleep=clock.sleep, rng=random.Random(0))
    return client, transport, clock


class TestFetchCitationYears:
    def test_zero_citations_empty_map(self):
        client, transport, _ = make_client(
            {"a": {"year": 2016, "citing_years": []}})
        assert client.fetch_citation_years("a") == {}
        assert transport.page_requests == 1

    def test_pagination_exact_page_count(self):
        papers = {"a": {"year": 2016, "citing_years": [2018] * 250}}
        client, transport, _ = make_client(papers, page_size=100)
        counts = client.fetch_citation_years("a")
        assert counts == {2018: 250}
        assert transport.page_requests == 3  # ceil(250/100)

    def test_year_bucketing_with_unknown(self):
        papers = {"a": {"year": 2016,
                        "citing_years": [2017, 2017, None, 2019, None]}}
        client, _, _ = make_client(papers)
        counts = client.fetch_citation_years("a")
        assert counts == {2017: 2, 2019: 1, UNKNOWN_YEAR: 2}

    def test_rate_limited_twice_then_success(self):
        papers = {"a": {"year": 2016, "citing_years": [2018] * 5}}
        remaining = [errors.HttpError(429), errors.HttpError(429)]
        faults = lambda: remaining.pop(0) if remaining else None
        client, _, clock = make_client(papers, faults=faults)
        assert client.fetch_citation_years("a") == {2018: 5}
        assert clock.now > 0  # backed off between attempts

    def test_retry_cap_surfaces_rate_limited(self):
        papers = {"a": {"year": 2016, "citing_years": []}}
        client, _, _ = make_client(papers,
                                   faults=lambda: errors.HttpError(429),
                                   retry_cap=3)
        with pytest.raises(errors.RateLimited):
            client.fetch_citation_years("a")

    def test_not_found(self):
        client, _, _ = make_client({})
        with pytest.raises(errors.NotFound):
            client.fetch_citation_years("missing")
        with pytest.raises(errors.NotFound):
            client.fetch_paper_meta("missing")


class TestRateBudget:
    def test_never_exceeds_in_any_sliding_window(self):
        budget = RateBudget(5, 10.0)
        clock = VirtualClock()
        stamps = []
        rng = random.Random(1)
        for _ in range(200):
            clock.sleep(rng.uniform(0, 3))
            while True:
                wait = budget.acquire(clock())
                if wait <= 0:
                    break
                clock.sleep(wait)
            stamps.append(clock())
        for i, t in enumerate(stamps):
            in_window = [s for s in stamps if t - 10.0 < s <= t]
            assert len(in_window) <= 5

    def test_client_respects_budget(self):
        budget = RateBudget(2, 60.0)
        papers = {"a": {"year": 2016, "citing_years": [2018] * 250}}
        client, transport, clock = make_client(papers, rate_budget=budget)
        client.fetch_paper_meta("a")
        client.fetch_citation_years("a")  # 3 pages -> 4 requests total
        times = [t for t, _, _ in transport.request_log]
        for t in times:
            assert sum(1 for s in times if t - 60.0 < s <= t) <= 2
        assert clock.now >= 60.0  # had to wait for the window


class TestBuildCorpus:
    def test_basic_run_writes_valid_corpus(self, tmp_path):
        papers = make_papers(5)
        client, _, _ = make_client(papers)
        out = tmp_path / "c.jsonl"
        report = build_corpus(list(papers), out, tmp_path / "ckpt.json", client)
        assert report.written == 5
        records = load_corpus(out)
        assert [r.id for r in records] == sorted(papers)

    def test_interrupt_and_resume_fetches_only_remaining(self, tmp_path):
        papers = make_papers(10)
        ids = sorted(papers)
        out = tmp_path / "c.jsonl"
        ckpt = tmp_path / "ckpt.json"

        calls = {"n": 0}

        def die_after_six():
            # each paper costs 2+ requests; kill the run mid-seventh-paper
            calls["n"] += 1
            if calls["n"] > 6 * 2:
                return Restart()
            return None

        client, _, _ = make_client(papers, faults=die_after_six)
        with pytest.raises(Restart):
            build_corpus(ids, out, ckpt, client)
        assert len(load_corpus(out)) == 6

        client2, transport2, _ = make_client(papers)
        report = build_corpus(ids, out, ckpt, client2)
        assert report.skipped == 6
        assert report.written == 4
        fetched = {pid for _, kind, pid in transport2.request_log
                   if kind == "paper"}
        assert fetched == set(ids[6:])  # exactly 4 additional papers fetched
        assert [r.id for r in load_corpus(out)] == ids

    def test_all_ids_fail(self, tmp_path):
        client, _, _ = make_client({})  # nothing resolvable
        out = tmp_path / "c.jsonl"
        report = build_corpus(["x", "y"], out, tmp_path / "ckpt.json", client)
        assert report.written == 0
        assert set(report.failures) == {"x", "y"}
        assert load_corpus(out) == []

    def test_empty_input(self, tmp_path):
        client, _, _ = make_client({})
        with pytest.raises(errors.EmptyInput):
            build_corpus([], tmp_path / "c.jsonl", tmp_path / "ckpt.json",
                         client)

    def test_checkpoint_rewritten_atomically(self, tmp_path):
        papers = make_papers(3)
        client, _, _ = make_client(papers)
        ckpt = tmp_path / "ckpt.json"
        build_corpus(sorted(papers), tmp_path / "c.jsonl", ckpt, client)
        data = json.loads(ckpt.read_text())
        assert data["last_completed_paper_id"] == sorted(papers)[-1]
        assert not list(tmp_path.glob(".ckpt-*"))  # no temp files left

    def test_concurrent_workers_keep_order(self, tmp_path):
        papers = make_papers(12)
        ids = sorted(papers)
        client, _, _ = make_client(papers)
        out = tmp_path / "c.jsonl"
        report = build_corpus(ids, out, tmp_path / "ckpt.json", client,
                              workers=4)
        assert report.written == 12
        assert [r.id for r in load_corpus(out)] == ids


class RestartOnPaper(MockTransport):
    """Raises Restart on the first request for one id, after logging it."""

    def __init__(self, papers, restart_id):
        super().__init__(papers)
        self.restart_id = restart_id

    def _maybe_fail(self, kind, paper_id):
        super()._maybe_fail(kind, paper_id)
        if paper_id == self.restart_id:
            self.restart_id = None
            raise Restart(paper_id)


class TestFetchWindow:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("k", [0, 5, 11])
    def test_restart_loses_at_most_workers_fetches(self, k, workers,
                                                   tmp_path):
        papers = make_papers(12)
        ids = sorted(papers)
        out, ckpt = tmp_path / "c.jsonl", tmp_path / "ckpt.json"
        transport, clock = RestartOnPaper(papers, ids[k]), VirtualClock()
        client = ApiClient(ClientConfig(), transport=transport, clock=clock,
                           sleep=clock.sleep, rng=random.Random(0))
        with pytest.raises(Restart):
            build_corpus(ids, out, ckpt, client, workers=workers)
        fetched = {pid for _, kind, pid in transport.request_log
                   if kind == "paper"}
        assert fetched <= set(ids[:k + workers])
        assert [r.id for r in load_corpus(out)] == ids[:k]

        client2, transport2, _ = make_client(papers)
        report = build_corpus(ids, out, ckpt, client2, workers=workers)
        assert (report.skipped, report.written) == (k, len(ids) - k)
        assert sorted(pid for _, kind, pid in transport2.request_log
                      if kind == "paper") == ids[k:]
        assert [r.id for r in load_corpus(out)] == ids

    def test_corpus_bytes_do_not_depend_on_workers(self, tmp_path):
        papers = make_papers(30)
        ids = sorted(papers)
        corpora = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often
        try:
            for workers in (1, 2, 4):
                client, _, _ = make_client(papers)
                out = tmp_path / f"c{workers}.jsonl"
                build_corpus(ids, out, tmp_path / f"ckpt{workers}.json",
                             client, workers=workers)
                corpora.append(out.read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert corpora[0] and corpora[1] == corpora[0] and corpora[2] == corpora[0]

    def test_workers_below_one_rejected(self, tmp_path):
        client, transport, _ = make_client(make_papers(2))
        with pytest.raises(ValueError):
            build_corpus(["id000", "id001"], tmp_path / "c.jsonl",
                         tmp_path / "ckpt.json", client, workers=0)
        assert transport.request_log == []
        assert not (tmp_path / "c.jsonl").exists()


def run_randomized_schedule(seed, tmp_path, n_papers=8):
    """One fault-injected ingest with restarts; returns (papers, transport
    logs, final corpus records, report)."""
    rng = random.Random(seed)
    papers = make_papers(n_papers, rng=random.Random(seed + 1),
                         max_citations=12)
    ids = sorted(papers)
    out = tmp_path / f"c{seed}.jsonl"
    ckpt = tmp_path / f"ckpt{seed}.json"
    budget_max, budget_window = 10, 5.0
    logs = []
    report = None
    for attempt in range(50):
        clock = VirtualClock()
        transport = MockTransport(
            papers, clock=clock,
            faults=flaky_faults(rng, p_conn=0.05, p_429=0.05,
                                p_restart=0.02))
        config = ClientConfig(page_size=5, retry_cap=5, backoff_base=0.1,
                              rate_budget=RateBudget(budget_max, budget_window))
        client = ApiClient(config, transport=transport, clock=clock,
                           sleep=clock.sleep, rng=rng)
        try:
            report = build_corpus(ids, out, ckpt, client)
        except Restart:
            logs.append(transport.request_log)
            continue
        logs.append(transport.request_log)
        break
    assert report is not None, "never completed within restart budget"
    records = load_corpus(out)
    # exactly-once: every id either written once or reported failed, never both
    written_ids = [r.id for r in records]
    assert len(written_ids) == len(set(written_ids))
    assert set(written_ids) | set(report.failures) | set(
        ids[:report.skipped]) >= set(ids)
    assert not (set(written_ids) & set(report.failures))
    # budget respected within each run (clock restarts between runs)
    for log in logs:
        times = sorted(t for t, _, _ in log)
        for t in times:
            assert sum(1 for s in times if t - budget_window < s <= t) \
                <= budget_max
    return papers, records


class TestRandomizedSchedules:
    @pytest.mark.parametrize("seed", range(25))
    def test_exactly_once_under_faults(self, seed, tmp_path):
        run_randomized_schedule(seed, tmp_path)


class TestImportTable:
    def test_table1_six_rows(self, table1_path):
        records = import_table(table1_path)
        assert len(records) == 6
        by_id = {r.id: r for r in records}
        assert by_id["1380793"].counts[2018] == 16
        assert by_id["1380793"].venue == "EMNLP"
        assert by_id["9724599"].counts == {2016: 5, 2017: 7, 2018: 5,
                                           2019: 1, 2020: 3, 2021: 1}

    def test_blank_cell_means_absent(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,venue,source,pub_year,2016,2017\n"
                        "a,V,ACL,2016,,3\n")
        records = import_table(path)
        assert records[0].counts == {2017: 3}
        assert records[0].citations_in(2016) == 0

    def test_bad_year_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,venue,source,pub_year,20x6\na,V,ACL,2016,1\n")
        with pytest.raises(errors.HeaderMismatch):
            import_table(path)

    def test_bad_leading_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("paper,venue,source,pub_year,2016\na,V,ACL,2016,1\n")
        with pytest.raises(errors.HeaderMismatch):
            import_table(path)

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,venue,source,pub_year,2016\na,V,ACL,2016,two\n")
        with pytest.raises(errors.NonIntegerCount):
            import_table(path)

    @pytest.mark.parametrize("row,column,cell", [
        ("a,V,ACL,20x6,1", "pub_year", "20x6"),
        ("a,V,ACL,,1", "pub_year", ""),
        ("a,V,ACL,2016,++5", "2016", "++5"),
        ("a,V,ACL,2016,\u00b2", "2016", "\u00b2"),
        ("a,V,ACL,2016,-3", "2016", "-3"),
        ("a,V,ACL,2016,1_000", "2016", "1_000"),
    ])
    def test_bad_numeric_cell_names_row_and_column(self, tmp_path, row,
                                                   column, cell):
        path = tmp_path / "t.csv"
        path.write_text("id,venue,source,pub_year,2016\n"
                        "b,V,ACL,2016,2\n" + row + "\n", encoding="utf-8")
        with pytest.raises(errors.NonIntegerCount) as info:
            import_table(path)
        assert (info.value.row, info.value.col) == (3, column)
        assert str(info.value) == (f"row 3, column {column!r}: not a "
                                   f"non-negative integer: {cell!r}")

    def test_signed_and_non_ascii_decimal_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,venue,source,pub_year,2016,2017\n"
                        "a,V,ACL, +2016 ,+4,\u0663\n", encoding="utf-8")
        assert import_table(path)[0].counts == {2016: 4, 2017: 3}

    def test_superscript_year_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,venue,source,pub_year,\u00b2\u2070\u00b9\u2076\n"
                        "a,V,ACL,2016,1\n", encoding="utf-8")
        with pytest.raises(errors.HeaderMismatch):
            import_table(path)

    def test_import_write_load_round_trip(self, table1_path, tmp_path):
        records = import_table(table1_path)
        out = tmp_path / "c.jsonl"
        write_corpus(records, out)
        assert load_corpus(out) == records
