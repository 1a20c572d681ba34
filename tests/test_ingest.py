import io
import json
import math
import os
import random
import re
import sys
import urllib.error
import urllib.request
from collections import Counter

import pytest

from citegauge import cli, errors, ingest
from citegauge.corpus import load_corpus, write_corpus
from citegauge.ingest import (
    API_KEY_ENV,
    UNKNOWN_YEAR,
    ApiClient,
    ClientConfig,
    FetchCheckpoint,
    HttpTransport,
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
        client, transport, _ = make_client(
            papers, faults=lambda: errors.HttpError(429))
        with pytest.raises(errors.RateLimited):
            client.fetch_citation_years("a")
        assert len(transport.request_log) == ingest.RETRY_CAP + 1

    def test_not_found(self):
        client, _, _ = make_client({})
        with pytest.raises(errors.NotFound):
            client.fetch_citation_years("missing")
        with pytest.raises(errors.NotFound):
            client.fetch_paper_meta("missing")


class EntryTransport(MockTransport):
    """Citation pages whose entries are given as they are, not built from
    years: papers[id]["entries"] lists them."""

    def get_citations(self, paper_id, offset, limit):
        self._maybe_fail("citations", paper_id)
        self.page_requests += 1
        entries = self.papers[paper_id]["entries"]
        return {"total": len(entries),
                "data": entries[offset:offset + limit]}


def keyed(counts):
    """A counts map with its keys' types: True and 1 are one dict key, but
    "True" and "1" as counts keys."""
    return sorted((repr(key), n) for key, n in counts.items())


class TestCitationCounting:
    """A citing paper counts under its year if that is an int, a bool
    too, and else under UNKNOWN_YEAR; an entry that is not an object fails
    its own id.  Pages of 3 entries, so most cases span pages."""

    @pytest.mark.parametrize("entries, expected", [
        ([{"year": 2017}, {"year": None}, {}, {"year": 2017}],
         {2017: 2, UNKNOWN_YEAR: 2}),
        ([{"year": 2018}, {"year": 2018.0}, {"year": 2018.0}, {"year": 2018}],
         {2018: 2, UNKNOWN_YEAR: 2}),
        ([{"year": True}, {"year": 1}, {"year": 1.0}, {"year": False}],
         {True: 2, False: 1, UNKNOWN_YEAR: 1}),
        ([{"year": "2018"}, {"year": [2018]}, {"year": {"y": 2018}},
          {"year": 2018}], {2018: 1, UNKNOWN_YEAR: 3}),
    ], ids=["none and missing", "float equal to an int", "bools",
            "string and unhashable"])
    def test_counts_by_kind_of_year(self, entries, expected):
        client = ApiClient(ClientConfig(page_size=3), transport=EntryTransport(
            {"a": {"entries": entries}}))
        assert keyed(client.fetch_citation_years("a")) == keyed(expected)

    def test_records_and_failures(self, tmp_path):
        """A bool year folds into the unknown count as a year before
        publication does; a year past YEAR_MAX fails its id."""
        papers = {
            "a": {"year": 2016, "entries": [{"year": True}, {"year": 2017.0},
                                            {"year": 2017}, {}]},
            "b": {"year": 2016, "entries": [{"year": 2017}, {"year": 2101}]},
            "c": {"year": 2016, "entries": [{"year": 2015}, {"year": 2018}]},
        }
        client = ApiClient(ClientConfig(page_size=3),
                           transport=EntryTransport(papers))
        out = tmp_path / "c.jsonl"
        report = build_corpus(sorted(papers), out, tmp_path / "ckpt.json",
                              client)
        assert report.failures == {
            "b": "ParseError: counts key '2101' 2101 outside [1900, 2100]"}
        assert (report.written, report.unknown_year_citations) == (2, 4)
        assert [(r.id, r.counts) for r in load_corpus(out)] == [
            ("a", {2017: 1}), ("c", {2018: 1})]

    def test_entry_not_an_object_fails_its_id_only(self, tmp_path):
        papers = {"a": {"year": 2016, "entries": [{"year": 2017}]},
                  "b": {"year": 2016, "entries": [{"year": 2017}, [2017]]},
                  "c": {"year": 2016, "entries": [{"year": 2018}] * 4}}
        client = ApiClient(ClientConfig(page_size=3),
                           transport=EntryTransport(papers))
        out = tmp_path / "c.jsonl"
        report = build_corpus(sorted(papers), out, tmp_path / "ckpt.json",
                              client)
        assert report.failures == {
            "b": "AttributeError: 'list' object has no attribute 'get'"}
        assert report.written == 2
        assert [r.id for r in load_corpus(out)] == ["a", "c"]


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

    @pytest.mark.parametrize("window", [math.inf, math.nan, 0.0, -1.0])
    def test_window_must_be_positive_and_finite(self, window):
        with pytest.raises(ValueError):
            RateBudget(1, window)

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


def _set(key, value):
    def mutate(data, out, ids):
        data[key] = value
        return ids
    return mutate


def _shorten_corpus(data, out, ids):
    out.write_bytes(out.read_bytes()[:-1])
    return ids


def _drop_corpus(data, out, ids):
    out.unlink()
    return ids


def _other_ids_list(data, out, ids):
    """A checkpoint after ids[1] of a,b,c offered to the list x,b,y."""
    data["last_completed_paper_id"] = ids[1]
    data["corpus_bytes"] = len(b"".join(out.read_bytes().splitlines(True)[:2]))
    return ["x", ids[1], "y"]


#: case -> (edit of a finished run's checkpoint data and corpus, returning
#: the ids to resume with; the start of the refusal message)
UNRESUMABLE = {
    "id-not-in-list": (_set("last_completed_paper_id", "other-id"),
                       "last completed id 'other-id' is not among"),
    "null-id": (_set("last_completed_paper_id", None),
                "last completed id None is not among"),
    "other-ids-list": (_other_ids_list, "was written for another ids list"),
    "bytes-str": (_set("corpus_bytes", "10"), "corpus_bytes '10' is not"),
    "bytes-bool": (_set("corpus_bytes", True), "corpus_bytes True is not"),
    "bytes-negative": (_set("corpus_bytes", -1), "corpus_bytes -1 is not"),
    "corpus-shorter": (_shorten_corpus, "corpus {out} is missing or shorter"),
    "corpus-missing": (_drop_corpus, "corpus {out} is missing or shorter"),
}


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

    @pytest.mark.parametrize("field, meta", [
        ("venue", {"venue": "A\ud800"}), ("id", {})])
    def test_lone_surrogate_fails_its_id_only(self, field, meta, tmp_path):
        """A venue or id that UTF-8 cannot encode, as a "\\ud800" escape in
        an API body decodes, fails its own id; the writer used to stop the
        job at it."""
        first = "p1\ud800" if field == "id" else "p1"
        papers = {first: {"year": 2016, "citing_years": [2017], **meta},
                  "p2": {"year": 2016, "citing_years": [2017]}}
        client, _, _ = make_client(papers)
        out = tmp_path / "c.jsonl"
        report = build_corpus([first, "p2"], out, tmp_path / "ckpt.json",
                              client)
        assert report.failures == {first: (
            f"ParseError: field {field!r} holds a lone surrogate, which "
            f"UTF-8 cannot encode")}
        assert report.written == 1
        assert [r.id for r in load_corpus(out)] == ["p2"]

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
        # no temp file left
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl",
                                                              "ckpt.json"]

    def test_resume_overwrites_stale_temp_checkpoint(self, tmp_path):
        papers = make_papers(6)
        ids = sorted(papers)
        out, ckpt = tmp_path / "c.jsonl", tmp_path / "ckpt.json"
        clean = tmp_path / "clean.jsonl"
        build_corpus(ids, clean, tmp_path / "clean.ckpt", make_client(papers)[0])
        transport = RestartOnPaper(papers, ids[3])
        clock = VirtualClock()
        client = ApiClient(ClientConfig(), transport=transport, clock=clock,
                           sleep=clock.sleep, rng=random.Random(0))
        with pytest.raises(Restart):
            build_corpus(ids, out, ckpt, client, workers=1)
        # a kill between the temp write and os.replace leaves this behind
        (tmp_path / "ckpt.json.tmp").write_text('{"last_completed_paper_id"')
        report = build_corpus(ids, out, ckpt, make_client(papers)[0])
        assert (report.skipped, report.written) == (3, 3)
        assert out.read_bytes() == clean.read_bytes()
        assert json.loads(ckpt.read_text())["last_completed_paper_id"] == ids[-1]
        assert not (tmp_path / "ckpt.json.tmp").exists()

    @pytest.mark.parametrize("case", list(UNRESUMABLE), ids=list(UNRESUMABLE))
    def test_foreign_checkpoint_refused(self, case, tmp_path):
        mutate, problem = UNRESUMABLE[case]
        papers = make_papers(3)
        ids = sorted(papers)
        out, ckpt = tmp_path / "c.jsonl", tmp_path / "ckpt.json"
        build_corpus(ids, out, ckpt, make_client(papers)[0])
        data = json.loads(ckpt.read_text())
        ids = mutate(data, out, ids)
        ckpt.write_text(json.dumps(data))
        corpus = out.read_bytes() if out.exists() else None
        client, transport, _ = make_client(papers)
        with pytest.raises(errors.IngestError,
                           match=re.escape(f"checkpoint {ckpt}: "
                                           + problem.format(out=out))):
            build_corpus(ids, out, ckpt, client)
        assert (out.read_bytes() if out.exists() else None) == corpus
        assert transport.request_log == []

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


class CrashAt:
    """Counts the file operations of build_corpus's commit path (the
    corpus write, flush and truncate, the checkpoint journal's write and
    flush, and the temp-file write and os.replace of each run's first and
    last checkpoint) and raises Restart in place of the k-th.  Every file
    the commit path writes is opened through ingest's open."""

    def __init__(self, k):
        self.k, self.ops = k, 0

    def __call__(self, op):
        self.ops += 1
        if self.ops == self.k:
            raise Restart(f"crash before op {self.k}: {op}")

    def install(self, monkeypatch):
        real_open, real_replace = open, os.replace

        def replace(src, dst):
            self("os.replace")
            real_replace(src, dst)

        monkeypatch.setattr(ingest, "open", lambda *a, **kw: CountedFile(
            real_open(*a, **kw), self), raising=False)
        monkeypatch.setattr(os, "replace", replace)


class CountedFile:
    """A file whose write, flush and truncate first pass a CrashAt."""

    def __init__(self, handle, crash):
        self._handle, self._crash = handle, crash

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._handle.__exit__(*exc)

    def write(self, data):
        self._crash("write")
        return self._handle.write(data)

    def flush(self):
        self._crash("flush")
        return self._handle.flush()

    def truncate(self, size):
        self._crash("truncate")
        return self._handle.truncate(size)


class TestCrashPoints:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_at_every_commit_step_writes_each_id_once(
            self, workers, tmp_path, monkeypatch):
        papers = make_papers(4, rng=random.Random(5))
        papers["id002"]["citing_years"] = []
        ids = ["id000", "id001", "gone", "id002", "id003"]   # "gone" is a 404
        clean = tmp_path / "clean.jsonl"
        build_corpus(ids, clean, tmp_path / "clean.ckpt", make_client(papers)[0],
                     workers=workers)
        expected = clean.read_bytes()
        lengths = []    # (checkpoint's corpus_bytes, corpus size) per k
        for k in range(1, 1000):
            out, ckpt = tmp_path / f"c{k}.jsonl", tmp_path / f"c{k}.ckpt"
            with monkeypatch.context() as patch:
                CrashAt(k).install(patch)
                try:
                    build_corpus(ids, out, ckpt, make_client(papers)[0],
                                 workers=workers)
                    break
                except Restart:
                    pass
            report = build_corpus(ids, out, ckpt, make_client(papers)[0],
                                  workers=workers)
            records = load_corpus(out)
            assert [r.id for r in records] == sorted(papers), k
            for r in records:
                assert r.counts == Counter(y for y in papers[r.id]["citing_years"]
                                           if y is not None), (k, r.id)
            assert set(report.failures) <= {"gone"}
            assert out.read_bytes() == expected, k
            lengths.append((json.loads(ckpt.read_text()).get("corpus_bytes"),
                            out.stat().st_size))
        else:
            pytest.fail("no run got past every crash point")
        assert out.read_bytes() == expected
        assert k > 5 * 3    # every id passed through a write, a flush and a save
        assert all(committed == size for committed, size in lengths), lengths

    def test_resume_drops_torn_record(self, tmp_path):
        papers = make_papers(5)
        ids = sorted(papers)
        out, ckpt = tmp_path / "c.jsonl", tmp_path / "ckpt.json"
        client, _, _ = make_client(papers)
        build_corpus(ids, out, ckpt, client)
        expected = out.read_bytes()
        committed = len(b"".join(expected.splitlines(True)[:3]))
        out.write_bytes(expected[:committed + 20])     # a torn 4th record
        FetchCheckpoint(ids[2], committed, ingest.ids_sha256(ids)).rewrite(ckpt)
        report = build_corpus(ids, out, ckpt, make_client(papers)[0])
        assert (report.skipped, report.written) == (3, 2)
        assert out.read_bytes() == expected


def checkpoint_line(last_id, corpus_bytes, ids):
    return json.dumps({"last_completed_paper_id": last_id,
                       "corpus_bytes": corpus_bytes,
                       "ids_sha256": ingest.ids_sha256(ids)},
                      ensure_ascii=False, separators=(",", ":"))


class TestCheckpointJournal:
    def crashed_run(self, tmp_path, papers, ids, k):
        """A workers=1 run killed while fetching ids[k]: ids[:k] committed."""
        out, ckpt = tmp_path / "c.jsonl", tmp_path / "ckpt.json"
        transport, clock = RestartOnPaper(papers, ids[k]), VirtualClock()
        client = ApiClient(ClientConfig(), transport=transport, clock=clock,
                           sleep=clock.sleep, rng=random.Random(0))
        with pytest.raises(Restart):
            build_corpus(ids, out, ckpt, client, workers=1)
        return out, ckpt

    def clean_corpus(self, tmp_path, papers, ids):
        clean = tmp_path / "clean.jsonl"
        build_corpus(ids, clean, tmp_path / "clean.ckpt", make_client(papers)[0])
        return clean.read_bytes()

    def test_torn_tail_resumes_from_last_complete_line(self, tmp_path):
        papers = make_papers(8)
        ids = sorted(papers)
        out, ckpt = self.crashed_run(tmp_path, papers, ids, 5)
        lines = ckpt.read_text().splitlines()
        assert [json.loads(line)["last_completed_paper_id"]
                for line in lines] == ids[:5]
        torn = checkpoint_line(ids[5], 10 ** 6, ids)
        for cut in (1, len(torn) // 2, len(torn) - 1):
            with open(ckpt, "a", encoding="utf-8") as handle:
                handle.write(torn[:cut])
            assert FetchCheckpoint.load(ckpt) == FetchCheckpoint(
                **json.loads(lines[-1])), cut
            ckpt.write_text("\n".join(lines) + "\n")
        ckpt.write_text("\n".join(lines) + "\n" + torn[:-1])
        report = build_corpus(ids, out, ckpt, make_client(papers)[0])
        assert (report.skipped, report.written) == (5, 3)
        assert out.read_bytes() == self.clean_corpus(tmp_path, papers, ids)

    def test_single_object_without_newline_resumes(self, tmp_path):
        papers = make_papers(6)
        ids = sorted(papers)
        out, ckpt = self.crashed_run(tmp_path, papers, ids, 4)
        ckpt.write_text(json.dumps(json.loads(ckpt.read_text().splitlines()[-1])))
        report = build_corpus(ids, out, ckpt, make_client(papers)[0])
        assert (report.skipped, report.written) == (4, 2)
        assert out.read_bytes() == self.clean_corpus(tmp_path, papers, ids)

    def test_journal_of_spaced_ascii_lines_resumes(self, tmp_path):
        """Checkpoint lines used to be json.dumps(self.__dict__), with spaces
        and ASCII escapes; such a journal still resumes."""
        papers = make_papers(8)
        ids = sorted(papers)
        out, ckpt = self.crashed_run(tmp_path, papers, ids, 5)
        ckpt.write_text("".join(json.dumps(json.loads(line)) + "\n"
                                for line in ckpt.read_text().splitlines()))
        assert ckpt.read_text().count(", ") == 10
        report = build_corpus(ids, out, ckpt, make_client(papers)[0])
        assert (report.skipped, report.written) == (5, 3)
        assert out.read_bytes() == self.clean_corpus(tmp_path, papers, ids)

    @pytest.mark.parametrize("last_id", ["id005", "Ünï 論文", 'a"\\\n\t',
                                         "p\ud800"])
    def test_line_decodes_with_stdlib_json(self, last_id, tmp_path):
        """A line is compact UTF-8 JSON, which stdlib json.loads reads as
        every earlier reader did; an id that UTF-8 cannot encode is
        escaped."""
        checkpoint = FetchCheckpoint(last_id, 2 ** 40,
                                     ingest.ids_sha256([last_id]))
        line = checkpoint._line()
        assert json.loads(line.decode("utf-8")) == checkpoint.__dict__
        assert line.index(b"\n") == len(line) - 1
        if "\ud800" not in last_id:
            assert line == (checkpoint_line(last_id, 2 ** 40, [last_id])
                            + "\n").encode("utf-8")
        checkpoint.rewrite(tmp_path / "ckpt.json")
        assert FetchCheckpoint.load(tmp_path / "ckpt.json") == checkpoint

    def test_unterminated_line_after_complete_lines_counts(self, tmp_path):
        papers = make_papers(6)
        ids = sorted(papers)
        out, ckpt = self.crashed_run(tmp_path, papers, ids, 4)
        ckpt.write_text(ckpt.read_text().removesuffix("\n"))
        assert len(ckpt.read_text().splitlines()) == 4
        report = build_corpus(ids, out, ckpt, make_client(papers)[0])
        assert (report.skipped, report.written) == (4, 2)
        assert out.read_bytes() == self.clean_corpus(tmp_path, papers, ids)

    @pytest.mark.parametrize("resumed", [False, True])
    def test_finished_run_leaves_one_line(self, resumed, tmp_path):
        papers = make_papers(6)
        ids = sorted(papers)
        out, ckpt = tmp_path / "c.jsonl", tmp_path / "ckpt.json"
        if resumed:
            out, ckpt = self.crashed_run(tmp_path, papers, ids, 3)
        build_corpus(ids, out, ckpt, make_client(papers)[0])
        assert ckpt.read_text() == checkpoint_line(
            ids[-1], out.stat().st_size, ids) + "\n"

    def test_terminated_last_line_not_json_exits_1(self, tmp_path, capsys):
        papers = make_papers(6)
        ids = sorted(papers)
        out, ckpt = self.crashed_run(tmp_path, papers, ids, 3)
        with open(ckpt, "a", encoding="utf-8") as handle:
            handle.write('{"last_completed_paper_id": "id0\n')
        corpus = out.read_bytes()
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("\n".join(ids) + "\n")
        # the checkpoint is read before any request; a closed local port
        # keeps a regression from reaching the network
        code = cli.main(["ingest", "--ids-file", str(ids_file),
                         "--out", str(out), "--checkpoint", str(ckpt),
                         "--base-url", "http://127.0.0.1:9"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA_ERROR
        assert f"checkpoint {ckpt}: invalid JSON" in err
        assert out.read_bytes() == corpus

    def test_run_renames_at_most_twice(self, tmp_path, monkeypatch):
        papers = make_papers(50)
        replaced = []
        real_replace = os.replace

        def replace(src, dst):
            replaced.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        ckpt = tmp_path / "ckpt.json"
        report = build_corpus(sorted(papers), tmp_path / "c.jsonl", ckpt,
                              make_client(papers)[0], workers=2)
        assert report.written == 50
        assert 1 <= len(replaced) <= 2


class FakeResponse:
    def __init__(self, body, status=200):
        self.status, self._body = status, body

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def http_error(status, body=b"nope"):
    return urllib.error.HTTPError("http://api/x", status, "status", {},
                                  io.BytesIO(body))


def fake_urlopen(monkeypatch, *outcomes):
    """Patch urlopen to log each (request, timeout) and return or raise the
    next outcome, the last one again once they run out."""
    calls = []

    def urlopen(request, timeout):
        calls.append((request, timeout))
        outcome = outcomes[min(len(calls), len(outcomes)) - 1]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return calls


def http_client(**config_kw):
    config = ClientConfig(base_url="http://api/graph/v1", **config_kw)
    clock = VirtualClock()
    return ApiClient(config, transport=HttpTransport(config), clock=clock,
                     sleep=clock.sleep, rng=random.Random(0))


REFUSED = urllib.error.URLError(ConnectionRefusedError(111, "refused"))


#: externalIds that name no Source.
NO_SOURCE_IDS = {"DBLP": "conf/emnlp/X16", "CorpusId": 1}


def paper_body(external=NO_SOURCE_IDS):
    """A Graph API /paper/{id} body for fields=venue,year,externalIds."""
    return FakeResponse(json.dumps({
        "paperId": "649def34f8be52c8b66281af98ae884c09aef38b",
        "venue": "EMNLP", "year": 2016, "externalIds": external}).encode())


def citations_body(offset, years, last=True):
    """A Graph API /paper/{id}/citations page for fields=year: "next" is
    absent on the last page."""
    body = {"offset": offset, "data": [
        {"citingPaper": {"paperId": f"c{offset + i}", "year": year}}
        for i, year in enumerate(years)]}
    if not last:
        body["next"] = offset + len(years)
    return FakeResponse(json.dumps(body).encode())


#: What get_paper makes of paper_body().
PAPER_META = {"id": "p", "venue": "EMNLP", "year": 2016, "source": "Other"}


class TestHttpTransport:
    def test_url_query_header_and_json(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "secret")
        calls = fake_urlopen(monkeypatch, citations_body(200, [2020]))
        transport = HttpTransport(ClientConfig(base_url="http://api/graph/v1"))
        assert transport.get_citations("DOI:10.1/a b", 200, 100) == {
            "total": 201, "data": [{"year": 2020}]}
        (request, timeout), = calls
        assert request.full_url == ("http://api/graph/v1/paper/DOI:10.1/a%20b/"
                                    "citations?fields=year&offset=200&limit=100")
        assert request.get_header("X-api-key") == "secret"
        assert timeout == 30

    def test_no_key_no_header(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        calls = fake_urlopen(monkeypatch, paper_body())
        assert HttpTransport(ClientConfig()).get_paper("p") == PAPER_META
        request = calls[0][0]
        assert request.full_url.endswith(
            "/paper/p?fields=venue%2Cyear%2CexternalIds")
        assert not request.has_header("X-api-key")

    @pytest.mark.parametrize("outcome,status", [
        (http_error(404), 404),
        (http_error(429), 429),
        (http_error(500), 500),
        (FakeResponse(b"{}", status=202), 202),
    ], ids=["404", "429", "500", "202"])
    def test_non_200_raises_http_error(self, outcome, status, monkeypatch):
        fake_urlopen(monkeypatch, outcome)
        with pytest.raises(errors.HttpError) as info:
            HttpTransport(ClientConfig()).get_paper("p")
        assert info.value.status == status

    def test_statuses_through_the_client(self, monkeypatch):
        calls = fake_urlopen(monkeypatch, http_error(404))
        with pytest.raises(errors.NotFound):
            http_client().fetch_paper_meta("p")
        assert len(calls) == 1
        calls = fake_urlopen(monkeypatch, http_error(429), http_error(429),
                             paper_body())
        assert http_client().fetch_paper_meta("p") == PAPER_META
        assert len(calls) == 3

    @pytest.mark.parametrize("error", [
        REFUSED, TimeoutError("timed out"), ConnectionResetError("reset")],
        ids=["refused", "timeout", "reset"])
    def test_dropped_connection_retried_until_success(self, error,
                                                      monkeypatch):
        calls = fake_urlopen(monkeypatch, error, error, paper_body())
        assert http_client().fetch_paper_meta("p") == PAPER_META
        assert len(calls) == 3

    def test_refused_past_retry_cap_raises_connection_error(self, monkeypatch):
        calls = fake_urlopen(monkeypatch, REFUSED)
        with pytest.raises(ConnectionError, match="GET http://api/graph/v1/paper/p"):
            http_client().fetch_paper_meta("p")
        assert len(calls) == ingest.RETRY_CAP + 1 == 6

    @pytest.mark.parametrize("external,source", [
        ({"ArXiv": "1606.01", "ACL": "D16-1001", "PubMed": "1"}, "ACL"),
        ({"ArXiv": "1606.01", "PubMed": "1", "DOI": "10.1/a"}, "PubMed"),
        ({"ArXiv": "1606.01", "DBLP": "conf/emnlp/X16"}, "ArXiv"),
        (NO_SOURCE_IDS, "Other"),
        ({}, "Other"),
        (None, "Other"),
    ], ids=["acl", "pubmed", "arxiv", "dblp", "empty", "null"])
    def test_source_is_the_first_of_acl_pubmed_arxiv(self, external, source,
                                                      monkeypatch):
        fake_urlopen(monkeypatch, paper_body(external))
        assert HttpTransport(ClientConfig()).get_paper("p")["source"] == source

    def test_documented_bodies_through_build_corpus(self, monkeypatch,
                                                    tmp_path):
        """The Graph API's own bodies give the source from externalIds and
        counts by each citing paper's year, and the page without "next" is
        the last one requested, even when it is full."""
        calls = fake_urlopen(
            monkeypatch,
            paper_body({"ArXiv": "1606.01", "ACL": "D16-1001"}),
            citations_body(0, [2017, 2016], last=False),
            citations_body(2, [2017, None]),
            http_error(404))
        out = tmp_path / "c.jsonl"
        report = build_corpus(["p1"], out, tmp_path / "ck.json",
                              http_client(page_size=2))
        assert (report.written, report.failures,
                report.unknown_year_citations) == (1, {}, 1)
        assert out.read_text(encoding="utf-8") == (
            '{"id":"p1","source":"ACL","venue":"EMNLP","year":2016,'
            '"counts":{"2016":1,"2017":2}}\n')
        assert [request.full_url.removeprefix("http://api/graph/v1")
                for request, _ in calls] == [
            "/paper/p1?fields=venue%2Cyear%2CexternalIds",
            "/paper/p1/citations?fields=year&offset=0&limit=2",
            "/paper/p1/citations?fields=year&offset=2&limit=2"]

    def test_body_not_json(self, monkeypatch):
        calls = fake_urlopen(monkeypatch, FakeResponse(b"<html>busy</html>"))
        with pytest.raises(ValueError):
            http_client().fetch_paper_meta("p")
        assert len(calls) == 1


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
        config = ClientConfig(page_size=5,
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

    def test_leading_byte_order_mark_skipped(self, table1_path, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + table1_path.read_bytes())
        assert import_table(path) == import_table(table1_path)

    def test_blank_cell_means_absent(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,venue,source,pub_year,2016,2017\n"
                        "a,V,ACL,2016,,3\n")
        records = import_table(path)
        assert records[0].counts == {2017: 3}
        assert records[0].counts.get(2016, 0) == 0

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
