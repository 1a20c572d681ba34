"""Corpus construction: scholarly-graph API client and table importer.

The HTTP client is paginated (offset/limit), rate limited, and resumable
through a checkpoint journal: one JSON line appended per committed id, the
last line counting, and the file replaced whole at a run's first commit
and at its end.  Transport, clock and RNG are injectable so every
retry/rate-limit path is testable under a virtual clock with no network.

Each corpus record and each checkpoint line the writer commits is encoded
by one corpus.json_bytes call, which is one orjson call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

from .corpus import (PaperRecord, Source, json_bytes, json_value, read_journal,
                     read_json, read_text, record_to_json, utf8_text,
                     validate_record)
from .errors import (
    DuplicateId,
    EmptyInput,
    HeaderMismatch,
    HttpError,
    IngestError,
    NonIntegerCount,
    NotFound,
    ParseError,
    RateLimited,
)

API_KEY_ENV = "CITEGAUGE_API_KEY"

DEFAULT_PAGE_SIZE = 100
RETRY_CAP = 5
BACKOFF_BASE = 1.0  # seconds

#: Counts bucket for citing papers whose publication year is missing.
UNKNOWN_YEAR = "unknown"

#: The externalIds keys that name a paper's source, first match wins.
SOURCE_PRECEDENCE = (Source.ACL, Source.PUBMED, Source.ARXIV)


class RateBudget:
    """Sliding-window request budget: at most max_requests in any window.

    Thread safe; one budget may be shared by concurrent fetchers.
    """

    def __init__(self, max_requests: int, window_seconds: float):
        if max_requests < 1 or not 0 < window_seconds < float("inf"):
            raise ValueError("budget needs max_requests >= 1 and a finite window > 0")
        self.max_requests = max_requests
        self.window_seconds = window_seconds
        self._stamps: deque = deque()
        self._lock = threading.Lock()

    def acquire(self, now: float) -> float:
        """Try to register one request at time `now`.

        Returns 0.0 on success, otherwise the seconds to wait before
        retrying (the request is NOT registered in that case).
        """
        with self._lock:
            while self._stamps and self._stamps[0] <= now - self.window_seconds:
                self._stamps.popleft()
            if len(self._stamps) < self.max_requests:
                self._stamps.append(now)
                return 0.0
            # small overshoot keeps the retry strictly outside the window
            # despite float rounding at the boundary
            return self._stamps[0] + self.window_seconds - now \
                + 1e-6 * self.window_seconds


@dataclass
class ClientConfig:
    base_url: str = "https://api.semanticscholar.org/graph/v1"
    page_size: int = DEFAULT_PAGE_SIZE
    rate_budget: RateBudget | None = None


class HttpTransport:
    """GET with JSON bodies over urllib; the only piece that touches the
    network.  Connection failures and timeouts raise the builtin
    ConnectionError, which ApiClient retries.

    The Semantic Scholar Graph API's bodies are mapped onto ApiClient's
    transport contract.  A paper's source is the first of ACL, PubMed and
    ArXiv among its externalIds, the venue of record before the preprint,
    else Other.  A citations page carries no total, so the last page, the
    one without "next", gives the total as its offset plus its entries."""

    def __init__(self, config: ClientConfig):
        self.config = config
        api_key = os.environ.get(API_KEY_ENV)
        self.headers = {"x-api-key": api_key} if api_key else {}

    def get_paper(self, paper_id: str) -> dict:
        body = self._get(f"/paper/{paper_id}",
                         {"fields": "venue,year,externalIds"})
        external = body.get("externalIds") or {}
        source = next((source.value for source in SOURCE_PRECEDENCE
                       if source.value in external), Source.OTHER.value)
        return {"id": paper_id, "venue": body.get("venue"),
                "year": body.get("year"), "source": source}

    def get_citations(self, paper_id: str, offset: int, limit: int) -> dict:
        body = self._get(f"/paper/{paper_id}/citations",
                         {"fields": "year", "offset": offset, "limit": limit})
        data = [{"year": (entry.get("citingPaper") or {}).get("year")}
                for entry in body.get("data") or []]
        return {"data": data,
                "total": None if "next" in body else offset + len(data)}

    def _get(self, path: str, params: dict) -> dict:
        url = (self.config.base_url + urllib.parse.quote(path, safe="/:")
               + "?" + urllib.parse.urlencode(params))
        request = urllib.request.Request(url, headers=self.headers)
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # every status outside 2xx
            status, body = exc.code, exc.read()
        except (urllib.error.URLError, TimeoutError) as exc:
            raise ConnectionError(f"GET {url}: {exc}") from exc
        if status != 200:
            raise HttpError(status, body[:200].decode("utf-8", "replace"))
        return json.loads(body)


class ApiClient:
    """Rate-limited, retrying client over an injectable transport.

    The transport must expose get_paper(id) -> {"id", "venue", "source",
    "year"} and get_citations(id, offset, limit) -> {"total", "data":
    [{"year": int-or-None}, ...]}.  Transports signal throttling by raising
    HttpError(429) and transient failures with ConnectionError.
    """

    def __init__(self, config: ClientConfig, transport=None,
                 clock=time.monotonic, sleep=time.sleep, rng=None):
        self.config = config
        self.transport = transport or HttpTransport(self.config)
        self.clock = clock
        self.sleep = sleep
        self.rng = rng or random.Random()

    def _call(self, fn, paper_id: str, *args):
        """fn(paper_id, *args) under the rate budget, retried on 429 and
        connection errors; a 404 becomes NotFound(paper_id)."""
        budget = self.config.rate_budget
        attempt = 0
        while True:
            if budget is not None:
                while True:
                    wait = budget.acquire(self.clock())
                    if wait <= 0:
                        break
                    self.sleep(wait)
            try:
                return fn(paper_id, *args)
            except (HttpError, ConnectionError) as exc:
                status = getattr(exc, "status", None)
                if status == 404:
                    raise NotFound(paper_id) from None
                retryable = status == 429 or isinstance(exc, ConnectionError)
                if not retryable:
                    raise
                if attempt >= RETRY_CAP:
                    if status == 429:
                        raise RateLimited(
                            f"still throttled after {attempt} retries") from exc
                    raise
                backoff = BACKOFF_BASE * (2 ** attempt)
                self.sleep(backoff * (1.0 + self.rng.random()))
                attempt += 1

    def fetch_paper_meta(self, paper_id: str) -> dict:
        return self._call(self.transport.get_paper, paper_id)

    def fetch_citation_years(self, paper_id: str) -> dict:
        """Bucket citing papers by publication year.

        Returns a counts map with integer year keys; citing papers lacking
        a year land under the UNKNOWN_YEAR key (reported, never dropped).
        A paper with zero citations yields an empty map.
        """
        counts: dict = {}
        offset = 0
        limit = self.config.page_size
        while True:
            page = self._call(self.transport.get_citations, paper_id,
                              offset, limit)
            data = page.get("data", [])
            for entry in data:
                year = entry.get("year")
                key = year if isinstance(year, int) else UNKNOWN_YEAR
                counts[key] = counts.get(key, 0) + 1
            total = page.get("total")
            offset += len(data)
            if len(data) < limit or (total is not None and offset >= total):
                break
        return counts


def ids_sha256(paper_ids: list[str]) -> str:
    """Digest of an ids list, so a checkpoint resumes only the list it was
    written for."""
    return hashlib.sha256(json.dumps(paper_ids).encode("utf-8")).hexdigest()


@dataclass
class FetchCheckpoint:
    """Resume point for build_corpus: the last id committed, the corpus
    length in bytes just after its record (a record boundary), and the
    digest of the ids list being fetched.

    The checkpoint file is a journal of these objects, one JSON line per
    commit, and its last line counts.  A run's first commit replaces the
    file whole, so a torn append can only follow a complete line."""

    last_completed_paper_id: str
    corpus_bytes: int
    ids_sha256: str

    def _line(self) -> bytes:
        return json_bytes(self.__dict__) + b"\n"

    def save(self, path, journal=None):
        """Commit this checkpoint and return the journal the next save
        appends to.  Without one (a run's first commit) the file at `path`
        is rewritten to this line and opened for appending; the caller
        closes what save returns."""
        if journal is None:
            self.rewrite(path)
            return open(path, "ab")
        journal.write(self._line())
        journal.flush()
        return journal

    def rewrite(self, path) -> None:
        """Replace the file at `path` with this checkpoint's one line."""
        # write-temp-then-rename keeps the replacement atomic; a temp file
        # left by a killed run is overwritten by the next rewrite
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(self._line())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "FetchCheckpoint":
        """Read the last line that counts (corpus.read_journal) of a
        checkpoint journal.  A run writes its first line whole, so a file
        with no such line is refused; an unreadable checkpoint raises
        IngestError naming the path."""
        lines, _, _ = read_journal(path)
        if not lines:
            # a file with no such line is decoded whole, to raise its error;
            # it decodes only past a leading byte order mark, which read_text
            # drops but no journal line may start with
            read_json(path, IngestError, "checkpoint")
            raise IngestError(f"checkpoint {path}: its one line starts with "
                              f"a byte order mark")
        try:
            return cls(**json_value(utf8_text(lines[-1])))
        # TypeError: not an object, or unknown or missing keys
        except (ParseError, TypeError) as exc:
            raise IngestError(f"checkpoint {path}: {exc}") from None


def _resume_point(checkpoint_path, out_path, paper_ids: list[str],
                  digest: str) -> tuple[int, int]:
    """(ids committed, corpus bytes they fill) per the checkpoint, (0, 0)
    without one; a checkpoint that does not fit raises IngestError."""
    if not os.path.exists(checkpoint_path):
        return 0, 0
    checkpoint = FetchCheckpoint.load(checkpoint_path)
    last, committed = checkpoint.last_completed_paper_id, checkpoint.corpus_bytes
    if checkpoint.ids_sha256 != digest:
        problem = "was written for another ids list"
    elif last not in paper_ids:
        problem = f"last completed id {last!r} is not among the ids to fetch"
    elif type(committed) is not int or committed < 0:
        problem = f"corpus_bytes {committed!r} is not a non-negative integer"
    elif not os.path.exists(out_path) or os.path.getsize(out_path) < committed:
        problem = f"corpus {out_path} is missing or shorter than {committed} bytes"
    else:
        return paper_ids.index(last) + 1, committed
    raise IngestError(f"checkpoint {checkpoint_path}: {problem}")


@dataclass
class IngestReport:
    requested: int
    written: int
    skipped: int                       # already complete per checkpoint
    failures: dict = field(default_factory=dict)   # id -> error string
    unknown_year_citations: int = 0


def _record_from_fetch(paper_id: str, meta: dict, counts: dict) -> tuple[PaperRecord, int]:
    pub_year = meta.get("year")
    unknown = counts.pop(UNKNOWN_YEAR, 0)
    # counts below the publication year cannot satisfy record invariants;
    # fold them into the unknown bucket rather than dropping silently
    clean = {}
    for year, n in counts.items():
        if isinstance(pub_year, int) and year < pub_year:
            unknown += n
        else:
            clean[year] = n
    raw = {
        "id": paper_id,
        "source": meta.get("source", Source.OTHER.value),
        "venue": meta.get("venue", "") or "",
        "year": pub_year,
        "counts": {str(y): n for y, n in clean.items()},
    }
    return validate_record(raw), unknown


def build_corpus(paper_ids: list[str], out_path, checkpoint_path,
                 client: ApiClient, workers: int = 1) -> IngestReport:
    """Fetch each id once and append valid records to the corpus file.

    The corpus is truncated to the length the checkpoint committed (0
    without one), dropping what a killed run wrote after it, and ids up to
    last_completed_paper_id are skipped; a checkpoint that does not fit
    paper_ids or the corpus raises IngestError before the corpus is opened.
    `workers` threads fetch, at most `workers` ids ahead of the one writer,
    which writes, flushes and checkpoints each id in order, so a restart
    loses at most `workers` fetches and writes no id twice.  The checkpoint
    journal gets one line per id and is rewritten to its last line once
    every id is committed.  Per-id fetch failures go into the report, not
    fatal.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not paper_ids:
        raise EmptyInput("no paper ids given")
    if len(set(paper_ids)) != len(paper_ids):
        seen = set()
        for paper_id in paper_ids:
            if paper_id in seen:
                raise IngestError(
                    f"paper id {paper_id!r} appears twice in the ids")
            seen.add(paper_id)

    digest = ids_sha256(paper_ids)
    skipped, committed = _resume_point(checkpoint_path, out_path, paper_ids,
                                       digest)
    report = IngestReport(requested=len(paper_ids), written=0, skipped=skipped)

    def fetch_one(paper_id: str):
        try:
            meta = client.fetch_paper_meta(paper_id)
            counts = client.fetch_citation_years(paper_id)
            return paper_id, _record_from_fetch(paper_id, meta, counts), None
        except Exception as exc:  # recorded per-id, never fatal
            return paper_id, None, f"{type(exc).__name__}: {exc}"

    todo = iter(paper_ids[skipped:])
    journal = None
    try:
        with open(out_path, "ab") as handle, \
                ThreadPoolExecutor(max_workers=workers) as pool:
            handle.truncate(committed)
            ahead = deque(pool.submit(fetch_one, next_id)
                          for next_id in islice(todo, workers))
            while ahead:
                paper_id, result, error = ahead.popleft().result()
                ahead.extend(pool.submit(fetch_one, next_id)
                             for next_id in islice(todo, 1))
                if error is not None:
                    report.failures[paper_id] = error
                else:
                    record, unknown = result
                    # counted, not handle.tell(): after truncate an
                    # append-mode handle reports the old size until its
                    # first write
                    committed += handle.write(record_to_json(record) + b"\n")
                    handle.flush()
                    report.written += 1
                    report.unknown_year_citations += unknown
                journal = FetchCheckpoint(paper_id, committed, digest).save(
                    checkpoint_path, journal)
    finally:
        if journal is not None:
            journal.close()
    # every id is committed: leave the journal as its last line alone
    FetchCheckpoint(paper_ids[-1], committed, digest).rewrite(checkpoint_path)
    return report


TABLE_META_COLUMNS = ["id", "venue", "source", "pub_year"]


def _table_int(cell: str, row_num: int, col_name: str) -> int:
    """A stripped decimal cell, one leading "+" allowed, as an int; any
    other cell raises NonIntegerCount naming the row and the column.

    str.isdecimal accepts exactly the digits int() reads; isdigit also
    accepts characters such as "²" that int() rejects.
    """
    digits = cell[1:] if cell.startswith("+") else cell
    if not digits.isdecimal():
        raise NonIntegerCount(row_num, col_name, cell)
    return int(digits)


def import_table(path) -> list[PaperRecord]:
    """Import a pre-aggregated count table.

    Expected header: id, venue, source, pub_year, then one 4-digit-year
    column per citation year (a second raises HeaderMismatch).  Blank count
    cells mean zero (entry absent).
    An id on a second row raises DuplicateId naming both rows.
    """
    text = read_text(path, IngestError, "table")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise HeaderMismatch("table is empty") from None
    if header[:4] != TABLE_META_COLUMNS:
        raise HeaderMismatch(
            f"expected leading columns {TABLE_META_COLUMNS}, got {header[:4]}")
    year_cols = []
    for col in header[4:]:
        if not (len(col) == 4 and col.isdecimal()):
            raise HeaderMismatch(f"year column {col!r} is not a 4-digit year")
        year = int(col)
        if year in year_cols:
            raise HeaderMismatch(f"year column {col!r} repeats year {year}")
        year_cols.append(year)
    if not year_cols:
        raise HeaderMismatch("no citation-year columns")

    records = []
    rows_of = {}    # id -> its row
    for row_num, row in enumerate(reader, 2):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise HeaderMismatch(
                f"row {row_num} has {len(row)} cells, expected {len(header)}")
        counts = {}
        for col_name, year, cell in zip(header[4:], year_cols, row[4:]):
            cell = cell.strip()
            if not cell:
                continue
            counts[str(year)] = _table_int(cell, row_num, col_name)
        raw = {
            "id": row[0].strip(),
            "venue": row[1].strip(),
            "source": row[2].strip(),
            "year": _table_int(row[3].strip(), row_num, header[3]),
            "counts": counts,
        }
        record = validate_record(raw, line=row_num)
        if record.id in rows_of:
            raise DuplicateId(f"row {row_num}: duplicate id {record.id!r} "
                              f"(first on row {rows_of[record.id]})")
        rows_of[record.id] = row_num
        records.append(record)
    return records
