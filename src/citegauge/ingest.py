"""Corpus construction: scholarly-graph API client and table importer.

The HTTP client is paginated (offset/limit), rate limited, and resumable
through an atomically-rewritten checkpoint file.  Transport, clock and RNG
are injectable so every retry/rate-limit path is testable under a virtual
clock with no network.
"""

from __future__ import annotations

import csv
import json
import os
import random
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

import requests

from .corpus import PaperRecord, Source, record_to_json, validate_record
from .errors import (
    EmptyInput,
    HeaderMismatch,
    HttpError,
    IngestError,
    NonIntegerCount,
    NotFound,
    RateLimited,
)

API_KEY_ENV = "CITEGAUGE_API_KEY"

DEFAULT_PAGE_SIZE = 100
DEFAULT_RETRY_CAP = 5
DEFAULT_BACKOFF_BASE = 1.0  # seconds

#: Counts bucket for citing papers whose publication year is missing.
UNKNOWN_YEAR = "unknown"


class RateBudget:
    """Sliding-window request budget: at most max_requests in any window.

    Thread safe; one budget may be shared by concurrent fetchers.
    """

    def __init__(self, max_requests: int, window_seconds: float):
        if max_requests < 1 or not window_seconds > 0:
            raise ValueError("budget needs max_requests >= 1 and a positive window")
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
    retry_cap: int = DEFAULT_RETRY_CAP
    backoff_base: float = DEFAULT_BACKOFF_BASE
    rate_budget: RateBudget | None = None


class HttpTransport:
    """Thin wrapper over requests; the only piece that touches the network."""

    def __init__(self, config: ClientConfig):
        self.config = config
        self.session = requests.Session()
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            self.session.headers["x-api-key"] = api_key

    def get_paper(self, paper_id: str) -> dict:
        return self._get(f"/paper/{paper_id}", {"fields": "venue,year,externalIds"})

    def get_citations(self, paper_id: str, offset: int, limit: int) -> dict:
        return self._get(f"/paper/{paper_id}/citations",
                         {"fields": "year", "offset": offset, "limit": limit})

    def _get(self, path: str, params: dict) -> dict:
        resp = self.session.get(self.config.base_url + path, params=params,
                                timeout=30)
        if resp.status_code != 200:
            raise HttpError(resp.status_code, resp.text[:200])
        return resp.json()


class ApiClient:
    """Rate-limited, retrying client over an injectable transport.

    The transport must expose get_paper(id) -> {"id", "venue", "source",
    "year"} and get_citations(id, offset, limit) -> {"total", "data":
    [{"year": int-or-None}, ...]}.  Transports signal throttling by raising
    HttpError(429) and transient failures with ConnectionError.
    """

    def __init__(self, config: ClientConfig | None = None, transport=None,
                 clock=time.monotonic, sleep=time.sleep, rng=None):
        self.config = config or ClientConfig()
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
                if attempt >= self.config.retry_cap:
                    if status == 429:
                        raise RateLimited(
                            f"still throttled after {attempt} retries") from exc
                    raise
                backoff = self.config.backoff_base * (2 ** attempt)
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


@dataclass
class FetchCheckpoint:
    """Resume point for build_corpus; refers to a fully-written record
    boundary (never a torn record)."""

    corpus_path: str
    last_completed_paper_id: str | None = None
    page_offset: int = 0
    timestamp: float = 0.0

    def save(self, path) -> None:
        # write-temp-then-rename keeps the checkpoint atomic
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.__dict__, handle)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "FetchCheckpoint":
        """Read a checkpoint; an unreadable one raises IngestError naming
        the path."""
        with open(path, encoding="utf-8") as handle:
            try:
                return cls(**json.load(handle))
            except json.JSONDecodeError as exc:
                raise IngestError(
                    f"checkpoint {path}: invalid JSON: {exc}") from None
            except TypeError as exc:  # not an object, or unknown/missing keys
                raise IngestError(f"checkpoint {path}: {exc}") from None


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
                 client: ApiClient, workers: int = 1,
                 timestamp=time.time) -> IngestReport:
    """Fetch each id once and append valid records to the corpus file.

    Resumable: with an existing checkpoint, ids up to and including
    last_completed_paper_id are skipped and the corpus file is appended to.
    `workers` threads fetch, at most `workers` ids ahead of the one writer,
    which commits records and checkpoints in id order, so the checkpoint
    always sits on a record boundary and a restart loses at most `workers`
    fetches.  Per-id fetch failures go into the report, not fatal.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not paper_ids:
        raise EmptyInput("no paper ids given")
    if len(set(paper_ids)) != len(paper_ids):
        raise IngestError("duplicate paper ids in input")

    skipped = 0
    remaining = list(paper_ids)
    if os.path.exists(checkpoint_path):
        ckpt = FetchCheckpoint.load(checkpoint_path)
        last = ckpt.last_completed_paper_id
        if last is not None and last in paper_ids:
            cut = paper_ids.index(last) + 1
            skipped = cut
            remaining = paper_ids[cut:]
    else:
        # fresh run starts a fresh corpus
        open(out_path, "w", encoding="utf-8").close()

    report = IngestReport(requested=len(paper_ids), written=0, skipped=skipped)

    def fetch_one(paper_id: str):
        try:
            meta = client.fetch_paper_meta(paper_id)
            counts = client.fetch_citation_years(paper_id)
            return paper_id, _record_from_fetch(paper_id, meta, counts), None
        except Exception as exc:  # recorded per-id, never fatal
            return paper_id, None, f"{type(exc).__name__}: {exc}"

    todo = iter(remaining)
    with open(out_path, "a", encoding="utf-8") as handle, \
            ThreadPoolExecutor(max_workers=workers) as pool:
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
                handle.write(record_to_json(record) + "\n")
                handle.flush()
                report.written += 1
                report.unknown_year_citations += unknown
            FetchCheckpoint(
                corpus_path=str(out_path),
                last_completed_paper_id=paper_id,
                page_offset=0,
                timestamp=timestamp(),
            ).save(checkpoint_path)
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
    column per citation year.  Blank count cells mean zero (entry absent).
    """
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
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
            year_cols.append(int(col))
        if not year_cols:
            raise HeaderMismatch("no citation-year columns")

        records = []
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
            records.append(validate_record(raw, line=row_num))
    return records
