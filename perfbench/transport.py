"""In-process stand-in for the scholarly graph API, used by ingest-resume.

Faults are a pure function of (seed, request, attempt), not of a shared
random stream, so which requests fail does not depend on how the two
fetcher threads interleave.  A restart fires once, on the first request for
each of a fixed set of ids, and is raised as a BaseException so that
build_corpus cannot record it as a per-id failure: it ends the run as a
process death would, and the benchmark resumes from the checkpoint.
"""

from __future__ import annotations

import threading
import zlib

from citegauge.errors import HttpError

P_CONNECTION = 0.02
P_THROTTLED = 0.02


class Restart(BaseException):
    """Simulated process death."""


class VirtualClock:
    """Clock for the client's rate budget and backoff; sleep() never blocks.

    Concurrent sleepers overlap as they would in real time: a sleep of w
    seconds moves the clock to at least the caller's last reading plus w,
    rather than adding w once per thread.  `requested` sums every sleep
    asked for (rate-budget waits and backoff).
    """

    def __init__(self):
        self.now = 0.0
        self.requested = 0.0
        self._seen = {}
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self._seen[threading.get_ident()] = self.now
            return self.now

    def sleep(self, seconds):
        with self._lock:
            self.requested += seconds
            base = self._seen.get(threading.get_ident(), self.now)
            self.now = max(self.now, base + seconds)


class GraphTransport:
    """get_paper / get_citations over the generated graph, with faults."""

    def __init__(self, graph, seed):
        self.papers = graph["papers"]
        self.restart_ids = set(graph["restart_ids"])
        self.seed = seed
        self.fired = set()
        self.requests = 0
        self.pages = 0
        self.retried = 0
        self._attempts = {}
        self._lock = threading.Lock()

    def _request(self, kind, paper_id, offset):
        key = f"{self.seed}:{kind}:{paper_id}:{offset}"
        with self._lock:
            self.requests += 1
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            restart = paper_id in self.restart_ids and paper_id not in self.fired
            if restart:
                self.fired.add(paper_id)
        if restart:
            raise Restart(paper_id)
        roll = zlib.crc32(f"{key}:{attempt}".encode()) / 2 ** 32
        if roll < P_CONNECTION + P_THROTTLED:
            with self._lock:
                self.retried += 1
            if roll < P_CONNECTION:
                raise ConnectionError("dropped")
            raise HttpError(429, "slow down")

    def get_paper(self, paper_id):
        self._request("paper", paper_id, 0)
        meta = self.papers[paper_id]
        return {"id": paper_id, "venue": meta["venue"], "source": meta["source"],
                "year": meta["year"]}

    def get_citations(self, paper_id, offset, limit):
        self._request("citations", paper_id, offset)
        with self._lock:
            self.pages += 1
        citing = self.papers[paper_id]["citing_years"]
        return {"total": len(citing),
                "data": [{"year": y} for y in citing[offset:offset + limit]]}
