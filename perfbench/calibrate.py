"""Host-speed probe: a fixed loop, timed between the benchmark's operations.

The machine the benchmark was built on is a shared VM whose CPU speed
changes by up to 1.5x, in phases from under a second to minutes, with the
same effect on citegauge and on any fixed loop.  A median over one run
cannot remove a phase that lasts the whole run, so the time metrics are
rescaled by this loop: a run reports its mean group time multiplied by
REFERENCE_S / (the loop's mean time in that run), i.e. the time the run
would have taken on a host where the loop takes REFERENCE_S.  The loop
mixes what citegauge spends its time on (bytecode, JSON decoding, dict and
string work, numpy sorting and a BLAS product), allocates nothing that
outlives it and runs with the garbage collector off, so no state citegauge
leaves behind changes its time.  It never imports citegauge.
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np

# About the loop's time on the machine named in trajectory.json; any fixed
# value would do, as every comparison between runs divides it out.
REFERENCE_S = 0.04
PASSES = 4                # about REFERENCE_S of work

_LINES = [json.dumps({"counts": {str(2010 + y): (k * 7 + y * 3) % 40 for y in range(k % 30)},
                      "id": f"c{k:07d}", "source": "ACL", "venue": f"V{k % 50}",
                      "year": 2010 + k % 10}, separators=(",", ":"))
          for k in range(300)]
_MATRIX = np.linspace(0.0, 1.0, 120 * 120).reshape(120, 120)
_SHUFFLED = np.sin(np.arange(40_000.0))


def _loop():
    total = 0
    for i in range(40_000):
        total += (i * i) % 7
    by_venue = {}
    for line in _LINES:
        rec = json.loads(line)
        counts = {int(y): int(c) for y, c in rec["counts"].items()}
        by_venue.setdefault(rec["venue"].lower(), []).append(sum(counts.values()))
    total += sum(len(v) for v in by_venue.values())
    product = _MATRIX
    for _ in range(4):
        product = _MATRIX @ product
    total += int(np.argsort(_SHUFFLED)[0]) + int(product[0, 0] > 0)
    return total


def measure() -> float:
    """Wall seconds of PASSES passes of the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(PASSES):
            _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
