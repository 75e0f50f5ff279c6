"""Machine-speed calibration for timings on a shared host.

On a host whose cores are shared with other tenants, the speed of this
process drifts by up to ~1.7x within minutes, far more than the effects the
benchmark must resolve.  Every timed unit is therefore bracketed by a fixed
calibration loop that runs no code of the program, and the unit's wall time
is rescaled to the speed at which that loop takes REFERENCE_S:

    scaled = wall * REFERENCE_S / (mean of the loop times on either side)

A change to the program leaves the loop alone, so it moves scaled times as
it moves wall times; a change of host speed moves both the loop and the
unit, and mostly cancels.
"""

from __future__ import annotations

import json
import time

import numpy as np

# About the loop's median time on a shared 2-core Intel Xeon VM (Python
# 3.11.7, numpy 2.4.6), so scaled times read close to wall times there.
# Any constant would do: only ratios of scaled times matter.
REFERENCE_S = 0.045


_PAYLOAD = [i * 0.1234567 for i in range(3000)]


def _loop() -> int:
    """The program's kinds of work in miniature: list-walking union-find and
    dict updates in the interpreter, many small numpy calls, vector
    arithmetic with strided column writes (as in the basis build), a bulk
    sort, and JSON round trips of float lists (as in sidecars and reports)."""
    n = 2000
    parent = list(range(n))
    acc = 0
    for i in range(1, n):
        j = (i * 7919) % i
        while parent[j] != j:
            j = parent[j]
        parent[i] = j
        acc += j
    table: dict = {}
    for i in range(n):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i * 0.5
    small = np.arange(16.0)
    for _ in range(100):
        acc += int(np.unique(small % 5).size + np.bincount(small.astype(np.int64)).size)
    inv_x = 1.0 / np.linspace(1.0, 50.0, 20_000)
    cols = np.empty((inv_x.size, 48))
    prev, cur = np.zeros_like(inv_x), np.ones_like(inv_x)
    for k in range(cols.shape[1]):
        prev, cur = cur, 0.5 * (prev + cur) * inv_x + 1.0
        cols[:, k] = cur
    bulk = np.unique((np.arange(100_000) * 7919) % 65521)
    for _ in range(3):
        doc = {"a": _PAYLOAD, "b": [str(x) for x in _PAYLOAD[:500]]}
        acc += len(json.loads(json.dumps(doc, sort_keys=True, indent=2))["b"])
    return acc + bulk.size + len(table) + int(cols[-1, -1])


class Clock:
    """Times calls and rescales them to the reference speed."""

    def __init__(self):
        self.loops: list[float] = []
        self._last = self._measure()

    def _measure(self) -> float:
        t0 = time.perf_counter()
        _loop()
        seconds = time.perf_counter() - t0
        self.loops.append(seconds)
        return seconds

    def scale(self, wall: float) -> float:
        """Rescale a wall time that ended just now, using the loop before it
        and a fresh loop after it."""
        before, self._last = self._last, self._measure()
        return wall * REFERENCE_S / (0.5 * (before + self._last))
