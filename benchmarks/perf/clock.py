"""Host-speed normalisation for timings taken on a shared machine.

On a contended host the same Python code runs up to twice as slow for
tens of seconds at a time, with CPU time rising as much as wall time.
That drift is far wider than any regression bound, and no statistic
over one run removes it.  So a fixed pure-Python *probe* (stdlib only,
the heap/dict/float mix of an event loop) runs between the workload's
operations, about every :data:`PROBE_EVERY_S`, and a pass's timings are
rescaled by ``PROBE_REF_S / mean(probe times in the pass)``: seconds at
the host speed where the probe takes :data:`PROBE_REF_S`.  The probe
shares no code with the program, so a change to the program cannot move
it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: probe duration on an idle host of the machine that recorded
#: ``baseline.json`` (its median there; the minimum was 8.6 ms)
PROBE_REF_S = 0.009
#: target spacing of probes between operations; after a longer
#: operation the missed probes run back to back, at most MAX_BURST
PROBE_EVERY_S = 0.25
MAX_BURST = 16
PROBE_EVENTS = 15000


def probe() -> float:
    """Seconds taken by the fixed probe (collector paused, so it never
    pays for collecting the workload's heap)."""
    heap = [(float(i % 97), i) for i in range(256)]
    heapq.heapify(heap)
    state: dict[int, float] = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(PROBE_EVENTS):
            t, i = heapq.heappop(heap)
            state[i] = state.get(i, 0.0) + t * 0.5
            heapq.heappush(heap, (t + (i % 7 + 1) * 1e-3, i))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Probe samples of one process; see the module docstring."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0

    def probe(self) -> None:
        self.samples.append(probe())
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Between two operations: run the probes that are due."""
        due = int((time.perf_counter() - self._last) / PROBE_EVERY_S)
        for _ in range(min(due, MAX_BURST)):
            self.probe()

    def factor(self, since: int = 0) -> float:
        """Reference-speed seconds per measured second, from the samples
        taken since index ``since``."""
        recent = self.samples[since:]
        return PROBE_REF_S * len(recent) / sum(recent)
