"""In-memory span recorder for the traced benchmark run.

A span covers one call from the benchmark into a public sploop function.
It records its name, start, end, parent span, the run id, the memory
tracemalloc counted when it opened and the peak reached while it was open. numpy reports its buffers to
tracemalloc, so the peak covers arrays as well as Python objects. Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # (id, parent, name, start, end, peak_bytes, base_bytes)
        self.spans: list[tuple] = []
        self._open: list[list] = []  # [id, start, peak seen before a child reset it]
        self._next_id = 0
        tracemalloc.start()

    @contextmanager
    def span(self, name: str):
        base, peak = tracemalloc.get_traced_memory()
        parent = self._open[-1] if self._open else None
        if parent is not None:
            # A child resets the peak counter, so the parent keeps what it saw.
            parent[2] = max(parent[2], peak)
        tracemalloc.reset_peak()
        frame = [self._next_id, time.perf_counter(), 0]
        self._next_id += 1
        self._open.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            peak = max(tracemalloc.get_traced_memory()[1], frame[2])
            self._open.pop()
            if parent is not None:
                parent[2] = max(parent[2], peak)
            self.spans.append((frame[0], parent[0] if parent else None, name,
                               frame[1], end, peak, base))

    def close(self) -> None:
        tracemalloc.stop()

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover."""
        own = {sid: end - start for sid, _, _, start, end, *_ in self.spans}
        for sid, parent, _, start, end, *_ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "peak_bytes", "base_bytes")
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
