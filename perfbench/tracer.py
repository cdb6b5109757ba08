"""Spans recorded by the benchmark around its calls into the program.

A span is (id, parent id, name, request id, start, end), times from
``time.perf_counter``.  Spans stay in memory and are written once, when
the run ends.  A disabled tracer records nothing; the per-layer metrics
are read back from the spans of a traced run.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, req=None):
        """Time the block as a span without a parent."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), req=req)

    def add(self, name: str, start: float, end: float, req=None, parent=None):
        """Record a span whose ends were timed elsewhere; returns its id."""
        if not self.enabled:
            return None
        sid = next(self._ids)
        self.spans.append((sid, parent, name, req, start, end))
        return sid

    def seconds(self, name: str) -> list:
        return [end - start for _, _, n, _, start, end in self.spans if n == name]

    def p50_ms(self, name: str) -> float:
        return statistics.median(self.seconds(name)) * 1e3

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "req", "start", "end")
        path.write_text(
            json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n",
            encoding="utf-8",
        )
