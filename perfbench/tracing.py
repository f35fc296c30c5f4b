"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a start and end (``perf_counter`` seconds), the index
of its parent span and the run id. Spans stay in memory until the run
ends, when ``run.py`` writes them to the output directory.

A layer's self time is its span's duration minus the time covered by its
children, so the self times of every span under a root add up to the
root's duration.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Records nested spans when ``enabled``; otherwise ``span`` is a no-op."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def descendants(self, root: int) -> list[int]:
        """Indices of ``root`` and every span below it."""
        out, seen = [root], {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in seen:
                out.append(i)
                seen.add(i)
        return out

    def self_times(self, root: int) -> list[tuple[str, float]]:
        """(name, self time in seconds) of ``root`` and each span below it."""
        ids = self.descendants(root)
        self_s = {i: self.spans[i].end - self.spans[i].start for i in ids}
        for i in ids[1:]:
            s = self.spans[i]
            self_s[s.parent] -= s.end - s.start
        return [(self.spans[i].name, self_s[i]) for i in ids]

    def self_time_by_name(self, roots) -> dict[str, float]:
        """Summed self time in seconds per span name under ``roots``."""
        out: dict[str, float] = {}
        for root in roots:
            for name, t in self.self_times(root):
                out[name] = out.get(name, 0.0) + t
        return out

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]
