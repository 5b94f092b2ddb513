"""In-memory span recorder for traced benchmark runs.

A span has a name, a start, an end, a parent span and a call count; a
few spans also carry named counts. Spans are kept in columnar arrays so
that a traced run with a few hundred thousand of them stays small, and
are written out as gzipped JSON lines when the run ends. The layer of a
span is the part of its name before the first dot.

Only traced runs import this module: timed runs execute no tracing code.
"""
from __future__ import annotations

import gzip
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, label: str):
        self.label = label
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.calls = array("q")
        self.counts: dict[int, dict] = {}
        self._stack = [-1]

    def _open(self, name: str, calls: int = 1) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.calls.append(calls)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, calls: int = 1):
        """Record one span; the caller may fill the yielded dict with counts."""
        counts: dict = {}
        sid = self._open(name, calls)
        try:
            yield counts
        finally:
            self._close(sid)
            if counts:
                self.counts[sid] = counts

    def call(self, name: str, fn, calls: int = 1, counts: dict | None = None):
        """Call ``fn()`` inside a span; returns (result, seconds)."""
        sid = self._open(name, calls)
        try:
            result = fn()
        finally:
            self._close(sid)
        if counts:
            self.counts[sid] = counts
        return result, self.ends[sid] - self.starts[sid]

    def wrap(self, fn, name: str, count=None):
        """``fn`` with a span around every call; ``count(result)`` sets its call count."""
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                self.calls[sid] = count(result)
            return result

        return traced

    @contextmanager
    def patched(self, patches):
        """Replace ``module.attr`` by a traced wrapper for the duration.

        ``patches`` holds (module, attr, span name, count function or None);
        the wrapper sees the name as the calling module sees it, so calls a
        module makes to another layer's public function get their own span.
        """
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
        try:
            for module, attr, name, count in patches:
                setattr(module, attr, self.wrap(getattr(module, attr), name, count))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.ends) - np.frombuffer(self.starts)

    def total(self, name: str, since: int = 0) -> tuple[float, int, int]:
        """(summed duration, summed call count, span count) of the spans
        called ``name``, from span number ``since`` on."""
        dur = self.durations()
        idx = [i for i in range(since, len(self.names)) if self.names[i] == name]
        return float(dur[idx].sum()), int(np.frombuffer(self.calls, dtype=np.int64)[idx].sum()), len(idx)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus the time of its child spans.

        Spans are recorded from one thread, so children never overlap and
        their durations can be summed.
        """
        dur = self.durations()
        parents = np.frombuffer(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, float] = {}
        for name, t in zip(self.names, own.tolist()):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def write(self, fh) -> None:
        """Write spans as JSON lines, times in seconds from the first span."""
        if not self.names:
            return
        origin = self.starts[0]
        for i, name in enumerate(self.names):
            row = {
                "tracer": self.label,
                "id": i,
                "name": name,
                "parent": self.parents[i] if self.parents[i] >= 0 else None,
                "start": round(self.starts[i] - origin, 9),
                "end": round(self.ends[i] - origin, 9),
                "calls": self.calls[i],
            }
            if i in self.counts:
                row["counts"] = self.counts[i]
            fh.write(json.dumps(row) + "\n")


def write_spans(path, tracers) -> int:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for tracer in tracers:
            tracer.write(fh)
    return sum(len(t.names) for t in tracers)
