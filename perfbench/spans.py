"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start_ns, end_ns, parent)``, where ``parent`` is the index
of the enclosing span (-1 for the root). All spans of one process share the
tracer's run id. Spans stay in memory and are written out once, after the
measured work has ended.

The tracer records spans by replacing module attributes with wrappers, so it
sees exactly the calls the program makes through those attributes. A span's
self time is its duration minus the durations of its direct children; the
program is single-threaded here (``--jobs 1``), so spans nest and the self
times of all spans add up to the root span exactly (integer nanoseconds).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)  # reserved so a parent precedes its children
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        index, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``on_result`` sees each return value after the span has closed, so
        the work it does is charged to the caller's span, not this one.
        """
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        """Put back every attribute ``wrap`` replaced, newest first."""
        while self._wrapped:
            owner, attr, fn = self._wrapped.pop()
            setattr(owner, attr, fn)

    def closed_spans(self) -> list[tuple[str, int, int, int]]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("spans are still open")
        return self.spans  # type: ignore[return-value]

    def write(self, path: Path) -> None:
        spans = self.closed_spans()
        names = sorted({s[0] for s in spans})
        code = {name: i for i, name in enumerate(names)}
        doc = {
            "run_id": self.run_id,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "names": names,
            "spans": [[code[n], start, end, parent] for n, start, end, parent in spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), "utf-8")


def self_times(spans: list[tuple[str, int, int, int]]) -> list[int]:
    """Each span's duration minus the durations of its direct children (ns)."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def by_name(spans: list[tuple[str, int, int, int]]) -> dict[str, dict]:
    """Calls, inclusive seconds, self seconds and per-call seconds per span name."""
    out: dict[str, dict] = {}
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += own
        row["durations_ns"].append(end - start)
    return out
