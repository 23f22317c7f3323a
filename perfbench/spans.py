"""In-memory span tracer used only by the benchmark's traced runs.

Spans are recorded from the benchmark's own files: either around a call
the benchmark makes itself (:meth:`Tracer.span`) or around a library
function the benchmark reaches only through another layer, by replacing
the module or class attribute the caller looks up (:meth:`Tracer.wrap`).
Wrapping happens only in a traced run and is undone by
:meth:`Tracer.restore`, so untraced runs execute the library unmodified.

A span's *self time* is its duration minus the part of its interval that
its direct children cover; per layer, self times plus the root's own
remainder ("unattributed") add up to the root duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "self_times", "layer_table", "covered"]


class Tracer:
    """Nested wall-clock spans plus per-layer counters, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; nested ``span`` calls become its children.

        ``root`` is the id of the outermost open span, shared by every span
        of one setup, build or serve phase.
        """
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "root": self._stack[0] if self._stack else len(self.spans),
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = self.clock()
            self._stack.pop()

    def innermost(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def wrap(self, owner, attr: str, name: str, on_result=None, skip_under=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`restore`.

        ``owner`` is a module or class; the wrapper is a plain function,
        so on a class it binds like the method it replaces.
        ``on_result(tracer, result, args, kwargs)`` may record counts.
        A call made while the innermost open span is named ``skip_under``
        runs unspanned and uncounted: it belongs to that span's layer.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if skip_under is not None and tracer.innermost() == skip_under:
                return original(*args, **kwargs)
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write spans and counters as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def layer_table(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s`` summed."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
    return table
