"""Benchmark-side layer tracing: timed wrappers around layer entry points.

The program's own tracing (``repro.obs``) stays off. Instead, a traced
run replaces the public entry points of each layer with thin wrappers
(module or class attributes, restored afterwards) that keep a stack of
open calls. Each call's *self* time (its duration minus the time of
wrapped calls nested in it) is charged to its layer, so inside a phase

    sum(layer self times) + unattributed = phase wall

holds exactly; ``unattributed`` is the self time of the phase itself and
of glue spans such as ``engine.sharded_census`` (pipeline code between
layer calls). Per-item calls (keying, cache lookups, simulations) only
accumulate into per-layer totals; calls worth a span (phases, census
runs, kernel batches, bundle I/O) are also kept as spans and written
out at the end as a ``repro.obs`` run-event log that ``repro-radio trace
summarize`` reads.
"""

from __future__ import annotations

import json
import os
import uuid
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

UNATTRIBUTED = "unattributed"

_MISSING = object()


class Phase:
    """What one timed phase cost, layer by layer."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.wall = 0.0
        self.busy: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.unique_keys = 0

    @property
    def unattributed(self) -> float:
        return self.busy.get(UNATTRIBUTED, 0.0)

    @property
    def attributed_share(self) -> float:
        return 1.0 - self.unattributed / self.wall if self.wall > 0 else 0.0


class LayerTracer:
    """Stack-based self-time accounting plus an in-memory span log."""

    def __init__(self) -> None:
        self._t0 = perf_counter()
        self._stack: List[list] = []  # frames: [child_time, span_id]
        self._span_stack: List[int] = []
        self._next_span = 1
        self._events: List[Dict] = []
        self._patches: List[tuple] = []
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.keys: set = set()
        self.phases: List[Phase] = []

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def _open(self, name: Optional[str], attrs: Optional[Dict]) -> list:
        span_id = None
        if name is not None:
            span_id = self._next_span
            self._next_span += 1
            self._events.append({
                "kind": "span.start", "name": name, "span": span_id,
                "parent": self._span_stack[-1] if self._span_stack else None,
                "t": perf_counter(), "attrs": attrs or {},
            })
            self._span_stack.append(span_id)
        frame = [0.0, span_id, name]  # child time, span id, span name
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str, dur: float) -> None:
        self._stack.pop()
        self.busy[layer] += dur - frame[0]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][0] += dur
        if frame[1] is not None:
            self._span_stack.pop()
            self._events.append({
                "kind": "span.end", "name": frame[2], "span": frame[1],
                "parent": self._span_stack[-1] if self._span_stack else None,
                "t": perf_counter(), "dur": round(dur, 6), "status": "ok",
            })

    @contextmanager
    def phase(self, name: str, **attrs):
        """Time one phase; its own self time is the unattributed rest."""
        busy0 = dict(self.busy)
        calls0 = dict(self.calls)
        counts0 = dict(self.counts)
        self.keys = set()
        phase = Phase(name)
        frame = self._open(name, attrs)
        start = perf_counter()
        try:
            yield phase
        finally:
            phase.wall = perf_counter() - start
            self._close(frame, UNATTRIBUTED, phase.wall)
            phase.busy = {
                k: v - busy0.get(k, 0.0) for k, v in self.busy.items()
                if v - busy0.get(k, 0.0) > 0
            }
            phase.calls = {
                k: v - calls0.get(k, 0) for k, v in self.calls.items()
                if v - calls0.get(k, 0) > 0
            }
            phase.counts = {
                k: v - counts0.get(k, 0) for k, v in self.counts.items()
                if v - counts0.get(k, 0) != 0
            }
            phase.unique_keys = len(self.keys)
            # the phase span carries its per-layer totals as counters
            self._events[-1]["counters"] = {
                **{f"{k}.busy_s": round(v, 6) for k, v in phase.busy.items()},
                **{f"{k}.calls": v for k, v in phase.calls.items()},
                **phase.counts,
            }
            self.phases.append(phase)

    def wrap(self, layer: str, fn: Callable, *, span: Optional[str] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed under ``layer`` (and logged as ``span`` if given);
        ``after(args, kwargs, result)`` may record counts."""
        tracer = self

        def timed(*args, **kwargs):
            frame = tracer._open(span, None)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, layer, perf_counter() - start)
            if after is not None:
                after(args, kwargs, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def wrap_iter(self, layer: str, fn: Callable) -> Callable:
        """A generator function whose every ``next`` is timed under
        ``layer``; consumer code between items is not."""
        tracer = self

        def timed(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                frame = tracer._open(None, None)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame, layer, perf_counter() - start)
                tracer.counts[f"{layer}.items"] += 1
                yield item

        timed.__wrapped__ = fn
        return timed

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, layer: str, *, span: Optional[str] = None,
              after: Optional[Callable] = None, kind: str = "call") -> None:
        """Replace ``owner.attr`` with a timed wrapper until :meth:`restore`.

        ``kind`` is ``"call"`` for functions and methods, ``"iter"`` for
        generator methods, ``"classmethod"`` for class methods.
        """
        raw = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr)
        current = getattr(owner, attr)
        if kind == "iter":
            replacement = self.wrap_iter(layer, current)
        elif kind == "classmethod":
            replacement = staticmethod(
                self.wrap(layer, current, span=span, after=after)
            )
        else:
            replacement = self.wrap(layer, current, span=span, after=after)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # the span log
    # ------------------------------------------------------------------
    def events(self, attrs: Optional[Dict] = None) -> List[Dict]:
        """The spans as ``repro.obs`` run events (schema 1)."""
        run = uuid.uuid4().hex[:12]
        end = perf_counter() - self._t0
        out: List[Dict] = [{"kind": "run.start", "name": "perfbench",
                            "ts": 0.0, "schema": 1, "attrs": attrs or {}}]
        for event in self._events:
            event = dict(event)
            event["ts"] = round(event.pop("t") - self._t0, 6)
            out.append(event)
        spans = sum(1 for e in self._events if e["kind"] == "span.start")
        out.append({"kind": "run.end", "name": "perfbench", "ts": round(end, 6),
                    "dur": round(end, 6), "spans": spans, "events": 0})
        for seq, event in enumerate(out):
            event.update(run=run, seq=seq)
        return out

    def write(self, path: str, attrs: Optional[Dict] = None) -> int:
        """Validate the span log against ``repro.obs.events`` and write it
        as JSONL; returns the number of events."""
        from repro.obs.events import validate_event

        events = self.events(attrs)
        for event in events:
            validate_event(event)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        return len(events)
