"""Span recording and honest statistics for the repository benchmark.

Spans come from the benchmark's own wrappers around calls into each
layer's public functions (the engine middleware hook, the parser's
``generate``/``build_engine``, the provider router's and the LM's
``score``, the databases' ``execute``/``is_executable``,
``evaluate_parser`` and the shard router's front-door methods); the
program's own ``TraceRecorder`` is not read.  A span holds its name,
start, end, parent and request id.  Spans stay in memory and are
written as JSONL when the run ends (a forked serving worker writes its
own when the router asks it for a metrics snapshot).

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import json
import math
import time
from functools import wraps
from pathlib import Path


class Tracer:
    """In-memory span recorder for one process.

    ``spans`` rows are ``[name, start_ns, end_ns, parent, request,
    value]`` where ``parent`` is the index of the enclosing span in the
    same list (or ``None``) and ``value`` an optional count measured
    at that boundary.  Timestamps are ``perf_counter_ns``, one
    system-wide monotonic clock, so spans from forked workers line up
    with the parent's.  Recording happens only while ``enabled``, so
    wrappers may stay installed during untimed correctness checks.
    """

    def __init__(self, proc: str = "main") -> None:
        self.proc = proc
        self.enabled = False
        self.spans: list[list] = []
        self.request = ""
        self._requests = 0
        self._stack: list[int] = []

    def reset(self, proc: str) -> None:
        """Drop every span and record as process ``proc`` from now on."""
        self.proc = proc
        self.spans = []
        self.request = ""
        self._requests = 0
        self._stack = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.perf_counter_ns(), None, parent, self.request, None]
        )
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, starts_request: bool = False):
        """``fn`` recorded as a span called ``name`` while enabled.

        With ``starts_request`` each call opens a new request id, which
        the spans nested inside it share.
        """

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if starts_request:
                self._requests += 1
                self.request = f"{self.proc}:{self._requests}"
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def install(
        self, obj, attribute: str, name: str, starts_request: bool = False
    ) -> None:
        """Shadow ``obj.attribute`` with a traced instance attribute."""
        setattr(
            obj,
            attribute,
            self.wrap(name, getattr(obj, attribute), starts_request),
        )

    def middleware(self, stage, ctx, call_next) -> None:
        """Engine middleware: one ``engine.<stage>`` span per stage call."""
        if not self.enabled:
            call_next()
            return
        index = self._open(f"engine.{stage.name}")
        try:
            call_next()
        finally:
            self._close(index)
        if stage.name == "candidate_gen":
            self.spans[index][5] = len(ctx.raw_candidates)

    def dump(self, path: Path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            write_spans(handle, self.proc, self.spans)


def write_spans(handle, proc: str, spans: list[list]) -> None:
    """One JSON object per span; ``parent`` indexes the same ``proc``."""
    for index, (name, start, end, parent, request, value) in enumerate(spans):
        record = {
            "proc": proc,
            "index": index,
            "name": name,
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "request": request,
            "value": value,
        }
        handle.write(json.dumps(record) + "\n")


def load_spans(path: Path) -> list[list]:
    """Span rows from a file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [
            [
                record["name"],
                record["start_ns"],
                record["end_ns"],
                record["parent"],
                record["request"],
                record["value"],
            ]
            for record in map(json.loads, handle)
        ]


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the union of its children's intervals.

    Computed from interval coverage, not from summed child durations,
    so that ``children + self == duration`` holds only when children
    are disjoint and nested inside their parent.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, *_) in enumerate(spans):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def percentile(samples, p: float) -> tuple[float | None, int, int]:
    """Nearest-rank ``p``-th percentile as ``(value, n, beyond)``.

    ``beyond`` counts the samples ranked above the percentile.  With
    fewer than ten of them the percentile is unsupported and ``value``
    is ``None``.
    """
    n = len(samples)
    if n == 0:
        return None, 0, 0
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if beyond < 10:
        return None, n, beyond
    return sorted(samples)[rank - 1], n, beyond


def metric(value, unit: str, n: int, **extra) -> dict:
    """One metric record: value, unit and the sample count behind it."""
    record = {"value": value, "unit": unit, "n": n}
    record.update(extra)
    return record


def percentile_metric(samples, p: float, unit: str, scale: float = 1.0) -> dict:
    value, n, beyond = percentile(samples, p)
    return metric(
        None if value is None else value * scale, unit, n, beyond=beyond
    )


def absent(unit: str) -> dict:
    """A layer this workload does not exercise: zero samples."""
    return metric(0.0, unit, 0)


def format_metric(name: str, record: dict) -> str:
    """``name = value unit (n=..)``; unsupported percentiles say so."""
    detail = f"n={record['n']}"
    if "beyond" in record:
        detail += f", {record['beyond']} beyond"
    if record["n"] == 0:
        return f"{name} = n/a, layer not exercised ({record['unit']}, {detail})"
    if record["value"] is None:
        return f"{name} = unsupported ({record['unit']}, {detail})"
    return f"{name} = {record['value']:.6g} {record['unit']} ({detail})"
