"""Seeded open-loop load generation and deterministic replay.

The workload model is open-loop Poisson: inter-arrival gaps drawn from
``random.Random(seed).expovariate(rate)``, requests cycling through a
dataset's dev examples.  :func:`replay` is the one discrete-event loop
that drives the serving front door, a :class:`ShardRouter`: admit every
arrival that is due, run supervision, let each inline worker execute
one micro-batch, collect outcomes, and advance the clock only once no
live inline worker still holds queued work.  Service time comes from
the :class:`ServiceModel` (flat, per-tier simulated costs charged via
``clock.sleep``), so on a FakeClock with inline workers queue buildup —
and therefore watermark crossings, deadline expiry, and shedding — is
a pure function of ``(workload, config, model)``.  Same seed, same
report, byte for byte, with zero wall-clock sleeps.

With process workers the same loop runs against the system clock:
in-flight work completes on real worker cores, so the loop polls on a
short real interval instead of jumping.  The branch is keyed off the
handles' ``transport`` tag, not the clock, so a FakeClock is never
busy-waited and a real cluster is never starved.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.eval.reporting import format_serving_report, format_table
from repro.serving.outcomes import ServeRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datasets.base import Text2SQLExample
    from repro.serving.metrics import ServerMetrics
    from repro.serving.sharding.router import ShardRouter

#: Real-time poll cadence while process workers hold in-flight work.
PROCESS_POLL_S = 0.002


@dataclass(frozen=True)
class Arrival:
    """One request and its scheduled arrival time (seconds from start)."""

    at: float
    request: ServeRequest


@dataclass(frozen=True)
class ServiceModel:
    """Flat per-tier simulated service costs, charged on the clock.

    The full tier is the paper's expensive path (beam of 4 with
    execution-guided selection); skeleton skips the beam; sentinel is a
    constant-time answer.  The defaults keep full-tier service slower
    than a 20 req/s arrival rate can drain, so overload scenarios are
    easy to provoke in tests.
    """

    full_s: float = 0.08
    skeleton_s: float = 0.02
    sentinel_s: float = 0.002

    def cost(self, tier: str) -> float:
        if tier == "full":
            return self.full_s
        if tier == "skeleton":
            return self.skeleton_s
        if tier == "sentinel":
            return self.sentinel_s
        raise ValueError(f"unknown effort tier {tier!r}")


def poisson_workload(
    examples: "Sequence[Text2SQLExample]",
    n: int,
    rate: float,
    seed: int = 0,
    tenants: tuple[str, ...] = ("default",),
    deadline_s: float | None = None,
) -> list[Arrival]:
    """``n`` arrivals at Poisson rate ``rate``/s cycling through ``examples``."""
    if not examples:
        raise ValueError("cannot build a workload from zero examples")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = random.Random(seed)
    arrivals: list[Arrival] = []
    at = 0.0
    for index in range(n):
        at += rng.expovariate(rate)
        example = examples[index % len(examples)]
        arrivals.append(
            Arrival(
                at=at,
                request=ServeRequest(
                    request_id=f"r{index:05d}",
                    question=example.question,
                    db_id=example.db_id,
                    tenant=tenants[index % len(tenants)],
                    deadline_s=deadline_s,
                ),
            )
        )
    return arrivals


def _inline(handle) -> bool:
    return getattr(handle, "transport", "") == "inline"


def _inline_busy(router: "ShardRouter") -> bool:
    """Does a live inline worker still hold queued work?"""
    return any(
        _inline(handle) and handle.alive() and handle.worker.queue_depth > 0
        for handle in router.handles.values()
    )


def replay(router: "ShardRouter", arrivals: Sequence[Arrival]) -> list:
    """Feed ``arrivals`` through ``router``; returns terminal outcomes.

    Outcomes come back in resolution order: front-door sheds
    interleaved with batch results.  Every request resolves — parked
    work survives crashes via the router's restart redispatch — and the
    loop only exits when neither arrivals nor unresolved work remain.

    Admission interleaves with execution exactly as in a single server:
    each pass runs at most one micro-batch per inline worker, and the
    batch's service time (charged on the clock) lets later arrivals in
    before the next batch is picked.  Between passes with no inline
    work left, the clock jumps straight to the next interesting
    instant — the next arrival or the router's next supervision
    deadline (heartbeat timeout, restart backoff).
    """
    pending = deque(sorted(arrivals, key=lambda arrival: arrival.at))
    outcomes: list = []
    inline = all(_inline(handle) for handle in router.handles.values())
    while pending or router.has_work():
        now = router.clock.now()
        while pending and pending[0].at <= now:
            outcome = router.submit(pending.popleft().request)
            if outcome is not None:
                outcomes.append(outcome)
        router.tick()
        router.pump()
        outcomes.extend(router.poll())
        if _inline_busy(router):
            continue  # the batch charged the clock; admit what arrived
        now = router.clock.now()
        targets = [pending[0].at] if pending else []
        if router.has_work():
            timer = router.next_timer_due()
            if timer is not None:
                targets.append(timer)
        if not inline and router.has_work():
            # Real workers finish on their own cores at their own pace.
            gap = min(targets) - now if targets else PROCESS_POLL_S
            router.clock.sleep(min(max(gap, 0.0), PROCESS_POLL_S))
        elif targets:
            gap = min(targets) - now
            if gap > 0:
                router.clock.sleep(gap)
        elif router.has_work():  # pragma: no cover - no workers left at all
            break
    return outcomes


@dataclass(frozen=True)
class LoadgenResult:
    """Everything one loadgen run produced."""

    report: str
    metrics: "ServerMetrics"
    outcomes: list
    makespan_s: float

    @property
    def throughput_rps(self) -> float:
        return (
            self.metrics.completed / self.makespan_s if self.makespan_s > 0 else 0.0
        )


def run_loadgen(
    router: "ShardRouter",
    arrivals: Sequence[Arrival],
    title: str = "loadgen",
) -> LoadgenResult:
    """Replay ``arrivals`` through the cluster; byte-stable report.

    The report's metrics section is the *merged* cluster snapshot —
    router-side sheds plus every shard's counters, percentiles
    recomputed from pooled samples.
    """
    started = router.clock.now()
    outcomes = replay(router, arrivals)
    makespan = router.clock.now() - started
    metrics = router.metrics()
    summary_rows = [
        {
            "requests": len(arrivals),
            "workers": len(router.handles),
            "completed": metrics.completed,
            "shed": metrics.shed_total,
            "failed": metrics.failed,
            "makespan s": round(makespan, 6),
            "throughput rps": round(
                metrics.completed / makespan if makespan > 0 else 0.0, 4
            ),
        }
    ]
    report = "\n".join(
        [
            format_table(summary_rows, title=f"{title} summary"),
            "",
            format_serving_report(metrics, title=f"{title} metrics"),
        ]
    )
    return LoadgenResult(
        report=report, metrics=metrics, outcomes=outcomes, makespan_s=makespan
    )
