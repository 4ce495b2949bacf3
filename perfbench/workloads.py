"""The benchmark's workloads, built only on public entry points.

Each fits one ``CodeSParser`` per run on a Spider-like build.

- ``sft-warm``: closed-loop batch eval (``evaluate_parser(batch=True)``),
  SFT ``codes-15b``, 3 dev databases x 48 questions per pass, so each
  per-database ``StageCache`` is warm after the first few questions
  and candidate_gen and rank dominate.
- ``sft-cold``: the same harness on ``codes-1b`` over 48 dev databases
  x 3 questions per pass, so most questions hit a database for the
  first time and the per-database build stages show.
- ``serve-closed``: closed-loop serving.  A seeded batch of distinct
  questions over 8 dev databases (``codes-1b``) goes through a
  ``ShardRouter`` over 2 forked ``ProcessWorkerHandle`` workers, each
  owning 4 databases, with ``IN_FLIGHT`` requests outstanding per
  worker until the batch is drained.  The only workload that runs
  ``serving`` and ``serving.sharding``.  Its latencies are the
  workers' own (``Completed.latency_s``: queue wait plus service); the
  client round trip on top of them is ``sharding.overhead_ms``.  A
  closed loop has no schedule to fall behind, so its generator
  lateness is how long a freed slot waited for its next request.

All cost is real CPU work.  ``--seconds`` fixes the amount of work: an
sft run makes ``round(seconds / pass_s)`` evaluation passes, each over
a fresh build from the seed, and a serve-closed run sends
``round(seconds * serve_qps)`` questions.  So one seed and one
``--seconds`` always give the same inputs, and a run measures about
``--seconds`` on a 2-core host.

Output checks run after the timed phase and count in neither the
timings nor ``setup_s``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
import resource
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro import (
    CodeSParser,
    build_spider,
    evaluate_parser,
    execution_match_outcome,
    pair_samples,
)
from repro.datasets.spider import SpiderConfig
from repro.engine import STAGE_NAMES
from repro.serving import (
    Completed,
    ProcessWorkerHandle,
    Server,
    ServerConfig,
    ServeRequest,
    ShardingConfig,
    ShardMap,
    ShardRouter,
    default_worker_ids,
)
from repro.serving.sharding import Warm

from spans import (
    Tracer,
    absent,
    load_spans,
    metric,
    percentile_metric,
    self_times,
)

now = time.perf_counter

#: Every CHECK_STRIDE-th batch prediction is re-generated directly.
CHECK_STRIDE = 8
#: Ring seed that splits the 8 serve-closed dev databases 4/4 over the
#: two workers (dev database ids do not depend on the build seed).
RING_SEED = 1
WORKERS = 2
#: Requests outstanding per worker.  Above one micro-batch, so a worker
#: always has queued work while the client collects outcomes; below
#: ``ServerConfig.skeleton_watermark``, so every batch runs at full
#: effort.
IN_FLIGHT = 6
#: Client poll interval while waiting for outcomes.
POLL_S = 0.005
#: Untimed questions per worker sent before the timed batch (see
#: ``warm_up``).
WARMUP_PER_WORKER = 60
#: A serve-closed run fails if its batch is not drained in this time.
DRAIN_LIMIT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    tier: str
    dev_databases: int
    questions_per_database: int
    #: sft: nominal seconds of one evaluation pass on a 2-core host.
    pass_s: float = 0.0
    #: serve: nominal questions per second of both workers on a 2-core
    #: host.
    serve_qps: float = 0.0

    @property
    def serving(self) -> bool:
        return self.serve_qps > 0


WORKLOADS = {
    "sft-warm": Workload("sft-warm", "codes-15b", 3, 48, pass_s=3.5),
    "sft-cold": Workload("sft-cold", "codes-1b", 48, 3, pass_s=2.2),
    "serve-closed": Workload("serve-closed", "codes-1b", 8, 1200, serve_qps=160.0),
}


@dataclass
class Setup:
    parser: CodeSParser
    dataset: object
    #: Set-up seconds per layer (datasets, lm, core, sharding).
    layer_s: dict
    setup_s: float
    #: serve-closed: the warm router and the timed batch, per worker.
    router: ShardRouter | None = None
    streams: dict | None = None


@dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: dict
    checks: list
    attempted: int
    failed: int
    setup_s: float
    notes: dict = field(default_factory=dict)
    #: (proc, spans) per traced process (empty when not traced).
    traces: list = field(default_factory=list)


def build(workload: Workload, seed: int, index: int):
    """The ``index``-th Spider-like build of a run with ``seed``."""
    return build_spider(
        SpiderConfig(
            n_dev_databases=workload.dev_databases,
            dev_per_database=workload.questions_per_database,
            seed=seed * 1000 + index,
        )
    )


def set_up(workload: Workload, seed: int, seconds: float, t0: float) -> Setup:
    """Build, construct the parser, fit; for serve-closed also fork and warm.

    ``t0`` is the moment the process started the workload, before the
    program was imported, so ``setup_s`` covers the import too.
    """
    layer_s = {}
    start = now()
    dataset = build(workload, seed, 0)
    layer_s["datasets.build_s"] = now() - start
    start = now()
    parser = CodeSParser(workload.tier)
    layer_s["lm.init_s"] = now() - start
    start = now()
    parser.fit(pair_samples(dataset))
    layer_s["core.fit_s"] = now() - start
    if not workload.serving:
        return Setup(parser, dataset, layer_s, now() - t0)
    warm, streams = serve_batches(workload, dataset, seed, seconds)
    start = now()
    router = start_cluster(parser, dataset)
    layer_s["sharding.warm_s"] = now() - start
    try:
        warm_up(router, warm)
    except BaseException:
        router.shutdown()
        raise
    return Setup(parser, dataset, layer_s, now() - t0, router, streams)


def peak_rss_mb(children: int = 0) -> float:
    """Own peak RSS plus ``children`` times the largest reaped child's.

    Forked workers count the pages they share with the parent again,
    so for serve-closed this is an upper bound.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


def install_tracing(tracer: Tracer, parser, databases) -> list:
    """Wrap the layers' public calls; returns the engines built later.

    Only engines built while the tracer is enabled are returned, so
    their cache counters cover the traced questions alone.
    """
    engines = []
    build_engine = parser.build_engine

    def traced_build_engine(middleware=(), cache=None):
        engine = build_engine(
            middleware=(*middleware, tracer.middleware), cache=cache
        )
        if tracer.enabled:
            engines.append(engine)
        return engine

    parser.build_engine = traced_build_engine
    tracer.install(parser, "generate", "parser.generate", starts_request=True)
    tracer.install(parser.router, "score", "providers.score")
    tracer.install(parser.lm, "score", "lm.score")
    for database in databases:
        tracer.install(database, "execute", "db.exec")
        tracer.install(database, "is_executable", "db.exec")
    return engines


def digest(predictions) -> str:
    return hashlib.sha256("\n".join(predictions).encode("utf-8")).hexdigest()


# -- layer metrics from spans --------------------------------------------------


def layer_metrics(traces, engine_cache: tuple[int, int]) -> dict:
    """Per-layer self times and call counts per generated question."""
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    candidates = 0
    for _, spans in traces:
        for row, own in zip(spans, self_times(spans)):
            name, parent = row[0], row[3]
            self_ns[name] = self_ns.get(name, 0) + own
            if name == "engine.candidate_gen":
                candidates += row[5] or 0
            if name == "db.exec" and parent is not None and spans[parent][0] == name:
                continue  # is_executable's inner execute is one database call
            calls[name] = calls.get(name, 0) + 1
    questions = calls.get("parser.generate", 0)

    def per_q(value: float) -> float:
        return value / questions if questions else 0.0

    def ms_per_q(name: str) -> dict:
        return metric(per_q(self_ns.get(name, 0) / 1e6), "ms", questions)

    out = {}
    for stage in STAGE_NAMES:
        out[f"engine.{stage}.ms_per_q"] = ms_per_q(f"engine.{stage}")
    hits, misses = engine_cache
    out["engine.cache.hit_ratio"] = metric(
        hits / (hits + misses) if hits + misses else 0.0,
        "fraction",
        hits + misses,
    )
    out["engine.cache.misses_per_q"] = metric(per_q(misses), "count", questions)
    out["core.candidates_per_q"] = metric(per_q(candidates), "count", questions)
    for layer, name in (
        ("providers.score", "providers.score"),
        ("lm.score", "lm.score"),
        ("db.exec", "db.exec"),
    ):
        out[f"{layer}.calls_per_q"] = metric(
            per_q(calls.get(name, 0)), "count", questions
        )
        out[f"{layer}.ms_per_q"] = ms_per_q(name)
    if "eval.evaluate_parser" in self_ns:
        out["eval.ms_per_q"] = ms_per_q("eval.evaluate_parser")
    else:
        out["eval.ms_per_q"] = absent("ms")
    return out


def absent_serving() -> dict:
    """The serving layers' metrics for a workload that does not serve."""
    out = {"sharding.warm_s": absent("s")}
    for name in (
        "serving.queue_ms.p50",
        "serving.queue_ms.p95",
        "serving.service_ms.p50",
        "serving.service_ms.p95",
        "sharding.overhead_ms.p50",
        "sharding.overhead_ms.p95",
        "sharding.router_ms_per_req",
        "loadgen.late_ms.p95",
        "loadgen.late_ms.max",
    ):
        out[name] = absent("ms")
    out["serving.batch_occupancy"] = absent("req/batch")
    out["serving.cache.hit_ratio"] = absent("fraction")
    out["sharding.worker_failures"] = absent("count")
    return out


def setup_layers(layer_s: dict) -> dict:
    return {name: metric(value, "s", 1) for name, value in layer_s.items()}


# -- sft-warm / sft-cold ---------------------------------------------------------


@dataclass
class EvalPass:
    result: object
    wall_s: float
    latencies_s: list


def eval_pass(parser, dataset, tracer: Tracer | None = None) -> EvalPass:
    """One timed ``evaluate_parser(batch=True)`` call over ``dataset``.

    Each ``parser.generate`` call is timed for the per-question latency.
    """
    latencies: list[float] = []
    shadowed = "generate" in vars(parser)
    generate = parser.generate

    def timed_generate(*args, **kwargs):
        start = now()
        try:
            return generate(*args, **kwargs)
        finally:
            latencies.append(now() - start)

    evaluate = evaluate_parser
    if tracer is not None:
        evaluate = tracer.wrap("eval.evaluate_parser", evaluate_parser)
    parser.generate = timed_generate
    try:
        start = now()
        result = evaluate(parser, dataset, batch=True)
        wall_s = now() - start
    finally:
        if shadowed:
            parser.generate = generate
        else:
            del parser.generate
    return EvalPass(result, wall_s, latencies)


def sft_metrics(passes: list[EvalPass], rss_mb: float) -> dict:
    questions = sum(p.result.n_examples for p in passes)
    scored = sum(p.result.n_scored for p in passes)
    hits = sum(round(p.result.ex * p.result.n_scored) for p in passes)
    beam = sum(p.result.tiers.get("beam", 0) for p in passes)
    failures = sum(p.result.n_failures for p in passes)
    latencies = [s for p in passes for s in p.latencies_s]
    return {
        # Over every pass: the host's speed drifts over seconds, and the
        # total averages that drift over the whole timed phase.
        "questions_per_s": metric(
            questions / sum(p.wall_s for p in passes),
            "q/s",
            questions,
            passes=len(passes),
        ),
        "ex": metric(hits / scored if scored else 0.0, "fraction", scored),
        "latency_p50_ms": percentile_metric(latencies, 50, "ms", 1000.0),
        "latency_p95_ms": percentile_metric(latencies, 95, "ms", 1000.0),
        "full_effort_share": metric(beam / questions, "fraction", questions),
        "ok_share": metric(1.0 - failures / questions, "fraction", questions),
        "peak_rss_mb": metric(rss_mb, "MB", 1),
    }


def sft_checks(parser, builds, passes: list[EvalPass]) -> tuple[list, int]:
    """Every example answered once; sampled answers equal a direct generate."""
    answered_ok = True
    mismatches = []
    sampled = 0
    for dataset, run in zip(builds, passes):
        predictions = run.result.predictions
        if len(predictions) != len(dataset.dev) or sum(
            run.result.tiers.values()
        ) != len(dataset.dev):
            answered_ok = False
        for index in range(0, len(dataset.dev), CHECK_STRIDE):
            example = dataset.dev[index]
            sampled += 1
            direct = parser.generate(
                example.question, dataset.database_of(example)
            ).sql
            if index >= len(predictions) or predictions[index] != direct:
                mismatches.append(f"{example.db_id}: {example.question!r}")
    checks = [
        ("every example is answered exactly once", answered_ok, ""),
        (
            f"batch answers equal a direct generate ({sampled} sampled)",
            not mismatches,
            "; ".join(mismatches[:3]),
        ),
    ]
    return checks, len(mismatches) + (0 if answered_ok else 1)


def run_sft(workload: Workload, seed: int, seconds: float, trace: bool, t0: float) -> Result:
    """Set up, run the timed passes, then (traced) repeat them with spans."""
    setup = set_up(workload, seed, seconds, t0)
    parser = setup.parser
    n_passes = max(1, round(seconds / workload.pass_s))
    builds = [setup.dataset]
    passes = []
    rss_mb = 0.0
    for index in range(n_passes):
        if index:
            builds.append(build(workload, seed, index))  # untimed
        passes.append(eval_pass(parser, builds[index]))
        if not index:
            # Set-up plus one pass: later passes' builds are kept for
            # the checks, so a later reading would grow with --seconds.
            rss_mb = peak_rss_mb()
    metrics = sft_metrics(passes, rss_mb)
    predictions = [p for run in passes for p in run.result.predictions]
    notes = {"predictions_sha256": digest(predictions), "passes": n_passes}
    attempted = sum(run.result.n_examples for run in passes)
    failed = sum(run.result.n_failures for run in passes)
    traces = []
    traced_passes = []
    if trace:
        tracer = Tracer()
        engines = install_tracing(
            tracer,
            parser,
            [db for dataset in builds for db in dataset.databases.values()],
        )
        # Alternate which of the untraced and traced pass over a build
        # comes second, so the process-level warm-up of revisiting a
        # build does not bias the overhead one way.
        untraced_walls = []
        for index, dataset in enumerate(builds):
            order = (False, True) if index % 2 else (True, False)
            for traced in order:
                tracer.enabled = traced
                run = eval_pass(parser, dataset, tracer if traced else None)
                if traced:
                    traced_passes.append(run)
                else:
                    untraced_walls.append(run.wall_s)
        tracer.enabled = False
        hits = sum(engine.cache.hits for engine in engines)
        misses = sum(engine.cache.misses for engine in engines)
        traces = [(tracer.proc, tracer.spans)]
        metrics.update(layer_metrics(traces, (hits, misses)))
        metrics.update(absent_serving())
        metrics.update(setup_layers(setup.layer_s))
        overhead = sum(p.wall_s for p in traced_passes) / sum(untraced_walls) - 1.0
        metrics["trace.overhead"] = metric(overhead, "fraction", len(builds))
        attempted += sum(run.result.n_examples for run in traced_passes)
        failed += sum(run.result.n_failures for run in traced_passes)
    checks, mismatched = sft_checks(parser, builds, passes)
    failed += mismatched
    if trace:
        traced_predictions = [
            p for run in traced_passes for p in run.result.predictions
        ]
        checks.append(
            (
                "tracing changes no prediction",
                digest(traced_predictions) == notes["predictions_sha256"],
                "",
            )
        )
    return Result(metrics, checks, attempted, failed, setup.setup_s, notes, traces)


# -- serve-closed ----------------------------------------------------------------


def start_cluster(parser, dataset, tracer: Tracer | None = None, span_dir=None):
    """A warm ``ShardRouter`` over ``WORKERS`` forked workers.

    With a ``tracer`` (already installed on the parser before the fork),
    each worker records its own spans.  Whenever the router asks it for
    a metrics snapshot and spans were recorded since the previous one,
    it writes them to ``span_dir/<worker>.jsonl`` and starts afresh.
    So after a snapshot taken right after a drained batch, the file
    holds that batch's spans; the shutdown snapshot, with nothing new
    recorded, leaves it alone.
    """
    db_ids = sorted({example.db_id for example in dataset.dev})
    config = ShardingConfig(seed=RING_SEED)
    shard_map = ShardMap(
        default_worker_ids(WORKERS),
        virtual_nodes=config.virtual_nodes,
        seed=RING_SEED,
    )
    assignments = shard_map.assignments(db_ids)
    if len({len(shard) for shard in assignments.values()}) != 1:
        raise RuntimeError(f"ring seed {RING_SEED} splits unevenly: {assignments}")
    databases = {db_id: dataset.databases[db_id] for db_id in db_ids}

    def server_factory(worker_id: str):
        # Runs inside the forked worker.
        server = Server(parser, databases, config=ServerConfig())
        if tracer is not None:
            tracer.reset(worker_id)
            tracer.enabled = True
            snapshot = server.metrics

            def snapshot_and_dump():
                if tracer.spans:
                    tracer.dump(Path(span_dir) / f"{worker_id}.jsonl")
                    tracer.reset(worker_id)
                return snapshot()

            server.metrics = snapshot_and_dump
        return server

    router = ShardRouter(
        shard_map,
        lambda worker_id: ProcessWorkerHandle(
            worker_id, partial(server_factory, worker_id)
        ),
        db_ids,
        config=config,
    )
    try:
        for worker_id, shard in assignments.items():
            router.handles[worker_id].send(Warm(db_ids=shard))
        # Readiness barrier: workers answer commands in order.
        router.metrics()
    except BaseException:
        router.shutdown()
        raise
    return router


def serve_batches(workload: Workload, dataset, seed: int, seconds: float):
    """The warm-up and timed batches: worker id -> [(request, example)].

    Every request asks a distinct (database, question) pair, so none is
    answered from a per-question cache the warm-up or an earlier
    request filled, and each worker gets the same number.
    """
    db_ids = sorted({example.db_id for example in dataset.dev})
    shard_map = ShardMap(
        default_worker_ids(WORKERS),
        virtual_nodes=ShardingConfig().virtual_nodes,
        seed=RING_SEED,
    )
    pools: dict[str, list] = {worker: [] for worker in shard_map.workers}
    seen = set()
    for example in dataset.dev:
        key = (example.db_id, example.question)
        if key not in seen:
            seen.add(key)
            pools[shard_map.owner(example.db_id)].append(example)
    rng = random.Random(f"perfbench:serve-closed:{seed}")
    per_worker = max(1, round(seconds * workload.serve_qps / WORKERS))
    warm, timed = {}, {}
    for worker in sorted(pools):
        pool = pools[worker]
        rng.shuffle(pool)
        if WARMUP_PER_WORKER + per_worker > len(pool):
            raise ValueError(
                f"{WARMUP_PER_WORKER + per_worker} distinct questions needed "
                f"on {worker}, the build has {len(pool)} over {len(db_ids)} "
                "databases: raise questions_per_database"
            )

        def requests(prefix: str, examples: list) -> list:
            return [
                (
                    ServeRequest(
                        request_id=f"{prefix}-{worker}-{index:05d}",
                        question=example.question,
                        db_id=example.db_id,
                    ),
                    example,
                )
                for index, example in enumerate(examples)
            ]

        timed[worker] = requests("r", pool[:per_worker])
        warm[worker] = requests("w", pool[per_worker : per_worker + WARMUP_PER_WORKER])
    return warm, timed


def warm_up(router, warm: dict) -> None:
    """Untimed closed-loop traffic before the timed batch.

    A freshly forked worker is slow for its first questions: it fills
    process-level caches, builds its per-database resources and copies
    the pages it shares with the parent.  A server pays that once per
    process, so it counts as set-up.
    """
    closed_loop(router, warm)


@dataclass
class ServeLog:
    #: (request, example, submitted_s) in send order.
    sent: list
    #: request_id -> [(outcome, received_s), ...]
    received: dict
    #: Seconds each freed slot waited for its next request.
    late_s: list
    makespan_s: float


def closed_loop(router, streams: dict, tracer: Tracer | None = None) -> ServeLog:
    """Keep ``IN_FLIGHT`` requests outstanding per worker until drained.

    ``streams`` maps each worker to the requests it owns, in send
    order.  A slot frees when the client receives its outcome; the
    next request of that worker is submitted on the same pass.
    """
    if tracer is not None:
        for method in ("submit", "tick", "pump", "poll"):
            tracer.install(router, method, f"router.{method}")
    queues = {worker: deque(stream) for worker, stream in streams.items()}
    owner = {
        request.request_id: worker
        for worker, stream in streams.items()
        for request, _ in stream
    }
    sent: list = []
    received: dict[str, list] = {}
    late_s: list[float] = []
    in_flight = 0
    freed = [(worker, 0.0) for worker in sorted(queues) for _ in range(IN_FLIGHT)]
    start = now()
    while freed or in_flight:
        outcomes = []
        for worker, freed_at in freed:
            if not queues[worker]:
                continue
            request, example = queues[worker].popleft()
            if tracer is not None:
                tracer.request = request.request_id
            submitted = now() - start
            late_s.append(submitted - freed_at)
            sent.append((request, example, submitted))
            in_flight += 1
            outcome = router.submit(request)
            if outcome is not None:
                outcomes.append(outcome)  # shed at the front door
        router.tick()
        router.pump()
        outcomes += router.poll()
        at = now() - start
        freed = []
        for outcome in outcomes:
            request_id = outcome.request.request_id
            received.setdefault(request_id, []).append((outcome, at))
            if len(received[request_id]) == 1:
                in_flight -= 1
                freed.append((owner[request_id], at))
        if at > DRAIN_LIMIT_S:
            raise RuntimeError(f"batch not drained after {DRAIN_LIMIT_S}s")
        if not outcomes:
            time.sleep(POLL_S)
    last = max((at for outs in received.values() for _, at in outs), default=0.0)
    return ServeLog(sent, received, late_s, last)


def first_outcomes(log: ServeLog) -> list:
    """(request, example, submitted, outcome, received) per resolved request."""
    rows = []
    for request, example, submitted in log.sent:
        outcomes = log.received.get(request.request_id)
        if outcomes:
            outcome, received = outcomes[0]
            rows.append((request, example, submitted, outcome, received))
    return rows


def completed_rows(log: ServeLog) -> list:
    return [row for row in first_outcomes(log) if isinstance(row[3], Completed)]


def serve_metrics(log: ServeLog, dataset, rss_mb: float) -> dict:
    sent = len(log.sent)
    rows = first_outcomes(log)
    completed = completed_rows(log)
    # A request that does not complete misses any latency limit.
    latencies = [
        outcome.latency_s if isinstance(outcome, Completed) else float("inf")
        for _, _, _, outcome, _ in rows
    ]
    beam = sum(1 for row in completed if row[3].tier == "beam")
    late_ms = [late * 1000 for late in log.late_s]
    hits = sum(
        execution_match_outcome(
            dataset.databases[example.db_id], outcome.sql, example.sql
        ).matched
        for _, example, _, outcome, _ in completed
    )
    metrics = {
        "questions_per_s": metric(
            len(completed) / log.makespan_s, "q/s", len(completed)
        ),
        "ex": metric(hits / sent, "fraction", sent),
        # Worker-side: from dispatch into the worker's queue to its answer.
        "latency_p50_ms": percentile_metric(latencies, 50, "ms", 1000.0),
        "latency_p95_ms": percentile_metric(latencies, 95, "ms", 1000.0),
        "full_effort_share": metric(beam / sent, "fraction", sent),
        "peak_rss_mb": metric(rss_mb, "MB", 1 + WORKERS),
        # How long a freed slot waited for its next request, printed
        # next to the latencies it qualifies.
        "loadgen.late_ms.p95": percentile_metric(late_ms, 95, "ms"),
        "loadgen.late_ms.max": metric(max(late_ms), "ms", len(late_ms)),
    }
    for name in ("latency_p50_ms", "latency_p95_ms"):
        if metrics[name]["value"] == float("inf"):
            metrics[name]["value"] = None  # the percentile is a failed request
    return metrics


#: What the forked check processes inherit: (parser, dataset).
_DIRECT: tuple = ()


def _direct_sql(question_db: tuple[str, str]) -> str:
    parser, dataset = _DIRECT
    question, db_id = question_db
    return parser.generate(question, dataset.databases[db_id]).sql


def direct_sql(parser, dataset, questions: list) -> list[str]:
    """``parser.generate`` on each (question, db_id), over forked processes.

    Re-generating every answer on one core would take about twice as
    long as the two workers took to serve them.
    """
    global _DIRECT
    _DIRECT = (parser, dataset)
    pool = multiprocessing.get_context("fork").Pool(WORKERS)
    try:
        return pool.map(_direct_sql, questions, chunksize=64)
    finally:
        pool.close()
        pool.join()
        _DIRECT = ()


def serve_checks(log: ServeLog, parser, dataset) -> tuple[list, int]:
    """Each request resolves exactly once; beam answers equal direct generate.

    Returns the checks and the number of failed requests: not resolved,
    not completed, or a beam answer that differs.
    """
    sent_ids = [request.request_id for request, _, _ in log.sent]
    duplicates = [rid for rid, outs in log.received.items() if len(outs) != 1]
    missing = set(sent_ids) - set(log.received)
    unknown = set(log.received) - set(sent_ids)
    once = (
        not duplicates
        and not missing
        and not unknown
        and len(set(sent_ids)) == len(sent_ids)
    )
    beam = [row for row in completed_rows(log) if row[3].tier == "beam"]
    expected = direct_sql(
        parser, dataset, [(row[0].question, row[0].db_id) for row in beam]
    )
    mismatches = [
        row[0].request_id
        for row, direct in zip(beam, expected)
        if row[3].sql != direct
    ]
    checks = [
        (
            f"every request sent resolves exactly once ({len(sent_ids)} sent)",
            once,
            f"duplicates={duplicates[:3]} missing={sorted(missing)[:3]} "
            f"unknown={sorted(unknown)[:3]}",
        ),
        (
            f"beam answers equal a direct generate ({len(beam)} checked)",
            not mismatches,
            f"mismatched={mismatches[:3]}",
        ),
    ]
    not_completed = len(sent_ids) - len(completed_rows(log))
    return checks, not_completed + len(mismatches)


def window_metrics(before, after) -> dict:
    """Batch and cache counters of the window: ``after`` minus ``before``."""
    batches = after.batches - before.batches
    items = (
        after.mean_batch_occupancy * after.batches
        - before.mean_batch_occupancy * before.batches
    )
    return {
        "batches": batches,
        "occupancy": items / batches if batches else 0.0,
        "cache": (
            after.cache_hits - before.cache_hits,
            after.cache_misses - before.cache_misses,
        ),
    }


def serving_layers(log: ServeLog, window: dict, router_spans, failures) -> dict:
    completed = completed_rows(log)
    queue_ms = [row[3].queue_s * 1000 for row in completed]
    service_ms = [(row[3].latency_s - row[3].queue_s) * 1000 for row in completed]
    overhead_ms = [
        ((received - submitted) - outcome.latency_s) * 1000
        for _, _, submitted, outcome, received in completed
    ]
    hits, misses = window["cache"]
    router_ns = sum(
        row[2] - row[1] for row in router_spans if row[0].startswith("router.")
    )
    sent = len(log.sent)
    return {
        "serving.queue_ms.p50": percentile_metric(queue_ms, 50, "ms"),
        "serving.queue_ms.p95": percentile_metric(queue_ms, 95, "ms"),
        "serving.service_ms.p50": percentile_metric(service_ms, 50, "ms"),
        "serving.service_ms.p95": percentile_metric(service_ms, 95, "ms"),
        "serving.batch_occupancy": metric(
            window["occupancy"], "req/batch", window["batches"]
        ),
        "serving.cache.hit_ratio": metric(
            hits / (hits + misses) if hits + misses else 0.0,
            "fraction",
            hits + misses,
        ),
        "sharding.overhead_ms.p50": percentile_metric(overhead_ms, 50, "ms"),
        "sharding.overhead_ms.p95": percentile_metric(overhead_ms, 95, "ms"),
        "sharding.router_ms_per_req": metric(router_ns / 1e6 / sent, "ms", sent),
        "sharding.worker_failures": metric(
            sum(1 for f in failures if f["kind"] in ("crash", "worker")),
            "count",
            WORKERS,
        ),
    }


def run_serve(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    t0: float,
    out_dir: Path,
) -> Result:
    setup = set_up(workload, seed, seconds, t0)
    parser, dataset = setup.parser, setup.dataset
    try:
        log = closed_loop(setup.router, setup.streams)
    finally:
        setup.router.shutdown()
    metrics = serve_metrics(log, dataset, peak_rss_mb(children=WORKERS))
    logs = [log]
    traces = []
    if trace:
        tracer = Tracer()
        span_dir = out_dir / f"spans-{workload.name}-{seed}"
        span_dir.mkdir(parents=True, exist_ok=True)
        # The engines live in the workers; their cache counters come
        # from the merged router metrics.
        install_tracing(tracer, parser, dataset.databases.values())
        warm, streams = serve_batches(workload, dataset, seed, seconds)
        router = start_cluster(parser, dataset, tracer, span_dir)
        try:
            warm_up(router, warm)
            before = router.metrics()  # workers drop their warm-up spans
            tracer.enabled = True
            traced_log = closed_loop(router, streams, tracer)
            tracer.enabled = False
            after = router.metrics()  # workers write the batch's spans
            failures = list(router.failures)
        finally:
            tracer.enabled = False
            router.shutdown()
        logs.append(traced_log)
        worker_traces = []
        for path in sorted(span_dir.glob("*.jsonl")):
            worker_traces.append((path.stem, load_spans(path)))
            path.unlink()
        span_dir.rmdir()
        traces = [(tracer.proc, tracer.spans), *worker_traces]
        window = window_metrics(before, after)
        metrics.update(layer_metrics(worker_traces, window["cache"]))
        metrics.update(serving_layers(traced_log, window, tracer.spans, failures))
        metrics.update(setup_layers(setup.layer_s))
        metrics["trace.overhead"] = metric(
            traced_log.makespan_s / log.makespan_s - 1.0,
            "fraction",
            len(traced_log.sent),
        )
    checks = []
    failed = 0
    for phase, phase_log in zip(("untraced", "traced"), logs):
        phase_checks, phase_failed = serve_checks(phase_log, parser, dataset)
        checks += [(f"{phase}: {text}", ok, detail) for text, ok, detail in phase_checks]
        if phase == "untraced":
            sent = len(phase_log.sent)
            metrics["ok_share"] = metric(1.0 - phase_failed / sent, "fraction", sent)
        failed += phase_failed
    attempted = sum(len(phase_log.sent) for phase_log in logs)
    notes = {"in_flight_per_worker": IN_FLIGHT, "requests": len(log.sent)}
    return Result(metrics, checks, attempted, failed, setup.setup_s, notes, traces)


def run(
    name: str, seed: int, seconds: float, trace: bool, t0: float, out_dir: Path
) -> Result:
    workload = WORKLOADS[name]
    if workload.serving:
        return run_serve(workload, seed, seconds, trace, t0, out_dir)
    return run_sft(workload, seed, seconds, trace, t0)


def measure_setup(name: str, seed: int, seconds: float, t0: float) -> float:
    """Set-up only, for the extra fresh-process ``setup_s`` samples."""
    setup = set_up(WORKLOADS[name], seed, seconds, t0)
    if setup.router is not None:
        setup.router.shutdown()
    return setup.setup_s
