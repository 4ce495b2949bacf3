"""The repository benchmark: one command, three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sft-warm --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` for why each is included):
``sft-warm``, ``sft-cold`` and ``serve-closed``.  With ``--trace 0`` the
run measures the end-to-end metrics declared in ``BENCHMARK.json``;
with ``--trace 1`` it also repeats the timed phase with benchmark-owned
spans around every layer and reports the per-layer metrics and the
tracing overhead.  Every metric is printed by name, unit and sample
count; a percentile with fewer than ten samples beyond it is printed
as unsupported.  Output checks run after the timed phase, and a failed
check fails the run.

``setup_s`` is the median over three fresh processes: this one, and
two more started with ``--setup-only`` after the timed phase, because
the LM registry caches the pre-trained LM per process.

Each run appends its full record (every metric with unit and sample
count, the checks, seed, git commit, nproc and Python version) to
``perfbench/out/BENCH_<date>.jsonl``; a traced run also writes its
spans there as JSONL (that directory is not committed).  Committed
records live in ``perfbench/records/``; a change that claims a speedup
appends the records of its runs there.  The last line of standard output
is the result as one JSON object.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120
WORKLOAD_NAMES = ("sft-warm", "sft-cold", "serve-closed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="measure set-up in this fresh process and print it (internal)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics() -> dict:
    """name -> unit for each group of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        group: {entry["name"]: entry["unit"] for entry in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def fresh_setup_s(args) -> float:
    """``setup_s`` measured in a new interpreter."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--setup-only",
    ]
    done = subprocess.run(
        command,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spans import format_metric, write_spans
    import workloads

    if args.setup_only:
        setup_s = workloads.measure_setup(
            args.workload, args.seed, args.seconds, PROCESS_T0
        )
        print(json.dumps({"setup_s": setup_s}))
        return 0

    declared = declared_metrics()
    OUT_DIR.mkdir(exist_ok=True)
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), PROCESS_T0, OUT_DIR
    )
    setups = [result.setup_s] + [fresh_setup_s(args) for _ in range(SETUP_RUNS - 1)]
    metrics = dict(result.metrics)
    metrics["setup_s"] = {
        "value": statistics.median(setups),
        "unit": "s",
        "n": len(setups),
        "samples": setups,
    }

    group = "per_layer" if args.trace else "end_to_end"
    wanted = dict(declared["end_to_end"])
    if args.trace:
        wanted.update(declared["per_layer"])
    problems = [
        f"{name}: emitted {metrics.get(name, {}).get('unit')!r}, declared {unit!r}"
        for name, unit in wanted.items()
        if metrics.get(name, {}).get("unit") != unit
    ]
    correct = all(ok for _, ok, _ in result.checks)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    # Generator lateness is printed next to the latencies it qualifies.
    lateness = [name for name in declared["per_layer"] if name.startswith("loadgen.")]
    order = [*declared["end_to_end"], *declared["per_layer"]]
    for name in reversed(lateness):
        order.remove(name)
        order.insert(order.index("latency_p95_ms") + 1, name)
    for name in order:
        if name in metrics:
            print("  " + format_metric(name, metrics[name]))
        if name == "ex" and "predictions_sha256" in result.notes:
            print(f"    predictions sha256 {result.notes['predictions_sha256']}")
    for key, value in result.notes.items():
        if key != "predictions_sha256":
            print(f"  {key}: {value}")
    for text, ok, detail in result.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {text}" + ("" if ok else f"  {detail}"))

    stamp = datetime.datetime.now(datetime.timezone.utc)
    record = {
        "date": stamp.isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "notes": result.notes,
        "checks": [
            {"check": text, "ok": ok, "detail": detail}
            for text, ok, detail in result.checks
        ],
        "metrics": metrics,
    }
    record_path = OUT_DIR / f"BENCH_{stamp.date().isoformat()}.jsonl"
    with open(record_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"  record appended to {record_path.relative_to(ROOT)}")
    if result.traces:
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as handle:
            for proc, spans in result.traces:
                write_spans(handle, proc, spans)
        print(f"  spans written to {trace_path.relative_to(ROOT)}")

    if problems:
        print("perfbench: declared metrics missing: " + "; ".join(problems), file=sys.stderr)
        return 2
    shown = {name: metrics[name] for name in declared[group]}
    unsupported = [name for name, record in shown.items() if record["value"] is None]
    if unsupported:
        print(
            "perfbench: no value for " + ", ".join(unsupported) + ": fewer "
            "than ten samples beyond the percentile, or it is a failed request",
            file=sys.stderr,
        )
        return 3
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": record["value"], "unit": record["unit"]}
                    for name, record in shown.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
