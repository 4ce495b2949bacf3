"""Fast self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each workload runs traced at a tiny size.  The test asserts that every
metric BENCHMARK.json declares is emitted with its unit, that traced
self times are non-negative, and that each span's children plus its
self time add up to its duration.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sft-warm": {"dev_databases": 2, "questions_per_database": 4},
    "sft-cold": {"dev_databases": 4, "questions_per_database": 2},
    # 8 databases keep the 4/4 ring split; 20 timed questions per
    # worker after 10 warm-up ones, each a distinct question.
    "serve-closed": {"questions_per_database": 20, "serve_qps": 40.0},
}


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        entry["name"]: entry["unit"]
        for group in ("end_to_end", "per_layer")
        for entry in spec[group]
    }


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_emits_every_declared_metric(name, monkeypatch, tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    monkeypatch.setitem(workloads.WORKLOADS, name, workload)
    monkeypatch.setattr(workloads, "WARMUP_PER_WORKER", 10)
    # One pass (or one second of serving), traced.
    seconds = workload.pass_s or 1.0
    result = workloads.run(name, 7, seconds, True, time.perf_counter(), tmp_path)

    assert result.setup_s > 0
    assert all(ok for _, ok, _ in result.checks), result.checks
    for metric_name, unit in declared().items():
        if metric_name == "setup_s":
            continue  # run.py takes the median over fresh processes
        assert metric_name in result.metrics, metric_name
        assert result.metrics[metric_name]["unit"] == unit, metric_name

    assert result.traces
    for _, rows in result.traces:
        assert rows
        own = spans.self_times(rows)
        children: dict[int, int] = {}
        for span_name, start, end, parent, *_ in rows:
            assert end >= start, span_name
            if parent is not None:
                children[parent] = children.get(parent, 0) + (end - start)
        for index, (_, start, end, *_) in enumerate(rows):
            assert own[index] >= 0
            assert children.get(index, 0) + own[index] == end - start


def test_percentile_needs_ten_samples_beyond():
    value, n, beyond = spans.percentile(list(range(100)), 95)
    assert (value, n, beyond) == (None, 100, 5)
    value, n, beyond = spans.percentile(list(range(200)), 95)
    assert (value, n, beyond) == (189, 200, 10)


def test_overlapping_children_break_the_span_sum():
    rows = [
        ["parent", 0, 100, None, "r", None],
        ["a", 10, 50, 0, "r", None],
        ["b", 40, 60, 0, "r", None],
    ]
    own = spans.self_times(rows)
    assert own[0] == 50  # union of [10, 60) covers 50 of 100
    assert (rows[1][2] - rows[1][1]) + (rows[2][2] - rows[2][1]) + own[0] != 100


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sft-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
