"""Staticcheck engine cost: wall-time per rule over the real tree.

Each registered rule runs alone over ``src/repro`` (parsing amortized —
the module set is loaded once and shared), plus the full registry in
one pass.  Keeps the lint gate honest about which checker pays for the
tree walk as rules accumulate: the deep checkers (STAGE001's helper
fixpoint, LOCK001's summary expansion, the CFG-based flow rules) should
stay within an order of magnitude of the single-visitor ARCH rules.
"""

import time
from pathlib import Path

from repro.staticcheck import REGISTRY, check_modules, load_tree

REPO_ROOT = Path(__file__).resolve().parent.parent
TREE = REPO_ROOT / "src" / "repro"
ROUNDS = 5


def test_staticcheck_rule_cost(benchmark, report):
    modules = load_tree(TREE)

    def run():
        rows = []
        total_findings = 0
        for rule_id in REGISTRY.ids():
            start = time.perf_counter()
            for _ in range(ROUNDS):
                result = check_modules(
                    modules, rules=REGISTRY.create([rule_id])
                )
            elapsed_ms = 1000 * (time.perf_counter() - start) / ROUNDS
            found = len(result.findings) + result.suppressed
            total_findings += found
            rows.append(
                {
                    "rule": rule_id,
                    "severity": REGISTRY.get(rule_id).severity,
                    "ms/pass": round(elapsed_ms, 2),
                    "ms/file": round(elapsed_ms / len(modules), 4),
                    "findings": found,
                }
            )
        start = time.perf_counter()
        for _ in range(ROUNDS):
            full = check_modules(modules, rules=REGISTRY.create())
        full_ms = 1000 * (time.perf_counter() - start) / ROUNDS
        rows.append(
            {
                "rule": "ALL",
                "severity": "-",
                "ms/pass": round(full_ms, 2),
                "ms/file": round(full_ms / len(modules), 4),
                "findings": len(full.findings) + full.suppressed,
            }
        )
        # The gate itself: the real tree is clean under the full
        # registry (justified suppressions aside).
        assert not full.findings, [f.render() for f in full.findings]
        report(
            "staticcheck_rule_cost",
            rows,
            f"staticcheck — per-rule wall time over src/repro "
            f"({len(modules)} files, mean of {ROUNDS})",
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by_rule = {row["rule"]: row for row in rows}
    # Every registered rule got a row, plus the whole-registry pass.
    assert set(by_rule) == set(REGISTRY.ids()) | {"ALL"}
    # Running everything at once should not cost much more than the
    # individual passes summed — rules share the parsed module set.
    individual_ms = sum(
        row["ms/pass"] for row in rows if row["rule"] != "ALL"
    )
    assert by_rule["ALL"]["ms/pass"] <= individual_ms * 1.5 + 50.0

