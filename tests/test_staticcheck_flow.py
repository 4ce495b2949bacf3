"""The flow-sensitive staticcheck layer: CFG, dataflow, RES001/EXC001/
DEAD001, and the golden JSON for the flow rules."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import (
    REGISTRY,
    build_cfg,
    check_modules,
    check_source,
    liveness,
    parse_module,
    reaching_definitions,
    render_json,
)
from repro.staticcheck.cfg import NORMAL

pytestmark = pytest.mark.staticcheck

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC_REPRO = REPO_ROOT / "src" / "repro"


def _rules(source: str, path: str = "mod.py", rule_ids=None) -> list[str]:
    return [f.rule for f in check_source(source, path=path, rule_ids=rule_ids)]


def _messages(source: str, path: str = "mod.py", rule_ids=None) -> list[str]:
    return [f.message for f in check_source(source, path=path, rule_ids=rule_ids)]


def _fn_cfg(source: str):
    tree = ast.parse(textwrap.dedent(source))
    fn = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    )
    return build_cfg(fn)


# ---------------------------------------------------------------------------
# CFG construction


class TestCFG:
    def test_linear_code_is_one_block(self):
        cfg = _fn_cfg(
            """
            def f():
                a = 1
                b = a
            """
        )
        assert len(cfg.blocks[cfg.entry].elements) == 2
        assert cfg.successors(cfg.entry) == [cfg.exit]

    def test_if_branches_rejoin(self):
        cfg = _fn_cfg(
            """
            def f(flag):
                if flag:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        # the entry block (header) has two normal successors.
        assert len(cfg.successors(cfg.entry, kinds=(NORMAL,))) == 2
        # every block except the one after a terminator is reachable.
        assert cfg.reachable() >= {cfg.entry, cfg.exit}

    def test_statement_after_return_has_no_predecessors(self):
        cfg = _fn_cfg(
            """
            def f():
                return 1
                x = 2
            """
        )
        orphans = [
            block.index
            for block in cfg.blocks
            if block.elements and not cfg.predecessors(block.index)
            and block.index != cfg.entry
        ]
        assert len(orphans) == 1
        assert orphans[0] not in cfg.reachable()

    def test_while_true_without_break_makes_after_unreachable(self):
        cfg = _fn_cfg(
            """
            def f():
                while True:
                    step()
                after = 1
            """
        )
        reachable = cfg.reachable()
        after_blocks = [
            block.index
            for block in cfg.blocks
            if any(
                isinstance(el, ast.Assign)
                and isinstance(el.targets[0], ast.Name)
                and el.targets[0].id == "after"
                for el in block.elements
            )
        ]
        assert after_blocks and after_blocks[0] not in reachable

    def test_while_true_with_break_keeps_after_reachable(self):
        cfg = _fn_cfg(
            """
            def f():
                while True:
                    if done():
                        break
                after = 1
            """
        )
        reachable = cfg.reachable()
        for block in cfg.blocks:
            for el in block.elements:
                if (
                    isinstance(el, ast.Assign)
                    and isinstance(el.targets[0], ast.Name)
                    and el.targets[0].id == "after"
                ):
                    assert block.index in reachable

    def test_return_routes_through_finally(self):
        cfg = _fn_cfg(
            """
            def f():
                try:
                    return work()
                finally:
                    cleanup()
            """
        )
        # the block holding cleanup() must lie on the return path:
        # the return block's normal successor is the finally entry,
        # not the exit.
        return_block = next(
            block.index
            for block in cfg.blocks
            if any(isinstance(el, ast.Return) for el in block.elements)
        )
        succs = cfg.successors(return_block, kinds=(NORMAL,))
        assert succs != [cfg.exit]
        finally_block = next(
            block.index
            for block in cfg.blocks
            if any(
                isinstance(el, ast.Expr)
                and isinstance(el.value, ast.Call)
                and isinstance(el.value.func, ast.Name)
                and el.value.func.id == "cleanup"
                for el in block.elements
            )
        )
        assert finally_block in succs

    def test_exception_edges_reach_handler(self):
        cfg = _fn_cfg(
            """
            def f():
                try:
                    work()
                except ValueError:
                    recover()
            """
        )
        handler_block = next(
            block.index
            for block in cfg.blocks
            if any(
                isinstance(el, ast.Expr)
                and isinstance(el.value, ast.Call)
                and isinstance(el.value.func, ast.Name)
                and el.value.func.id == "recover"
                for el in block.elements
            )
        )
        # reachable only via an exception edge, not a normal one.
        assert handler_block in cfg.reachable()
        assert not cfg.predecessors(handler_block, kinds=(NORMAL,))


# ---------------------------------------------------------------------------
# dataflow analyses


class TestDataflow:
    def test_reaching_definitions_join_at_merge(self):
        cfg = _fn_cfg(
            """
            def f(flag):
                if flag:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        solution = reaching_definitions(cfg)
        return_block = next(
            block.index
            for block in cfg.blocks
            if any(isinstance(el, ast.Return) for el in block.elements)
        )
        lines = sorted(
            line for name, line in solution.block_in[return_block] if name == "x"
        )
        assert len(lines) == 2  # both definitions may reach the return

    def test_liveness_sees_later_use(self):
        cfg = _fn_cfg(
            """
            def f():
                x = 1
                y = 2
                return x
            """
        )
        solution = liveness(cfg)
        assert "x" in solution.block_in[cfg.entry] or "x" not in solution.block_out[cfg.entry]
        # y is never used: dead at every program point.
        assert all("y" not in v for v in solution.block_out.values())


# ---------------------------------------------------------------------------
# RES001 — resource leaks


def _res(source: str) -> list[str]:
    return _messages(source, rule_ids=["RES001"])


class TestResourceLeak:
    def test_leak_on_fallthrough_flagged(self):
        messages = _res(
            """
def f(path):
    handle = open(path)
    handle.read()
    return 0
"""
        )
        assert len(messages) == 1
        assert "not released or closed on every path" in messages[0]
        assert "with" in messages[0]

    def test_close_on_every_path_clean(self):
        assert _res(
            """
def f(path):
    handle = open(path)
    data = handle.read()
    handle.close()
    return data
"""
        ) == []

    def test_leak_on_one_branch_flagged(self):
        messages = _res(
            """
def f(path, flag):
    handle = open(path)
    if flag:
        handle.close()
    return 0
"""
        )
        assert len(messages) == 1

    def test_early_return_leak_flagged(self):
        messages = _res(
            """
def f(path, flag):
    handle = open(path)
    if flag:
        return None
    handle.close()
    return None
"""
        )
        assert len(messages) == 1

    def test_with_statement_clean(self):
        assert _res(
            """
def f(path):
    with open(path) as handle:
        return handle.read()
"""
        ) == []

    def test_with_on_existing_name_clean(self):
        assert _res(
            """
def f(path):
    handle = open(path)
    with handle:
        return handle.read()
"""
        ) == []

    def test_closing_wrapper_clean(self):
        assert _res(
            """
import sqlite3
from contextlib import closing

def f(path):
    conn = sqlite3.connect(path)
    with closing(conn):
        return conn.execute("SELECT 1")
"""
        ) == []

    def test_close_in_finally_dominates_return(self):
        assert _res(
            """
def f(path):
    handle = open(path)
    try:
        return handle.read()
    finally:
        handle.close()
"""
        ) == []

    def test_escape_via_return_clean(self):
        assert _res(
            """
import sqlite3

def f(path):
    conn = sqlite3.connect(path)
    return conn
"""
        ) == []

    def test_escape_via_call_argument_clean(self):
        assert _res(
            """
import sqlite3

def f(path, registry):
    conn = sqlite3.connect(path)
    registry.adopt(conn)
    return 0
"""
        ) == []

    def test_escape_via_attribute_store_clean(self):
        assert _res(
            """
import sqlite3

class Holder:
    def open_db(self, path):
        conn = sqlite3.connect(path)
        self.conn = conn
"""
        ) == []

    def test_method_call_on_resource_is_not_escape(self):
        messages = _res(
            """
import sqlite3

def f(path):
    conn = sqlite3.connect(path)
    conn.execute("SELECT 1")
    return 0
"""
        )
        assert len(messages) == 1

    def test_cursor_method_tracked(self):
        messages = _res(
            """
def f(conn):
    cur = conn.cursor()
    cur.fetchall()
    return 0
"""
        )
        assert len(messages) == 1
        assert "cursor" in messages[0]

    def test_overwrite_before_release_flagged(self):
        messages = _res(
            """
def f(a, b):
    handle = open(a)
    handle = open(b)
    handle.close()
    return 0
"""
        )
        assert len(messages) == 1
        assert "overwritten before being released" in messages[0]

    def test_acquire_release_pair_clean(self):
        assert _res(
            """
def f(lock):
    lock.acquire()
    lock.release()
    return 0
"""
        ) == []

    def test_acquire_without_release_flagged(self):
        messages = _res(
            """
def f(lock):
    lock.acquire()
    return 0
"""
        )
        assert len(messages) == 1
        assert "lock" in messages[0]

    def test_exception_path_leak_not_flagged(self):
        # normal-edge analysis: exception safety is exactly what the
        # prefer-`with` hint is about, not a separate finding.
        assert _res(
            """
def f(path):
    handle = open(path)
    risky()
    handle.close()
    return 0
"""
        ) == []


# ---------------------------------------------------------------------------
# EXC001 — exception flow


def _exc(source: str) -> list[str]:
    return _messages(source, rule_ids=["EXC001"])


class TestExceptionFlow:
    SWALLOW = """
from repro.errors import ReproError

def f(work):
    try:
        work()
    except ReproError:
        pass
"""

    def test_swallowed_taxonomy_error_flagged(self):
        messages = _exc(self.SWALLOW)
        assert len(messages) == 1
        assert "silently swallows ReproError" in messages[0]

    def test_swallowed_subclass_flagged(self):
        messages = _exc(self.SWALLOW.replace("ReproError", "ExecutionError"))
        assert any("ExecutionError" in m for m in messages)

    def test_handled_conversion_not_flagged(self):
        source = """
from repro.errors import ExecutionError

def f(work):
    try:
        work()
    except ExecutionError:
        return False
    return True
"""
        assert _exc(source) == []

    def test_swallowed_builtin_not_flagged(self):
        # only taxonomy classes carry the must-not-drop contract.
        source = """
def f(work):
    try:
        work()
    except ValueError:
        pass
"""
        assert _exc(source) == []

    def test_justified_suppression_honoured(self):
        source = self.SWALLOW.replace(
            "except ReproError:",
            "except ReproError:"
            "  # staticcheck: disable=EXC001 (probe only)",
        )
        assert _rules(source, rule_ids=["EXC001", "SUP001"]) == []

    def test_ad_hoc_runtime_error_flagged(self):
        messages = _exc('def f():\n    raise RuntimeError("boom")\n')
        assert len(messages) == 1
        assert "ad-hoc RuntimeError raise" in messages[0]

    def test_ad_hoc_exception_flagged(self):
        assert _exc('def f():\n    raise Exception("boom")\n') != []

    def test_contract_builtins_legal(self):
        assert _exc('def f():\n    raise ValueError("bad arg")\n') == []
        assert _exc("def f():\n    raise NotImplementedError\n") == []

    def test_bare_reraise_legal(self):
        source = """
def f(work):
    try:
        work()
    except ValueError:
        raise
"""
        assert _exc(source) == []

    def test_taxonomy_raise_legal(self):
        source = """
from repro.errors import ExecutionError

def f():
    raise ExecutionError("query failed")
"""
        assert _exc(source) == []

    def test_dead_except_clause_flagged(self):
        source = """
from repro.errors import ExecutionError, ReproError

def f(work):
    try:
        work()
    except ReproError:
        return 1
    except ExecutionError:
        return 2
"""
        messages = _exc(source)
        assert len(messages) == 1
        assert "dead except clause: ExecutionError" in messages[0]
        assert "broader ReproError" in messages[0]

    def test_ordered_narrow_to_broad_legal(self):
        source = """
from repro.errors import ExecutionError, ReproError

def f(work):
    try:
        work()
    except ExecutionError:
        return 1
    except ReproError:
        return 2
"""
        assert _exc(source) == []

    def test_builtin_hierarchy_dead_clause_flagged(self):
        source = """
def f(work):
    try:
        work()
    except OSError:
        return 1
    except TimeoutError:
        return 2
"""
        messages = _exc(source)
        assert any("dead except clause: TimeoutError" in m for m in messages)

    def test_unknown_class_stops_dead_clause_reasoning(self):
        source = """
from somewhere import WeirdError

def f(work):
    try:
        work()
    except WeirdError:
        return 1
    except ValueError:
        return 2
"""
        assert _exc(source) == []


# ---------------------------------------------------------------------------
# DEAD001 — unreachable code and dead stores


def _dead(source: str) -> list[str]:
    return _messages(source, rule_ids=["DEAD001"])


class TestDeadCode:
    def test_statement_after_return_flagged(self):
        messages = _dead(
            """
def f():
    return 1
    cleanup()
"""
        )
        assert len(messages) == 1
        assert "unreachable statement in 'f'" in messages[0]

    def test_one_finding_per_unreachable_region(self):
        messages = _dead(
            """
def f():
    return 1
    a = 1
    b = 2
    c = 3
"""
        )
        assert len(messages) == 1

    def test_code_after_raise_flagged(self):
        messages = _dead(
            """
def f():
    raise ValueError("no")
    cleanup()
"""
        )
        assert len(messages) == 1

    def test_code_after_endless_loop_flagged(self):
        messages = _dead(
            """
def f():
    while True:
        step()
    cleanup()
"""
        )
        assert len(messages) == 1

    def test_loop_with_break_not_flagged(self):
        assert _dead(
            """
def f():
    while True:
        if done():
            break
    cleanup()
"""
        ) == []

    def test_handler_only_code_not_flagged(self):
        # reachable via an exception edge is reachable.
        assert _dead(
            """
def f(work):
    try:
        work()
    except ValueError:
        recover()
    return 0
"""
        ) == []

    def test_module_level_unreachable_flagged(self):
        messages = _dead(
            "raise SystemExit(1)\nx = 1\n"
        )
        assert any("unreachable statement in 'module'" in m for m in messages)

    def test_dead_store_flagged(self):
        messages = _dead(
            """
def f():
    value = expensive()
    return 2
"""
        )
        assert len(messages) == 1
        assert "dead store" in messages[0] and "'value'" in messages[0]

    def test_overwritten_on_all_paths_flagged(self):
        messages = _dead(
            """
def f(flag):
    value = 1
    value = 2
    return value
"""
        )
        assert len(messages) == 1

    def test_read_on_one_path_clean(self):
        assert _dead(
            """
def f(flag):
    value = 1
    if flag:
        return value
    return 0
"""
        ) == []

    def test_underscore_discard_exempt(self):
        assert _dead(
            """
def f():
    _unused = probe()
    return 2
"""
        ) == []

    def test_closure_captured_name_exempt(self):
        assert _dead(
            """
def f():
    value = 1

    def inner():
        return value
    return inner
"""
        ) == []

    def test_augmented_and_unpacking_targets_exempt(self):
        assert _dead(
            """
def f(pair):
    a, b = pair
    a += 1
    return 0
"""
        ) == []

    def test_loop_variable_exempt(self):
        assert _dead(
            """
def f(items):
    for item in items:
        pass
    return 0
"""
        ) == []


# ---------------------------------------------------------------------------
# seeded mutations on real modules — each rule catches an injected
# defect in shipped code, not just toy fixtures.


DATABASE_PATH = SRC_REPRO / "db" / "backends" / "sqlite.py"
DATABASE_NEEDLE = (
    "        connection = sqlite3.connect(path, check_same_thread=False)\n"
)


class TestSeededMutationsOnRealModules:
    def _database_source(self) -> str:
        source = DATABASE_PATH.read_text(encoding="utf-8")
        assert DATABASE_NEEDLE in source
        return source

    def test_real_tree_is_clean_under_flow_rules(self, repo_tree_check):
        findings = [
            finding
            for finding in repo_tree_check.findings
            if finding.rule in ("RES001", "EXC001", "DEAD001")
        ]
        rendered = "\n".join(f.render() for f in findings)
        assert not findings, rendered

    def test_injected_connection_leak_is_caught(self):
        mutated = self._database_source().replace(
            DATABASE_NEEDLE,
            "        spare = sqlite3.connect(path)\n" + DATABASE_NEEDLE,
            1,
        )
        messages = _messages(
            mutated, path="db/backends/sqlite.py", rule_ids=["RES001"]
        )
        assert any(
            "sqlite connection 'spare'" in m
            and "not released or closed" in m
            for m in messages
        ), messages

    def test_injected_swallow_is_caught(self):
        mutated = self._database_source().replace(
            DATABASE_NEEDLE,
            DATABASE_NEEDLE
            + "        try:\n"
            + "            connection.execute('PRAGMA user_version')\n"
            + "        except ExecutionError:\n"
            + "            pass\n",
            1,
        )
        messages = _messages(
            mutated, path="db/backends/sqlite.py", rule_ids=["EXC001"]
        )
        assert any(
            "silently swallows ExecutionError" in m for m in messages
        ), messages

    def test_injected_dead_store_is_caught(self):
        mutated = self._database_source().replace(
            DATABASE_NEEDLE,
            DATABASE_NEEDLE + "        probe = 12345\n",
            1,
        )
        messages = _messages(
            mutated, path="db/backends/sqlite.py", rule_ids=["DEAD001"]
        )
        assert any(
            "dead store" in m and "'probe'" in m for m in messages
        ), messages

    def test_injected_unreachable_is_caught(self):
        source = self._database_source()
        needle = "        return database\n"
        assert needle in source
        mutated = source.replace(
            needle, needle + "        connection.close()\n", 1
        )
        messages = _messages(
            mutated, path="db/backends/sqlite.py", rule_ids=["DEAD001"]
        )
        assert any("unreachable statement" in m for m in messages), messages


# ---------------------------------------------------------------------------
# SUP001 interaction with cross-module finish() findings


class TestSuppressionOfFinishFindings:
    INVERSION = textwrap.dedent(
        """
        import threading

        class A:
            def __init__(self):
                self.l1 = threading.Lock()
                self.l2 = threading.Lock()

            def m1(self):
                with self.l1:
                    with self.l2:  # staticcheck: disable=LOCK001 (init path)
                        pass

            def m2(self):
                with self.l2:
                    with self.l1:
                        pass
        """
    )

    def test_suppressing_lock_inversion_counts_as_used(self):
        # LOCK001's inversion finding is emitted from finish(), after
        # every module was seen — the suppression on its line must
        # still silence it AND count as used (no SUP001).
        rules = _rules(
            self.INVERSION, path="serving/mod.py",
            rule_ids=["LOCK001", "SUP001"],
        )
        assert rules == []

    def test_without_suppression_the_inversion_fires(self):
        bare = self.INVERSION.replace(
            "  # staticcheck: disable=LOCK001 (init path)", ""
        )
        rules = _rules(
            bare, path="serving/mod.py", rule_ids=["LOCK001", "SUP001"]
        )
        assert rules == ["LOCK001"]


# ---------------------------------------------------------------------------
# flow-rule golden — byte-stable across processes and hash seeds


FLOW_FIXTURE = """\
import sqlite3

from repro.errors import ReproError


def leaky(path):
    conn = sqlite3.connect(path)
    conn.execute("SELECT 1")
    return 0


def swallowing(work):
    try:
        work()
    except ReproError:
        pass


def dead():
    value = 1
    return 2
    print("unreachable")
"""

FLOW_GOLDEN = GOLDEN_DIR / "staticcheck_flow.json"
FLOW_RULES = ["DEAD001", "EXC001", "RES001"]


def _fixture_json() -> str:
    module = parse_module("flow/mod.py", FLOW_FIXTURE)
    result = check_modules([module], rules=REGISTRY.create(FLOW_RULES))
    return render_json(result) + "\n"


class TestSarifGolden:
    """Pins the RES001/EXC001/DEAD001 findings on ``FLOW_FIXTURE`` as
    the JSON emitter prints them."""

    def test_matches_committed_golden(self):
        assert _fixture_json() == FLOW_GOLDEN.read_text(encoding="utf-8")

    def test_golden_is_schema_shaped(self):
        payload = json.loads(FLOW_GOLDEN.read_text(encoding="utf-8"))
        assert payload["files"] == 1
        assert payload["ok"] is False
        rule_ids = sorted({finding["rule"] for finding in payload["findings"]})
        assert rule_ids == FLOW_RULES
        for finding in payload["findings"]:
            assert finding["severity"] == "error"
            assert finding["message"]
            assert finding["path"] == "flow/mod.py"
            assert finding["line"] >= 1

    def test_byte_stable_across_hash_seeds(self):
        script = (
            "import sys\n"
            "from repro.staticcheck import REGISTRY, check_modules, "
            "parse_module, render_json\n"
            "source = sys.stdin.read()\n"
            "module = parse_module('flow/mod.py', source)\n"
            f"result = check_modules([module], "
            f"rules=REGISTRY.create({FLOW_RULES!r}))\n"
            "sys.stdout.write(render_json(result) + '\\n')\n"
        )
        golden = FLOW_GOLDEN.read_bytes()
        for seed in ("0", "42"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                input=FLOW_FIXTURE.encode("utf-8"),
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            assert proc.stdout == golden
