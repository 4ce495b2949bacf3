"""Plugin-based static analysis for the repro codebase.

Rules are classes implementing
the :class:`~repro.staticcheck.registry.Rule` protocol, registered in
a global :class:`~repro.staticcheck.registry.RuleRegistry`, and run by
:func:`check_tree` / :func:`check_modules` over parsed
:class:`~repro.staticcheck.module.ModuleContext` objects.  Findings
carry source spans; an inline ``# staticcheck: disable=RULE`` comment
silences one rule on one line, and a disable comment that silences
nothing is itself a finding (SUP001).  Emitters render text and JSON,
both byte-deterministic.

Flow-sensitive rules (RES001 resource leaks, EXC001 exception flow,
DEAD001 dead code) build on the intraprocedural CFG (``cfg.py``) and
worklist dataflow solver (``dataflow.py``).

Entry point: ``repro check`` (CLI).  See DESIGN.md §13–§14 for the
architecture and how to add a rule.
"""

from repro.staticcheck import rules as _rules  # noqa: F401  (registration)
from repro.staticcheck.cfg import CFG, Block, build_cfg, function_nodes
from repro.staticcheck.dataflow import (
    liveness,
    reaching_definitions,
    solve,
)
from repro.staticcheck.emit import render_json, render_text
from repro.staticcheck.findings import (
    ERROR,
    SEVERITIES,
    WARNING,
    Finding,
    SourceSpan,
)
from repro.staticcheck.module import ModuleContext, parse_module
from repro.staticcheck.registry import REGISTRY, Rule, RuleRegistry, register
from repro.staticcheck.runner import (
    CheckResult,
    check_modules,
    check_source,
    check_tree,
    load_tree,
)

__all__ = [
    "ERROR",
    "WARNING",
    "SEVERITIES",
    "Finding",
    "SourceSpan",
    "ModuleContext",
    "parse_module",
    "Rule",
    "RuleRegistry",
    "REGISTRY",
    "register",
    "CheckResult",
    "check_modules",
    "check_source",
    "check_tree",
    "load_tree",
    "render_text",
    "render_json",
    "CFG",
    "Block",
    "build_cfg",
    "function_nodes",
    "solve",
    "liveness",
    "reaching_definitions",
]
