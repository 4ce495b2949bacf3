"""The check runner: parse, run rules, apply inline suppressions.

Pipeline per run (all deterministic):

1. parse every ``.py`` file under the root (sorted paths) into
   :class:`~repro.staticcheck.module.ModuleContext`;
2. run every selected rule's ``check`` per module, then each rule's
   ``finish`` for cross-module findings;
3. drop findings suppressed by an inline ``# staticcheck: disable=``
   comment on their line, tracking which suppressions fired;
4. emit :class:`UnusedSuppressionRule` findings for suppressions that
   silenced nothing (a stale disable comment is itself drift).

Whatever remains fails the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.staticcheck.findings import Finding, SourceSpan
from repro.staticcheck.module import ModuleContext, parse_module
from repro.staticcheck.registry import REGISTRY, Rule, register


@register
class UnusedSuppressionRule(Rule):
    """An inline ``# staticcheck: disable=RULE`` that silenced nothing.

    Suppressions are scoped to one rule on one line.  When the code it
    excused is fixed or moves, the comment outlives its reason and
    starts hiding future regressions on that line — so an unused
    suppression is itself a (warning-severity) finding.  Fix by
    deleting the stale comment.  The runner drives this rule from its
    suppression bookkeeping; it has no per-module ``check`` body.
    """

    id = "SUP001"
    severity = "warning"
    title = "unused inline suppression"


@dataclass
class CheckResult:
    """Everything one run produced, pre-sorted and frozen for emitters."""

    findings: tuple[Finding, ...]
    files: int = 0
    suppressed: int = 0
    rule_ids: tuple[str, ...] = field(default_factory=tuple)

    def ok(self) -> bool:
        return not self.findings


def load_tree(root: str | Path) -> list[ModuleContext]:
    """Parse every ``.py`` under ``root`` (sorted, posix-relative paths).

    Raises ``SyntaxError`` (``filename`` relative to ``root``) for a file
    that does not parse or is not valid UTF-8.
    """
    root = Path(root)
    modules: list[ModuleContext] = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        data = path.read_bytes()
        try:
            source = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise SyntaxError(
                f"not valid UTF-8: {exc.reason}", (relative, line, None, None)
            ) from None
        modules.append(parse_module(relative, source))
    return modules


def check_modules(
    modules: list[ModuleContext],
    rules: list[Rule] | None = None,
) -> CheckResult:
    """Run ``rules`` (default: the whole registry) over parsed modules."""
    if rules is None:
        rules = REGISTRY.create()
    by_path = {module.path: module for module in modules}
    sup001 = next((r for r in rules if r.id == UnusedSuppressionRule.id), None)
    raw: list[Finding] = []
    for module in modules:
        for rule in rules:
            raw.extend(rule.check(module))
    for rule in rules:
        raw.extend(rule.finish())

    # Inline suppressions: drop matching findings, remember which
    # (line, rule) pairs earned their keep.
    used: dict[str, set[tuple[int, str]]] = {}
    kept: list[Finding] = []
    suppressed = 0
    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None and module.suppressed(finding.rule, finding.line):
            used.setdefault(finding.path, set()).add((finding.line, finding.rule))
            suppressed += 1
        else:
            kept.append(finding)

    # Unused suppressions become findings themselves (unless the line
    # also disables SUP001, which is always considered used).
    if sup001 is not None:
        for module in modules:
            for line, rule_ids in sorted(module.suppressions.items()):
                for rule_id in sorted(rule_ids):
                    if rule_id == UnusedSuppressionRule.id:
                        continue
                    if (line, rule_id) in used.get(module.path, ()):
                        continue
                    if module.suppressed(UnusedSuppressionRule.id, line):
                        continue
                    kept.append(
                        sup001.finding(
                            module,
                            SourceSpan(line=line),
                            f"suppression of {rule_id} on this line "
                            "matches no finding; delete the stale "
                            "disable comment",
                        )
                    )

    # Deduplicate (a rule pinning two identical findings to one node)
    # and order deterministically.
    return CheckResult(
        findings=tuple(sorted(set(kept), key=Finding.sort_key)),
        files=len(modules),
        suppressed=suppressed,
        rule_ids=tuple(rule.id for rule in rules),
    )


def check_tree(root: str | Path, rule_ids=None) -> CheckResult:
    """Parse and check every ``.py`` file under ``root``."""
    return check_modules(load_tree(root), rules=REGISTRY.create(rule_ids))


def check_source(
    source: str, path: str = "mod.py", rule_ids=None
) -> list[Finding]:
    """Findings for one in-memory module (unit-test entry point).

    ``path`` drives the same scoping the tree walk uses: pass
    ``"reliability/clock.py"`` to exercise the ARCH001 allowlist,
    ``"serving/mod.py"`` for the concurrency zone, and so on.
    """
    module = parse_module(path, source)
    result = check_modules([module], rules=REGISTRY.create(rule_ids))
    return list(result.findings)
