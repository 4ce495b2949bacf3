"""Finding emitters: human text and machine JSON.

Both emitters are deterministic for a given tree state: findings are
pre-sorted by the runner, dictionaries serialize with sorted keys, and
nothing stamps wall-clock time or absolute paths — ``repro check
--format json`` is byte-identical across runs and across
``PYTHONHASHSEED`` values (pinned by the tier-1 byte-stability test).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.runner import CheckResult


def render_text(result: "CheckResult") -> str:
    """One line per finding plus a status summary."""
    lines = [finding.render() for finding in result.findings]
    if result.ok():
        lines.append(f"staticcheck: OK ({result.files} file(s))")
    else:
        lines.append(
            f"staticcheck: {len(result.findings)} finding(s) "
            f"over {result.files} file(s)"
        )
    return "\n".join(lines)


def render_json(result: "CheckResult") -> str:
    """Stable-order JSON document (sorted keys, sorted findings)."""
    payload = {
        "files": result.files,
        "findings": [finding.as_dict() for finding in result.findings],
        "ok": result.ok(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
