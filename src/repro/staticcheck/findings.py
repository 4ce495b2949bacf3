"""Frozen finding records with source spans.

A :class:`Finding` is one rule hit pinned to a source location.  The
span idiom follows :mod:`repro.sqlgen.spans`: findings carry plain
positions into the original text rather than threading location state
through the AST value objects, so rules stay free to analyse whatever
granularity they like and point back afterwards.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

ERROR = "error"
WARNING = "warning"

SEVERITIES = (ERROR, WARNING)


@dataclass(frozen=True)
class SourceSpan:
    """1-based line / 0-based column range in the module source."""

    line: int
    col: int = 0
    end_line: int | None = None
    end_col: int | None = None

    @classmethod
    def from_node(cls, node: ast.AST) -> "SourceSpan":
        return cls(
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            end_line=getattr(node, "end_lineno", None),
            end_col=getattr(node, "end_col_offset", None),
        )

    def snippet(self, source: str) -> str:
        """The first source line the span covers (stripped)."""
        lines = source.splitlines()
        if 1 <= self.line <= len(lines):
            return lines[self.line - 1].strip()
        return ""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    span: SourceSpan
    message: str

    @property
    def line(self) -> int:
        return self.span.line

    def sort_key(self) -> tuple:
        return (self.path, self.span.line, self.span.col, self.rule, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        """Plain-data form for the JSON emitter (stable key set)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.span.line,
            "col": self.span.col,
            "message": self.message,
        }
