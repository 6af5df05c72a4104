"""Rule framework for ``repro.check``.

A rule is a named family of checks over one :class:`SourceFile`; each
finding is a :class:`Violation` with a *family* (``layering``,
``determinism``, ``hygiene``, ``concurrency``, ``forksafety``,
``reachability``), a *code* (the specific check, e.g.
``hygiene/print``) and a drift-stable fingerprint that the ratcheting
baseline matches on.

Fingerprints deliberately exclude line numbers: they hash the rule
code, the file path, the flagged line's *text* and an occurrence index
among identical lines, so inserting unrelated code above a baselined
violation does not un-baseline it.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.check.walker import SourceFile


@dataclass(frozen=True)
class Violation:
    """One finding, pointing at a node in one file."""

    # family: layering | determinism | hygiene | concurrency | forksafety | reachability
    rule: str
    code: str  # specific check, e.g. "hygiene/print"
    path: str  # repo-relative posix path
    module: str  # dotted module name
    line: int
    col: int
    message: str
    snippet: str  # stripped source of the flagged line
    fingerprint: str = ""  # filled by finalize_fingerprints

    def to_dict(self) -> dict:
        """Plain-data form for the JSON reporter and the baseline."""
        return {
            "rule": self.rule,
            "code": self.code,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }


def finalize_fingerprints(violations: list[Violation]) -> list[Violation]:
    """Assign occurrence-indexed fingerprints, preserving order.

    Two violations of the same code on byte-identical lines of the same
    file are distinguished by their occurrence index (first, second, …
    in file order) — stable under any edit elsewhere in the file.
    """
    counters: dict[tuple[str, str, str], int] = {}
    out: list[Violation] = []
    for violation in violations:
        key = (violation.code, violation.path, violation.snippet)
        index = counters.get(key, 0)
        counters[key] = index + 1
        payload = "\x1f".join([violation.code, violation.path, violation.snippet, str(index)])
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]
        out.append(
            Violation(
                rule=violation.rule,
                code=violation.code,
                path=violation.path,
                module=violation.module,
                line=violation.line,
                col=violation.col,
                message=violation.message,
                snippet=violation.snippet,
                fingerprint=digest,
            )
        )
    return out


class Rule:
    """Base class: subclasses set ``name`` and implement :meth:`check`.

    :meth:`report` is the one way findings are emitted — it applies the
    pragma filter, so no rule can forget suppression support.
    """

    #: Family name; also the pragma token that suppresses the family.
    name: str = ""

    def __init__(self) -> None:
        self._found: list[Violation] = []
        self._suppressed = 0

    # -- subclass API --------------------------------------------------

    def check(self, source: SourceFile) -> None:
        """Inspect one file, calling :meth:`report` per finding."""
        raise NotImplementedError

    def report(
        self,
        source: SourceFile,
        node: ast.AST,
        code: str,
        message: str,
    ) -> None:
        """Emit a finding unless a pragma on the node's span allows it."""
        lineno = getattr(node, "lineno", 1)
        end = getattr(node, "end_lineno", None) or lineno
        full_code = f"{self.name}/{code}"
        if source.allowed((lineno, end), frozenset({self.name, full_code})):
            self._suppressed += 1
            return
        self._found.append(
            Violation(
                rule=self.name,
                code=full_code,
                path=source.path,
                module=source.module,
                line=lineno,
                col=getattr(node, "col_offset", 0),
                message=message,
                snippet=source.line_at(lineno),
            )
        )

    # -- driver API ----------------------------------------------------

    def run(self, sources: Iterable[SourceFile]) -> list[Violation]:
        """All findings over ``sources``, fingerprinted and ordered."""
        self._found = []
        self._suppressed = 0
        for source in sources:
            self.check(source)
        self._found.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        return finalize_fingerprints(self._found)

    @property
    def suppressed(self) -> int:
        """Findings silenced by pragmas in the last :meth:`run`."""
        return self._suppressed


def dotted_path(node: ast.expr, imports: Mapping[str, str]) -> str | None:
    """Canonical dotted path of a Name/Attribute chain, or ``None``.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; chains rooted in anything other than
    a plain name (calls, subscripts) resolve to ``None``.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = imports.get(current.id, current.id)
    parts.append(base)
    return ".".join(reversed(parts))


#: Registry of rule factories by family name, in report order.
RULE_FACTORIES: dict[str, Callable[[], Rule]] = {}


def register(factory: Callable[[], Rule]) -> Callable[[], Rule]:
    """Class decorator adding a rule family to the default set."""
    instance = factory()
    if not instance.name:
        raise ValueError(f"rule {factory!r} has no family name")
    RULE_FACTORIES[instance.name] = factory
    return factory
