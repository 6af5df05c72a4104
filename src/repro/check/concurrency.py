"""Interprocedural concurrency rule: guarded writes and lock ordering.

The rule reasons over the project call graph
(:mod:`repro.check.callgraph`) via :mod:`repro.check.lockmodel`:

``unguarded-write``
    In ``serve``/``cluster``/``summary``, a class that creates a
    ``threading.Lock``/``RLock``/``Condition`` attribute in ``__init__``
    must reach every write to its other ``self.`` attributes with a
    lock held on **every** call path from a public entry point.
    ``__init__`` and helpers reachable only from it are exempt
    (construction happens-before publication).  Reads stay unchecked
    (snapshot-read-then-serve is the documented pattern).

``lock-order-cycle``
    Project-wide, every acquisition records the set of locks that may
    already be held (lexically, or inferred along call chains).  The
    resulting order graph must be acyclic; an edge inside a strongly
    connected component is a potential ABBA deadlock and is reported at
    its acquisition site with a witness chain.

Benign races (e.g. the registry's reload rate-limit stamp) carry
``# repro: allow[concurrency]`` pragmas with their justification.  The
runtime complement is :mod:`repro.check.sanitizer`, which validates the
statically derived order graph against orders actually observed while
the test suite runs.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.check.lockmodel import LockModel, UnguardedWrite, _short
from repro.check.rules import Rule, Violation, register
from repro.check.walker import SourceFile

#: Packages whose classes serve concurrent callers.
SCOPED_PACKAGES = frozenset({"serve", "cluster", "summary"})


@register
class ConcurrencyRule(Rule):
    """Unguarded shared writes and lock-order cycles, interprocedurally."""

    name = "concurrency"

    def __init__(self) -> None:
        super().__init__()
        #: The run's shared lock model over the same sources; set by
        #: :func:`run_check`, else :meth:`run` builds its own.
        self.model: LockModel | None = None
        self._by_path: dict[str, list[tuple[ast.AST, str, str]]] = {}

    def run(self, sources: Iterable[SourceFile]) -> list[Violation]:
        materialised = list(sources)
        model = self.model if self.model is not None else LockModel.build(materialised)
        self._by_path = {}
        self._collect_unguarded(model)
        self._collect_cycles(model)
        return super().run(materialised)

    def check(self, source: SourceFile) -> None:
        for node, code, message in self._by_path.get(source.path, ()):
            self.report(source, node, code, message)

    # -- finding collection --------------------------------------------

    def _add(self, source: SourceFile, node: ast.AST, code: str, message: str) -> None:
        self._by_path.setdefault(source.path, []).append((node, code, message))

    def _collect_unguarded(self, model: LockModel) -> None:
        for cls_qualname in sorted(model.by_class):
            decl = model.decls[sorted(model.by_class[cls_qualname])[0]]
            if decl.source.package not in SCOPED_PACKAGES:
                continue
            for finding in model.unguarded_writes(cls_qualname):
                self._add(
                    finding.source,
                    finding.node,
                    "unguarded-write",
                    _unguarded_message(model, finding),
                )

    def _collect_cycles(self, model: LockModel) -> None:
        for (src, dst), cycle in sorted(model.cycle_edges().items()):
            edge = model.order_edges[(src, dst)]
            for (function, node), chain in zip(edge.sites, edge.chains):
                info = model.graph.functions[function]
                self._add(
                    info.source,
                    node,
                    "lock-order-cycle",
                    f"acquiring '{_short(dst)}' while '{_short(src)}' is held "
                    f"({chain}) closes the lock-order cycle "
                    f"{' -> '.join(_short(c) for c in cycle)} -> {_short(cycle[0])}: "
                    "two threads taking these locks in opposite orders deadlock — "
                    "impose one global order (or collapse to a single lock)",
                )


def _unguarded_message(model: LockModel, finding: UnguardedWrite) -> str:
    cls_name = finding.cls.rsplit(".", 1)[1]
    method = finding.function.rsplit(".", 1)[1]
    lock_attr = sorted(
        model.decls[ident].attr for ident in model.by_class[finding.cls]
    )[0]
    message = (
        f"{cls_name}.{method} writes shared attribute "
        f"'self.{finding.attr}' outside 'with self.{lock_attr}:'"
    )
    if finding.witness and len(finding.witness) > 1:
        message += (
            f" (reachable lock-free via {' -> '.join(finding.witness)})"
        )
    return message
