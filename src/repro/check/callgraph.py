"""Project-wide call graph over the parsed source tree (stdlib ``ast``).

:class:`CallGraph` is the interprocedural substrate for the concurrency,
fork-safety and reachability rules: it indexes every module-level
function and every method of a top-level class under ``src/repro``,
then resolves call sites to those definitions **conservatively** — a
call that cannot be resolved to a known definition simply produces no
edge, so analyses built on the graph over-approximate reachability only
through edges that are certainly real.

Resolution covers the three shapes that matter in this codebase:

* ``self.helper()`` inside a method resolves to the same class's
  ``helper`` (base-class dispatch is deliberately not modelled);
* a bare ``helper()`` resolves to a module-level function of the same
  module, or through the file's imports (``from repro.x import helper``);
* dotted calls (``obs.counter()``, ``module.Class()``) resolve through
  the import map, chasing one level of re-export per hop (``repro.obs``
  re-exports ``counter`` from ``repro.obs.tracer``), with instantiation
  landing on the class's ``__init__`` when one is defined.

Calls inside *nested* functions are attributed to the enclosing
definition: for reachability that is exactly right (the closure can
only run if its definer ran), and the lock analyses reset their
held-set when they descend into a nested body.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.check.rules import dotted_path
from repro.check.walker import SourceFile

#: Maximum re-export hops chased while resolving a dotted call target.
MAX_REEXPORT_HOPS = 8


@dataclass(frozen=True)
class FunctionInfo:
    """One known definition: a module function or a top-level-class method."""

    qualname: str  # "repro.serve.app.EstimationApp.drain" / "repro.cli.main"
    module: str
    cls: str | None  # owning class name, None for module functions
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: SourceFile


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, anchored at its ``ast.Call`` node."""

    caller: str
    callee: str
    node: ast.Call


class CallGraph:
    """Known definitions plus the resolved call edges between them."""

    def __init__(self, sources: Iterable[SourceFile]) -> None:
        """Index definitions only; :meth:`build` also resolves the edges."""
        self.modules = {source.module: source for source in sources}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, tuple[str, ...]] = {}  # class qualname -> method names
        for source in self.modules.values():
            for qualname, info in _definitions(source):
                self.functions[qualname] = info
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef):
                    self.classes[f"{source.module}.{node.name}"] = tuple(
                        stmt.name
                        for stmt in node.body
                        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    )
        self.sites: tuple[CallSite, ...] = ()
        self._out: dict[str, list[CallSite]] = {}
        self._in: dict[str, list[CallSite]] = {}

    @classmethod
    def build(cls, sources: Iterable[SourceFile]) -> "CallGraph":
        """Index definitions, then resolve every call site to an edge."""
        graph = cls(sources)
        sites: list[CallSite] = []
        for info in graph.functions.values():
            for call in _calls_in(info.node):
                callee = graph.resolve_call(call, info)
                if callee is not None:
                    sites.append(CallSite(info.qualname, callee, call))
        graph.sites = tuple(sites)
        for site in graph.sites:
            graph._out.setdefault(site.caller, []).append(site)
            graph._in.setdefault(site.callee, []).append(site)
        return graph

    # -- resolution ----------------------------------------------------

    def resolve_call(self, call: ast.Call, context: FunctionInfo) -> str | None:
        """The qualname a call resolves to in ``context``, or ``None``."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and context.cls is not None
        ):
            candidate = f"{context.module}.{context.cls}.{func.attr}"
            return candidate if candidate in self.functions else None
        dotted = dotted_path(func, context.source.imports)
        if dotted is None:
            return None
        if "." not in dotted:
            # A bare local name: same-module function or class.
            dotted = f"{context.module}.{dotted}"
        return self.resolve_dotted(dotted)

    def resolve_dotted(self, dotted: str) -> str | None:
        """Resolve a canonical dotted path to a known callable.

        A class target resolves to its ``__init__`` when defined.
        """
        target = self.resolve_definition(dotted)
        if target in self.classes:
            init = f"{target}.__init__"
            return init if init in self.functions else None
        return target

    def resolve_definition(self, dotted: str) -> str | None:
        """Resolve a canonical dotted path to a known function or class.

        Chases ``from x import y`` re-export bindings hop by hop, so
        ``repro.obs.counter`` lands on ``repro.obs.tracer.counter``.
        """
        for _ in range(MAX_REEXPORT_HOPS):
            if dotted in self.functions or dotted in self.classes:
                return dotted
            module, _, attr = dotted.rpartition(".")
            if not module or not attr or module not in self.modules:
                return None
            binding = self.modules[module].imports.get(attr)
            if binding is None or binding == dotted:
                return None
            dotted = binding
        return None

    # -- queries -------------------------------------------------------

    def callees(self, qualname: str) -> tuple[CallSite, ...]:
        """Outgoing call sites of one function."""
        return tuple(self._out.get(qualname, ()))

    def callers(self, qualname: str) -> tuple[CallSite, ...]:
        """Incoming call sites of one function."""
        return tuple(self._in.get(qualname, ()))

    def reachable_from(
        self, seeds: Iterable[str], skip: frozenset[str] = frozenset()
    ) -> set[str]:
        """Functions reachable from ``seeds`` along resolved call edges.

        ``skip`` names callees the traversal must not enter (used to
        sever the supervisor → ``worker_main`` edge at the fork
        boundary); the seeds themselves are always included.
        """
        seen = {seed for seed in seeds if seed in self.functions}
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for site in self._out.get(current, ()):
                if site.callee in skip or site.callee in seen:
                    continue
                seen.add(site.callee)
                frontier.append(site.callee)
        return seen


def _definitions(source: SourceFile) -> Iterator[tuple[str, FunctionInfo]]:
    """(qualname, info) for module functions and top-level-class methods."""
    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{source.module}.{node.name}"
            yield qualname, FunctionInfo(
                qualname, source.module, None, node.name, node, source
            )
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{source.module}.{node.name}.{stmt.name}"
                    yield qualname, FunctionInfo(
                        qualname, source.module, node.name, stmt.name, stmt, source
                    )


def _calls_in(node: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Every call in a definition's body, nested closures included."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child
