"""Reachability rule: public definitions that nothing runs.

The unit is a top-level public function or class of a ``src/repro``
module.  A reached class keeps all of its methods: calls on instances
do not resolve statically, so methods are never judged on their own.

Edges are references, not only calls.  Every ``Name`` or ``Attribute``
load inside a definition (its decorators, defaults, annotations, bases
and body) that resolves, through the file's imports and the call
graph's re-export chase (:meth:`CallGraph.resolve_definition`), to
another top-level definition is an edge to it; a load of a method
lands on its class.  A call shaped ``f(owner, "attr")`` (``getattr``,
``monkeypatch.setattr``, the perfbench ``Layer(Cls, "push_batch")``
table) also references ``owner.attr``.

Roots:

* the module-level statements of every ``src/repro`` module, except
  imports and ``__all__`` (registries, route tables, the scenario
  library, CLI wiring);
* definitions decorated by a project function (``@register``): the
  decorator runs at import and hands the definition to project code;
* every reference made by ``benchmarks/``, ``perfbench/`` and
  ``examples/`` (:data:`ROOT_DIRS`), which :func:`run_check` parses
  for this rule only.

Tests are not roots.  Each public definition no root reaches is an
``unreached`` finding.  A kept one carries
``# repro: allow[reachability] <reason>`` on (or on the comment line
above) its ``def``/``class`` line; what it uses then stays reached.
Only three reasons hold: a frozen oracle a test compares a live path
against, test-harness code CI runs through, and the Tweet-at-a-time
replay helpers awaiting the stream-stack retirement.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Mapping

from repro.check.callgraph import CallGraph
from repro.check.rules import Rule, Violation, dotted_path, register
from repro.check.walker import SourceFile

#: Project directories whose references are roots (never checked).
ROOT_DIRS = ("benchmarks", "perfbench", "examples")

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_Definition = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


@register
class ReachabilityRule(Rule):
    """Top-level public definitions no root reaches."""

    name = "reachability"

    def __init__(self, external: Iterable[SourceFile] = ()) -> None:
        super().__init__()
        #: Parsed ``ROOT_DIRS`` files; set by :func:`run_check`.
        self.external = tuple(external)
        #: The run's shared call graph over the same sources; set by
        #: :func:`run_check`, else :meth:`run` indexes its own (the rule
        #: reads definitions and imports, never call edges).
        self.graph: CallGraph | None = None
        self._unreached: dict[str, list[_Definition]] = {}

    def run(self, sources: Iterable[SourceFile]) -> list[Violation]:
        materialised = list(sources)
        graph = self.graph if self.graph is not None else CallGraph(materialised)
        pragma = frozenset({self.name, f"{self.name}/unreached"})
        edges: dict[str, set[str]] = {}
        seeds: set[str] = set()
        for source in materialised:
            imports = source.imports
            for stmt in source.tree.body:
                refs = _references(graph, stmt, source.module, imports)
                if not isinstance(stmt, _DEFINITIONS):
                    if not _is_import_or_all(stmt):
                        seeds |= refs
                    continue
                qualname = f"{source.module}.{stmt.name}"
                edges[qualname] = refs
                if any(
                    _resolve(graph, decorator, source.module, imports)
                    for decorator in stmt.decorator_list
                ):
                    seeds.add(qualname)
                elif source.allowed(_span(stmt), pragma):
                    # Kept: what it uses stays reached, but it is still
                    # reported (and suppressed) unless something reaches it.
                    seeds |= refs
        for source in self.external:
            seeds |= _references(graph, source.tree, source.module, source.imports)
        reached = _closure(seeds, edges)
        self._unreached = {
            source.path: [
                stmt
                for stmt in source.tree.body
                if isinstance(stmt, _DEFINITIONS)
                and not stmt.name.startswith("_")
                and f"{source.module}.{stmt.name}" not in reached
            ]
            for source in materialised
        }
        return super().run(materialised)

    def check(self, source: SourceFile) -> None:
        for node in self._unreached.get(source.path, ()):
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            self.report(
                source,
                node,
                "unreached",
                f"{kind} '{node.name}' is reached from no module-level "
                "statement, benchmark, perfbench workload or example (tests "
                "are not roots): delete it, or keep it with a pragma naming why",
            )


def _span(node: ast.stmt) -> tuple[int, int]:
    return node.lineno, node.end_lineno or node.lineno


def _is_import_or_all(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _resolve(
    graph: CallGraph, node: ast.expr, module: str, imports: Mapping[str, str]
) -> str | None:
    """The top-level definition a Name/Attribute chain names, if any.

    A method resolves to its class, since classes are the unit.
    """
    dotted = dotted_path(node, imports)
    if dotted is None:
        return None
    if "." not in dotted:
        dotted = f"{module}.{dotted}"
    target = graph.resolve_definition(dotted)
    info = graph.functions.get(target) if target else None
    if info is not None and info.cls is not None:
        return f"{info.module}.{info.cls}"
    return target


def _loads(tree: ast.AST) -> Iterator[ast.expr]:
    """Every Name/Attribute load, plus ``owner.attr`` for ``f(owner, "attr")``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield node
        elif isinstance(node, ast.Call):
            for owner, attr in zip(node.args, node.args[1:]):
                if (
                    isinstance(owner, (ast.Name, ast.Attribute))
                    and isinstance(attr, ast.Constant)
                    and isinstance(attr.value, str)
                    and attr.value.isidentifier()
                ):
                    yield ast.Attribute(value=owner, attr=attr.value, ctx=ast.Load())


def _references(
    graph: CallGraph, tree: ast.AST, module: str, imports: Mapping[str, str]
) -> set[str]:
    """Qualnames of the top-level definitions ``tree`` references."""
    found = set()
    for node in _loads(tree):
        target = _resolve(graph, node, module, imports)
        if target is not None:
            found.add(target)
    return found


def _closure(seeds: set[str], edges: dict[str, set[str]]) -> set[str]:
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        for target in edges.get(frontier.pop(), ()):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen
