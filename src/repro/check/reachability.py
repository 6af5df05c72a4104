"""Reachability rule: public definitions and methods that nothing runs.

Two units are judged: the top-level public functions and classes of
``src/repro`` modules, and the public methods and properties of their
top-level classes.  Calls on instances do not resolve statically, so a
method is judged by name: it is reached when its class is reached and
its name is loaded as an attribute in reached code.

Edges are references, not only calls.  Every ``Name`` or ``Attribute``
load inside a definition (its decorators, defaults, annotations, bases
and body) that resolves, through the file's imports and the call
graph's re-export chase (:meth:`CallGraph.resolve_definition`), to
another top-level definition is an edge to it; a load of a method
lands on its class.  Every ``Attribute`` load also loads its name.  A
call shaped ``f(owner, "attr")`` (``getattr``, ``monkeypatch.setattr``,
the perfbench ``Layer(Cls, "push_batch")`` table) loads ``owner.attr``.
A judged method's body is a node of its own, and its class's node is
the rest of the class, so a name loaded only inside a dead method keeps
nothing alive: the closure is a fixpoint over nodes and loaded names.

Roots:

* the module-level statements of every ``src/repro`` module, except
  imports and ``__all__`` (registries, route tables, the scenario
  library, CLI wiring);
* definitions decorated by a project function (``@register``): the
  decorator runs at import and hands the definition to project code;
* every reference and attribute load in ``benchmarks/``, ``perfbench/``
  and ``examples/`` (:data:`ROOT_DIRS`), which :func:`run_check` parses
  for this rule only;
* dunders and private methods, as part of their class's node, and every
  method of a class with a base defined outside ``src/`` (``http.server``
  calls ``do_GET`` by name).

Tests are not roots.  Each unreached public definition is an
``unreached`` finding, and so is each unreached judged method of a
reached class.  A kept one carries ``# repro: allow[reachability]
<reason>`` on (or on the comment line above) its decorator or
``def``/``class`` line; what it uses then stays reached (for a class,
with all of its methods).  Only three reasons hold: a frozen oracle a
test compares a live path against, test-harness code CI runs through,
and the Tweet-at-a-time replay helpers awaiting the stream-stack
retirement.
"""

from __future__ import annotations

import ast
from functools import partial
from typing import Iterable, Iterator, Mapping

from repro.check.callgraph import CallGraph
from repro.check.rules import Rule, Violation, dotted_path, register
from repro.check.walker import SourceFile

#: Project directories whose references are roots (never checked).
ROOT_DIRS = ("benchmarks", "perfbench", "examples")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)
_Definition = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
#: (qualnames of the definitions referenced, attribute names loaded).
_Uses = tuple[set[str], set[str]]
#: The pseudo-node whose uses are every root's.
_ROOT = "<roots>"


@register
class ReachabilityRule(Rule):
    """Public definitions and methods no root reaches."""

    name = "reachability"

    def __init__(self, external: Iterable[SourceFile] = ()) -> None:
        super().__init__()
        #: Parsed ``ROOT_DIRS`` files; set by :func:`run_check`.
        self.external = tuple(external)
        #: The run's shared call graph over the same sources; set by
        #: :func:`run_check`, else :meth:`run` indexes its own (the rule
        #: reads definitions and imports, never call edges).
        self.graph: CallGraph | None = None
        self._unreached: dict[str, list[tuple[str, str | None, _Definition]]] = {}

    def run(self, sources: Iterable[SourceFile]) -> list[Violation]:
        materialised = list(sources)
        graph = self.graph if self.graph is not None else CallGraph(materialised)
        pragma = frozenset({self.name, f"{self.name}/unreached"})
        roots: _Uses = (set(), set())
        uses: dict[str, _Uses] = {_ROOT: roots}
        methods: dict[str, tuple[str, ...]] = {}
        # (path, qualname, owning class or None, node) of every judged unit.
        units: list[tuple[str, str, str | None, _Definition]] = []

        def seed(found: _Uses) -> None:
            roots[0].update(found[0])
            roots[1].update(found[1])

        for source in materialised:
            scan = partial(_uses, graph, source.module, source.imports)
            for stmt in source.tree.body:
                if not isinstance(stmt, _DEFINITIONS):
                    if not _is_import_or_all(stmt):
                        seed(scan([stmt]))
                    continue
                qualname = f"{source.module}.{stmt.name}"
                judged = _judged_methods(graph, stmt, source)
                methods[qualname] = tuple(judged)
                if not stmt.name.startswith("_"):
                    units.append((source.path, qualname, None, stmt))
                for name, defs in judged.items():
                    uses[f"{qualname}.{name}"] = scan(defs)
                    units.append((source.path, f"{qualname}.{name}", qualname, defs[0]))
                    if any(source.allowed(_header(d), pragma) for d in defs):
                        seed(uses[f"{qualname}.{name}"])
                own = [d for defs in judged.values() for d in defs]
                rest: list[ast.AST] = [stmt]
                if own:  # a class's node is all of it but its judged methods
                    rest = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                    rest += [part for part in stmt.body if part not in own]
                uses[qualname] = scan(rest)
                if any(_resolve(graph, d, source.module, source.imports) for d in stmt.decorator_list):
                    roots[0].add(qualname)
                elif source.allowed(_header(stmt), pragma):
                    # Kept: what it (with all its methods) uses stays
                    # reached, but it is still reported (and suppressed)
                    # unless something reaches it.
                    seed(scan([stmt]))
        for source in self.external:
            seed(_uses(graph, source.module, source.imports, [source.tree]))
        reached = _closure(uses, methods)
        self._unreached = {}
        for path, qualname, owner, node in units:
            if qualname not in reached and (owner is None or owner in reached):
                self._unreached.setdefault(path, []).append((qualname, owner, node))
        return super().run(materialised)

    def check(self, source: SourceFile) -> None:
        for qualname, owner, node in self._unreached.get(source.path, ()):
            kind = "method" if owner else "class" if isinstance(node, ast.ClassDef) else "function"
            self.report(
                source,
                node,
                "unreached",
                f"{kind} '{qualname[len(source.module) + 1:]}' is reached from no "
                "module-level statement, benchmark, perfbench workload or example "
                "(tests are not roots): delete it, or keep it with a pragma naming why",
                span=_header(node),
            )


def _header(node: _Definition) -> tuple[int, int]:
    """The decorators and ``def``/``class`` lines: where a pragma keeps it."""
    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    return first, max(node.lineno, node.body[0].lineno - 1)


def _judged_methods(
    graph: CallGraph, node: _Definition, source: SourceFile
) -> dict[str, list[_Definition]]:
    """A class's public methods by name, less overrides of outside bases."""
    judged: dict[str, list[_Definition]] = {}
    if not isinstance(node, ast.ClassDef) or any(
        _resolve(graph, base, source.module, source.imports) is None for base in node.bases
    ):
        return judged
    for stmt in node.body:
        if isinstance(stmt, _FUNCTIONS) and not stmt.name.startswith("_"):
            judged.setdefault(stmt.name, []).append(stmt)
    return judged


def _is_import_or_all(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _resolve(
    graph: CallGraph, node: ast.expr, module: str, imports: Mapping[str, str]
) -> str | None:
    """The top-level definition a Name/Attribute chain names, if any.

    A method resolves to its class; its own name's load reaches it.
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


def _uses(
    graph: CallGraph, module: str, imports: Mapping[str, str], trees: Iterable[ast.AST]
) -> _Uses:
    """The definitions ``trees`` reference and the attribute names they load."""
    refs: set[str] = set()
    attrs: set[str] = set()
    for tree in trees:
        for node in _loads(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            target = _resolve(graph, node, module, imports)
            if target is not None:
                refs.add(target)
    return refs, attrs


def _closure(uses: dict[str, _Uses], methods: dict[str, tuple[str, ...]]) -> set[str]:
    """Nodes reached from the roots; a method needs its class and its name."""
    owners: dict[str, list[str]] = {}
    for cls, judged in methods.items():
        for name in judged:
            owners.setdefault(name, []).append(cls)
    reached: set[str] = set()
    loaded: set[str] = set()
    frontier = [_ROOT]
    while frontier:
        node = frontier.pop()
        if node in reached:
            continue
        reached.add(node)
        refs, attrs = uses.get(node, (set(), set()))
        frontier.extend(refs)
        frontier.extend(f"{node}.{name}" for name in methods.get(node, ()) if name in loaded)
        for name in attrs - loaded:
            loaded.add(name)
            frontier.extend(f"{cls}.{name}" for cls in owners.get(name, ()) if cls in reached)
    return reached
