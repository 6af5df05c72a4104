"""Interprocedural lock analysis over the project call graph.

:class:`LockModel` is what the rewritten concurrency rule and the
fork-safety extension consume.  From the parsed sources plus a
:class:`~repro.check.callgraph.CallGraph` it derives:

**Lock declarations.**  Every ``threading.Lock/RLock/Condition`` bound
to a ``self.`` attribute in an ``__init__`` (a *class lock*, identified
as ``module.Class.attr``) or to a module-level name (a *module lock*,
``module.name``).

**Per-function summaries.**  A lexical walk of each definition records,
with the set of locks held at that point (``with`` statements over
known locks): every acquisition site, every ``self.`` attribute write,
and every resolved call.  Descending into a nested ``def`` resets the
held-set — the closure runs later, under whatever locks its eventual
caller holds.

**Guard inference (must-held).**  Per lock-owning class, the lattice of
held-lock sets with *intersection* at joins: a method's entry set is
the intersection over all intra-class call sites of the caller's entry
set union the locks lexically held at the call.  Public methods (and
dunders other than ``__init__``) are entry points with the empty set —
they are callable from outside with nothing held — and so are private
methods no other method calls.  ``__init__`` is exempt (construction
happens-before publication), and so is any helper reachable *only*
from ``__init__``.  A write is unguarded when its lexical held-set
union its method's inferred entry set misses every class lock — this
clears ``_locked_*`` helpers called under the lock (the old lexical
rule's false positive) while still flagging a public wrapper that
reaches the same helper lock-free (its false negative).

**Lock-order graph (may-held).**  Project-wide, the dual lattice with
*union* at joins propagates "may be held on entry" sets along resolved
call edges; each acquisition of lock *b* while *a* may be held adds the
edge ``a → b``.  Any cycle among distinct locks in that graph is a
potential deadlock, reported with a witness acquisition chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.check.callgraph import CallGraph, FunctionInfo
from repro.check.rules import dotted_path
from repro.check.walker import SourceFile

#: threading constructors whose product guards shared state.
LOCK_CONSTRUCTORS = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition"}
)

#: Cap on reconstructed witness-chain length (cyclic witnesses).
MAX_CHAIN = 12


@dataclass(frozen=True)
class LockDecl:
    """One known lock: a class attribute or a module-level binding."""

    ident: str  # "repro.serve.cache.LRUCache._lock" / "repro.obs.tracer._counter_lock"
    owner: str | None  # owning class qualname, None for module locks
    attr: str  # attribute or binding name
    module: str
    node: ast.stmt  # the creating assignment
    source: SourceFile


@dataclass(frozen=True)
class Acquisition:
    """One ``with``-acquisition of a known lock."""

    lock: str  # LockDecl.ident
    function: str  # acquiring function qualname
    node: ast.expr  # the with-item context expression
    held: frozenset[str]  # locks lexically held at this site


@dataclass(frozen=True)
class WriteSite:
    """One ``self.<attr>`` write inside a lock-owning class's method."""

    function: str
    attr: str
    node: ast.stmt
    held: frozenset[str]


@dataclass(frozen=True)
class LockCall:
    """One resolved call with the locks lexically held around it."""

    caller: str
    callee: str
    node: ast.Call
    held: frozenset[str]


@dataclass(frozen=True)
class UnguardedWrite:
    """Guard-inference finding: a write no call path protects."""

    cls: str  # class qualname
    function: str
    attr: str
    node: ast.stmt
    source: SourceFile
    entry_held: frozenset[str]  # inferred must-held on method entry
    witness: tuple[str, ...]  # lock-free call path from an entry point


@dataclass
class OrderEdge:
    """Lock *a* is (somewhere) held while lock *b* is acquired."""

    src: str
    dst: str
    sites: list[tuple[str, ast.expr]] = field(default_factory=list)
    chains: list[str] = field(default_factory=list)  # witness acquisition chains


def _is_self_attr(expr: ast.expr) -> str | None:
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _lock_decls(sources: Iterable[SourceFile]) -> dict[str, LockDecl]:
    """Every class-attribute and module-level lock in the project."""
    decls: dict[str, LockDecl] = {}

    def _value_is_lock(stmt: ast.stmt, imports: Mapping[str, str]) -> bool:
        value = getattr(stmt, "value", None)
        if not isinstance(value, ast.Call):
            return False
        return dotted_path(value.func, imports) in LOCK_CONSTRUCTORS

    def _targets(stmt: ast.stmt) -> list[ast.expr]:
        if isinstance(stmt, ast.Assign):
            return list(stmt.targets)
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            return [stmt.target]
        return []

    for source in sources:
        imports = source.imports
        for top in source.tree.body:
            if isinstance(top, (ast.Assign, ast.AnnAssign)):
                if not _value_is_lock(top, imports):
                    continue
                for target in _targets(top):
                    if isinstance(target, ast.Name):
                        ident = f"{source.module}.{target.id}"
                        decls[ident] = LockDecl(
                            ident, None, target.id, source.module, top, source
                        )
            elif isinstance(top, ast.ClassDef):
                owner = f"{source.module}.{top.name}"
                for stmt in top.body:
                    if (
                        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and stmt.name == "__init__"
                    ):
                        for node in ast.walk(stmt):
                            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                                continue
                            if not _value_is_lock(node, imports):
                                continue
                            for target in _targets(node):
                                attr = _is_self_attr(target)
                                if attr is not None:
                                    ident = f"{owner}.{attr}"
                                    decls[ident] = LockDecl(
                                        ident, owner, attr, source.module, node, source
                                    )
    return decls


class LockModel:
    """Lock declarations, per-function summaries and derived graphs."""

    def __init__(self, graph: CallGraph, decls: dict[str, LockDecl]) -> None:
        self.graph = graph
        self.decls = decls
        self.by_class: dict[str, frozenset[str]] = {}
        for decl in decls.values():
            if decl.owner is not None:
                current = self.by_class.get(decl.owner, frozenset())
                self.by_class[decl.owner] = current | {decl.ident}
        self.acquisitions: list[Acquisition] = []
        self.writes: dict[str, list[WriteSite]] = {}  # function -> writes
        self.calls: list[LockCall] = []
        self.entry_may_held: dict[str, frozenset[str]] = {}
        self.order_edges: dict[tuple[str, str], OrderEdge] = {}
        self._may_witness: dict[tuple[str, str], str] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls, sources: Iterable[SourceFile], graph: CallGraph | None = None
    ) -> "LockModel":
        """The lock model of ``sources``, with the call graph it carries.

        The one builder: :func:`repro.check.runner.run_check` calls it
        once per run and hands the result to every rule that reads it;
        a rule run on its own and the lock sanitizer call it themselves.
        ``graph``, when given, must be ``CallGraph.build(sources)``.
        """
        materialised = list(sources)
        if graph is None:
            graph = CallGraph.build(materialised)
        model = cls(graph, _lock_decls(materialised))
        for info in graph.functions.values():
            model._summarise(info)
        model._propagate_may_held()
        model._build_order_edges()
        return model

    # -- per-function lexical walk --------------------------------------

    def _summarise(self, info: FunctionInfo) -> None:
        imports = info.source.imports
        class_locks = (
            self.by_class.get(f"{info.module}.{info.cls}", frozenset())
            if info.cls is not None
            else frozenset()
        )
        collect_writes = bool(class_locks) and info.name != "__init__"
        lock_attr_names = {self.decls[ident].attr for ident in class_locks}

        def lock_ident(expr: ast.expr) -> str | None:
            attr = _is_self_attr(expr)
            if attr is not None:
                candidate = f"{info.module}.{info.cls}.{attr}"
                return candidate if candidate in self.decls else None
            dotted = dotted_path(expr, imports)
            if dotted is None:
                return None
            if "." not in dotted:
                dotted = f"{info.module}.{dotted}"
            return dotted if dotted in self.decls else None

        def scan_calls(expr: ast.expr, held: frozenset[str]) -> None:
            if isinstance(expr, ast.Lambda):
                return  # runs later, under the eventual caller's locks
            if isinstance(expr, ast.Call):
                callee = self.graph.resolve_call(expr, info)
                if callee is not None:
                    self.calls.append(LockCall(info.qualname, callee, expr, held))
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    scan_calls(child, held)

        def visit(stmt: ast.stmt, held: frozenset[str], nested: bool) -> None:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = held
                for item in stmt.items:
                    scan_calls(item.context_expr, inner)
                    ident = lock_ident(item.context_expr)
                    if ident is not None:
                        self.acquisitions.append(
                            Acquisition(ident, info.qualname, item.context_expr, inner)
                        )
                        inner = inner | {ident}
                for child in stmt.body:
                    visit(child, inner, nested)
                return
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def runs later: locks held here are not held there.
                for child in stmt.body:
                    visit(child, frozenset(), True)
                return
            if isinstance(stmt, ast.ClassDef):
                return
            if collect_writes and not nested:
                for attr in _self_writes(stmt, lock_attr_names):
                    self.writes.setdefault(info.qualname, []).append(
                        WriteSite(info.qualname, attr, stmt, held)
                    )
            descend(stmt, held, nested)

        def descend(node: ast.AST, held: frozenset[str], nested: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    visit(child, held, nested)
                elif isinstance(child, ast.expr):
                    scan_calls(child, held)
                else:  # ExceptHandler, match cases, ...
                    descend(child, held, nested)

        for stmt in info.node.body:
            visit(stmt, frozenset(), False)

    # -- may-held propagation and the lock-order graph ------------------

    def _propagate_may_held(self) -> None:
        """Union-lattice fixed point: locks possibly held entering each fn."""
        out_calls: dict[str, list[LockCall]] = {}
        for call in self.calls:
            out_calls.setdefault(call.caller, []).append(call)
        entry: dict[str, set[str]] = {}
        worklist = list(self.calls)
        while worklist:
            call = worklist.pop()
            contribution = set(call.held) | entry.get(call.caller, set())
            target = entry.setdefault(call.callee, set())
            new = contribution - target
            if not new:
                continue
            for lock in new:
                self._may_witness.setdefault((call.callee, lock), call.caller)
            target |= new
            worklist.extend(out_calls.get(call.callee, ()))
        self.entry_may_held = {
            name: frozenset(locks) for name, locks in entry.items()
        }

    def _witness_chain(self, function: str, lock: str) -> str:
        """`holder <- ... <- function`: how ``lock`` got to be held here."""
        chain = [function]
        current = function
        for _ in range(MAX_CHAIN):
            previous = self._may_witness.get((current, lock))
            if previous is None or previous in chain:
                break
            chain.append(previous)
            current = previous
        return " <- ".join(_short(name) for name in chain)

    def _build_order_edges(self) -> None:
        for acq in self.acquisitions:
            held = acq.held | self.entry_may_held.get(acq.function, frozenset())
            for src in held:
                if src == acq.lock:
                    continue  # RLock re-entry / same-attr nesting: not an order
                key = (src, acq.lock)
                edge = self.order_edges.get(key)
                if edge is None:
                    edge = self.order_edges[key] = OrderEdge(src, acq.lock)
                edge.sites.append((acq.function, acq.node))
                if src in acq.held:
                    edge.chains.append(f"held lexically in {_short(acq.function)}")
                else:
                    edge.chains.append(self._witness_chain(acq.function, src))

    def order_cycles(self) -> list[tuple[str, ...]]:
        """Strongly connected lock sets of size >= 2, sorted for stability."""
        adjacency: dict[str, set[str]] = {}
        for src, dst in self.order_edges:
            adjacency.setdefault(src, set()).add(dst)
            adjacency.setdefault(dst, set())
        sccs = _tarjan(adjacency)
        return sorted(tuple(sorted(scc)) for scc in sccs if len(scc) >= 2)

    def cycle_edges(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """Order edges inside a cycle, mapped to their lock cycle."""
        result: dict[tuple[str, str], tuple[str, ...]] = {}
        for cycle in self.order_cycles():
            members = set(cycle)
            for key in self.order_edges:
                if key[0] in members and key[1] in members:
                    result[key] = cycle
        return result

    # -- guard inference (must-held) ------------------------------------

    def unguarded_writes(self, cls_qualname: str) -> list[UnguardedWrite]:
        """Writes in one lock-owning class that no call path guards."""
        locks = self.by_class.get(cls_qualname, frozenset())
        if not locks:
            return []
        methods = {
            name: info
            for name, info in self.graph.functions.items()
            if name.rpartition(".")[0] == cls_qualname
        }
        init = f"{cls_qualname}.__init__"
        intra = [
            call
            for call in self.calls
            if call.caller in methods and call.callee in methods
        ]
        called = {call.callee for call in intra}
        entries = {
            name
            for name, info in methods.items()
            if name != init
            and (not info.name.startswith("_") or _is_dunder(info.name) or name not in called)
        }
        # Methods reachable from an entry point without passing through
        # __init__; everything else (init-only helpers) is exempt.
        checked = set(entries)
        changed = True
        while changed:
            changed = False
            for call in intra:
                if call.caller in checked and call.callee not in checked:
                    if call.callee != init:
                        checked.add(call.callee)
                        changed = True
        # Must-held entry sets: intersection over non-__init__ call sites.
        held_on_entry: dict[str, frozenset[str]] = {
            name: (frozenset() if name in entries else locks) for name in methods
        }
        non_init = [call for call in intra if call.caller != init]
        changed = True
        while changed:
            changed = False
            for name in methods:
                if name in entries:
                    continue
                incoming = [call for call in non_init if call.callee == name]
                if not incoming:
                    continue
                new = frozenset(locks)
                for call in incoming:
                    new &= held_on_entry[call.caller] | call.held
                if new != held_on_entry[name]:
                    held_on_entry[name] = new
                    changed = True
        lock_free, parents = self._lock_free_reach(entries, non_init, locks)
        findings: list[UnguardedWrite] = []
        for name in sorted(checked):
            for write in self.writes.get(name, ()):
                effective = write.held | held_on_entry[name]
                if effective & locks:
                    continue
                witness: tuple[str, ...] = ()
                if name not in entries and name in lock_free:
                    witness = _trace(parents, name)
                findings.append(
                    UnguardedWrite(
                        cls=cls_qualname,
                        function=name,
                        attr=write.attr,
                        node=write.node,
                        source=methods[name].source,
                        entry_held=held_on_entry[name],
                        witness=witness,
                    )
                )
        return findings

    @staticmethod
    def _lock_free_reach(
        entries: set[str], calls: list[LockCall], locks: frozenset[str]
    ) -> tuple[set[str], dict[str, str]]:
        """Methods reachable from an entry with no class lock ever held."""
        reach = set(entries)
        parents: dict[str, str] = {}
        frontier = list(entries)
        while frontier:
            current = frontier.pop()
            for call in calls:
                if call.caller != current or call.callee in reach:
                    continue
                if call.held & locks:
                    continue
                reach.add(call.callee)
                parents[call.callee] = current
                frontier.append(call.callee)
        return reach, parents


def _self_writes(stmt: ast.stmt, lock_attrs: set[str]) -> list[str]:
    """self attributes written by one statement (ignoring the locks)."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AugAssign):
        targets = [stmt.target]
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    written: list[str] = []
    for target in targets:
        candidates = list(target.elts) if isinstance(target, ast.Tuple) else [target]
        for candidate in candidates:
            attr = _is_self_attr(candidate)
            if attr is not None and attr not in lock_attrs:
                written.append(attr)
    return written


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _short(qualname: str) -> str:
    """`Class.method` (or `module.function`) for messages."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qualname


def _trace(parents: dict[str, str], leaf: str) -> tuple[str, ...]:
    chain = [leaf]
    current = leaf
    for _ in range(MAX_CHAIN):
        previous = parents.get(current)
        if previous is None or previous in chain:
            break
        chain.append(previous)
        current = previous
    return tuple(_short(name) for name in reversed(chain))


def _tarjan(adjacency: dict[str, set[str]]) -> list[list[str]]:
    """Iterative Tarjan SCC (no recursion: the graph is user input)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0
    for root in adjacency:
        if root in index:
            continue
        work: list[tuple[str, iter]] = [(root, iter(sorted(adjacency[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            advanced = False
            for nxt in edges:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(adjacency[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs
