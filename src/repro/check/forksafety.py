"""Fork-safety rule: keep threads and clocks out of pre-fork paths.

``repro.cluster`` forks workers after importing the serving stack.
``fork()`` copies exactly one thread into the child: any thread started
at import time silently does not exist in workers, and a lock created
at import time may be *held* by another thread at fork, deadlocking the
first child that touches it.  Worker warmup code has the complementary
hazard: wall-clock or OS-entropy reads there make freshly restarted
workers observably different from their siblings.

Three checks:

* ``prefork-thread`` — a ``threading`` primitive or executor
  constructed at *import time* (module body or class body, not inside a
  function) in any module reachable, via the ``repro``-internal import
  graph, from the ``repro.cluster`` package.  The import graph is
  rebuilt per run from the parsed sources (``if TYPE_CHECKING:``
  imports excluded — they never execute), so moving a module in or out
  of the pre-fork path updates the finding set automatically.
* ``worker-init-clock`` / ``worker-init-rng`` — wall-clock reads and
  unseeded/global RNG use inside worker-initialisation functions of the
  ``cluster`` package itself (``worker_main``, ``warmup*``, ``*_init``).
* ``fork-shared-lock`` — the cross-process hazard: a lock acquired by
  code reachable from the supervisor's call paths **and** from
  ``worker_main``'s.  After ``fork()`` the two sides hold independent
  copies of the lock, so it cannot actually serialise anything between
  them — worse, a copy forked while held wedges the child.  Reachability
  comes from the project call graph (:mod:`repro.check.callgraph`) with
  the supervisor's ``worker_main`` call severed — that edge *is* the
  fork boundary.  The finding is reported at the lock's creation site.

Genuinely-benign sites (e.g. ``repro.obs``'s module-level registry
locks, which are only ever held for microseconds around a dict write)
carry ``# repro: allow[forksafety]`` pragmas with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.check.determinism import SEEDABLE_CONSTRUCTORS, WALL_CLOCK_CALLS
from repro.check.lockmodel import LockModel, _short
from repro.check.rules import Rule, Violation, dotted_path, register
from repro.check.walker import SourceFile, repro_imports

#: The package whose import closure is the pre-fork path.
PREFORK_ROOT = "repro.cluster"

#: The module whose functions run on the supervisor side of fork().
SUPERVISOR_MODULE = "repro.cluster.supervisor"

#: The fork boundary: the one call that crosses into the child.
WORKER_ENTRY = "repro.cluster.worker.worker_main"

#: Constructors whose product must not cross a fork boundary.
THREAD_CONSTRUCTORS = frozenset(
    {
        "threading.Thread",
        "threading.Timer",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Event",
        "threading.Barrier",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
    }
)

#: Worker-initialisation function names in the cluster package.
def _is_worker_init(name: str) -> bool:
    return name == "worker_main" or name.startswith("warmup") or name.endswith("_init")


def reachable_modules(sources: Iterable[SourceFile]) -> set[str]:
    """Module names importable while ``repro.cluster`` imports.

    Importing ``repro.a.b`` also executes ``repro.a``'s ``__init__``,
    so every ancestor package of an edge target is an edge too.
    """
    by_module = {source.module: source for source in sources}
    edges: dict[str, set[str]] = {}
    for module, source in by_module.items():
        resolved: set[str] = set()
        for _, targets in repro_imports(source):
            for target in targets:
                parts = target.split(".")
                for depth in range(1, len(parts) + 1):
                    prefix = ".".join(parts[:depth])
                    if prefix in by_module:
                        resolved.add(prefix)
        edges[module] = resolved
    seeds = [
        module
        for module in by_module
        if module == PREFORK_ROOT or module.startswith(PREFORK_ROOT + ".")
    ]
    seen: set[str] = set(seeds)
    frontier = list(seeds)
    while frontier:
        current = frontier.pop()
        for target in edges.get(current, ()):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def _import_time_calls(tree: ast.Module) -> Iterable[ast.Call]:
    """Call nodes that execute while the module imports.

    Everything under the module body *except* function and lambda
    bodies, which run later (if ever).  Decorators and argument
    defaults do evaluate at import time, so those subtrees stay in.
    """
    frontier: list[ast.AST] = list(tree.body)
    while frontier:
        node = frontier.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            frontier.extend(node.decorator_list)
            frontier.extend(node.args.defaults)
            frontier.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            yield node
        frontier.extend(ast.iter_child_nodes(node))


@register
class ForkSafetyRule(Rule):
    """Flags fork hazards on the cluster's pre-fork import path."""

    name = "forksafety"

    def __init__(self) -> None:
        super().__init__()
        #: The run's shared lock model over the same sources; set by
        #: :func:`run_check`, else :meth:`run` builds its own.
        self.model: LockModel | None = None
        self._reachable: set[str] = set()
        self._shared_locks: dict[str, list[tuple[ast.AST, str]]] = {}

    def run(self, sources: Iterable[SourceFile]) -> list[Violation]:
        materialised = list(sources)
        model = self.model if self.model is not None else LockModel.build(materialised)
        self._reachable = reachable_modules(materialised)
        self._shared_locks = _fork_shared_locks(model)
        return super().run(materialised)

    def check(self, source: SourceFile) -> None:
        if source.module in self._reachable:
            self._check_import_time(source)
        if source.package == "cluster":
            self._check_worker_init(source)
        for node, message in self._shared_locks.get(source.path, ()):
            self.report(source, node, "fork-shared-lock", message)

    def _check_import_time(self, source: SourceFile) -> None:
        for call in _import_time_calls(source.tree):
            path = dotted_path(call.func, source.imports)
            if path in THREAD_CONSTRUCTORS:
                self.report(
                    source,
                    call,
                    "prefork-thread",
                    f"{path}() at import time in '{source.module}', "
                    f"which is on {PREFORK_ROOT}'s pre-fork import "
                    "path: threads and locks created before fork() "
                    "are copied into every worker in an undefined "
                    "state — construct it lazily, after the fork",
                )

    def _check_worker_init(self, source: SourceFile) -> None:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_worker_init(node.name):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                path = dotted_path(call.func, source.imports)
                if path is None:
                    continue
                if path in WALL_CLOCK_CALLS:
                    self.report(
                        source,
                        call,
                        "worker-init-clock",
                        f"{path}() in worker-init '{node.name}': a "
                        "restarted worker would warm up against a "
                        "different clock than its siblings — take "
                        "timestamps from the supervisor or the stream",
                    )
                elif (
                    path in SEEDABLE_CONSTRUCTORS
                    and not (call.args or call.keywords)
                ) or path.startswith("random."):
                    self.report(
                        source,
                        call,
                        "worker-init-rng",
                        f"{path}() in worker-init '{node.name}' draws "
                        "per-process entropy: shards would diverge on "
                        "restart — derive seeds from the shard index",
                    )


def _fork_shared_locks(model: LockModel) -> dict[str, list[tuple[ast.AST, str]]]:
    """fork-shared-lock findings, grouped by the declaring file's path.

    A lock is cross-process-hazardous when at least one of its
    acquisition sites is reachable from the supervisor's functions and
    at least one from ``worker_main`` — computed on the call graph with
    the supervisor's call into :data:`WORKER_ENTRY` severed, because
    that edge is exactly where ``fork()`` splits the address space.
    """
    graph = model.graph
    supervisor_seeds = [
        name
        for name, info in graph.functions.items()
        if info.module == SUPERVISOR_MODULE
    ]
    if not supervisor_seeds or WORKER_ENTRY not in graph.functions:
        return {}
    supervisor_side = graph.reachable_from(
        supervisor_seeds, skip=frozenset({WORKER_ENTRY})
    )
    worker_side = graph.reachable_from([WORKER_ENTRY])
    acquirers: dict[str, set[str]] = {}
    for acq in model.acquisitions:
        acquirers.setdefault(acq.lock, set()).add(acq.function)
    findings: dict[str, list[tuple[ast.AST, str]]] = {}
    for ident in sorted(acquirers):
        functions = acquirers[ident]
        sup = sorted(functions & supervisor_side)
        wrk = sorted(functions & worker_side)
        if not sup or not wrk:
            continue
        decl = model.decls[ident]
        findings.setdefault(decl.source.path, []).append(
            (
                decl.node,
                f"lock '{ident}' is acquired on both sides of fork(): "
                f"supervisor path via {_short(sup[0])}, worker path via "
                f"{_short(wrk[0])} — after the fork each process holds an "
                "independent copy, so it serialises nothing between them "
                "(and a copy forked while held wedges the child); keep the "
                "state single-sided or move it into the artifact store",
            )
        )
    return findings
