"""Project-aware static analysis with a ratcheting baseline.

``repro.check`` is a dependency-free (stdlib-``ast``-only) analyzer
that enforces this repository's own correctness contracts — things no
off-the-shelf linter knows about:

``layering``
    The package DAG (``geo``/``stats``/``obs`` → ``data`` →
    ``synth``/``extraction``/``models`` → domain → ``experiments`` →
    ``pipeline`` → ``serve`` → entry points): no kernel ever imports
    upward into orchestration or service code.
``determinism``
    No wall-clock reads, process-global RNG use, unseeded generators,
    or kernel ``os.environ`` reads — the constructs that silently
    poison the content-addressed artifact cache and the golden pins.
``hygiene``
    No ``print()`` in library code (stdout belongs to artefacts; use
    :mod:`repro.obs.logs`), no mutable default arguments, no bare or
    swallowed ``except``.
``concurrency``
    Interprocedural, over the project call graph
    (:mod:`repro.check.callgraph`): in ``serve``/``cluster``/
    ``summary``, every write to a lock-owning class's shared state
    must be reached with the lock held on *every* call path from a
    public entry point, and the project-wide lock-order graph must be
    acyclic (an ABBA cycle is a potential deadlock).
``forksafety``
    No threads, locks or executors constructed at import time in
    modules reachable from ``repro.cluster``'s pre-fork import path,
    no wall-clock/per-process-entropy reads in worker-init code, and
    no lock acquired on both the supervisor and worker sides of
    ``fork()`` — the constructs that break or diverge forked workers.
``reachability``
    Every top-level public function or class of ``src/repro`` must be
    reached from a module-level statement, a project decorator, or a
    reference in ``benchmarks/``, ``perfbench/`` or ``examples/``;
    tests are not roots (:mod:`repro.check.reachability`).

The static lock-order graph is validated by execution:
:mod:`repro.check.sanitizer` (opt-in via ``REPRO_LOCK_SANITIZER=1``)
instruments lock acquisition while the test suite runs and fails on
any observed inversion of the derived order, or any observed order
between known locks that the derived graph lacks.

Violations resolve against the committed ``check-baseline.json``:
existing debt is inventoried there, anything new fails.  Inline
``# repro: allow[rule] reason`` pragmas suppress individual sites.

Run ``repro check`` (text) or ``repro check --format json`` (CI
artifact); re-record accepted debt with ``repro check --baseline``.
"""

from repro.check.baseline import (
    BASELINE_VERSION,
    BaselineDiff,
    diff_against_baseline,
    load_baseline,
    save_baseline,
)
from repro.check.layering import LAYER_DAG
from repro.check.report import JSON_REPORT_KEYS, render_json, render_text
from repro.check.rules import RULE_FACTORIES, Rule, Violation
from repro.check.runner import (
    BASELINE_FILENAME,
    CheckResult,
    discover_root,
    run_check,
)
from repro.check.walker import CheckConfigError, SourceFile, iter_source_files

__all__ = [
    "BASELINE_FILENAME",
    "BASELINE_VERSION",
    "BaselineDiff",
    "CheckConfigError",
    "CheckResult",
    "JSON_REPORT_KEYS",
    "LAYER_DAG",
    "RULE_FACTORIES",
    "Rule",
    "SourceFile",
    "Violation",
    "diff_against_baseline",
    "discover_root",
    "iter_source_files",
    "load_baseline",
    "render_json",
    "render_text",
    "run_check",
    "save_baseline",
]
