"""Orchestration for ``repro.check``: walk, apply rules, ratchet.

:func:`run_check` is the whole programmatic API — the CLI, the CI gate
and the test suite all call it.  One run builds one program model:

* every file under ``<root>/src/repro`` is parsed once, and its import
  map resolved once (:attr:`SourceFile.imports`); so are
  ``benchmarks/``, ``perfbench/`` and ``examples/``, the roots the
  reachability rule alone reads;
* one :class:`~repro.check.lockmodel.LockModel`, carrying one
  :class:`~repro.check.callgraph.CallGraph`, is built by
  :meth:`LockModel.build` when a selected rule reads it, and handed to
  the concurrency, fork-safety and reachability rules by
  :func:`make_rule` (a run whose only reader is reachability indexes
  just the call graph's definitions, inside that rule).
  ``LockSanitizer.verify_tree`` derives its static lock graph through
  the same builder.

It then runs the selected rule families over that model, resolves
findings against the baseline and returns a :class:`CheckResult` whose
``ok`` decides the exit code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.check.baseline import diff_against_baseline, load_baseline, save_baseline
from repro.check.lockmodel import LockModel
from repro.check.reachability import ROOT_DIRS, ReachabilityRule
from repro.check.rules import RULE_FACTORIES, Rule, Violation
from repro.check.walker import CheckConfigError, SourceFile, iter_source_files

# Importing the rule modules registers their factories.
from repro.check import concurrency, determinism, forksafety, hygiene, layering  # noqa: F401

#: Default baseline filename, resolved relative to the project root.
BASELINE_FILENAME = "check-baseline.json"

#: The rules that read the run's lock model.
MODEL_RULES = (concurrency.ConcurrencyRule, forksafety.ForkSafetyRule)


@dataclass(frozen=True)
class CheckResult:
    """Everything one check run produced."""

    root: Path
    rules: tuple[str, ...]
    files_scanned: int
    duration_seconds: float
    new: tuple[Violation, ...]
    baselined: tuple[Violation, ...]
    stale: tuple[dict, ...]
    suppressed: int
    recorded: int | None = None  # entries written by --baseline, else None

    @property
    def ok(self) -> bool:
        """True when nothing outside the baseline was found."""
        return not self.new

    def counts_by_rule(self) -> dict[str, int]:
        """New-violation counts per rule family."""
        counts: dict[str, int] = {}
        for violation in self.new:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts


def discover_root(start: Path | None = None) -> Path:
    """The project root: the nearest ancestor holding ``src/repro``.

    Starts from ``start`` (default: the current directory) and walks
    up; falls back to the tree this installed package sits in (an
    editable install's checkout).
    """
    candidates: list[Path] = []
    origin = (start or Path.cwd()).resolve()
    candidates.extend([origin, *origin.parents])
    package_dir = Path(__file__).resolve().parent  # .../src/repro/check
    candidates.extend(package_dir.parents)
    for candidate in candidates:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    raise CheckConfigError(
        f"cannot find a project root (a directory containing src/repro) "
        f"above {origin}"
    )


def root_sources(root: Path) -> list[SourceFile]:
    """The parsed ``ROOT_DIRS`` files: reachability roots, never checked."""
    return [
        source
        for name in ROOT_DIRS
        if (root / name).is_dir()
        for source in iter_source_files(root / name, project_root=root)
    ]


def make_rule(name: str, roots: list[SourceFile], model: LockModel | None = None) -> Rule:
    """A fresh rule of family ``name``, handed the run's shared model.

    Concurrency and fork-safety read ``model``; reachability reads
    ``roots`` and the call graph ``model`` carries.  Without a model,
    the rule builds its own from the sources it runs on.
    """
    rule = RULE_FACTORIES[name]()
    if isinstance(rule, ReachabilityRule):
        rule.external = tuple(roots)
        rule.graph = model.graph if model is not None else None
    elif isinstance(rule, MODEL_RULES):
        rule.model = model
    return rule


def run_check(
    root: Path | None = None,
    rules: tuple[str, ...] | None = None,
    baseline_path: Path | None = None,
    record: bool = False,
) -> CheckResult:
    """Run the static checks and resolve them against the baseline.

    ``rules`` selects a subset of families (default: all registered).
    ``record=True`` rewrites the baseline from the current findings —
    the resulting :class:`CheckResult` then reports zero new violations
    by construction.
    """
    started = time.perf_counter()
    resolved_root = (root or discover_root()).resolve()
    src_root = resolved_root / "src" / "repro"
    if not src_root.is_dir():
        raise CheckConfigError(f"no src/repro under {resolved_root}")

    selected = rules if rules is not None else tuple(RULE_FACTORIES)
    unknown = [name for name in selected if name not in RULE_FACTORIES]
    if unknown:
        raise CheckConfigError(
            f"unknown rule families {unknown}; available: {sorted(RULE_FACTORIES)}"
        )

    sources = list(iter_source_files(src_root))
    roots = root_sources(resolved_root) if "reachability" in selected else []
    # One lock model (and the call graph it carries) for every rule that
    # reads it; a lone reachability rule indexes its own call graph.
    reads_model = any(cls.name in selected for cls in MODEL_RULES)
    model = LockModel.build(sources) if reads_model else None
    violations: list[Violation] = []
    suppressed = 0
    for name in selected:
        rule = make_rule(name, roots, model)
        violations.extend(rule.run(sources))
        suppressed += rule.suppressed
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))

    resolved_baseline = baseline_path or (resolved_root / BASELINE_FILENAME)
    recorded: int | None = None
    if record:
        recorded = save_baseline(resolved_baseline, violations)
    diff = diff_against_baseline(violations, load_baseline(resolved_baseline))
    return CheckResult(
        root=resolved_root,
        rules=tuple(selected),
        files_scanned=len(sources),
        duration_seconds=time.perf_counter() - started,
        new=diff.new,
        baselined=diff.baselined,
        stale=diff.stale,
        suppressed=suppressed,
        recorded=recorded,
    )
