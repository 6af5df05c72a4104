"""Orchestration for ``repro.check``: walk, apply rules, ratchet.

:func:`run_check` is the whole programmatic API — the CLI, the CI gate
and the test suite all call it.  It parses every file under
``<root>/src/repro`` once (and, as roots for the reachability rule
only, ``benchmarks/``, ``perfbench/`` and ``examples/``), runs the
selected rule families over the shared parse results, resolves
findings against the baseline and returns a :class:`CheckResult`
whose ``ok`` decides the exit code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.check.baseline import diff_against_baseline, load_baseline, save_baseline
from repro.check.reachability import ROOT_DIRS, ReachabilityRule
from repro.check.rules import RULE_FACTORIES, Rule, Violation
from repro.check.walker import CheckConfigError, SourceFile, iter_source_files

# Importing the rule modules registers their factories.
from repro.check import concurrency, determinism, forksafety, hygiene, layering  # noqa: F401

#: Default baseline filename, resolved relative to the project root.
BASELINE_FILENAME = "check-baseline.json"


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


def make_rule(name: str, roots: list[SourceFile]) -> Rule:
    """A fresh rule of family ``name``; only reachability sees ``roots``."""
    rule = RULE_FACTORIES[name]()
    if isinstance(rule, ReachabilityRule):
        rule.external = tuple(roots)
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
    violations: list[Violation] = []
    suppressed = 0
    for name in selected:
        rule = make_rule(name, roots)
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
