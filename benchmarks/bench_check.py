"""P2 — static-analysis benchmark: full-repo ``repro check`` timings.

Times the ratchet gate end to end over the real repository — parse,
the shared program model (one :meth:`LockModel.build`, which carries
the call graph), each registered rule in isolation against that
prebuilt model as :func:`repro.check.runner.run_check` hands it over
(the reachability rule also gets the parsed ``benchmarks/``,
``perfbench/`` and ``examples/`` roots), and the full
:func:`repro.check.runner.run_check` pipeline::

    python benchmarks/bench_check.py --out bench-check.json

The full-check time is normalized (``_ratchet``) and gated against the
committed ``BENCH_check.json``.
"""

from __future__ import annotations

import json

import _ratchet
from _ratchet import best_of

from repro.check.lockmodel import LockModel
from repro.check.rules import RULE_FACTORIES
from repro.check.runner import make_rule, root_sources, run_check
from repro.check.walker import iter_source_files

#: CLI defaults; ``root`` resolves against the repository root.
WORKLOAD = {"root": "."}

GATED = {"full_check.seconds": "lower"}


def run_benchmark(root: str) -> dict:
    """Time parse, the model, every rule, and the full pipeline over ``root``."""
    root_path = _ratchet.REPO_ROOT / root
    package_root = root_path / "src" / "repro"

    def timing(fn) -> dict:
        return {"seconds": round(best_of(fn)[0], 4)}

    sources = list(iter_source_files(package_root))
    roots = root_sources(root_path)
    model_seconds, model = best_of(lambda: LockModel.build(sources))
    rules = [
        {"rule": name, **timing(lambda: make_rule(name, roots, model).run(sources))}
        for name in sorted(RULE_FACTORIES)
    ]
    full_seconds, result = best_of(lambda: run_check(root=root_path))

    return {
        "repo": {
            "files_scanned": len(sources),
            "check_ok": result.ok,
            "new_violations": len(result.new),
        },
        "parse": timing(lambda: list(iter_source_files(package_root))),
        "model": {"seconds": round(model_seconds, 4)},
        "rules": rules,
        "full_check": {"seconds": round(full_seconds, 4)},
    }


def test_check_benchmark():
    """Harness entry: the full-repo pass must be clean and benchmarkable."""
    summary = run_benchmark(**WORKLOAD)
    print()
    print(json.dumps(summary, indent=2))
    assert summary["repo"]["check_ok"]
    assert summary["repo"]["files_scanned"] >= 100
    assert {row["rule"] for row in summary["rules"]} >= {
        "concurrency",
        "forksafety",
        "determinism",
        "reachability",
    }
    assert summary["full_check"]["seconds"] < 10.0


if __name__ == "__main__":
    raise SystemExit(_ratchet.main("check", run_benchmark, WORKLOAD, GATED))
