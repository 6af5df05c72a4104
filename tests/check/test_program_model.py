"""One program model per ``run_check``: shared, built once, and faithful.

``run_check`` parses each file once, resolves its imports once, and
hands one call graph and lock model to every rule that reads them.
These tests count the builds, and check that the shared model finds
exactly what each rule finds when run on its own.
"""

import pytest

from repro.check import walker
from repro.check.callgraph import CallGraph
from repro.check.concurrency import ConcurrencyRule
from repro.check.forksafety import ForkSafetyRule
from repro.check.lockmodel import LockModel
from repro.check.runner import run_check
from repro.check.walker import SourceFile, iter_source_files, repro_imports
from tests.check import test_rule_fixtures as fixtures


@pytest.fixture
def builds(monkeypatch):
    """Count every call-graph build, lock-model build and import resolution."""
    calls: dict[str, list] = {"call graph": [], "lock model": [], "imports": []}

    def spy(owner, name: str, key: str) -> None:
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key].append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(CallGraph, "build", "call graph")
    spy(LockModel, "build", "lock model")
    spy(walker, "resolve_imports", "imports")
    return calls


def test_one_run_builds_each_model_once(make_project, builds):
    root = make_project(
        {
            "serve/pair.py": fixtures.ABBA,
            "cluster/worker.py": (
                "from repro.serve.pair import Pair\n"
                "def worker_main(shard):\n"
                "    Pair().forward()\n"
            ),
        }
    )
    (root / "benchmarks").mkdir()
    (root / "benchmarks" / "bench_pair.py").write_text(
        "from repro.cluster.worker import worker_main\nworker_main(0)\n", encoding="utf-8"
    )
    result = run_check(root=root)
    assert "concurrency/lock-order-cycle" in {v.code for v in result.new}
    assert len(builds["call graph"]) == 1
    assert len(builds["lock model"]) == 1
    # Every src/repro file plus the one benchmark root, each once.
    trees = builds["imports"]
    assert len(trees) == result.files_scanned + 1
    assert len({id(tree) for tree in trees}) == len(trees)


FIXTURE_TESTS = [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}")
    for cls in vars(fixtures).values()
    if isinstance(cls, type) and cls.__name__.startswith("Test")
    for name in vars(cls)
    if name.startswith("test_")
]


def family(violations, name: str) -> list:
    return sorted(
        (v for v in violations if v.rule == name),
        key=lambda v: (v.path, v.line, v.col, v.code),
    )


@pytest.mark.parametrize(("cls", "name"), FIXTURE_TESTS)
def test_shared_model_matches_bare_rules(cls, name, make_project, monkeypatch):
    """Each fixture tree: run_check's findings equal the bare rules' findings.

    Re-runs the fixture test with its ``run_check`` wrapped, so the
    test's own assertions hold and every tree it builds is compared.
    """
    compared = []

    def run_check_and_compare(root, rules):
        result = run_check(root=root, rules=rules)
        sources = list(iter_source_files(root / "src" / "repro"))
        for rule in (ConcurrencyRule(), ForkSafetyRule()):
            shared = family((*result.new, *result.baselined), rule.name)
            assert shared == family(rule.run(sources), rule.name)
        compared.append(root)
        return result

    monkeypatch.setattr(fixtures, "run_check", run_check_and_compare)
    getattr(cls(), name)(make_project)
    assert compared


class TestReproImports:
    def names(self, text: str, module: str = "repro.geo.grid") -> list[str]:
        source = SourceFile.from_text(text, module=module)
        return [name for _, names in repro_imports(source) for name in names]

    def test_from_import_names_each_bound_name(self):
        assert self.names("from repro.serve import app, cache\n") == [
            "repro.serve.app",
            "repro.serve.cache",
        ]

    def test_relative_and_star_imports_resolve_against_the_module(self):
        assert self.names("from . import coords\nfrom ..stats import *\n") == [
            "repro.geo.coords",
            "repro.stats",
        ]

    def test_relative_import_in_a_package_init_starts_at_that_package(self):
        source = SourceFile.from_text(
            "from . import coords\n", path="src/repro/geo/__init__.py", module="repro.geo"
        )
        assert [names for _, names in repro_imports(source)] == [("repro.geo.coords",)]

    def test_non_repro_and_type_only_imports_are_skipped(self):
        text = (
            "import numpy\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.serve.app import App\n"
        )
        assert self.names(text) == []

    def test_imports_are_a_read_only_map(self):
        source = SourceFile.from_text("import numpy as np\n")
        assert source.imports == {"np": "numpy"}
        with pytest.raises(TypeError):
            source.imports["np"] = "other"  # type: ignore[index]
