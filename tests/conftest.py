"""Shared fixtures: synthetic corpora at two sizes.

``small_result``/``small_corpus`` (2,000 users) is cheap and used by
structural tests; ``medium_corpus`` (15,000 users) is session-scoped and
used by the qualitative experiment tests, which need enough flow volume
for stable correlations.

Setting ``REPRO_LOCK_SANITIZER=1`` additionally installs the lock-order
sanitizer (:mod:`repro.check.sanitizer`) for the whole run: every lock
the ``repro`` packages create is instrumented, observed acquisition
orders are checked against the statically derived order graph at
session end, and the observations land in ``sanitizer-report.json``.
A contradiction (runtime order opposite to the static order) or an
unmodelled edge (an observed order between statically known locks that
the static graph lacks) fails the run even if every test passed.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# Installed at conftest *import* time, not pytest_configure: this root
# conftest loads before the per-directory ones, whose imports pull in
# repro modules that create locks at module level — those must already
# see the patched constructors.  repro.check.sanitizer itself imports
# only the stdlib, so installing here instruments everything.
from repro.check.sanitizer import install_from_env

_SANITIZER = install_from_env(os.environ)

from repro.synth import SynthConfig, generate_corpus  # noqa: E402
from repro.synth.generator import GenerationResult  # noqa: E402


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    global _SANITIZER
    if _SANITIZER is None:
        return
    sanitizer, _SANITIZER = _SANITIZER, None
    sanitizer.uninstall()
    root = Path(__file__).resolve().parent.parent
    sanitizer.dump(root / "sanitizer-report.json")
    lines, failed = sanitizer.verify_tree(root / "src" / "repro")
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        for line in lines:
            reporter.write_line(line)
    if failed:
        session.exitstatus = 1


@pytest.fixture(scope="session")
def small_result() -> GenerationResult:
    """A deterministic 2,000-user generation result."""
    return generate_corpus(SynthConfig(n_users=2_000, seed=424242))


@pytest.fixture(scope="session")
def small_corpus(small_result):
    """The 2,000-user corpus."""
    return small_result.corpus


@pytest.fixture(scope="session")
def medium_result() -> GenerationResult:
    """A deterministic 15,000-user generation result for experiment tests."""
    return generate_corpus(SynthConfig(n_users=15_000, seed=20150413))


@pytest.fixture(scope="session")
def medium_corpus(medium_result):
    """The 15,000-user corpus."""
    return medium_result.corpus


@pytest.fixture(scope="session")
def medium_context(medium_corpus):
    """A shared experiment context over the medium corpus."""
    from repro.experiments import ExperimentContext

    return ExperimentContext(medium_corpus)
