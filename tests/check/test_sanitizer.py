"""Tests for the runtime lock-order sanitizer.

Each test installs its *own* :class:`LockSanitizer` watching the
``tests`` package, so the locks it creates right here are the
instrumented population — independent of whether the session-wide
``REPRO_LOCK_SANITIZER`` harness is active (stacked sanitizers do not
double-wrap).
"""

import json
import threading

import pytest

from repro.check import sanitizer as sanitizer_module
from repro.check.sanitizer import (
    ENV_FLAG,
    LockOrderViolation,
    LockSanitizer,
    _SanitizedLock,
    install_from_env,
)

MODULE = __name__  # "tests.check.test_sanitizer"


class Holder:
    """Creates a class lock the sanitizer should name Holder._lock."""

    def __init__(self):
        self._lock = threading.Lock()


@pytest.fixture
def sanitizer():
    with LockSanitizer(packages=("tests",)) as active:
        yield active


class TestInstrumentation:
    def test_watched_package_locks_are_wrapped(self, sanitizer):
        lock = threading.Lock()
        assert isinstance(lock, _SanitizedLock)

    def test_class_lock_ident_matches_static_convention(self, sanitizer):
        Holder()
        assert f"{MODULE}.Holder._lock" in sanitizer.locks_seen

    def test_unwatched_package_locks_stay_raw(self):
        with LockSanitizer(packages=("some.other.tree",)):
            lock = threading.Lock()
        assert not isinstance(lock, _SanitizedLock)

    def test_uninstall_restores_constructors(self):
        before = threading.Lock
        sanitizer = LockSanitizer(packages=("tests",)).install()
        assert threading.Lock is not before
        sanitizer.uninstall()
        assert threading.Lock is before

    def test_install_from_env_respects_flag(self):
        assert install_from_env({}) is None
        active = install_from_env({ENV_FLAG: "1"})
        assert active is not None
        active.uninstall()


class TestOrderRecording:
    def test_nested_acquisition_records_edge(self, sanitizer):
        outer = threading.Lock()
        inner = threading.Lock()
        with outer:
            with inner:
                pass
        (edge,) = sanitizer.observed.values()
        assert edge.src.startswith(MODULE + ".")
        assert edge.src.endswith(".outer")
        assert edge.dst.endswith(".inner")
        assert edge.thread and edge.where

    def test_seeded_inversion_raises(self, sanitizer):
        first = threading.Lock()
        second = threading.Lock()
        with first:
            with second:
                pass
        with pytest.raises(LockOrderViolation, match="acquired"):
            with second:
                with first:
                    pass

    def test_reentrant_rlock_is_not_an_edge(self, sanitizer):
        lock = threading.RLock()
        with lock:
            with lock:
                pass
        assert sanitizer.observed == {}

    def test_non_strict_mode_records_without_raising(self):
        with LockSanitizer(packages=("tests",), strict=False) as sanitizer:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        assert len(sanitizer.observed) == 2


class TestVerification:
    def test_contradiction_against_static_graph(self, sanitizer):
        held = threading.Lock()
        taken = threading.Lock()
        with held:
            with taken:
                pass
        ((src, dst),) = sanitizer.observed
        problems = sanitizer.verify_against([(dst, src)])
        assert len(problems["contradictions"]) == 1
        assert problems["unmodelled"] == []

    def test_unmodelled_edge_between_known_locks(self, sanitizer):
        held = threading.Lock()
        taken = threading.Lock()
        with held:
            with taken:
                pass
        ((src, dst),) = sanitizer.observed
        problems = sanitizer.verify_against([], static_locks=[src, dst])
        assert problems["contradictions"] == []
        assert len(problems["unmodelled"]) == 1

    def test_unmodelled_edge_fails_the_session(self, sanitizer, monkeypatch):
        held = threading.Lock()
        taken = threading.Lock()
        with held:
            with taken:
                pass
        ((src, dst),) = sanitizer.observed
        monkeypatch.setattr(
            sanitizer_module, "static_lock_graph", lambda root: (set(), {src, dst})
        )
        lines, failed = sanitizer.verify_tree("src/repro")
        assert failed
        assert any(line.startswith("(unmodelled)") and src in line for line in lines)

    def test_modelled_edge_passes_the_session(self, sanitizer, monkeypatch):
        held = threading.Lock()
        taken = threading.Lock()
        with held:
            with taken:
                pass
        ((src, dst),) = sanitizer.observed
        monkeypatch.setattr(
            sanitizer_module, "static_lock_graph", lambda root: ({(src, dst)}, {src, dst})
        )
        lines, failed = sanitizer.verify_tree("src/repro")
        assert not failed
        assert lines == ["lock sanitizer: 1 observed edge(s), 2 lock(s) watched"]

    def test_matching_order_is_clean(self, sanitizer):
        held = threading.Lock()
        taken = threading.Lock()
        with held:
            with taken:
                pass
        ((src, dst),) = sanitizer.observed
        problems = sanitizer.verify_against([(src, dst)])
        assert problems == {"contradictions": [], "unmodelled": []}


class TestReport:
    def test_dump_round_trips(self, sanitizer, tmp_path):
        a = threading.Lock()
        b = threading.Lock()
        with a:
            with b:
                pass
        path = tmp_path / "report.json"
        sanitizer.dump(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["version"] == 1
        assert data["packages"] == ["tests"]
        (edge,) = data["observed_edges"]
        assert edge["count"] == 1
        assert edge["src"].endswith(".a") and edge["dst"].endswith(".b")
