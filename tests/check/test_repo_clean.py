"""The real repository passes its own static checks.

This is the same invariant the CI gate enforces: the committed tree plus
the committed baseline produce zero new violations, fast enough to gate
every push.  The three checks share one full-repo run.
"""

from pathlib import Path

import pytest

from repro.check.runner import discover_root, run_check

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def result():
    return run_check(root=REPO_ROOT)


def test_discover_root_finds_this_repo():
    assert discover_root(Path(__file__).parent) == REPO_ROOT


def test_repo_is_clean_against_committed_baseline(result):
    assert result.ok, "\n".join(
        f"{v.path}:{v.line}: [{v.code}] {v.message}" for v in result.new
    )
    assert result.files_scanned >= 100
    assert result.stale == (), "stale baseline entries: re-record the baseline"


def test_committed_baseline_is_fully_burned_down(result):
    # This PR burned down every fixable entry; the ratchet starts empty.
    assert result.baselined == ()


def test_check_is_fast_enough_to_gate_ci(result):
    assert result.duration_seconds < 10.0
