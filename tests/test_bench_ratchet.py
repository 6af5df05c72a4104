"""The system benches' ratchet harness (``benchmarks/_ratchet.py``).

Pins the compare-with-slack gate and checks that every committed
``BENCH_<name>.json`` was recorded with its bench's default workload,
so the default runs CI makes are always compared against it.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

SYSTEM_BENCHES = ("check", "core", "world", "cluster", "serve", "summary", "pipeline")


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ratchet():
    module = _load(BENCHMARKS / "_ratchet.py", "_ratchet")
    previous = sys.modules.get("_ratchet")
    sys.modules["_ratchet"] = module  # the benches `import _ratchet`
    yield module
    if previous is None:
        del sys.modules["_ratchet"]
    else:
        sys.modules["_ratchet"] = previous


WORKLOAD = {"users": 10, "seed": 1}


def _summary(**normalized) -> dict:
    return {"workload": dict(WORKLOAD), "normalized": normalized}


def test_gate_within_slack_passes(ratchet):
    block = ratchet.gate(_summary(full=1.9), _summary(full=1.0), {"full": "lower"})
    assert block["status"] == "passed"
    assert block["slack"] == ratchet.SLACK == 2.0
    assert block["metrics"]["full"] == {
        "better": "lower",
        "baseline": 1.0,
        "measured": 1.9,
        "allowed": 2.0,
    }


def test_gate_past_slack_fails_naming_metric_measured_and_allowed(ratchet):
    block = ratchet.gate(
        _summary(full=2.5, other=0.1),
        _summary(full=1.0, other=1.0),
        {"full": "lower", "other": "lower"},
    )
    assert block["status"] == "failed"
    (failure,) = block["failures"]
    assert "full measured 2.5 is above the allowed 2.0" in failure


def test_gate_handles_higher_is_better(ratchet):
    baseline = _summary(rps=100.0)
    gated = {"rps": "higher"}
    assert ratchet.gate(_summary(rps=60.0), baseline, gated)["status"] == "passed"
    block = ratchet.gate(_summary(rps=40.0), baseline, gated)
    assert block["status"] == "failed"
    assert "rps measured 40.0 is below the allowed 50.0" in block["failures"][0]


def test_gate_reports_a_metric_the_baseline_lacks_as_new(ratchet):
    gated = {"full": "lower", "added": "lower"}
    block = ratchet.gate(_summary(full=1.5, added=7.0), _summary(full=1.0), gated)
    assert block["status"] == "passed"
    assert block["metrics"]["added"] == {"better": "lower", "measured": 7.0, "status": "new"}
    assert block["metrics"]["full"]["baseline"] == 1.0
    # The metrics the baseline holds are still gated.
    block = ratchet.gate(_summary(full=2.5, added=7.0), _summary(full=1.0), gated)
    assert block["status"] == "failed"
    (failure,) = block["failures"]
    assert failure.startswith("full measured 2.5 is above the allowed 2.0")


def test_normalize_divides_durations_and_multiplies_rates(ratchet):
    summary = {"load": {"seconds": 3.0, "requests_per_second": 200.0}}
    gated = {"load.seconds": "lower", "load.requests_per_second": "higher"}
    assert ratchet.normalize(summary, gated, 0.5) == {
        "load.seconds": 6.0,
        "load.requests_per_second": 100.0,
    }


def test_gate_on_other_workload_is_not_comparable(ratchet):
    baseline = _summary(t=1.0)
    summary = {"workload": {**WORKLOAD, "users": 11}, "normalized": {"t": 100.0}}
    block = ratchet.gate(summary, baseline, {"t": "lower"})
    assert block["status"] == "not comparable"
    assert "failures" not in block
    assert ratchet.gate(summary, None, {"t": "lower"})["status"] == "no baseline"


def _fake_bench(users: int, seed: int) -> dict:
    """Fake bench: seconds grow with users."""
    return {"timing": {"seconds": users / 10}}


def test_main_writes_the_gate_and_exits_1_on_regression(
    ratchet, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(ratchet, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(ratchet, "calibrate", lambda: 0.5)
    gated = {"timing.seconds": "lower"}
    baseline = tmp_path / "BENCH_fake.json"
    out = tmp_path / "run.json"

    # No committed baseline yet: record one.
    assert ratchet.main("fake", _fake_bench, WORKLOAD, gated, ["--out", str(baseline)]) == 0
    recorded = json.loads(baseline.read_text())
    assert recorded["workload"] == WORKLOAD
    assert recorded["machine"]["calibration_seconds"] == 0.5
    assert recorded["normalized"] == {"timing.seconds": 2.0}
    assert recorded["gate"] == {"status": "no baseline"}

    assert ratchet.main("fake", _fake_bench, WORKLOAD, gated, ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["gate"]["status"] == "passed"

    # Same workload, doctored baseline a third of the measured time.
    recorded["normalized"]["timing.seconds"] = 2.0 / 3
    baseline.write_text(json.dumps(recorded))
    assert ratchet.main("fake", _fake_bench, WORKLOAD, gated, ["--out", str(out)]) == 1
    assert json.loads(out.read_text())["gate"]["status"] == "failed"
    assert "BENCH_fake.json gate failed: timing.seconds measured 2.0 is above" in (
        capsys.readouterr().err
    )

    # A non-default workload is reported, not compared.
    argv = ["--users", "30", "--out", str(out)]
    assert ratchet.main("fake", _fake_bench, WORKLOAD, gated, argv) == 0
    summary = json.loads(out.read_text())
    assert summary["workload"] == {"users": 30, "seed": 1}
    assert summary["gate"]["status"] == "not comparable"


@pytest.mark.parametrize("name", SYSTEM_BENCHES)
def test_committed_baseline_matches_bench_defaults(ratchet, name):
    bench = _load(BENCHMARKS / f"bench_{name}.py", f"_bench_{name}")
    baseline_path = ratchet.REPO_ROOT / f"BENCH_{name}.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert baseline["workload"] == bench.WORKLOAD
    assert bench.GATED
    for path, better in bench.GATED.items():
        assert better in ("lower", "higher")
        assert ratchet.lookup(baseline, path) > 0
        assert baseline["normalized"][path] > 0
    # The gate compares a default run with the baseline: itself passes.
    assert ratchet.gate(baseline, baseline, bench.GATED)["status"] == "passed"
