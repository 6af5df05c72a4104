"""P1 — world labelling benchmark: grid index vs dense kernel by area count.

Measures the ε-disc labelling hot path over a fixed seeded point cloud
at three world sizes — the paper's 60 legacy areas, a 1k-area and a
5k-area synthetic gazetteer — comparing the dense masked-argmin
reference (:func:`repro.core.label.label_points_dense`) against the
grid-bucketed :class:`repro.geo.index.CenterGridIndex`::

    python benchmarks/bench_world.py --points 100000

Numbers are **machine-normalized**: a fixed single-threaded hashing
calibration loop is timed first and every labelling time is also
reported as a ratio against it, so baselines committed from different
hosts stay comparable.  Speedups (grid vs dense at the same world) are
machine-independent by construction.

The script asserts correctness while measuring — grid labels must match
the dense kernel's *exactly* at every size — and enforces the
acceptance bar: the grid index must beat the dense kernel by ≥5× at
5 000 areas.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from repro.core.label import label_points_dense
from repro.core.world import World
from repro.data.gazetteer import Scale, all_areas

DEFAULT_POINTS = 100_000
DEFAULT_SEED = 20150413

#: (label, gazetteer spec) per measured world; metropolitan scale so the
#: synthetic sizes are exactly the leaf counts.
WORLDS = (
    ("legacy-60", None),
    ("synth-1k", "synth:1000"),
    ("synth-5k", "synth:5000"),
)

#: Calibration loop: single-threaded blake2b over this many blocks.
CALIBRATION_BLOCKS = 50_000

#: Acceptance bar: grid speedup over dense at the 5k-area world.
MIN_SPEEDUP_AT_5K = 5.0

#: Timing repetitions; the minimum is reported (noise resistant).
REPEATS = 3


def calibrate() -> float:
    """Seconds for a fixed single-threaded hash loop on this machine."""
    payload = b"x" * 4096
    start = time.perf_counter()
    digest = b""
    for _ in range(CALIBRATION_BLOCKS):
        digest = hashlib.blake2b(payload + digest, digest_size=16).digest()
    return time.perf_counter() - start


def _point_cloud(n_points: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A seeded uniform cloud over (and slightly beyond) the country box."""
    rng = np.random.default_rng(seed)
    lats = rng.uniform(-56.0, -8.0, n_points)
    lons = rng.uniform(111.0, 161.0, n_points)
    return lats, lons


def _time(fn) -> tuple[float, np.ndarray]:
    """Minimum wall time over :data:`REPEATS` runs, plus the result."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_world(
    label: str, gazetteer: str | None, lats: np.ndarray, lons: np.ndarray,
    calibration_seconds: float,
) -> dict:
    """Dense vs grid labelling on one world; asserts exact agreement."""
    if gazetteer is None:
        # All 60 legacy areas under the national ε, so the baseline row
        # measures the paper's full area set at its widest radius.
        world = World.from_areas(all_areas(), 50.0)
    else:
        world = World.from_scale(Scale.METROPOLITAN, gazetteer=gazetteer)
    build_start = time.perf_counter()
    grid = world.center_grid  # force candidate registration
    build_seconds = time.perf_counter() - build_start

    dense_seconds, dense_labels = _time(lambda: label_points_dense(world, lats, lons))
    grid_seconds, grid_labels = _time(lambda: grid.label_and_contain(lats, lons)[0])

    assert np.array_equal(grid_labels, dense_labels), (
        f"{label}: grid labels diverge from the dense kernel"
    )
    speedup = dense_seconds / max(grid_seconds, 1e-12)
    return {
        "world": label,
        "n_areas": world.n_areas,
        "radius_km": world.radius_km,
        "grid_build_seconds": round(build_seconds, 4),
        "dense_seconds": round(dense_seconds, 4),
        "grid_seconds": round(grid_seconds, 4),
        "speedup": round(speedup, 2),
        "normalized_dense": round(dense_seconds / calibration_seconds, 3),
        "normalized_grid": round(grid_seconds / calibration_seconds, 3),
        "labels_identical": True,
        "n_labelled": int((grid_labels >= 0).sum()),
    }


def run_benchmark(n_points: int, seed: int) -> dict:
    """Calibrate, then measure every world size over one point cloud."""
    calibration_seconds = calibrate()
    lats, lons = _point_cloud(n_points, seed)
    rows = [
        measure_world(label, gazetteer, lats, lons, calibration_seconds)
        for label, gazetteer in WORLDS
    ]
    summary = {
        "machine": {"calibration_seconds": round(calibration_seconds, 4)},
        "points": {"n": n_points, "seed": seed},
        "worlds": rows,
        "scaling": {
            "speedup_at_5k": rows[-1]["speedup"],
            "min_required": MIN_SPEEDUP_AT_5K,
        },
    }
    assert rows[-1]["speedup"] >= MIN_SPEEDUP_AT_5K, (
        f"grid speedup {rows[-1]['speedup']}x at 5k areas is below the "
        f"{MIN_SPEEDUP_AT_5K}x acceptance bar"
    )
    summary["scaling"]["gate"] = "enforced"
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=DEFAULT_POINTS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", help="write the JSON summary here (else stdout)")
    args = parser.parse_args(argv)

    summary = run_benchmark(args.points, args.seed)
    text = json.dumps(summary, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def test_world_labelling(tmp_path):
    """Harness entry: small grid-vs-dense benchmark under pytest."""
    summary = run_benchmark(n_points=20_000, seed=DEFAULT_SEED)
    print()
    print(json.dumps(summary, indent=2))
    for row in summary["worlds"]:
        assert row["labels_identical"]
        assert row["n_labelled"] > 0
    assert summary["scaling"]["speedup_at_5k"] >= MIN_SPEEDUP_AT_5K


if __name__ == "__main__":
    raise SystemExit(main())
