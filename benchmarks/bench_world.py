"""P1 — world labelling benchmark: grid index vs dense kernel by area count.

Measures the ε-disc labelling hot path over a fixed seeded point cloud
at three world sizes — the paper's 60 legacy areas, a 1k-area and a
5k-area synthetic gazetteer — comparing the dense masked-argmin
reference (:func:`repro.core.label.label_points_dense`) against the
grid-bucketed :class:`repro.geo.index.CenterGridIndex`::

    python benchmarks/bench_world.py --out bench-world.json

Each world also times live-size batches: the cloud's first
:data:`BATCH_POINTS` points as batches of :data:`BATCH_SIZE` through
:func:`repro.core.label.label_and_contain`, the call every ingest batch
makes.  The grid time at 5k areas and the batch time at 1k areas are
normalized (``_ratchet``) and gated against the committed
``BENCH_world.json``.  Speedups (grid vs dense at the same world) are
machine-independent by construction.

The script asserts correctness while measuring — grid labels must match
the dense kernel's *exactly* at every size, and so must the grid's
containment where the dense membership matrix fits in memory (60 and
1k areas), and every batch's labels and containment — and enforces the
acceptance bar: the grid index must beat the dense kernel by ≥5× at
5 000 areas.
"""

from __future__ import annotations

import json
import time

import _ratchet
import numpy as np
from _ratchet import best_of

from repro.core.label import label_and_contain, label_points_dense, membership_points
from repro.core.world import World
from repro.data.gazetteer import Scale, all_areas

WORKLOAD = {"points": 100_000, "seed": 20150413}

GATED = {
    "worlds.synth-5k.grid_seconds": "lower",
    "worlds.synth-1k.batch_seconds": "lower",
}

#: (label, gazetteer spec) per measured world; metropolitan scale so the
#: synthetic sizes are exactly the leaf counts.
WORLDS = (
    ("legacy-60", None),
    ("synth-1k", "synth:1000"),
    ("synth-5k", "synth:5000"),
)

#: Acceptance bar: grid speedup over dense at the 5k-area world.
MIN_SPEEDUP_AT_5K = 5.0

#: Live-size batches: the cloud's first ``BATCH_POINTS`` points, in
#: batches of ``BATCH_SIZE`` (a perfbench ingest batch holds ~22).
BATCH_POINTS = 20_000
BATCH_SIZE = 20

#: Worlds whose dense ``(points, areas)`` membership matrix is small
#: enough to check the whole cloud's containment against.
CONTAINMENT_CHECKED = ("legacy-60", "synth-1k")


def assert_contain_matches_dense(
    label: str, world: World, lats: np.ndarray, lons: np.ndarray,
    indptr: np.ndarray, indices: np.ndarray,
) -> None:
    """CSR containment must equal ``np.nonzero`` of the dense membership."""
    rows, cols = np.nonzero(membership_points(world, lats, lons))
    assert np.array_equal(indices, cols) and np.array_equal(
        np.repeat(np.arange(lats.size), np.diff(indptr)), rows
    ), f"{label}: grid containment diverges from the dense kernel"


def measure_batches(
    label: str, world: World, lats: np.ndarray, lons: np.ndarray
) -> float:
    """Best time to label the live-size batches; asserts each is exact."""
    batches = [
        (lats[start : start + BATCH_SIZE], lons[start : start + BATCH_SIZE])
        for start in range(0, min(BATCH_POINTS, lats.size), BATCH_SIZE)
    ]
    seconds, results = best_of(
        lambda: [label_and_contain(world, *batch) for batch in batches]
    )
    for (batch_lats, batch_lons), result in zip(batches, results):
        assert np.array_equal(
            result.labels, label_points_dense(world, batch_lats, batch_lons)
        ), f"{label}: batch labels diverge from the dense kernel"
        assert_contain_matches_dense(
            label, world, batch_lats, batch_lons, result.indptr, result.indices
        )
    return seconds


def _point_cloud(n_points: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A seeded uniform cloud over (and slightly beyond) the country box."""
    rng = np.random.default_rng(seed)
    lats = rng.uniform(-56.0, -8.0, n_points)
    lons = rng.uniform(111.0, 161.0, n_points)
    return lats, lons


def measure_world(
    label: str, gazetteer: str | None, lats: np.ndarray, lons: np.ndarray
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

    dense_seconds, dense_labels = best_of(lambda: label_points_dense(world, lats, lons))
    grid_seconds, (grid_labels, indptr, indices) = best_of(
        lambda: grid.label_and_contain(lats, lons)
    )

    assert np.array_equal(grid_labels, dense_labels), (
        f"{label}: grid labels diverge from the dense kernel"
    )
    if label in CONTAINMENT_CHECKED:
        assert_contain_matches_dense(label, world, lats, lons, indptr, indices)
    batch_seconds = measure_batches(label, world, lats, lons)
    return {
        "n_areas": world.n_areas,
        "radius_km": world.radius_km,
        "grid_build_seconds": round(build_seconds, 4),
        "dense_seconds": round(dense_seconds, 4),
        "grid_seconds": round(grid_seconds, 4),
        "speedup": round(dense_seconds / max(grid_seconds, 1e-12), 2),
        "batch_seconds": round(batch_seconds, 4),
        "labels_identical": True,
        "n_labelled": int((grid_labels >= 0).sum()),
    }


def run_benchmark(points: int, seed: int) -> dict:
    """Measure every world size over one point cloud."""
    lats, lons = _point_cloud(points, seed)
    worlds = {
        label: measure_world(label, gazetteer, lats, lons)
        for label, gazetteer in WORLDS
    }
    speedup = worlds["synth-5k"]["speedup"]
    assert speedup >= MIN_SPEEDUP_AT_5K, (
        f"grid speedup {speedup}x at 5k areas is below the "
        f"{MIN_SPEEDUP_AT_5K}x acceptance bar"
    )
    return {
        "worlds": worlds,
        "scaling": {"speedup_at_5k": speedup, "min_required": MIN_SPEEDUP_AT_5K},
    }


def test_world_labelling():
    """Harness entry: small grid-vs-dense benchmark under pytest."""
    summary = run_benchmark(**(WORKLOAD | {"points": 20_000}))
    print()
    print(json.dumps(summary, indent=2))
    for row in summary["worlds"].values():
        assert row["labels_identical"]
        assert row["n_labelled"] > 0
    assert summary["scaling"]["speedup_at_5k"] >= MIN_SPEEDUP_AT_5K


if __name__ == "__main__":
    raise SystemExit(_ratchet.main("world", run_benchmark, WORKLOAD, GATED))
