"""``render_flows`` ≡ the dense row-major scan both flows handlers ran.

``reference_flows`` is the comprehension ``/v1/flows`` used to build its
entries from a dense matrix, cell by cell.  The sparse renderer must
emit the same entries, in the same order, from the windowed store's
stitched OD cells and from ``np.nonzero`` of a snapshot matrix.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.world import World
from repro.data.gazetteer import Scale
from repro.serve import EstimationApp, IngestService
from repro.serve.app import render_flows
from repro.summary.store import SummaryStore, WindowSummary
from repro.summary.tiers import SummaryBucket, TimeTier

WORLD = World.from_scale(Scale.NATIONAL)


def reference_flows(matrix, names, distance, origin=None, dest=None):
    """The dense scan: every cell of the selected rows and columns."""
    rows = range(len(names)) if origin is None else [origin]
    cols = range(len(names)) if dest is None else [dest]
    return [
        {
            "origin": names[i],
            "dest": names[j],
            "flow": int(matrix[i, j]),
            "distance_km": round(float(distance[i, j]), 3),
        }
        for i in rows
        for j in cols
        if i != j and matrix[i, j] > 0
    ]


def render_dense(matrix, names, distance, origin=None, dest=None):
    """The snapshot handler's call: cells from ``np.nonzero``."""
    sources, dests = np.nonzero(matrix)
    return render_flows(
        sources, dests, matrix[sources, dests], names, distance, origin, dest
    )


@st.composite
def sparse_matrices(draw):
    """``(matrix, names, distance, origin, dest)`` with diagonal entries."""
    n = draw(st.integers(min_value=0, max_value=7))
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    if dtype is np.int64:
        values = st.sampled_from([-1, 0, 1, 2, 3, 17])
    else:
        values = st.sampled_from([-0.5, 0.0, 0.4, 1.0, 2.5])
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            values,
            max_size=n * n,
        )
        if n
        else st.just({})
    )
    matrix = np.zeros((n, n), dtype=dtype)
    for (i, j), value in cells.items():
        matrix[i, j] = value
    seed = draw(st.integers(0, 2**32 - 1))
    distance = np.random.default_rng(seed).uniform(0.0, 4000.0, size=(n, n))
    names = [f"area-{k}" for k in range(n)]
    pick = st.none() | st.integers(0, n - 1) if n else st.none()
    return matrix, names, distance, draw(pick), draw(pick)


class TestRenderFlows:
    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices())
    def test_nonzero_cells_equal_dense_scan(self, drawn):
        matrix, names, distance, origin, dest = drawn
        got = render_dense(matrix, names, distance, origin, dest)
        want = reference_flows(matrix, names, distance, origin, dest)
        assert json.dumps(got) == json.dumps(want)

    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices(), st.randoms(use_true_random=False))
    def test_window_od_counts_equal_dense_scan(self, drawn, rng):
        """Stitched tiles arrive in arbitrary order; cells come out row-major."""
        matrix, names, distance, origin, dest = drawn
        counts = {
            (i, j): int(matrix[i, j])
            for i, j in zip(*np.nonzero(matrix > 0))
            if i != j
        }
        # One cell per tile, a count above 1 split over two tiles, so
        # the stitch both orders distinct cells and sums equal ones.
        parts = []
        for pair, count in counts.items():
            if count > 1:
                first = rng.randint(1, count - 1)
                parts += [(pair, first), (pair, count - first)]
            else:
                parts.append((pair, count))
        rng.shuffle(parts)
        n = len(names)
        tiles = tuple(
            SummaryBucket(
                TimeTier.MINUTE, 60 * k, n, 0,
                sources=np.array([i]), dests=np.array([j]), counts=np.array([count]),
            )
            for k, ((i, j), count) in enumerate(parts)
        )
        result = WindowSummary(
            t0=0,
            t1=60 * max(len(tiles), 1),
            n_areas=n,
            tiles=tiles,
            n_tweets=0,
            buckets_touched=len(tiles),
            tiles_used={"minute": len(tiles)},
            staleness_seconds=0.0,
            version=0,
        )
        got = render_flows(*result.flow_cells(), names, distance, origin, dest)
        want = reference_flows(result.flow_matrix, names, distance, origin, dest)
        assert json.dumps(got) == json.dumps(want)
        dense = np.where(matrix > 0, matrix, 0).astype(np.int64)
        np.fill_diagonal(dense, 0)
        assert np.array_equal(result.flow_matrix, dense)
        assert result.n_transitions == sum(counts.values())


def _filters(names, busiest):
    """Query filter sets: none, origin only, dest only, both."""
    other = names[0] if busiest != names[0] else names[1]
    return [
        {},
        {"origin": busiest},
        {"dest": busiest},
        {"origin": busiest, "dest": other},
        {"origin": other, "dest": busiest},
    ]


def _index(names, query, key):
    return names.index(query[key]) if key in query else None


@pytest.fixture()
def busy_summary_app(registry) -> EstimationApp:
    """A windowed app whose store holds flows between most area pairs."""
    ingest = IngestService(SummaryStore(WORLD, namespace="national"), window_seconds=3600.0)
    app = EstimationApp(registry, ingest, summary_scale=Scale.NATIONAL)
    rng = random.Random(11)
    tweets = []
    for k in range(600):
        area = WORLD.areas[rng.randrange(WORLD.n_areas)]
        tweets.append(
            {
                "user_id": rng.randrange(40),
                "timestamp": 5.0 * k,
                "lat": area.center.lat,
                "lon": area.center.lon,
            }
        )
    status, _payload, _ = app.handle("POST", "/v1/ingest", {}, {"tweets": tweets})
    assert status == 200
    return app


class TestFlowsEndpoints:
    @pytest.mark.parametrize("window", ["0:3000", "120:1500", "61:2999.5"])
    def test_windowed_flows_equal_dense_scan(self, busy_summary_app, window):
        t0, t1 = map(float, window.split(":"))
        result = busy_summary_app.summary.query(t0, t1)
        names = list(WORLD.names)
        busiest = names[int(result.flow_matrix.sum(axis=1).argmax())]
        for extra in _filters(names, busiest):
            query = {"window": window, **extra}
            status, payload, _ = busy_summary_app.handle("GET", "/v1/flows", query, None)
            assert status == 200
            want = reference_flows(
                result.flow_matrix,
                names,
                WORLD.distance_matrix_km,
                _index(names, query, "origin"),
                _index(names, query, "dest"),
            )
            assert payload["flows"] == want
            assert payload["total_trips"] == result.n_transitions
        assert len(reference_flows(result.flow_matrix, names, WORLD.distance_matrix_km)) > 20

    @pytest.mark.parametrize("scale", list(Scale))
    def test_snapshot_flows_equal_dense_scan(self, app, registry, scale):
        snapshot = registry.snapshot.scales[scale]
        names = list(snapshot.world.names)
        busiest = names[int(snapshot.flows.matrix.sum(axis=1).argmax())]
        for extra in _filters(names, busiest):
            query = {"scale": scale.value, **extra}
            status, payload, _ = app.handle("GET", "/v1/flows", query, None)
            assert status == 200
            want = reference_flows(
                snapshot.flows.matrix,
                names,
                snapshot.distance_km,
                _index(names, query, "origin"),
                _index(names, query, "dest"),
            )
            assert payload["flows"] == want

    @pytest.mark.parametrize("key", ["origin", "dest"])
    def test_unknown_area_is_400_on_both_paths(self, busy_summary_app, key):
        for query in ({"window": "0:600"}, {"scale": "national"}):
            status, payload, _ = busy_summary_app.handle(
                "GET", "/v1/flows", {**query, key: "Atlantis"}, None
            )
            assert status == 400
            assert payload["error"]["message"] == f"unknown {key} area 'Atlantis'"
