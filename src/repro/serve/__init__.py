"""HTTP estimation service over the artifact store.

The paper's closing pitch — a *responsive* population/mobility
estimation system for disease response — needs its estimates reachable
over the network, not parked in ``~/.cache/repro``.  This subpackage
serves them with nothing beyond the standard library:

``registry``
    Resolves the latest successful pipeline run from an
    :class:`~repro.pipeline.store.ArtifactStore`, derives per-scale
    populations, OD flows and fitted models into an immutable snapshot,
    and hot-reloads (atomic swap) when a newer run lands.
``app``
    The router, endpoint handlers, JSON error envelope, threaded server
    with graceful drain, and per-request access logging.
``ingest``
    Live tweet ingest into the summary store's minute tiles, and the
    anomaly monitor (:class:`~repro.stream.monitor.MinuteMonitor`) that
    follows them: sparse windows checked at whole-minute boundaries,
    a read-only ``?check=1``, state re-derived from tiles on restart.
``metrics`` / ``cache``
    Per-endpoint counters + latency histograms, and the LRU response
    cache for idempotent GETs.

Boot it with ``repro serve`` or programmatically::

    from repro.pipeline import ArtifactStore
    from repro.serve import create_app, create_server

    app = create_app(ArtifactStore())
    server = create_server("127.0.0.1", 8080, app)
    server.serve_forever()
"""

from repro.serve.app import (
    ApiError,
    EstimationApp,
    EstimationServer,
    create_app,
    create_server,
    install_signal_handlers,
)
from repro.serve.cache import LRUCache
from repro.serve.ingest import IngestResult, IngestService
from repro.serve.metrics import MetricsRegistry
from repro.serve.registry import (
    MODEL_KEYS,
    ModelRegistry,
    RegistryError,
    ScaleSnapshot,
    Snapshot,
    build_snapshot,
)

__all__ = [
    "MODEL_KEYS",
    "ApiError",
    "EstimationApp",
    "EstimationServer",
    "IngestResult",
    "IngestService",
    "LRUCache",
    "MetricsRegistry",
    "ModelRegistry",
    "RegistryError",
    "ScaleSnapshot",
    "Snapshot",
    "build_snapshot",
    "create_app",
    "create_server",
    "install_signal_handlers",
]
