"""Live tweet ingest: a lock-guarded :class:`MobilityMonitor`.

``POST /v1/ingest`` delivers tweet batches from arbitrary HTTP client
threads, but the monitor (and the sliding-window counters under it) is
a strictly single-writer, time-ordered structure.  :class:`IngestService`
is the adapter: one mutex serialises all monitor access, each batch is
sorted by timestamp before pushing, and tweets older than the stream's
high-water mark are *dropped and counted* rather than raising — an HTTP
client cannot be trusted to deliver globally ordered batches.

Sorting and labelling happen once per batch, outside the service:
:func:`repro.core.label.label_tweet_batch` produces the time-ascending
batch and its labels, which the serving app hands to both this service
and the summary store (:meth:`IngestService.ingest_labelled`).

Reads (``/v1/anomalies``) take the same lock, so anomaly listings are
consistent with completed batches — a deliberate single-writer design,
documented in DESIGN.md.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from repro.core.label import PointLabels, label_tweet_batch
from repro.core.world import World
from repro.data.gazetteer import Area
from repro.data.schema import Tweet, parse_tweet_record
from repro.stream.monitor import FlowAnomaly, MobilityMonitor


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one ingest batch."""

    accepted: int
    dropped_stale: int
    anomalies_raised: int


class IngestService:
    """Thread-safe facade over a windowed mobility monitor.

    ``world`` (the monitor's area system) is the world every batch is
    labelled against.  :meth:`ingest_labelled` is the one ingest path:
    it takes a time-ascending batch with the :class:`PointLabels` the
    kernel computed for it, drops the stale prefix and pushes the rest
    with its label slice — no re-sort, no re-label.  :meth:`ingest` is
    the thin wrapper that sorts and labels first.
    """

    def __init__(
        self,
        areas: Sequence[Area] | World,
        radius_km: float,
        window_seconds: float = 3600.0,
        **monitor_kwargs,
    ) -> None:
        self._lock = threading.Lock()
        self._monitor = MobilityMonitor(
            areas, radius_km, window_seconds, **monitor_kwargs
        )
        self.world = self._monitor.world
        self._accepted = 0
        self._dropped_stale = 0

    @staticmethod
    def parse_tweet(record: dict) -> Tweet:
        """Build a validated :class:`Tweet` from one JSON object.

        Delegates to the canonical
        :func:`~repro.data.schema.parse_tweet_record`, so HTTP clients
        see exactly the error messages the batch file loaders produce.
        Raises :class:`~repro.data.schema.SchemaError` on missing or
        out-of-range fields.
        """
        return parse_tweet_record(record)

    def ingest(self, tweets: Sequence[Tweet]) -> IngestResult:
        """Sort and label one batch, then apply it (:meth:`ingest_labelled`)."""
        return self.ingest_labelled(*label_tweet_batch(self.world, tweets))

    def ingest_labelled(
        self, ordered: Sequence[Tweet], labelled: PointLabels
    ) -> IngestResult:
        """Push a time-ascending, already-labelled batch through the monitor.

        ``labelled`` must come from the kernel over exactly these rows
        and this service's :attr:`world`.  Tweets behind the monitor's
        high-water mark are dropped (counted, not an error); the rest
        go to :meth:`MobilityMonitor.push_batch` with their label slice.
        """
        if len(labelled) != len(ordered):
            raise ValueError(f"{len(labelled)} labels for {len(ordered)} tweets")
        with self._lock:
            # The batch is ascending, so only a prefix can sit behind
            # the monitor's high-water mark.
            watermark = self._monitor.counter._latest
            keep = 0
            while keep < len(ordered) and ordered[keep].timestamp < watermark:
                keep += 1
            dropped = keep
            accepted = len(ordered) - dropped
            anomalies = len(
                self._monitor.push_batch(ordered[keep:], labelled.labels[keep:])
            )
            self._accepted += accepted
            self._dropped_stale += dropped
        return IngestResult(
            accepted=accepted, dropped_stale=dropped, anomalies_raised=anomalies
        )

    def anomalies(self) -> list[FlowAnomaly]:
        """Every anomaly raised so far (consistent with complete batches)."""
        with self._lock:
            return self._monitor.anomalies

    def check_now(self) -> list[FlowAnomaly]:
        """Force an anomaly check at the current stream time."""
        with self._lock:
            return self._monitor.check_now()

    def stats(self) -> dict:
        """Ingest counters plus current window state."""
        with self._lock:
            monitor = self._monitor
            return {
                "accepted": self._accepted,
                "dropped_stale": self._dropped_stale,
                "window_transitions": monitor.counter.total_transitions,
                "checks_done": monitor._checks_done,
                "anomalies_total": len(monitor._anomalies),
                "has_windowed_fit": monitor.latest_fit is not None,
            }
