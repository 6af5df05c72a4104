"""Live tweet ingest into the summary store, and the anomaly monitor
that reads the store's minute tiles.

There is one OD pipeline per serving process: the
:class:`~repro.summary.store.SummaryStore`'s minute tiles.
:class:`IngestService` owns the store writes (``POST /v1/ingest``) and a
:class:`~repro.stream.monitor.MinuteMonitor` that follows the store: as
each minute finalizes, its sparse OD cells join the running flow window,
and checks fire at whole-minute boundaries ``B`` over the transitions
whose arriving tweet lies in ``[B − W, B)`` (window and interval rounded
up to whole minutes).  A check therefore costs O(window cells), never
O(areas²), and never stitches tiles.

A batch arrives as a time-ascending
:class:`~repro.data.schema.TweetBatch` (the HTTP door parses its JSON
records straight into sorted columns) and is labelled once
(:meth:`IngestService.apply`).  Tweets behind the store's watermark are
dropped and counted, not an error — an HTTP client cannot be trusted to
deliver globally ordered batches.

Concurrency: the store's lock serialises ingest, and the monitor runs
inside it (the store calls its follower under the lock), so the service
needs no lock of its own.  Readers take the monitor's published
:class:`~repro.stream.monitor.MonitorView`, an immutable state as of the
last completed advance.

Anomaly state is a pure function of the minute tiles: a restarted
process re-derives it when the monitor first follows the recovered
store, and nothing beyond the tiles is persisted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.label import PointLabels, label_and_contain
from repro.data.schema import Tweet, TweetBatch, parse_tweet_record
from repro.stream.monitor import FlowAnomaly, MinuteCells, MinuteMonitor
from repro.summary.store import IngestOutcome, SummaryStore
from repro.summary.tiers import SummaryBucket


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one ingest batch."""

    accepted: int
    dropped_stale: int
    anomalies_raised: int
    summary: IngestOutcome


def minute_cells(tile: SummaryBucket) -> MinuteCells:
    """A minute tile's OD cells as the monitor consumes them."""
    return tile.start, tile.sources * tile.n_areas + tile.dests, tile.counts


class IngestService:
    """Ingest into one summary store plus the anomaly monitor over it.

    ``monitor_kwargs`` configure the :class:`MinuteMonitor`
    (``check_interval_seconds``, ``baseline_alpha``, ``anomaly_ratio``,
    ``min_flow``, ``warmup_checks``).  Constructing the service attaches
    the monitor as the store's follower, which replays every minute the
    store already holds — after :meth:`SummaryStore.recover` that is
    the restart re-derivation.
    """

    def __init__(
        self,
        summary: SummaryStore,
        window_seconds: float = 3600.0,
        **monitor_kwargs,
    ) -> None:
        self.summary = summary
        self.world = summary.world
        self.monitor = MinuteMonitor(self.world, window_seconds, **monitor_kwargs)
        summary.follow(self._follow)

    def _follow(self, tiles: Sequence[SummaryBucket], frontier: int | None) -> int:
        return self.monitor.advance(map(minute_cells, tiles), frontier)

    @staticmethod
    def parse_tweet(record: dict) -> Tweet:
        """Build a validated :class:`Tweet` from one JSON object.

        Delegates to the record parser,
        :func:`~repro.data.schema.parse_tweet_record`, whose errors the
        file loaders and the HTTP batch parser
        (:meth:`~repro.data.schema.TweetBatch.from_records`) share.
        Raises :class:`~repro.data.schema.SchemaError` on missing or
        out-of-range fields.
        """
        return parse_tweet_record(record)

    def apply(self, batch: TweetBatch) -> IngestResult:
        """Label a batch once, then apply it (:meth:`ingest_labelled`)."""
        return self.ingest_labelled(
            batch, label_and_contain(self.world, batch.lats, batch.lons)
        )

    def ingest_labelled(
        self, batch: TweetBatch, labelled: PointLabels
    ) -> IngestResult:
        """Apply a time-ascending, already-labelled batch.

        ``labelled`` must come from the kernel over exactly these rows
        and this service's :attr:`world`.  The store drops the stale
        prefix behind its watermark; minutes the batch finalizes run
        the monitor's due checks before this returns.
        """
        outcome = self.summary.ingest_labelled(batch, labelled)
        return IngestResult(
            accepted=outcome.accepted,
            dropped_stale=outcome.dropped_late,
            anomalies_raised=outcome.raised,
            summary=outcome,
        )

    def anomalies(self) -> list[FlowAnomaly]:
        """Every anomaly raised up to the monitor's frontier."""
        return list(self.monitor.view.anomalies)

    def _open_window(self) -> tuple[int | None, list[SummaryBucket]]:
        """The open window's edge ``E`` and its minute tiles, ``[E − W, E)``.

        ``E`` is the end of the newest minute holding data, so open
        minutes count.
        """
        watermark = self.summary.watermark
        if not math.isfinite(watermark):
            return None, []
        listing = self.summary.minutes(math.floor(watermark) - self.monitor.window)
        if listing.edge is None:
            return None, []
        cutoff = listing.edge - self.monitor.window
        return listing.edge, [tile for tile in listing.tiles if tile.start >= cutoff]

    def provisional_check(self) -> tuple[int | None, list[FlowAnomaly]]:
        """Evaluate the open window against the current baseline.

        Read-only: nothing folds into the baseline and no check is
        scheduled, so polling never changes later answers.  Returns
        ``(E, flags)`` for the open window ``[E − W, E)``.
        """
        view = self.monitor.view
        edge, tiles = self._open_window()
        if edge is None:
            return None, []
        return edge, self.monitor.provisional(map(minute_cells, tiles), edge, view)

    def stats(self) -> dict:
        """Ingest counters plus the monitor's state.

        ``window_transitions`` counts the open window's transitions;
        ``frontier`` is the minute edge the monitor has checked up to.
        """
        view = self.monitor.view
        summary = self.summary.stats()
        _edge, tiles = self._open_window()
        return {
            "accepted": summary["accepted"],
            "dropped_stale": summary["dropped_late"],
            "window_transitions": sum(tile.n_transitions for tile in tiles),
            "checks_done": view.checks_done,
            "anomalies_total": len(view.anomalies),
            "has_windowed_fit": view.latest_fit is not None,
            "frontier": view.frontier,
        }
