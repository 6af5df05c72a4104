"""Rolling mobility monitors: refits and anomaly flags on a live stream.

The skeleton of the paper's proposed responsive forecasting system:
consume the tweet stream, keep windowed OD flows, periodically refit
the gravity model, and flag pairs whose current flow deviates from the
long-run baseline — the signal a disease-response team would watch for
(mass movement out of an outbreak city, or a travel-restriction taking
effect).

One sparse check kernel, :class:`AnomalyKernel`, does the checking.  A
window reaches it as its nonzero OD cells; it keeps the per-pair EMA
(exponential moving average) baseline only for pairs seen so far and
computes refit distances only for the pairs being fitted, so a check
costs O(window cells + baseline pairs), never O(areas²).  Two monitors
drive it on different schedules:

* :class:`MobilityMonitor` — offline and tweet-granular: it counts the
  stream with :class:`~repro.stream.online.OnlineMobilityCounter` and
  checks when a tweet reaches the next check time
  (``previous check + interval``), over the transitions of the last
  ``window_seconds``.
* :class:`MinuteMonitor` — the serving monitor: fed the OD cells of
  whole minutes once they are final (the summary store's minute tiles),
  it checks at whole-minute boundaries ``B`` (multiples of the check
  interval) over the transitions whose arriving tweet falls in
  ``[B − W, B)``.  Its state is a pure function of the minutes it was
  fed, so a restarted server re-derives it from persisted tiles.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.core.world import World
from repro.data.gazetteer import Area
from repro.data.schema import Tweet
from repro.extraction.mobility import ODPairs
from repro.models.gravity import FittedGravity, GravityModel
from repro.stream.online import OnlineMobilityCounter

#: The serving schedule's unit: windows and intervals are whole minutes.
MINUTE = 60

#: Fewest window pairs a gravity refit is attempted on.
MIN_REFIT_PAIRS = 8

_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)
_NO_KEYS.flags.writeable = False
_NO_VALUES.flags.writeable = False

#: One minute's OD cells: ``(start, keys, counts)`` with sorted flat keys.
MinuteCells = tuple[int, np.ndarray, np.ndarray]


@dataclass(frozen=True, slots=True)
class FlowAnomaly:
    """One OD pair whose windowed flow left its baseline band."""

    source: str
    dest: str
    observed: float
    baseline: float
    ratio: float
    timestamp: float


@dataclass(frozen=True)
class Baseline:
    """The per-pair EMA baseline after ``checks`` checks, held sparse.

    ``keys`` are the sorted flat pair keys ``source * n_areas + dest``
    whose baseline is nonzero and ``values`` their baselines; every
    other pair's baseline is exactly zero, and a zero-baseline pair can
    never be flagged.  Immutable: each check builds a new one.
    """

    keys: np.ndarray = field(default_factory=lambda: _NO_KEYS)
    values: np.ndarray = field(default_factory=lambda: _NO_VALUES)
    checks: int = 0


def fit_window(world: World, keys: np.ndarray, counts: np.ndarray) -> FittedGravity | None:
    """The gravity model fitted on a window's cells, or None.

    None when the window holds fewer than :data:`MIN_REFIT_PAIRS` pairs
    or the fit fails.  Distances are computed for these pairs only.
    """
    if keys.size < MIN_REFIT_PAIRS:
        return None
    sources, dests = np.divmod(keys, world.n_areas)
    try:
        return GravityModel(2).fit(ODPairs.from_cells(world, sources, dests, counts))
    except ValueError:
        return None


class AnomalyKernel:
    """The sparse check kernel: EMA baseline and anomaly flags.

    A window is given as its nonzero OD cells: sorted flat keys
    ``source * n_areas + dest`` with their transition counts.  At each
    :meth:`check` a pair is anomalous when ``flow / baseline`` reaches
    ``anomaly_ratio`` or drops to its inverse with ``max(flow,
    baseline) >= min_flow`` (only once ``warmup_checks`` checks have
    been folded in); the baseline then absorbs the window.
    """

    def __init__(
        self,
        world: World,
        baseline_alpha: float = 0.3,
        anomaly_ratio: float = 3.0,
        min_flow: float = 5.0,
        warmup_checks: int = 1,
    ) -> None:
        if not (0.0 < baseline_alpha <= 1.0):
            raise ValueError("baseline_alpha must be in (0, 1]")
        if anomaly_ratio <= 1.0:
            raise ValueError("anomaly_ratio must exceed 1")
        if warmup_checks < 1:
            raise ValueError("warmup_checks must be >= 1")
        self.world = world
        self.baseline_alpha = baseline_alpha
        self.anomaly_ratio = anomaly_ratio
        self.min_flow = min_flow
        self.warmup_checks = warmup_checks
        self.baseline = Baseline()
        self.anomalies: list[FlowAnomaly] = []

    def _aligned(
        self, baseline: Baseline, keys: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The window and the baseline over the union of their pairs."""
        union = np.concatenate((baseline.keys, keys))
        union.sort()
        if union.size > 1:
            union = union[np.append(True, union[1:] != union[:-1])]
        current = np.zeros(union.size, dtype=np.float64)
        current[union.searchsorted(keys)] = counts
        prior = np.zeros(union.size, dtype=np.float64)
        prior[union.searchsorted(baseline.keys)] = baseline.values
        return union, current, prior

    def _flags(
        self,
        union: np.ndarray,
        current: np.ndarray,
        prior: np.ndarray,
        now: float,
    ) -> list[FlowAnomaly]:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.where(prior > 0, current / prior, np.nan)
        hits = np.flatnonzero(
            (np.maximum(current, prior) >= self.min_flow)
            & np.isfinite(ratio)
            & ((ratio >= self.anomaly_ratio) | (ratio <= 1.0 / self.anomaly_ratio))
        )
        names = self.world.names
        sources, dests = np.divmod(union[hits], self.world.n_areas)
        return [
            FlowAnomaly(
                source=names[i],
                dest=names[j],
                observed=float(current[k]),
                baseline=float(prior[k]),
                ratio=float(ratio[k]),
                timestamp=now,
            )
            for k, i, j in zip(hits.tolist(), sources.tolist(), dests.tolist())
        ]

    def flag(
        self, keys: np.ndarray, counts: np.ndarray, now: float, baseline: Baseline
    ) -> list[FlowAnomaly]:
        """The anomalies a check of this window against ``baseline`` would
        raise; folds nothing (a concurrent reader passes its snapshot)."""
        if baseline.checks < self.warmup_checks:
            return []
        return self._flags(*self._aligned(baseline, keys, counts), now)

    def check(self, keys: np.ndarray, counts: np.ndarray, now: float) -> list[FlowAnomaly]:
        """Flag the window and fold it into the baseline; returns the flags."""
        baseline = self.baseline
        union, current, prior = self._aligned(baseline, keys, counts)
        anomalies = (
            self._flags(union, current, prior, now)
            if baseline.checks >= self.warmup_checks
            else []
        )
        # Update the EMA baseline after checking, so an anomaly does not
        # instantly launder itself into the baseline.
        alpha = self.baseline_alpha
        folded = (1 - alpha) * prior + alpha * current
        kept = folded != 0.0
        self.baseline = Baseline(union[kept], folded[kept], baseline.checks + 1)
        self.anomalies.extend(anomalies)
        return anomalies

    def skip_idle(self, checks: int) -> None:
        """Count ``checks`` checks of an empty window on an empty baseline.

        Such a check flags nothing, folds to the same empty baseline and
        has no pairs to fit, so only the count moves.
        """
        if self.baseline.keys.size:
            raise ValueError("only an empty baseline can skip checks")
        self.baseline = Baseline(checks=self.baseline.checks + checks)


def default_warmup(window_seconds: float, check_interval: float) -> int:
    """Checks before anomalies may be raised.

    The window must fill before flows are stationary, and the EMA needs
    a couple more cycles to track the plateau.
    """
    return int(np.ceil(window_seconds / check_interval)) + 2


class MobilityMonitor:
    """Windowed flows + EMA baseline + periodic gravity refits, per tweet.

    Parameters
    ----------
    areas, radius_km:
        The area system to monitor (typically one gazetteer scale).
    window_seconds:
        Length of the sliding flow window.
    baseline_alpha:
        EMA weight for the per-pair baseline update at each check.
    anomaly_ratio:
        A pair is anomalous when ``flow / baseline`` exceeds this or
        drops below its inverse (with both above ``min_flow``).
    check_interval_seconds:
        How often (in stream time) baselines are updated, anomalies
        collected and the model refit.
    warmup_checks:
        Number of baseline updates before anomalies may be raised — the
        EMA needs a few cycles to learn normal flow volumes.
    """

    def __init__(
        self,
        areas: Sequence[Area] | World,
        radius_km: float,
        window_seconds: float,
        baseline_alpha: float = 0.3,
        anomaly_ratio: float = 3.0,
        min_flow: float = 5.0,
        check_interval_seconds: float | None = None,
        warmup_checks: int | None = None,
    ) -> None:
        self.counter = OnlineMobilityCounter(areas, radius_km, window_seconds)
        self.world = self.counter.world
        self.areas = self.counter.areas
        self.check_interval = (
            window_seconds / 4.0 if check_interval_seconds is None else check_interval_seconds
        )
        self.kernel = AnomalyKernel(
            self.world,
            baseline_alpha,
            anomaly_ratio,
            min_flow,
            (
                default_warmup(window_seconds, self.check_interval)
                if warmup_checks is None
                else warmup_checks
            ),
        )
        self._next_check = None
        self._fits: list[tuple[float, FittedGravity]] = []

    def push(self, tweet: Tweet) -> list[FlowAnomaly]:
        """Ingest one tweet; returns anomalies raised by this check cycle."""
        self.counter.push(tweet)
        return self._maybe_check(tweet.timestamp)

    def push_batch(
        self, tweets: Sequence[Tweet], labels: np.ndarray | None = None
    ) -> list[FlowAnomaly]:
        """Ingest a time-ordered batch; returns all anomalies raised.

        The batch is labelled once — ``labels`` when the caller already
        labelled it, else one kernel pass here — and the labels are
        sliced at check boundaries into
        :meth:`OnlineMobilityCounter.push_batch`, so the check/refit
        schedule fires exactly as it would under per-tweet ``push``:
        checks are driven by stream time, not call shape.
        """
        if labels is None:
            labels = self.counter.label_batch(tweets)
        elif len(labels) != len(tweets):
            raise ValueError(f"{len(labels)} labels for {len(tweets)} tweets")
        anomalies: list[FlowAnomaly] = []
        start = 0
        timestamps = [tweet.timestamp for tweet in tweets]
        while start < len(tweets):
            # Feed the counter up to (and including) the tweet that
            # crosses the next check boundary, then run that check.
            if self._next_check is None:
                stop = start + 1
            else:
                stop = start
                while stop < len(tweets) and timestamps[stop] < self._next_check:
                    stop += 1
                stop = min(stop + 1, len(tweets))
            self.counter.push_batch(tweets[start:stop], labels[start:stop])
            anomalies.extend(self._maybe_check(timestamps[stop - 1]))
            start = stop
        return anomalies

    def _maybe_check(self, timestamp: float) -> list[FlowAnomaly]:
        if self._next_check is None:
            self._next_check = timestamp + self.check_interval
            return []
        if timestamp < self._next_check:
            return []
        self._next_check = timestamp + self.check_interval
        return self._check(timestamp)

    def check_now(self) -> list[FlowAnomaly]:
        """Force a check cycle at the current stream time.

        Call at end-of-stream so recently counted flows are examined
        even when no further tweet triggers a scheduled check.
        """
        now = self.counter._latest
        if not np.isfinite(now):
            return []
        self._next_check = now + self.check_interval
        return self._check(now)

    def _check(self, now: float) -> list[FlowAnomaly]:
        flows = self.counter.flow_matrix().ravel()
        keys = np.flatnonzero(flows)
        counts = flows[keys]
        anomalies = self.kernel.check(keys, counts, now)
        fitted = fit_window(self.world, keys, counts)
        if fitted is not None:
            self._fits.append((now, fitted))
        return anomalies

    @property
    def checks_done(self) -> int:
        """Checks run so far."""
        return self.kernel.baseline.checks

    @property
    def anomalies(self) -> list[FlowAnomaly]:
        """All anomalies raised so far."""
        return list(self.kernel.anomalies)

    @property
    def latest_fit(self) -> FittedGravity | None:
        """The most recent windowed gravity fit (None until warm)."""
        return self._fits[-1][1] if self._fits else None

    def gamma_history(self) -> list[tuple[float, float]]:
        """(timestamp, fitted gamma) per refit — drift diagnostics."""
        return [(ts, fit.params.gamma) for ts, fit in self._fits]


def _cell_arrays(cells: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """A ``key → count`` window as sorted key and count columns."""
    keys = sorted(cells)
    return (
        np.array(keys, dtype=np.int64),
        np.array([cells[key] for key in keys], dtype=np.int64),
    )


def whole_minutes(seconds: float) -> int:
    """``seconds`` rounded up to a whole number of minutes (at least one)."""
    if not (0.0 < seconds < math.inf):
        raise ValueError(f"need a finite positive span, got {seconds!r}")
    return math.ceil(seconds / MINUTE) * MINUTE


@dataclass(frozen=True, eq=False)
class CheckedWindow:
    """A checked window's cells; its gravity refit runs on first read,
    off the ingest path, and is kept."""

    world: World
    keys: np.ndarray
    counts: np.ndarray

    @cached_property
    def fitted(self) -> FittedGravity | None:
        """:func:`fit_window` of these cells."""
        return fit_window(self.world, self.keys, self.counts)


@dataclass(frozen=True)
class MonitorView:
    """A :class:`MinuteMonitor` as of its last :meth:`~MinuteMonitor.advance`.

    Immutable, so a reader holding one sees a state consistent with
    whole advances while the writer moves on.  ``window`` is the latest
    checked window with at least :data:`MIN_REFIT_PAIRS` pairs.
    """

    frontier: int | None
    baseline: Baseline
    anomalies: tuple[FlowAnomaly, ...]
    window: CheckedWindow | None = None

    @property
    def checks_done(self) -> int:
        """Checks run up to :attr:`frontier`."""
        return self.baseline.checks

    @property
    def latest_fit(self) -> FittedGravity | None:
        """The gravity model refit on :attr:`window` (None until warm)."""
        return None if self.window is None else self.window.fitted


class MinuteMonitor:
    """The kernel on a whole-minute schedule over finalized minutes.

    :meth:`advance` takes the OD cells of minutes once they are final,
    in start order, and the *frontier*: the minute edge before which
    every minute is final.  Check boundaries are the multiples of the
    check interval after the first minute fed; the check at ``B`` sees
    the transitions whose arriving tweet lies in ``[B − W, B)`` and runs
    once the frontier reaches ``B``.  The window is a running sum — a
    minute's cells are added as it arrives and subtracted when it
    leaves the window — so a check costs O(window cells), whatever the
    number of areas.  ``window_seconds`` and ``check_interval_seconds``
    round up to whole minutes; the interval defaults to a quarter of
    the window.  The gravity refit is deferred: the latest window with
    enough pairs is kept, and fitted when a reader asks for
    :attr:`MonitorView.latest_fit`.

    Single writer: :meth:`advance` must be serialised by the caller.
    Readers use :attr:`view`, which is replaced (never mutated) at the
    end of each advance.
    """

    def __init__(
        self,
        world: World,
        window_seconds: float = 3600.0,
        check_interval_seconds: float | None = None,
        baseline_alpha: float = 0.3,
        anomaly_ratio: float = 3.0,
        min_flow: float = 5.0,
        warmup_checks: int | None = None,
    ) -> None:
        self.window = whole_minutes(window_seconds)
        self.interval = whole_minutes(
            self.window / 4.0 if check_interval_seconds is None else check_interval_seconds
        )
        if warmup_checks is None:
            warmup_checks = default_warmup(self.window, self.interval)
        self.kernel = AnomalyKernel(
            world, baseline_alpha, anomaly_ratio, min_flow, warmup_checks
        )
        self._cells: dict[int, int] = {}
        self._held: deque[MinuteCells] = deque()
        self._next: int | None = None
        self._refit_window: CheckedWindow | None = None
        self.view = MonitorView(None, self.kernel.baseline, ())

    def fresh(self) -> "MinuteMonitor":
        """A new, empty monitor with this one's settings."""
        kernel = self.kernel
        return MinuteMonitor(
            kernel.world,
            self.window,
            self.interval,
            kernel.baseline_alpha,
            kernel.anomaly_ratio,
            kernel.min_flow,
            kernel.warmup_checks,
        )

    def advance(self, minutes: Iterable[MinuteCells], frontier: int | None) -> int:
        """Fold final minutes in, then run every check up to ``frontier``.

        ``minutes`` must come in start order and lie before
        ``frontier``; a minute behind the frontier already reached is
        skipped (checks that ran are history).  Returns the number of
        anomalies raised.
        """
        raised = 0
        reached = self.view.frontier
        for start, keys, counts in minutes:
            if reached is not None and start < reached:
                continue
            if self._next is None:
                self._next = (start // self.interval + 1) * self.interval
            raised += self._checks_through(start)
            self._held.append((start, keys, counts))
            for key, count in zip(keys.tolist(), counts.tolist()):
                self._cells[key] = self._cells.get(key, 0) + count
        if frontier is not None:
            raised += self._checks_through(frontier)
        if frontier is not None and (reached is None or frontier > reached):
            reached = frontier
        self.view = MonitorView(
            reached,
            self.kernel.baseline,
            tuple(self.kernel.anomalies) if raised else self.view.anomalies,
            self._refit_window,
        )
        return raised

    def _checks_through(self, edge: int) -> int:
        """Run the checks at every boundary ``B <= edge``; anomalies raised."""
        raised = 0
        boundary = self._next
        while boundary is not None and boundary <= edge:
            cutoff = boundary - self.window
            while self._held and self._held[0][0] < cutoff:
                _start, keys, counts = self._held.popleft()
                for key, count in zip(keys.tolist(), counts.tolist()):
                    left = self._cells[key] - count
                    if left:
                        self._cells[key] = left
                    else:
                        del self._cells[key]
            if not self._cells and not self.kernel.baseline.keys.size:
                # Nothing arrives between boundaries in this loop, so
                # every remaining window is empty too: count them at once.
                skipped = (edge - boundary) // self.interval + 1
                self.kernel.skip_idle(skipped)
                boundary += skipped * self.interval
                break
            keys, counts = _cell_arrays(self._cells)
            raised += len(self.kernel.check(keys, counts, float(boundary)))
            if keys.size >= MIN_REFIT_PAIRS:
                self._refit_window = CheckedWindow(self.kernel.world, keys, counts)
            boundary += self.interval
        self._next = boundary
        return raised

    def window_cells(
        self, minutes: Iterable[MinuteCells], edge: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The summed cells of the minutes in ``[edge − W, edge)``."""
        cells: dict[int, int] = {}
        for start, keys, counts in minutes:
            if edge - self.window <= start < edge:
                for key, count in zip(keys.tolist(), counts.tolist()):
                    cells[key] = cells.get(key, 0) + count
        return _cell_arrays(cells)

    def provisional(
        self, minutes: Iterable[MinuteCells], edge: int, view: MonitorView | None = None
    ) -> list[FlowAnomaly]:
        """Flag the window ``[edge − W, edge)`` of ``minutes`` against the
        baseline of ``view`` (default: the current one), folding nothing."""
        view = self.view if view is None else view
        keys, counts = self.window_cells(minutes, edge)
        return self.kernel.flag(keys, counts, float(edge), view.baseline)
