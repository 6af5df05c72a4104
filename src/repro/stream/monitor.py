"""Rolling mobility monitor: refits and anomaly flags on a live stream.

The skeleton of the paper's proposed responsive forecasting system:
consume the tweet stream, keep windowed OD flows, periodically refit
the gravity model, and flag pairs whose current flow deviates from the
long-run baseline — the signal a disease-response team would watch for
(mass movement out of an outbreak city, or a travel-restriction taking
effect).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.world import World
from repro.data.gazetteer import Area
from repro.data.schema import Tweet
from repro.extraction.mobility import ODFlows
from repro.models.gravity import FittedGravity, GravityModel
from repro.stream.online import OnlineMobilityCounter


@dataclass(frozen=True, slots=True)
class FlowAnomaly:
    """One OD pair whose windowed flow left its baseline band."""

    source: str
    dest: str
    observed: float
    baseline: float
    ratio: float
    timestamp: float


class MobilityMonitor:
    """Windowed flows + EMA baseline + periodic gravity refits.

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
        if not (0.0 < baseline_alpha <= 1.0):
            raise ValueError("baseline_alpha must be in (0, 1]")
        if anomaly_ratio <= 1.0:
            raise ValueError("anomaly_ratio must exceed 1")
        if warmup_checks is not None and warmup_checks < 1:
            raise ValueError("warmup_checks must be >= 1")
        self.counter = OnlineMobilityCounter(areas, radius_km, window_seconds)
        self.world = self.counter.world
        self.areas = self.counter.areas
        self.baseline_alpha = baseline_alpha
        self.anomaly_ratio = anomaly_ratio
        self.min_flow = min_flow
        self.check_interval = (
            window_seconds / 4.0 if check_interval_seconds is None else check_interval_seconds
        )
        if warmup_checks is None:
            # The window must fill before flows are stationary, and the
            # EMA needs a couple more cycles to track the plateau.
            fill_checks = int(np.ceil(window_seconds / self.check_interval))
            warmup_checks = fill_checks + 2
        self.warmup_checks = warmup_checks
        n = len(self.areas)
        self._baseline = np.zeros((n, n), dtype=np.float64)
        self._checks_done = 0
        self._next_check = None
        self._anomalies: list[FlowAnomaly] = []
        self._fit_history: list[tuple[float, FittedGravity]] = []

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

        Call at end-of-stream (or during quiet spells after
        ``counter.advance_to``) so recently counted flows are examined
        even when no further tweet triggers a scheduled check.
        """
        now = self.counter._latest
        if not np.isfinite(now):
            return []
        self._next_check = now + self.check_interval
        return self._check(now)

    def _check(self, now: float) -> list[FlowAnomaly]:
        current = self.counter.flow_matrix().astype(np.float64)
        anomalies: list[FlowAnomaly] = []
        if self._checks_done >= self.warmup_checks:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(self._baseline > 0, current / self._baseline, np.nan)
            rows, cols = np.nonzero(
                (np.maximum(current, self._baseline) >= self.min_flow)
                & np.isfinite(ratio)
                & ((ratio >= self.anomaly_ratio) | (ratio <= 1.0 / self.anomaly_ratio))
            )
            for i, j in zip(rows, cols):
                anomalies.append(
                    FlowAnomaly(
                        source=self.areas[i].name,
                        dest=self.areas[j].name,
                        observed=float(current[i, j]),
                        baseline=float(self._baseline[i, j]),
                        ratio=float(ratio[i, j]),
                        timestamp=now,
                    )
                )
        # Update the EMA baseline after checking, so an anomaly does not
        # instantly launder itself into the baseline.
        alpha = self.baseline_alpha
        self._baseline = (1 - alpha) * self._baseline + alpha * current
        self._checks_done += 1
        self._refit(now)
        self._anomalies.extend(anomalies)
        return anomalies

    def _refit(self, now: float) -> None:
        flows = ODFlows(
            areas=self.areas, matrix=self.counter.flow_matrix()
        )
        pairs = flows.pairs()
        if len(pairs) < 8:
            return
        try:
            fitted = GravityModel(2).fit(pairs)
        except ValueError:
            return
        self._fit_history.append((now, fitted))

    @property
    def anomalies(self) -> list[FlowAnomaly]:
        """All anomalies raised so far."""
        return list(self._anomalies)

    @property
    def latest_fit(self) -> FittedGravity | None:
        """The most recent windowed gravity fit (None until warm)."""
        return self._fit_history[-1][1] if self._fit_history else None

    def gamma_history(self) -> list[tuple[float, float]]:
        """(timestamp, fitted gamma) per refit — drift diagnostics."""
        return [(ts, fit.params.gamma) for ts, fit in self._fit_history]
