"""Diurnal (circadian) structure for the synthetic tweet stream.

Real tweeting has a strong daily cycle — quiet at 4 am, peaks in the
evening.  The base generator draws waiting times from a pure truncated
Pareto, which is what Fig 2(b) measures, but leaves the time-of-day
profile flat.  :class:`DiurnalPattern` adds the cycle by *warping* each
timestamp's time-of-day through the inverse CDF of a target daily
density.  The warp preserves

* the calendar date of every tweet (counts per day are unchanged), and
* the heavy tail of waiting times (the warp moves events by at most a
  few hours, invisible on a distribution spanning eight decades),

while making the aggregate hourly profile match the target density —
so downstream temporal analyses (:mod:`repro.extraction.temporal`) see
realistic structure.
"""

from __future__ import annotations

import numpy as np

DAY_SECONDS = 86_400.0


class DiurnalPattern:
    """A daily activity density and its timestamp warp.

    The default shape is a single-harmonic cosine

        ``rho(h) ∝ 1 + amplitude * cos(2π (h - peak_hour) / 24)``

    with ``amplitude`` in [0, 1); 0 is flat, 0.8 gives a pronounced
    evening peak similar to observed Twitter profiles.
    """

    def __init__(
        self, amplitude: float = 0.8, peak_hour: float = 20.0, grid_size: int = 2048
    ) -> None:
        if not (0.0 <= amplitude < 1.0):
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        if not (0.0 <= peak_hour < 24.0):
            raise ValueError(f"peak_hour must be in [0, 24), got {peak_hour}")
        if grid_size < 16:
            raise ValueError("grid_size too small for an accurate warp")
        self.amplitude = float(amplitude)
        self.peak_hour = float(peak_hour)
        # Tabulate the CDF of the daily density on a uniform grid.
        hours = np.linspace(0.0, 24.0, grid_size + 1)
        density = 1.0 + self.amplitude * np.cos(
            2.0 * np.pi * (hours - self.peak_hour) / 24.0
        )
        cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2.0)))
        self._hours = hours
        self._cdf = cdf / cdf[-1]

    # repro: allow[reachability] oracle: tests/synth/test_diurnal.py checks sampled hours against it
    def density(self, hour: float | np.ndarray) -> np.ndarray:
        """Relative activity density at an hour of day (mean 1)."""
        hour = np.asarray(hour, dtype=np.float64) % 24.0
        return 1.0 + self.amplitude * np.cos(
            2.0 * np.pi * (hour - self.peak_hour) / 24.0
        )

    def warp_time_of_day(self, uniform_fraction: np.ndarray) -> np.ndarray:
        """Map uniform day-fractions in [0, 1) to diurnal day-fractions.

        This is the inverse CDF of the daily density: a uniformly
        distributed time-of-day comes out distributed like the target
        profile.
        """
        u = np.asarray(uniform_fraction, dtype=np.float64)
        if np.any((u < 0) | (u >= 1)):
            raise ValueError("day fractions must lie in [0, 1)")
        warped_hours = np.interp(u, self._cdf, self._hours)
        return warped_hours / 24.0

    def warp_timestamps(self, timestamps: np.ndarray, epoch: float) -> np.ndarray:
        """Warp full timestamps, preserving each tweet's calendar day.

        ``epoch`` anchors day boundaries (use the collection-window
        start); days are measured from it in UTC-like fixed 86,400 s
        blocks.
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        offset = ts - epoch
        days = np.floor(offset / DAY_SECONDS)
        fraction = offset / DAY_SECONDS - days
        warped = self.warp_time_of_day(fraction)
        return epoch + (days + warped) * DAY_SECONDS
