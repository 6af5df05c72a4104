"""Scenario injection: synthetic events layered onto a corpus stream.

The streaming monitor exists to catch mobility *changes* — evacuations,
mass gatherings.  These builders produce time-ordered
tweet streams for such events, to be merged into a replayed corpus with
:func:`repro.stream.replay.merge_streams`:

* :func:`evacuation_event` — a wave of users tweets in the origin city,
  then again in the destination hours later;
* :func:`gathering_event` — users from several cities converge on one
  place for a bounded period, then return home.

Synthetic event user ids start high (:data:`EVENT_USER_BASE`) so they
never collide with corpus users.
"""

from __future__ import annotations

import numpy as np

from repro.data.gazetteer import Area
from repro.data.schema import Tweet

EVENT_USER_BASE = 10_000_000


# repro: allow[reachability] Tweet-at-a-time event injection, moves with the stream-stack retirement
def evacuation_event(
    origin: Area,
    destination: Area,
    n_users: int,
    start_ts: float,
    spread_seconds: float = 86_400.0,
    travel_seconds: tuple[float, float] = (3_600.0, 8 * 3_600.0),
    rng: np.random.Generator | None = None,
    user_base: int = EVENT_USER_BASE,
) -> list[Tweet]:
    """A mass movement: each user posts at the origin, then the destination.

    Returns a time-sorted list of ``2 * n_users`` tweets.  Departure
    times are uniform over ``spread_seconds`` after ``start_ts``; travel
    times are uniform in ``travel_seconds``.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    if travel_seconds[0] <= 0 or travel_seconds[0] > travel_seconds[1]:
        raise ValueError("invalid travel time window")
    rng = rng if rng is not None else np.random.default_rng(0)
    tweets = []
    for k in range(n_users):
        user_id = user_base + k
        departure = start_ts + rng.uniform(0.0, spread_seconds)
        arrival = departure + rng.uniform(*travel_seconds)
        tweets.append(
            Tweet(
                user_id=user_id,
                timestamp=departure,
                lat=origin.center.lat,
                lon=origin.center.lon,
            )
        )
        tweets.append(
            Tweet(
                user_id=user_id,
                timestamp=arrival,
                lat=destination.center.lat,
                lon=destination.center.lon,
            )
        )
    tweets.sort(key=lambda t: t.timestamp)
    return tweets


# repro: allow[reachability] Tweet-at-a-time event injection, moves with the stream-stack retirement
def gathering_event(
    venue: Area,
    home_areas: list[Area],
    n_users_per_area: int,
    start_ts: float,
    duration_seconds: float = 2 * 86_400.0,
    rng: np.random.Generator | None = None,
    user_base: int = EVENT_USER_BASE + 1_000_000,
) -> list[Tweet]:
    """A festival: users from each home area visit the venue and return.

    Each user posts three tweets — home, venue, home again — producing
    symmetric in/out flow spikes around the event window.
    """
    if n_users_per_area < 1:
        raise ValueError("need at least one user per area")
    if duration_seconds <= 0:
        raise ValueError("duration must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    tweets = []
    next_user = user_base
    for home in home_areas:
        for _k in range(n_users_per_area):
            user_id = next_user
            next_user += 1
            leave_home = start_ts + rng.uniform(0.0, duration_seconds / 4.0)
            at_venue = leave_home + rng.uniform(3_600.0, 12 * 3_600.0)
            back_home = start_ts + duration_seconds + rng.uniform(0.0, 86_400.0)
            tweets.append(
                Tweet(user_id=user_id, timestamp=leave_home,
                      lat=home.center.lat, lon=home.center.lon)
            )
            tweets.append(
                Tweet(user_id=user_id, timestamp=at_venue,
                      lat=venue.center.lat, lon=venue.center.lon)
            )
            tweets.append(
                Tweet(user_id=user_id, timestamp=back_home,
                      lat=home.center.lat, lon=home.center.lon)
            )
    tweets.sort(key=lambda t: t.timestamp)
    return tweets

