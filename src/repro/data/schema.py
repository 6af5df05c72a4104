"""Tweet and user record types, and the canonical record parser.

A geo-tagged tweet, for the purposes of this study, is four numbers: who
sent it, when, and where (latitude/longitude).  The paper uses no text or
social-graph features, so neither do we.

:func:`parse_tweet_record` is the single parser every ingress shares —
the CSV/JSONL readers in :mod:`repro.data.io` and the HTTP ingest
endpoint in ``repro.serve`` — so a malformed ``lat``/``lon``/``timestamp``
produces the same :class:`SchemaError` message no matter which door the
record came through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.geo.coords import (
    Coordinate,
    CoordinateError,
    validate_latitude,
    validate_longitude,
)


#: Largest id an int64 column holds.
INT64_MAX = 2**63 - 1


class SchemaError(ValueError):
    """Raised when a record's fields are out of range or inconsistent."""


@dataclass(frozen=True, slots=True)
class Tweet:
    """One geo-tagged tweet.

    Attributes
    ----------
    user_id:
        Non-negative integer identifying the author; it must fit a
        signed 64-bit column (below ``2**63``), as every corpus and
        summary-tile column that stores it does.
    timestamp:
        Posting time as Unix seconds (float; sub-second precision kept).
    lat, lon:
        Geo-tag in decimal degrees; validated and longitude-normalised.
    tweet_id:
        Optional unique id; ``-1`` means "not assigned".
    """

    user_id: int
    timestamp: float
    lat: float
    lon: float
    tweet_id: int = -1

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise SchemaError(f"user_id must be non-negative, got {self.user_id}")
        if self.user_id > INT64_MAX:
            raise SchemaError(
                f"user_id must fit int64 (at most {INT64_MAX}), got {self.user_id}"
            )
        if not math.isfinite(self.timestamp):
            raise SchemaError(f"timestamp must be finite, got {self.timestamp!r}")
        object.__setattr__(self, "lat", validate_latitude(self.lat))
        object.__setattr__(self, "lon", validate_longitude(self.lon))

    @property
    def coordinate(self) -> Coordinate:
        """The geo-tag as a :class:`~repro.geo.coords.Coordinate`."""
        return Coordinate(lat=self.lat, lon=self.lon)


_MISSING = object()


def _convert_field(
    record: Mapping[str, Any],
    name: str,
    converter: Callable[[Any], Any],
    default: Any = _MISSING,
) -> Any:
    value = record.get(name, _MISSING)
    if value is _MISSING:
        if default is not _MISSING:
            return default
        raise SchemaError(f"tweet missing field {name!r}")
    try:
        return converter(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(
            f"tweet field {name!r} is invalid: {value!r} ({exc})"
        ) from exc


def parse_tweet_record(record: Mapping[str, Any]) -> Tweet:
    """Build a validated :class:`Tweet` from one mapping (JSON object, CSV row).

    The canonical ingress parser: missing fields, unconvertible values
    and out-of-range coordinates/timestamps all raise
    :class:`SchemaError` with a message naming the offending field, so
    batch file loaders and the live ingest endpoint report malformed
    records identically.
    """
    if not isinstance(record, Mapping):
        raise SchemaError(f"tweet must be an object, got {type(record).__name__}")
    user_id = _convert_field(record, "user_id", int)
    timestamp = _convert_field(record, "timestamp", float)
    lat = _convert_field(record, "lat", float)
    lon = _convert_field(record, "lon", float)
    tweet_id = _convert_field(record, "tweet_id", int, default=-1)
    try:
        return Tweet(
            user_id=user_id, timestamp=timestamp, lat=lat, lon=lon, tweet_id=tweet_id
        )
    except CoordinateError as exc:
        raise SchemaError(str(exc)) from exc


@dataclass(frozen=True, slots=True)
class UserSummary:
    """Aggregate view of one user's activity in a corpus.

    Produced by :meth:`repro.data.corpus.TweetCorpus.user_summaries`;
    the fields mirror the per-user columns of Table I.
    """

    user_id: int
    n_tweets: int
    first_timestamp: float
    last_timestamp: float
    n_distinct_locations: int

    @property
    def active_span_seconds(self) -> float:
        """Seconds between the user's first and last tweet."""
        return self.last_timestamp - self.first_timestamp


@dataclass(frozen=True, slots=True)
class CorpusStats:
    """Corpus-level statistics — the row of Table I.

    ``avg_waiting_time_hours`` is the mean time interval between a user's
    consecutive tweets, averaged over all consecutive pairs in the corpus;
    ``avg_locations_per_user`` counts distinct (rounded) geo-tags.
    """

    n_tweets: int
    n_users: int
    avg_tweets_per_user: float
    avg_waiting_time_hours: float
    avg_locations_per_user: float
    min_lat: float = field(default=float("nan"))
    max_lat: float = field(default=float("nan"))
    min_lon: float = field(default=float("nan"))
    max_lon: float = field(default=float("nan"))
    first_timestamp: float = field(default=float("nan"))
    last_timestamp: float = field(default=float("nan"))
