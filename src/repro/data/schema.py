"""Tweet and user record types, and the canonical record parser.

A geo-tagged tweet, for the purposes of this study, is four numbers: who
sent it, when, and where (latitude/longitude).  The paper uses no text or
social-graph features, so neither do we.

:func:`parse_tweet_record` is the one record parser: the CSV/JSONL
readers in :mod:`repro.data.io` call it per row.  The HTTP ingest
endpoint in ``repro.serve`` parses a whole batch into a
:class:`TweetBatch` (:meth:`TweetBatch.from_records`), which checks
columns at once but accepts exactly the records
:func:`parse_tweet_record` accepts, and reports a bad batch with that
parser's own message for the first bad record — so a malformed
``lat``/``lon``/``timestamp`` produces the same :class:`SchemaError`
message no matter which door the record came through.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

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


class BatchSchemaError(SchemaError):
    """A batch holds a malformed record.

    ``position`` is the lowest index of a bad record, and the message is
    :func:`parse_tweet_record`'s for that record.
    """

    def __init__(self, position: int, error: SchemaError) -> None:
        super().__init__(str(error))
        self.position = position


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
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(
            f"tweet field {name!r} is invalid: {value!r} ({exc})"
        ) from exc


def _to_int(value: Any) -> int:
    """An id: an int, an integral float or a digit string — never a bool,
    which ``int`` would silently turn into user 0 or 1."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not an id")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("an id must be a whole number")
    return int(value)


def _to_float(value: Any) -> float:
    """A number or a numeric string — never a bool."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return float(value)


def parse_tweet_record(record: Mapping[str, Any]) -> Tweet:
    """Build a validated :class:`Tweet` from one mapping (JSON object, CSV row).

    The canonical ingress parser: missing fields, unconvertible values
    and out-of-range coordinates/timestamps all raise
    :class:`SchemaError` with a message naming the offending field, so
    batch file loaders and the live ingest endpoint report malformed
    records identically.  Booleans are rejected in every numeric field,
    and non-integral floats in ``user_id``/``tweet_id``; integral floats
    (``7.0``) and digit strings (``"7"``) convert.
    """
    if not isinstance(record, Mapping):
        raise SchemaError(f"tweet must be an object, got {type(record).__name__}")
    user_id = _convert_field(record, "user_id", _to_int)
    timestamp = _convert_field(record, "timestamp", _to_float)
    lat = _convert_field(record, "lat", _to_float)
    lon = _convert_field(record, "lon", _to_float)
    tweet_id = _convert_field(record, "tweet_id", _to_int, default=-1)
    try:
        return Tweet(
            user_id=user_id, timestamp=timestamp, lat=lat, lon=lon, tweet_id=tweet_id
        )
    except CoordinateError as exc:
        raise SchemaError(str(exc)) from exc


#: Exact types of a plain record and of its id and number fields.
_DICT = frozenset({dict})
_INT = frozenset({int})
_NUMBER = frozenset({int, float})

#: A plain record's ``(user_id, timestamp, lat, lon)``.
_PLAIN_FIELDS = operator.itemgetter("user_id", "timestamp", "lat", "lon")

#: Largest magnitude of a valid timestamp, latitude and longitude.
_LIMITS = np.array([[sys.float_info.max], [90.0], [sys.float_info.max]])


def _plain_columns(
    records: Sequence[Any],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """``(user_ids, timestamps, lats, lons)`` of a batch of plain valid
    records, else None.

    A record is plain when it is a ``dict`` whose ids are ``int`` and
    whose other fields are ``int`` or ``float`` (never ``bool``).  Every
    check :func:`parse_tweet_record` makes on such a record is made here
    over whole columns, and longitudes wrap as
    :func:`~repro.geo.coords.normalize_longitude` wraps them, operation
    for operation, so values are bitwise equal to that parser's.
    """
    if not set(map(type, records)) <= _DICT:
        return None
    try:
        fields = list(map(_PLAIN_FIELDS, records))
    except KeyError:
        return None
    users, *columns = zip(*fields) if fields else ((), (), (), ())
    tweet_ids = [record["tweet_id"] for record in records if "tweet_id" in record]
    if not (
        set(map(type, users)) <= _INT
        and set(map(type, tweet_ids)) <= _INT
        and set().union(*(map(type, column) for column in columns)) <= _NUMBER
    ) or (users and min(users) < 0):
        return None
    try:
        user_ids = np.array(users, dtype=np.int64)
        block = np.array(columns, dtype=np.float64)
    except OverflowError:  # an id past int64, or an int past float64
        return None
    # Finite timestamps and longitudes, latitudes in [-90, 90]; NaN fails.
    if not (np.abs(block) <= _LIMITS).all():
        return None
    timestamps, lats, lons = block
    lons = np.fmod(lons + 180.0, 360.0)
    np.add(lons, 360.0, out=lons, where=lons < 0.0)
    lons -= 180.0
    return user_ids, timestamps, lats, lons


@dataclass(frozen=True, slots=True)
class TweetBatch:
    """A batch of tweets as columns, time-ascending.

    ``user_ids`` is int64 and ``timestamps``/``lats``/``lons`` are
    float64, row for row.  Rows are in the order of a stable sort by
    timestamp, so tweets with equal timestamps keep their input order.
    Build one with :meth:`from_records` (the HTTP ingest door) or
    :meth:`from_tweets`; ``tweet_id`` is validated but not kept, since
    nothing downstream reads it.
    """

    user_ids: np.ndarray
    timestamps: np.ndarray
    lats: np.ndarray
    lons: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @classmethod
    def _sorted(
        cls,
        user_ids: np.ndarray,
        timestamps: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
    ) -> TweetBatch:
        order = timestamps.argsort(kind="stable")
        return cls(user_ids[order], timestamps[order], lats[order], lons[order])

    @classmethod
    def from_tweets(cls, tweets: Sequence[Tweet]) -> TweetBatch:
        """The columns of already-validated tweets, sorted by time."""
        n = len(tweets)
        return cls._sorted(
            np.fromiter((t.user_id for t in tweets), np.int64, count=n),
            np.fromiter((t.timestamp for t in tweets), np.float64, count=n),
            np.fromiter((t.lat for t in tweets), np.float64, count=n),
            np.fromiter((t.lon for t in tweets), np.float64, count=n),
        )

    @classmethod
    def from_records(cls, records: Sequence[Any]) -> TweetBatch:
        """Parse a batch of records (JSON objects) into sorted columns.

        Equivalent to :func:`parse_tweet_record` on every record
        followed by :meth:`from_tweets`: the same records are accepted,
        with bitwise-equal values.  A batch of plain records (see
        :func:`_plain_columns`) is checked a column at a time; any other
        batch — one holding digit strings, or a bad record — goes
        through :func:`parse_tweet_record` record by record.  Raises
        :class:`BatchSchemaError` at the lowest bad position, with that
        parser's message for the record there.
        """
        columns = _plain_columns(records)
        if columns is not None:
            return cls._sorted(*columns)
        tweets = []
        for position, record in enumerate(records):
            try:
                tweets.append(parse_tweet_record(record))
            except SchemaError as exc:
                raise BatchSchemaError(position, exc) from exc
        return cls.from_tweets(tweets)

    def select(self, mask: np.ndarray) -> TweetBatch:
        """The rows a boolean mask picks, in order (so still time-ascending)."""
        return TweetBatch(
            self.user_ids[mask], self.timestamps[mask], self.lats[mask], self.lons[mask]
        )


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
