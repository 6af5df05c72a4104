"""Serialisation of tweet streams as CSV.

The format round-trips :class:`~repro.data.schema.Tweet` records exactly
(timestamps and coordinates as decimal text).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator

from repro.data.schema import SchemaError, Tweet, parse_tweet_record

CSV_FIELDS = ("tweet_id", "user_id", "timestamp", "lat", "lon")


class DataFormatError(ValueError):
    """Raised when an input file cannot be parsed as a tweet stream."""


def write_tweets_csv(tweets: Iterable[Tweet], path: str | Path) -> int:
    """Write tweets to a CSV file with a header row; returns the count."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for tweet in tweets:
            writer.writerow(
                (
                    tweet.tweet_id,
                    tweet.user_id,
                    repr(tweet.timestamp),
                    repr(tweet.lat),
                    repr(tweet.lon),
                )
            )
            count += 1
    return count


def read_tweets_csv(path: str | Path) -> Iterator[Tweet]:
    """Stream tweets back from a CSV file written by :func:`write_tweets_csv`.

    Raises :class:`DataFormatError` on a malformed header or row.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_FIELDS:
            raise DataFormatError(f"{path}: expected header {CSV_FIELDS}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(CSV_FIELDS):
                raise DataFormatError(f"{path}:{line_no}: expected {len(CSV_FIELDS)} fields")
            try:
                yield parse_tweet_record(dict(zip(CSV_FIELDS, row)))
            except SchemaError as exc:
                raise DataFormatError(f"{path}:{line_no}: {exc}") from exc

