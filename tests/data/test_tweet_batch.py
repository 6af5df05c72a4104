"""The batch parser agrees with the record parser, record for record.

:meth:`TweetBatch.from_records` checks whole columns at once, but must
accept exactly the batches that :func:`parse_tweet_record` on every
record accepts, reject the others at the lowest bad position with that
parser's message, and produce columns bitwise equal to the parsed
tweets after a stable sort by timestamp.  The live ``POST /v1/ingest``
door answers a bad batch ``400 tweets[k]: <message>``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import (
    BatchSchemaError,
    SchemaError,
    Tweet,
    TweetBatch,
    parse_tweet_record,
)
from repro.pipeline.store import ArtifactStore
from repro.serve import create_app

FIELDS = ("user_id", "timestamp", "lat", "lon")

NAN, INF = float("nan"), float("inf")

#: Timestamps from a small pool, so batches hold equal timestamps
#: (``0.0`` and ``-0.0`` compare equal too).
TIMES = st.sampled_from([0.0, -0.0, 1.0, 2.5, 59.999, 60.0, 1.38e9]) | st.integers(0, 3)

LATS = st.sampled_from(
    [90.0, -90.0, 0.0, -0.0, 90, -90, -33.87, math.nextafter(90.0, 0.0)]
) | st.floats(-90.0, 90.0)

LONS = st.sampled_from(
    [180.0, -180.0, 540.0, -540.0, 360.0, -360.0, -0.0, 0.0, 180, -540, 151.21]
) | st.floats(-1000.0, 1000.0)

IDS = st.integers(0, 6) | st.just(2**63 - 1)

#: Per field, values a valid plain record never holds: wrong types,
#: values just past a range, non-finite numbers, and values that only
#: the record-by-record path converts (digit strings, integral floats).
ODD = {
    "user_id": [-1, 2**63, 2**64, True, False, 3.7, -0.5, 7.0, "7", " 5 ", "x", NAN, INF, None],
    "tweet_id": [True, 3.7, 7.0, "7", None, -1, 2**70, NAN],
    "timestamp": [NAN, INF, -INF, True, "12.5", "later", 10**400, None, []],
    "lat": [
        90.5,
        -90.5,
        math.nextafter(90.0, INF),
        math.nextafter(-90.0, -INF),
        NAN,
        INF,
        -INF,
        False,
        "-33.9",
        10**400,
    ],
    "lon": [NAN, INF, -INF, True, "190", 10**400, None],
}


@st.composite
def plain_records(draw) -> dict:
    record = {
        "user_id": draw(IDS),
        "timestamp": draw(TIMES),
        "lat": draw(LATS),
        "lon": draw(LONS),
    }
    if draw(st.booleans()):
        record["tweet_id"] = draw(IDS)
    return record


@st.composite
def odd_records(draw):
    """A record with one field odd or missing, or not a record at all."""
    kind = draw(st.sampled_from(["odd", "missing", "not-a-dict"]))
    if kind == "not-a-dict":
        return draw(st.sampled_from([[1, 2, 3], "tweet", None, 7]))
    record = draw(plain_records())
    field = draw(st.sampled_from(sorted(ODD)))
    if kind == "missing":
        record.pop(field, None)
    else:
        record[field] = draw(st.sampled_from(ODD[field]))
    return record


@st.composite
def batches(draw) -> list:
    records = draw(st.lists(plain_records(), max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        records.insert(draw(st.integers(0, len(records))), draw(odd_records()))
    return records


def reference(records: list) -> tuple[int, str] | list[Tweet]:
    """What the record parser makes of a batch: the first failure as
    ``(position, message)``, else the tweets stably sorted by time."""
    tweets = []
    for position, record in enumerate(records):
        try:
            tweets.append(parse_tweet_record(record))
        except SchemaError as exc:
            return position, str(exc)
    return sorted(tweets, key=lambda t: t.timestamp)


def assert_columns_equal(batch: TweetBatch, tweets: list[Tweet]) -> None:
    expected = {
        "user_ids": np.array([t.user_id for t in tweets], dtype=np.int64),
        "timestamps": np.array([t.timestamp for t in tweets], dtype=np.float64),
        "lats": np.array([t.lat for t in tweets], dtype=np.float64),
        "lons": np.array([t.lon for t in tweets], dtype=np.float64),
    }
    for name, want in expected.items():
        got = getattr(batch, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name  # bitwise, -0.0 included


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    return create_app(
        ArtifactStore(tmp_path_factory.mktemp("batch")), preload=False, with_summary=False
    )


def assert_agrees(app, records: list) -> None:
    """The batch parser and the ingest door agree with :func:`reference`."""
    want = reference(records)
    if isinstance(want, tuple):
        position, message = want
        with pytest.raises(BatchSchemaError) as caught:
            TweetBatch.from_records(records)
        assert (caught.value.position, str(caught.value)) == (position, message)
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, {"tweets": records})
        assert status == 400
        assert payload["error"]["message"] == f"tweets[{position}]: {message}"
    else:
        assert_columns_equal(TweetBatch.from_records(records), want)


@settings(max_examples=400, deadline=None)
@given(records=batches())
def test_batch_parser_equals_record_parser(app, records):
    assert_agrees(app, records)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(plain_records(), max_size=30))
def test_plain_batches_equal_record_parser(records):
    """Valid plain batches (the column path) on their own."""
    assert_columns_equal(TweetBatch.from_records(records), reference(records))


#: Stands for "field absent" in :func:`test_one_odd_value_in_a_plain_batch`.
MISSING = "<missing>"


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param(field, value, id=f"{field}-{k}")
        for field in ODD
        for k, value in enumerate([MISSING, *ODD[field]])
    ],
)
def test_one_odd_value_in_a_plain_batch(app, field, value):
    """Each odd value, or the field missing, between two plain records."""
    plain = {"user_id": 3, "timestamp": 5.0, "lat": -33.87, "lon": 151.21}
    odd = {**plain, "timestamp": 1, field: value}
    if value is MISSING:
        del odd[field]
    assert_agrees(app, [plain, odd, {**plain, "user_id": 4}])


class TestExamples:
    def test_equal_timestamps_keep_input_order(self):
        records = [
            {"user_id": u, "timestamp": t, "lat": 0.0, "lon": 0.0}
            for u, t in [(0, 30.0), (1, 10.0), (2, 20.0), (3, 10), (4, -0.0), (5, 0.0)]
        ]
        batch = TweetBatch.from_records(records)
        assert batch.user_ids.tolist() == [4, 5, 1, 3, 2, 0]
        assert batch.timestamps.dtype == np.float64

    @pytest.mark.parametrize(
        "lon, wrapped", [(180.0, -180.0), (-180.0, -180.0), (540.0, -180.0), (-540.0, -180.0)]
    )
    def test_longitudes_wrap_like_normalize_longitude(self, lon, wrapped):
        record = {"user_id": 1, "timestamp": 0.0, "lat": 0.0, "lon": lon}
        assert TweetBatch.from_records([record]).lons.tolist() == [wrapped]
        assert parse_tweet_record(record).lon == wrapped

    def test_negative_zero_longitude_wraps_to_positive_zero(self):
        record = {"user_id": 1, "timestamp": 0.0, "lat": 0.0, "lon": -0.0}
        (lon,) = TweetBatch.from_records([record]).lons.tolist()
        assert math.copysign(1.0, lon) == math.copysign(1.0, parse_tweet_record(record).lon)

    def test_lowest_bad_position_wins(self):
        good = {"user_id": 1, "timestamp": 0.0, "lat": 0.0, "lon": 0.0}
        records = [good, {**good, "lat": 91.0}, {**good, "user_id": True}]
        with pytest.raises(BatchSchemaError, match=r"latitude must be in \[-90, 90\]") as caught:
            TweetBatch.from_records(records)
        assert caught.value.position == 1

    def test_digit_strings_convert_as_the_record_parser_does(self):
        records = [{"user_id": "7", "timestamp": "12.5", "lat": "-33.9", "lon": "190"}]
        batch = TweetBatch.from_records(records)
        assert_columns_equal(batch, reference(records))
        assert batch.lons.tolist() == [-170.0]

    def test_empty_batch(self):
        batch = TweetBatch.from_records([])
        assert len(batch) == 0
        assert batch.user_ids.dtype == np.int64

    def test_from_tweets_sorts_stably(self):
        tweets = [
            Tweet(user_id=u, timestamp=t, lat=0.0, lon=0.0)
            for u, t in [(0, 5.0), (1, 1.0), (2, 5.0), (3, 1.0)]
        ]
        batch = TweetBatch.from_tweets(tweets)
        assert batch.user_ids.tolist() == [1, 3, 0, 2]
        assert_columns_equal(batch, sorted(tweets, key=lambda t: t.timestamp))
