"""Tests for repro.data.schema."""

import pytest

from repro.data.schema import (
    CorpusStats,
    SchemaError,
    Tweet,
    parse_tweet_record,
)


class TestTweet:
    def test_valid_tweet(self):
        t = Tweet(user_id=1, timestamp=1_400_000_000.0, lat=-33.87, lon=151.21)
        assert t.user_id == 1
        assert t.tweet_id == -1

    def test_negative_user_id_raises(self):
        with pytest.raises(SchemaError):
            Tweet(user_id=-1, timestamp=0.0, lat=0.0, lon=0.0)

    def test_user_id_must_fit_int64(self):
        Tweet(user_id=2**63 - 1, timestamp=0.0, lat=0.0, lon=0.0)
        with pytest.raises(SchemaError, match="user_id must fit int64"):
            Tweet(user_id=2**63, timestamp=0.0, lat=0.0, lon=0.0)

    def test_non_finite_timestamp_raises(self):
        with pytest.raises(SchemaError):
            Tweet(user_id=0, timestamp=float("nan"), lat=0.0, lon=0.0)

    def test_bad_latitude_raises(self):
        with pytest.raises(ValueError):
            Tweet(user_id=0, timestamp=0.0, lat=99.0, lon=0.0)

    def test_longitude_normalised(self):
        t = Tweet(user_id=0, timestamp=0.0, lat=0.0, lon=190.0)
        assert t.lon == pytest.approx(-170.0)

    def test_frozen(self):
        t = Tweet(user_id=0, timestamp=0.0, lat=0.0, lon=0.0)
        with pytest.raises(AttributeError):
            t.user_id = 5


class TestParseTweetRecord:
    """The canonical ingress parser shared by file I/O and HTTP ingest."""

    RECORD = {"user_id": 7, "timestamp": 100.5, "lat": -33.9, "lon": 151.2}

    def test_parses_valid_record(self):
        tweet = parse_tweet_record({**self.RECORD, "tweet_id": 42})
        assert tweet == Tweet(
            user_id=7, timestamp=100.5, lat=-33.9, lon=151.2, tweet_id=42
        )

    def test_tweet_id_defaults_to_unassigned(self):
        assert parse_tweet_record(self.RECORD).tweet_id == -1

    def test_converts_string_fields(self):
        record = {"user_id": "7", "timestamp": "100.5", "lat": "-33.9", "lon": "151.2"}
        tweet = parse_tweet_record(record)
        assert tweet.user_id == 7
        assert tweet.lat == pytest.approx(-33.9)

    def test_non_mapping_raises(self):
        with pytest.raises(SchemaError, match="must be an object, got list"):
            parse_tweet_record([1, 2, 3])

    @pytest.mark.parametrize("field", ["user_id", "timestamp", "lat", "lon"])
    def test_missing_field_named_in_error(self, field):
        record = dict(self.RECORD)
        del record[field]
        with pytest.raises(SchemaError, match=f"missing field '{field}'"):
            parse_tweet_record(record)

    @pytest.mark.parametrize(
        "field,value",
        [("lat", "not-a-number"), ("lon", None), ("timestamp", "later"), ("user_id", "x")],
    )
    def test_unconvertible_field_named_in_error(self, field, value):
        record = {**self.RECORD, field: value}
        with pytest.raises(SchemaError, match=f"field '{field}' is invalid"):
            parse_tweet_record(record)

    def test_out_of_range_latitude_wrapped_as_schema_error(self):
        with pytest.raises(SchemaError, match=r"latitude must be in \[-90, 90\]"):
            parse_tweet_record({**self.RECORD, "lat": 95.0})

    @pytest.mark.parametrize("user_id", [2**63, 2**64, str(2**64)])
    def test_user_id_beyond_int64_named_in_error(self, user_id):
        with pytest.raises(SchemaError, match="user_id must fit int64"):
            parse_tweet_record({**self.RECORD, "user_id": user_id})

    def test_largest_int64_user_id_reaches_a_corpus(self):
        from repro.data.corpus import TweetCorpus

        tweet = parse_tweet_record({**self.RECORD, "user_id": 2**63 - 1})
        corpus = TweetCorpus.from_tweets([tweet])
        assert int(corpus.user_ids[0]) == 2**63 - 1

    def test_matches_ingest_service_parser(self):
        """HTTP ingest and file loaders share one parser (same errors)."""
        from repro.serve.ingest import IngestService

        assert IngestService.parse_tweet(self.RECORD) == parse_tweet_record(
            self.RECORD
        )
        with pytest.raises(SchemaError, match="missing field 'lat'"):
            IngestService.parse_tweet({"user_id": 1, "timestamp": 0.0, "lon": 0.0})


class TestIdAndNumberCoercion:
    """Bools and fractional ids are rejected, never silently coerced:
    ``int(3.7)`` would file the tweet under user 3, ``int(True)`` under
    user 1, and both would invent OD transitions for that user."""

    RECORD = TestParseTweetRecord.RECORD

    @pytest.mark.parametrize("field", ["user_id", "timestamp", "lat", "lon", "tweet_id"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_rejected_naming_the_field(self, field, value):
        with pytest.raises(SchemaError, match=f"field '{field}' is invalid"):
            parse_tweet_record({**self.RECORD, field: value})

    @pytest.mark.parametrize("field", ["user_id", "tweet_id"])
    @pytest.mark.parametrize("value", [3.7, -0.5, float("nan"), float("inf")])
    def test_fractional_or_non_finite_id_rejected_naming_the_field(self, field, value):
        with pytest.raises(SchemaError, match=f"field '{field}' is invalid"):
            parse_tweet_record({**self.RECORD, field: value})

    @pytest.mark.parametrize("value", [7, 7.0, "7", " 7 "])
    def test_integral_float_and_digit_string_ids_accepted(self, value):
        tweet = parse_tweet_record({**self.RECORD, "user_id": value, "tweet_id": value})
        assert (tweet.user_id, tweet.tweet_id) == (7, 7)
        assert type(tweet.user_id) is int

    def test_integral_float_id_beyond_int64_named_in_error(self):
        with pytest.raises(SchemaError, match="user_id must fit int64"):
            parse_tweet_record({**self.RECORD, "user_id": 1e19})

    @pytest.mark.parametrize("field", ["timestamp", "lat", "lon"])
    def test_int_too_large_for_a_float_is_a_schema_error(self, field):
        with pytest.raises(SchemaError, match=f"field '{field}' is invalid"):
            parse_tweet_record({**self.RECORD, field: 10**400})


class TestCorpusStats:
    def test_defaults_are_nan(self):
        stats = CorpusStats(
            n_tweets=0,
            n_users=0,
            avg_tweets_per_user=0.0,
            avg_waiting_time_hours=0.0,
            avg_locations_per_user=0.0,
        )
        assert stats.min_lat != stats.min_lat  # NaN
