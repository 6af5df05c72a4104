"""Tests for repro.data.io."""

import pytest

from repro.data.io import DataFormatError, read_tweets_csv, write_tweets_csv
from repro.data.schema import Tweet

SAMPLE = [
    Tweet(tweet_id=0, user_id=5, timestamp=1_390_000_000.25, lat=-33.8688, lon=151.2093),
    Tweet(tweet_id=1, user_id=5, timestamp=1_390_003_600.0, lat=-37.8136, lon=144.9631),
    Tweet(tweet_id=2, user_id=9, timestamp=1_390_000_123.5, lat=-31.9505, lon=115.8605),
]


class TestCsvRoundTrip:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "tweets.csv"
        assert write_tweets_csv(SAMPLE, path) == 3
        back = list(read_tweets_csv(path))
        assert back == SAMPLE

    def test_roundtrip_preserves_float_precision(self, tmp_path):
        path = tmp_path / "tweets.csv"
        tweet = Tweet(tweet_id=7, user_id=1, timestamp=1.23456789012345e9, lat=-33.123456789, lon=150.987654321)
        write_tweets_csv([tweet], path)
        back = next(iter(read_tweets_csv(path)))
        assert back.timestamp == tweet.timestamp
        assert back.lat == tweet.lat
        assert back.lon == tweet.lon

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "tweets.csv"
        assert write_tweets_csv([], path) == 0
        assert list(read_tweets_csv(path)) == []

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataFormatError):
            list(read_tweets_csv(path))

    def test_short_row_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tweet_id,user_id,timestamp,lat,lon\n1,2,3\n")
        with pytest.raises(DataFormatError):
            list(read_tweets_csv(path))

    def test_unparseable_field_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tweet_id,user_id,timestamp,lat,lon\n1,2,xyz,0,0\n")
        with pytest.raises(DataFormatError, match=":2"):
            list(read_tweets_csv(path))

    def test_out_of_range_latitude_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tweet_id,user_id,timestamp,lat,lon\n1,2,0.0,95.0,0\n")
        with pytest.raises(DataFormatError):
            list(read_tweets_csv(path))


    def test_user_id_beyond_int64_raises_the_parser_message(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"tweet_id,user_id,timestamp,lat,lon\n1,{2**64},0.0,0,0\n")
        with pytest.raises(DataFormatError, match=":2.*user_id must fit int64"):
            list(read_tweets_csv(path))

