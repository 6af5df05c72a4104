"""Tests for repro.data.io."""

import pytest

from repro.data.io import (
    DataFormatError,
    read_tweets_csv,
    read_tweets_jsonl,
    write_tweets_csv,
    write_tweets_jsonl,
)
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


class TestJsonlRoundTrip:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        assert write_tweets_jsonl(SAMPLE, path) == 3
        assert list(read_tweets_jsonl(path)) == SAMPLE

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        write_tweets_jsonl(SAMPLE[:1], path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(list(read_tweets_jsonl(path))) == 1

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user_id": 1, "timestamp": 0.0, "lat": 0.0}\n')
        with pytest.raises(DataFormatError):
            list(read_tweets_jsonl(path))

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(DataFormatError, match=":1"):
            list(read_tweets_jsonl(path))

    def test_user_id_beyond_int64_raises_the_parser_message(self, tmp_path):
        path = tmp_path / "big.jsonl"
        path.write_text(
            f'{{"user_id": {2**64}, "timestamp": 0.0, "lat": 0.0, "lon": 0.0}}\n'
        )
        with pytest.raises(DataFormatError, match=":1.*user_id must fit int64"):
            list(read_tweets_jsonl(path))

    def test_default_tweet_id(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_text('{"user_id": 1, "timestamp": 0.0, "lat": 0.0, "lon": 0.0}\n')
        tweet = next(iter(read_tweets_jsonl(path)))
        assert tweet.tweet_id == -1


class TestNpzRoundTrip:
    def test_roundtrip_exact(self, tmp_path, small_corpus):
        from repro.data.io import load_corpus_npz, save_corpus_npz

        path = tmp_path / "corpus.npz"
        save_corpus_npz(small_corpus, path)
        back = load_corpus_npz(path)
        import numpy as np

        assert np.array_equal(back.user_ids, small_corpus.user_ids)
        assert np.array_equal(back.timestamps, small_corpus.timestamps)
        assert np.array_equal(back.lats, small_corpus.lats)
        assert np.array_equal(back.lons, small_corpus.lons)
        assert back.n_users == small_corpus.n_users

    def test_missing_column_raises(self, tmp_path):
        import numpy as np

        from repro.data.io import load_corpus_npz

        path = tmp_path / "bad.npz"
        np.savez(path, user_ids=np.zeros(1))
        with pytest.raises(DataFormatError):
            load_corpus_npz(path)

    def test_empty_corpus_roundtrip(self, tmp_path):
        from repro.data.corpus import TweetCorpus
        from repro.data.io import load_corpus_npz, save_corpus_npz

        path = tmp_path / "empty.npz"
        save_corpus_npz(TweetCorpus.from_tweets([]), path)
        assert len(load_corpus_npz(path)) == 0
