"""Tests for repro.pipeline.hashing."""

import enum
from dataclasses import dataclass

import numpy as np
import pytest

from repro.pipeline.hashing import canonicalize, fingerprint, hash_file
from repro.synth import SynthConfig


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class Point:
    x: float
    y: float


class TestFingerprint:
    def test_stable_across_calls(self):
        value = {"a": 1, "b": [1.5, "x"], "c": None}
        assert fingerprint(value) == fingerprint(value)

    def test_dict_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_distinguishes_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})
        assert fingerprint(1.0) != fingerprint(1)
        assert fingerprint([1, 2]) != fingerprint((2, 1))

    def test_tuple_and_list_equivalent(self):
        # Canonical form treats sequences uniformly (JSON has no tuple).
        assert fingerprint((1, 2)) == fingerprint([1, 2])

    def test_dataclass_fields_hashed(self):
        assert fingerprint(Point(1.0, 2.0)) == fingerprint(Point(1.0, 2.0))
        assert fingerprint(Point(1.0, 2.0)) != fingerprint(Point(2.0, 1.0))

    def test_enum_hashed_by_class_and_value(self):
        assert fingerprint(Color.RED) == fingerprint(Color.RED)
        assert fingerprint(Color.RED) != fingerprint(Color.BLUE)

    def test_ndarray_hashed_by_content(self):
        a = np.arange(10, dtype=np.float64)
        b = np.arange(10, dtype=np.float64)
        assert fingerprint(a) == fingerprint(b)
        b[3] = -1.0
        assert fingerprint(a) != fingerprint(b)

    def test_ndarray_dtype_matters(self):
        assert fingerprint(np.zeros(4, np.int64)) != fingerprint(np.zeros(4, np.float64))

    def test_synth_config_fingerprints(self):
        base = SynthConfig(n_users=100, seed=1)
        assert fingerprint(base) == fingerprint(SynthConfig(n_users=100, seed=1))
        assert fingerprint(base) != fingerprint(SynthConfig(n_users=100, seed=2))
        assert fingerprint(base) != fingerprint(SynthConfig(n_users=101, seed=1))

    def test_unhashable_object_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            fingerprint(object())

    def test_float_exactness(self):
        assert fingerprint(0.1 + 0.2) != fingerprint(0.3)


class TestCanonicalize:
    def test_nan_and_inf_do_not_crash(self):
        assert canonicalize(float("inf")) == {"__float__": "inf"}
        assert canonicalize(float("nan")) == {"__float__": "nan"}

    def test_numpy_scalar_unwrapped(self):
        assert canonicalize(np.int64(5)) == 5


class TestCombineAndFiles:
    def test_hash_file_tracks_content(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("hello")
        first = hash_file(path)
        assert first == hash_file(path)
        path.write_text("hello!")
        assert hash_file(path) != first

