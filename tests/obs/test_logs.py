"""Structured logger tests: JSON shape, binding, levels, streams."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro import obs


def records(stream: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestEmission:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        log = obs.StructuredLogger("t", stream=stream)
        log.info("first", a=1)
        log.info("second", b="x")
        first, second = records(stream)
        assert first["event"] == "first" and first["a"] == 1
        assert second["event"] == "second" and second["b"] == "x"
        assert first["logger"] == "t" and first["level"] == "info"
        assert isinstance(first["ts"], float)

    def test_level_filter(self):
        stream = io.StringIO()
        log = obs.StructuredLogger("t", stream=stream, level="warning")
        log.debug("d")
        log.info("i")
        log.error("e")
        assert [r["event"] for r in records(stream)] == ["e"]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            obs.StructuredLogger("t", level="loud")

    def test_non_serialisable_fields_fall_back_to_str(self):
        stream = io.StringIO()
        log = obs.StructuredLogger("t", stream=stream)
        log.info("e", obj=object())
        (record,) = records(stream)
        assert "object" in record["obj"]


class TestBinding:
    def test_bind_stacks_and_unwinds(self):
        stream = io.StringIO()
        log = obs.StructuredLogger("t", stream=stream)
        with log.bind(run_id="r1"):
            with log.bind(task_id="corpus"):
                log.info("inner")
            log.info("outer")
        log.info("bare")
        inner, outer, bare = records(stream)
        assert inner["run_id"] == "r1" and inner["task_id"] == "corpus"
        assert outer["run_id"] == "r1" and "task_id" not in outer
        assert "run_id" not in bare

    def test_explicit_fields_beat_bound_fields(self):
        stream = io.StringIO()
        log = obs.StructuredLogger("t", stream=stream)
        with log.bind(run_id="bound"):
            log.info("e", run_id="explicit")
        (record,) = records(stream)
        assert record["run_id"] == "explicit"

    def test_bound_fields_are_thread_local(self):
        stream = io.StringIO()
        log = obs.StructuredLogger("t", stream=stream)
        leaked = {}

        def other():
            leaked.update(log.bound_fields())

        with log.bind(run_id="r1"):
            worker = threading.Thread(target=other)
            worker.start()
            worker.join()
        assert leaked == {}


def test_get_logger_caches_by_name():
    assert obs.get_logger("repro.test-cache") is obs.get_logger("repro.test-cache")
    assert obs.get_logger("a") is not obs.get_logger("b")
