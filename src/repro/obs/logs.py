"""Structured JSON logging with correlation fields.

Every record is one JSON object on one line — machine-parseable, never
interleaved mid-record (a single ``write`` call per record) and written
to **stderr** by default so instrumented code never pollutes stdout,
which belongs to rendered artefacts and JSON results.

Correlation works through :meth:`StructuredLogger.bind`: a context
manager that stacks fields (``run_id``, ``task_id``, ``request_id``)
onto every record emitted by the same thread while it is open::

    log = get_logger("repro.pipeline")
    with log.bind(run_id=manifest.run_id, task_id=task.name):
        log.info("task_started")
        ...
        log.info("task_finished", seconds=elapsed)

Loggers are cheap, cached by name, and safe to share across threads
(bound fields are thread-local; the emit path is a single atomic write).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import IO, Iterator
from contextlib import contextmanager

#: Severity order for the level filter.
_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class StructuredLogger:
    """Emits one-line JSON records with thread-local bound context."""

    def __init__(
        self,
        name: str = "repro",
        stream: IO[str] | None = None,
        level: str = "info",
    ) -> None:
        if level not in _LEVELS:
            raise ValueError(f"unknown level {level!r}; expected one of {sorted(_LEVELS)}")
        self.name = name
        self.level = level
        self._stream = stream
        self._local = threading.local()

    # -- context binding -----------------------------------------------

    @contextmanager
    def bind(self, **fields) -> Iterator[None]:
        """Attach ``fields`` to every record this thread emits inside."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(fields)
        try:
            yield
        finally:
            stack.pop()

    def bound_fields(self) -> dict:
        """The merged bound context of the calling thread."""
        merged: dict = {}
        for fields in getattr(self._local, "stack", []):
            merged.update(fields)
        return merged

    # -- emission ------------------------------------------------------

    def _emit(self, level: str, event: str, fields: dict) -> None:
        if _LEVELS[level] < _LEVELS[self.level]:
            return
        record = {
            "ts": round(time.time(), 6),  # repro: allow[determinism] log record timestamp
            "level": level,
            "logger": self.name,
            "event": event,
        }
        record.update(self.bound_fields())
        record.update(fields)
        stream = self._stream if self._stream is not None else sys.stderr
        try:
            stream.write(json.dumps(record, default=str) + "\n")
            stream.flush()
        except (ValueError, OSError):  # repro: allow[hygiene] closed stream at teardown
            pass  # drop the record: nowhere left to write it

    def debug(self, event: str, **fields) -> None:
        """Emit a debug-level record."""
        self._emit("debug", event, fields)

    def info(self, event: str, **fields) -> None:
        """Emit an info-level record."""
        self._emit("info", event, fields)

    def error(self, event: str, **fields) -> None:
        """Emit an error-level record."""
        self._emit("error", event, fields)


_registry_lock = threading.Lock()  # repro: allow[forksafety] held only around a dict insert, never across a fork
_loggers: dict[str, StructuredLogger] = {}


def get_logger(name: str = "repro") -> StructuredLogger:
    """The shared logger for ``name`` (created on first use)."""
    with _registry_lock:
        logger = _loggers.get(name)
        if logger is None:
            logger = _loggers[name] = StructuredLogger(name)
        return logger
