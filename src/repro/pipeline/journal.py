"""Append-only framed journal: one file, one frame per record.

A frame is ``struct "<II"`` (payload length, ``zlib.crc32`` of the
payload) followed by the payload bytes.  Records are appended through
one ``O_APPEND`` descriptor, kept open between appends, under an
exclusive ``flock`` — so processes sharing a journal interleave whole
frames.

Reading stops at the first short or CRC-failing frame: a crash mid
append (or any later damage) loses that frame and everything after it,
never a frame before it.  Before its first append a :class:`Journal`
truncates the file to the end of its last good frame, so new frames
never land behind a torn tail; before every later append it checks the
file's size against where its own last frame ended, and re-validates
whatever other writers appended since (repairing again if one of them
died mid frame).  There is no fsync: a frame is as durable as the page
cache that holds it.
"""

from __future__ import annotations

import fcntl
import os
import struct
import weakref
import zlib
from pathlib import Path

#: Frame header: payload length and its CRC-32, little endian.
FRAME = struct.Struct("<II")


def scan_frames(data: bytes) -> tuple[list[memoryview], int]:
    """The payloads of the whole, CRC-good frames at the start of ``data``.

    Returns them with the offset just past the last good frame: the
    first short or CRC-failing frame ends the scan.
    """
    view = memoryview(data)
    payloads: list[memoryview] = []
    pos = 0
    while pos + FRAME.size <= len(view):
        length, crc = FRAME.unpack_from(view, pos)
        body = view[pos + FRAME.size : pos + FRAME.size + length]
        if len(body) < length or zlib.crc32(body) != crc:
            break
        payloads.append(body)
        pos += FRAME.size + length
    return payloads, pos


class Journal:
    """One journal file: framed appends and a validating read.

    Not thread-safe: callers serialize appends (the summary store holds
    its own lock around them).  The descriptor opens lazily on the
    first append, in the process that appends, and closes with
    :meth:`close` or when the journal is garbage collected.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.torn_bytes_dropped = 0
        self._fd: int | None = None
        self._closer: weakref.finalize | None = None
        # Offset just past the last frame this journal appended or
        # validated; -1 forces a scan from the start of the file.
        self._end = -1

    def read(self) -> list[memoryview]:
        """Every payload before the first damaged frame, in append order."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        return scan_frames(data)[0]

    def size(self) -> int:
        """Bytes in the journal file (0 when it does not exist)."""
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def append(self, payload: bytes) -> None:
        """Append one framed record.

        On an ``OSError`` the descriptor is closed before the error
        propagates, so the next append re-opens, re-scans and repairs
        whatever part of this frame reached the file.
        """
        record = memoryview(
            FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        )
        try:
            fd = self._locked_fd()
            try:
                while record:
                    record = record[os.write(fd, record) :]
                self._end += FRAME.size + len(payload)
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:
            self.close()
            raise

    def close(self) -> None:
        """Close the append descriptor (the next append re-opens it)."""
        if self._closer is not None:
            closer, self._closer, self._fd = self._closer, None, None
            self._end = -1
            closer()

    def _locked_fd(self) -> int:
        """The append descriptor, exclusively locked, its tail repaired."""
        while True:
            if self._fd is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(
                    self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
                )
                self._closer = weakref.finalize(self, os.close, self._fd)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            status = os.fstat(self._fd)
            if status.st_nlink:
                break
            # The file was removed under us (``repro pipeline clean``):
            # start a new one rather than append to an unlinked inode.
            self.close()
        if status.st_size != self._end:
            self._repair(self._fd, status.st_size)
        return self._fd

    def _repair(self, fd: int, size: int) -> None:
        """Validate the frames past ``_end``; cut a torn tail off."""
        start = self._end if 0 <= self._end <= size else 0
        _, good = scan_frames(os.pread(fd, size - start, start))
        if start + good < size:
            os.ftruncate(fd, start + good)
            self.torn_bytes_dropped += size - start - good
        self._end = start + good
