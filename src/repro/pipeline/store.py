"""Content-addressed on-disk artifact store.

Layout under the store root (``~/.cache/repro`` by default, overridable
via the ``REPRO_CACHE_DIR`` environment variable or an explicit path)::

    objects/<digest>.pkl   pickled artifact, named by content digest
    keys/<cache-key>.json  cache-key -> {digest, task, meta} record
    runs/<run-id>/         one directory per executor run (manifest.json)
    journals/<name>.log    append-only framed journals (see ``journal``)

Objects are immutable: a digest fully determines the bytes, so ``put``
is a no-op when the object already exists and concurrent writers (the
process-parallel executor) can race safely — both write the same bytes
via a temp file + atomic rename.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

from repro.pipeline.hashing import hash_bytes
from repro.pipeline.journal import Journal

#: Pickle protocol pinned so digests are stable across interpreter runs.
PICKLE_PROTOCOL = 4


def default_cache_dir() -> Path:
    """The store root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # repro: allow[hygiene] best-effort cleanup; original error re-raises
            pass
        raise


class ArtifactStore:
    """Pickle-backed content-addressed store with a cache-key index."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.objects_dir = self.root / "objects"
        self.keys_dir = self.root / "keys"
        self.runs_dir = self.root / "runs"
        self.journals_dir = self.root / "journals"

    # -- objects -------------------------------------------------------

    def _object_path(self, digest: str) -> Path:
        return self.objects_dir / f"{digest}.pkl"

    def put(self, obj: Any) -> str:
        """Persist an artifact; returns its content digest."""
        data = pickle.dumps(obj, protocol=PICKLE_PROTOCOL)
        digest = hash_bytes(data)
        path = self._object_path(digest)
        if not path.exists():
            _atomic_write(path, data)
        return digest

    def get(self, digest: str) -> Any:
        """Load an artifact by digest."""
        with open(self._object_path(digest), "rb") as handle:
            return pickle.load(handle)

    def has_object(self, digest: str) -> bool:
        """Whether an artifact with this digest is on disk."""
        return self._object_path(digest).exists()

    # -- cache keys ----------------------------------------------------

    def _key_path(self, key: str) -> Path:
        return self.keys_dir / f"{key}.json"

    def record_key(self, key: str, digest: str, meta: dict | None = None) -> None:
        """Bind a task cache key to an artifact digest."""
        record = {"digest": digest, **(meta or {})}
        _atomic_write(
            self._key_path(key), json.dumps(record, indent=2).encode("utf-8")
        )

    def lookup(self, key: str) -> str | None:
        """The digest bound to ``key``, if both key and object exist."""
        meta = self.key_meta(key)
        if meta is None:
            return None
        digest = meta.get("digest")
        if not digest or not self.has_object(digest):
            return None
        return digest

    def key_meta(self, key: str) -> dict | None:
        """The full key record (digest plus metadata), if present."""
        path = self._key_path(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    # -- journals ------------------------------------------------------

    def journal(self, name: str) -> Journal:
        """The append-only journal ``journals/<name>.log`` of this store."""
        return Journal(self.journals_dir / f"{name}.log")

    # -- runs ----------------------------------------------------------

    def run_ids(self) -> list[str]:
        """Every recorded run id, oldest first.

        Run ids start with a ``%Y%m%d-%H%M%S`` stamp, so lexicographic
        order is chronological order.
        """
        if not self.runs_dir.exists():
            return []
        return sorted(
            p.name for p in self.runs_dir.iterdir()
            if (p / "manifest.json").is_file()
        )

    def load_run(self, run_id: str):
        """The :class:`RunManifest` of one recorded run, or ``None``."""
        from repro.pipeline.manifest import RunManifest

        path = self.runs_dir / run_id / "manifest.json"
        try:
            return RunManifest.load(path)
        except (OSError, ValueError, KeyError):
            return None

    def latest_successful_run(self, required: tuple[str, ...] = ("corpus",)):
        """The newest run whose ``required`` artifacts are all servable.

        A run qualifies when it recorded no failed task and no run-level
        error, bound a digest to every name in ``required``, and each of
        those objects is still present on disk (a ``clean`` may have
        removed them).  Returns the :class:`RunManifest`, or ``None``
        when no run qualifies — the serving registry's snapshot source.
        """
        for run_id in reversed(self.run_ids()):
            manifest = self.load_run(run_id)
            if manifest is None or not manifest.ok:
                continue
            digests = [manifest.digest_of(name) for name in required]
            if all(d is not None and self.has_object(d) for d in digests):
                return manifest
        return None

    # -- maintenance ---------------------------------------------------

    def clear(self) -> int:
        """Delete every object, key, run record and journal; returns files removed."""
        removed = 0
        for directory in (
            self.objects_dir, self.keys_dir, self.runs_dir, self.journals_dir
        ):
            if not directory.exists():
                continue
            for path in sorted(directory.rglob("*"), reverse=True):
                if path.is_file():
                    path.unlink()
                    removed += 1
                else:
                    path.rmdir()
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"
