"""Stable fingerprints for configs and artifacts.

Cache keys must be reproducible across processes and interpreter
sessions, so everything is reduced to a canonical JSON document before
hashing: dataclasses become tagged field maps, enums their class+value,
numpy arrays a (dtype, shape, content-hash) triple, dict keys are
sorted.  Two objects fingerprint equal iff they are semantically equal
under this reduction — object identity, insertion order and memory
layout never leak into the key.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

#: Hex-digest length kept everywhere; 32 hex chars = 128 bits, far below
#: any realistic collision risk for a per-machine artifact cache.
DIGEST_LEN = 32


def hash_bytes(data: bytes) -> str:
    """SHA-256 hex digest of raw bytes, truncated to :data:`DIGEST_LEN`."""
    return hashlib.sha256(data).hexdigest()[:DIGEST_LEN]


def hash_file(path: str | Path, chunk_size: int = 1 << 20) -> str:
    """Streaming SHA-256 of a file's contents."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(chunk_size):
            digest.update(chunk)
    return digest.hexdigest()[:DIGEST_LEN]


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serialisable canonical form.

    Raises ``TypeError`` for values with no stable representation
    (arbitrary class instances), because silently falling back to
    ``repr`` would bake memory addresses into cache keys.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() is the shortest round-trip representation — exact.
        return {"__float__": repr(obj)}
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": canonicalize(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, "fields": fields}
    if isinstance(obj, dict):
        return {
            "__dict__": sorted(
                (str(key), canonicalize(value)) for key, value in obj.items()
            )
        }
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(canonicalize(i)) for i in obj)}
    if isinstance(obj, np.ndarray):
        contiguous = np.ascontiguousarray(obj)
        return {
            "__ndarray__": hash_bytes(contiguous.tobytes()),
            "dtype": str(contiguous.dtype),
            "shape": list(contiguous.shape),
        }
    if isinstance(obj, np.generic):
        return canonicalize(obj.item())
    if isinstance(obj, Path):
        return {"__path__": str(obj)}
    if isinstance(obj, bytes):
        return {"__bytes__": hash_bytes(obj)}
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for hashing; "
        "use plain data, dataclasses, enums or numpy arrays"
    )


def fingerprint(obj: Any) -> str:
    """Stable hex fingerprint of any canonicalizable value."""
    document = json.dumps(
        canonicalize(obj), sort_keys=True, separators=(",", ":")
    )
    return hash_bytes(document.encode("utf-8"))

