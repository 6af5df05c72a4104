"""Privacy utilities: pseudonymisation and spatial coarsening.

The paper's case for Twitter rests partly on call records being
"privacy-sensitive".  Geo-tagged tweets are public, but a corpus that
pins a pseudonymous user to their home at 10 m resolution is still a
re-identification risk, so a responsible release pipeline applies:

* :func:`pseudonymize_users` — replace user ids with keyed hashes
  (stable within a corpus, unlinkable across releases with different
  keys);
* :func:`coarsen_coordinates` — deterministic rounding of geo-tags to a
  target spatial resolution.

The complementary release-side audit —
:func:`repro.extraction.privacy.k_anonymity_report` — lives in the
extraction layer, because it consumes the ε-radius unique-user
extraction and data-layer code never imports upward.

Rounding degrades the analyses gracefully — the test suite
checks the Fig 3 correlation survives coarsening to the ~1 km scale,
which is itself a statement about how robust the paper's pipeline is.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.data.corpus import TweetCorpus
from repro.geo.distance import EARTH_RADIUS_KM


def pseudonymize_users(corpus: TweetCorpus, key: str) -> TweetCorpus:
    """Replace user ids with stable keyed 63-bit hashes.

    The same (key, user) pair always maps to the same pseudonym, so
    per-user structure is preserved; different keys produce unlinkable
    id spaces.  Collisions are astronomically unlikely below ~1e9 users
    but are checked anyway.
    """
    if not key:
        raise ValueError("key must be non-empty")
    unique = corpus.unique_users
    mapping = {}
    seen: set[int] = set()
    for user_id in unique:
        digest = hashlib.sha256(f"{key}:{int(user_id)}".encode()).digest()
        pseudonym = int.from_bytes(digest[:8], "big") >> 1  # 63-bit, non-negative
        if pseudonym in seen:
            raise RuntimeError("pseudonym collision; choose a different key")
        seen.add(pseudonym)
        mapping[int(user_id)] = pseudonym
    new_ids = np.array([mapping[int(u)] for u in corpus.user_ids], dtype=np.int64)
    return TweetCorpus(
        tweet_ids=corpus.tweet_ids.copy(),
        user_ids=new_ids,
        timestamps=corpus.timestamps.copy(),
        lats=corpus.lats.copy(),
        lons=corpus.lons.copy(),
    )


def coarsen_coordinates(corpus: TweetCorpus, resolution_km: float) -> TweetCorpus:
    """Round geo-tags onto a grid of roughly ``resolution_km`` cells.

    Deterministic and idempotent; the coarsened corpus keeps ordering
    and user structure.
    """
    if resolution_km <= 0:
        raise ValueError("resolution must be positive")
    km_per_deg = np.pi * EARTH_RADIUS_KM / 180.0
    lat_step = resolution_km / km_per_deg
    new_lats = np.round(corpus.lats / lat_step) * lat_step
    np.clip(new_lats, -90.0, 90.0, out=new_lats)
    # The longitude step derives from the *rounded* latitude so the
    # operation is idempotent (re-coarsening reuses the same step).
    cos_lat = np.maximum(np.cos(np.radians(new_lats)), 1e-9)
    lon_steps = resolution_km / (km_per_deg * cos_lat)
    new_lons = np.round(corpus.lons / lon_steps) * lon_steps
    return TweetCorpus(
        tweet_ids=corpus.tweet_ids.copy(),
        user_ids=corpus.user_ids.copy(),
        timestamps=corpus.timestamps.copy(),
        lats=new_lats,
        lons=new_lons,
        presorted=True,
    )

