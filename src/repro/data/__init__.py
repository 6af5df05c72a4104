"""Data layer: tweet records, the Australian gazetteer, I/O and the corpus.

``schema``
    :class:`~repro.data.schema.Tweet` records and validation.
``gazetteer``
    The 60 study areas of the paper — 20 national cities, 20 NSW cities,
    20 Sydney suburbs — with approximate census populations and the
    per-scale search radii of Section III.
``io``
    CSV and JSONL round-trip serialisation of tweet streams.
``filters``
    Bounding-box, time-window and per-user stream filters (Table I's
    collection box filter lives here).
``corpus``
    :class:`~repro.data.corpus.TweetCorpus`, a columnar in-memory store
    with per-user chronological indexing — the input type of every
    extraction pipeline.
"""

from repro.data.anonymize import (
    coarsen_coordinates,
    pseudonymize_users,
)
from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import (
    Area,
    Scale,
    all_areas,
    areas_for_scale,
    national_cities,
    nsw_cities,
    search_radius_km,
    sydney_suburbs,
)
from repro.data.schema import Tweet
from repro.data.validation import corpus_health_report, detect_bots, remove_users

__all__ = [
    "Area",
    "Scale",
    "Tweet",
    "TweetCorpus",
    "all_areas",
    "areas_for_scale",
    "coarsen_coordinates",
    "corpus_health_report",
    "detect_bots",
    "national_cities",
    "nsw_cities",
    "pseudonymize_users",
    "remove_users",
    "search_radius_km",
    "sydney_suburbs",
]
