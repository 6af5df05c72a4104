"""Streaming estimation: the paper's responsiveness claim, implemented.

The paper's case for Twitter over census data and call records is
*responsiveness*: tweets arrive continuously, so population and
mobility estimates can track an unfolding outbreak in near real time.
This subpackage provides the online counterpart of every batch pipeline:

``window``
    A sliding time-window buffer over a tweet stream with O(1) amortised
    ingest/expiry.
``online``
    Incremental per-area population counts (tweets + unique users) and
    incremental OD flow counting via per-user last-position tracking.
    Windowed results match the batch pipelines exactly (tested).
``monitor``
    One sparse anomaly-check kernel that refits the gravity model on
    each window and flags flow anomalies — the skeleton of the paper's
    proposed "responsive prediction method ... for disease spread" —
    driven per tweet (``MobilityMonitor``) or per finalized minute
    (``MinuteMonitor``, the server's).
"""

from repro.stream.monitor import FlowAnomaly, MinuteMonitor, MobilityMonitor
from repro.stream.online import OnlineMobilityCounter, OnlinePopulationCounter
from repro.stream.replay import corpus_stream, merge_streams, stream_in_windows
from repro.stream.window import SlidingWindow

__all__ = [
    "FlowAnomaly",
    "MinuteMonitor",
    "MobilityMonitor",
    "OnlineMobilityCounter",
    "OnlinePopulationCounter",
    "SlidingWindow",
    "corpus_stream",
    "merge_streams",
    "stream_in_windows",
]
