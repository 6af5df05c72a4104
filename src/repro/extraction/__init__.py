"""Measurement pipelines: from a tweet corpus to the paper's quantities.

``population``
    ε-radius extraction of tweet counts and unique-user counts around
    area centres (Section III / Fig 3).
``mobility``
    Consecutive-tweet-pair origin–destination flow extraction
    (Section IV / Fig 4).
``dynamics``
    Tweeting-dynamics distributions: tweets per user and inter-tweet
    waiting times (Section II / Fig 2, Table I).
"""

from repro.extraction.dynamics import (
    tweets_per_user_distribution,
    waiting_time_distribution,
)
from repro.extraction.homes import (
    HomeLocations,
    detect_home_locations,
    home_based_population,
)
from repro.extraction.mobility import ODFlows, extract_od_flows
from repro.extraction.population import (
    AreaObservation,
    assign_tweets_to_areas,
    extract_area_observations,
)
from repro.extraction.privacy import KAnonymityReport, k_anonymity_report

__all__ = [
    "AreaObservation",
    "HomeLocations",
    "KAnonymityReport",
    "ODFlows",
    "assign_tweets_to_areas",
    "detect_home_locations",
    "extract_area_observations",
    "extract_od_flows",
    "home_based_population",
    "k_anonymity_report",
    "tweets_per_user_distribution",
    "waiting_time_distribution",
]
