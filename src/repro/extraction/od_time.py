"""Kept only as a name the perfbench layer probe wraps.

``perfbench/layers.py`` imports this module and patches its
``extract_od_flows`` global.  The monthly-flow and stability measures
that lived here ran from no command, task or benchmark and were
deleted; this module goes with the probe's name table.
"""

from repro.extraction.mobility import extract_od_flows  # noqa: F401  (perfbench layer target)
