"""Terminal rendering of the paper's figures.

No plotting library is assumed: figures render as ASCII/Unicode text,
which is exactly what the benchmark harness prints and what
EXPERIMENTS.md embeds.

``ascii``
    The character canvas and axis machinery shared by all plots.
``scatter``
    Log-log scatter plots with a ``y = x`` reference line and binned
    means (Fig 3 and Fig 4).
``histogram``
    Log-log empirical PDFs (Fig 2).
``density``
    Lat/lon density heat maps (Fig 1).
"""

from repro.viz.ascii import Canvas, LogAxis
from repro.viz.density import render_density_map
from repro.viz.histogram import render_loglog_pdf
from repro.viz.image import save_density_ppm
from repro.viz.scatter import render_loglog_scatter

__all__ = [
    "Canvas",
    "LogAxis",
    "render_density_map",
    "render_loglog_pdf",
    "render_loglog_scatter",
    "save_density_ppm",
]
