r"""Import-layering rule: enforce the package dependency DAG.

The architecture is a strict DAG of subpackages — kernels at the
bottom, orchestration above them, service/tooling on top::

    geo   stats   obs                 (L0: pure kernels + log substrate)
        \   |   /
          data                       (L1: records, gazetteer, I/O)
        /   |
    synth core                       (L2: generation + domain kernels
        \   |  \                          — World, labelling, accumulators)
         \  |   \
          extraction models          (L3: batch estimation adapters)
            \   |   /
    epidemic stream viz              (L4: domain extensions)
          |
      experiments                    (L5: paper artefacts)
          |
       pipeline                      (L6: cached DAG orchestration)
        /   |
  scenario  |                        (L6.2: declarative counterfactuals)
          |
       summary                       (L6.5: time-tiered summary store)
          |
        serve                        (L7: online service)
          |
       cluster                       (L7.5: pre-fork multi-worker serving)
          |
     cli / check / <root>            (L8: entry points and tooling)

An import is legal when the target package appears in the source
package's allowed set below (its transitive closure is spelled out
explicitly so the map doubles as documentation).  ``if TYPE_CHECKING:``
imports are exempt — they never execute, so they create no runtime
coupling (used by ``models.radiation_grid`` for the synth ``World``
annotation).
"""

from __future__ import annotations

from repro.check.rules import Rule, register
from repro.check.walker import SourceFile, repro_imports

#: Allowed ``repro.*`` dependencies per top-level subpackage.  ``<root>``
#: covers repro/__init__.py, cli.py and __main__.py, which may import
#: anything.  A package absent from this map is flagged until it is
#: deliberately placed in the DAG.
LAYER_DAG: dict[str, frozenset[str]] = {
    "geo": frozenset(),
    "stats": frozenset(),
    "obs": frozenset(),
    "check": frozenset(),  # the analyzer itself stays dependency-free
    "data": frozenset({"geo", "stats"}),
    "synth": frozenset({"geo", "stats", "data"}),
    "core": frozenset({"geo", "stats", "obs", "data"}),
    "extraction": frozenset({"geo", "stats", "obs", "data", "core"}),
    "models": frozenset({"geo", "stats", "obs", "data", "core", "extraction"}),
    "epidemic": frozenset(
        {"geo", "stats", "obs", "data", "core", "extraction", "models"}
    ),
    "stream": frozenset(
        {"geo", "stats", "obs", "data", "core", "extraction", "models"}
    ),
    "viz": frozenset({"geo", "stats", "obs", "data", "core", "extraction"}),
    "experiments": frozenset(
        {
            "geo", "stats", "obs", "data", "core", "synth", "extraction",
            "models", "epidemic", "stream", "viz",
        }
    ),
    "pipeline": frozenset(
        {
            "geo", "stats", "obs", "data", "core", "synth", "extraction",
            "models", "epidemic", "stream", "viz", "experiments",
        }
    ),
    "scenario": frozenset(
        {
            "geo", "stats", "obs", "data", "core", "synth", "extraction",
            "models", "epidemic", "stream", "viz", "experiments", "pipeline",
        }
    ),
    "summary": frozenset(
        {
            "geo", "stats", "obs", "data", "core", "synth", "extraction",
            "models", "epidemic", "stream", "viz", "experiments", "pipeline",
        }
    ),
    "serve": frozenset(
        {
            "geo", "stats", "obs", "data", "core", "synth", "extraction",
            "models", "epidemic", "stream", "viz", "experiments", "pipeline",
            "summary",
        }
    ),
    "cluster": frozenset(
        {
            "geo", "stats", "obs", "data", "core", "synth", "extraction",
            "models", "epidemic", "stream", "viz", "experiments", "pipeline",
            "summary", "serve",
        }
    ),
}


@register
class LayeringRule(Rule):
    """Flags ``repro.*`` imports that point upward in the layer DAG."""

    name = "layering"

    def check(self, source: SourceFile) -> None:
        package = source.package
        if package == "<root>":
            return  # entry points may import anything
        allowed = LAYER_DAG.get(package)
        for node, names in repro_imports(source):
            if allowed is None:
                self.report(
                    source,
                    node,
                    "unknown-package",
                    f"package '{package}' is not in the layering map — "
                    "place it in repro.check.layering.LAYER_DAG",
                )
                continue
            for target in dict.fromkeys(_layer(name) for name in names):
                if target == package:
                    continue
                if target == "<root>":
                    self.report(
                        source,
                        node,
                        "upward-import",
                        f"'{source.module}' imports the repro package root — "
                        "only entry points may; import the defining module",
                    )
                elif target not in allowed:
                    self.report(
                        source,
                        node,
                        "upward-import",
                        f"'{source.module}' ({package}) may not import "
                        f"'repro.{target}': allowed deps are "
                        f"{{{', '.join(sorted(allowed)) or 'none'}}}",
                    )


def _layer(name: str) -> str:
    """The top-level ``repro`` subpackage a dotted name lives in.

    ``repro.x`` names a subpackage only when ``x`` is in the DAG;
    otherwise (``from repro import __version__``) it is the package
    root, ``<root>``.  A deeper name always lives in ``x``.
    """
    parts = name.split(".")
    if len(parts) > 2 or (len(parts) == 2 and parts[1] in LAYER_DAG):
        return parts[1]
    return "<root>"
