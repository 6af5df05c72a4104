"""Determinism rule: keep nondeterminism out of cached computations.

The artifact cache (PR 1) addresses task outputs by the hash of their
config and inputs; the golden pins (PR 3) assert bit-identical results.
Both are silently poisoned by a kernel that reads the wall clock, pulls
entropy from module-level ``random`` state, or seeds a generator from
the OS.  This rule bans those constructs everywhere under ``repro``:

* wall-clock value reads — ``time.time()`` / ``time.time_ns()``,
  ``datetime.now()`` / ``utcnow()`` / ``today()``, ``date.today()``,
  and the integer-nanosecond ``time.monotonic_ns()`` /
  ``time.perf_counter_ns()``: their values look like unique ordered IDs
  and end up persisted as pseudo-timestamps, but differ per process.
  (Float ``time.monotonic`` / ``perf_counter`` stay legal: interval
  timing is inherently about the clock and never lands in an artifact.)
* the process-global ``random`` module — any ``random.<fn>()`` call,
  plus unseeded ``random.Random()`` and ``random.SystemRandom``.
* unseeded numpy entropy — ``np.random.default_rng()`` /
  ``SeedSequence()`` / bit generators with no seed argument, and every
  legacy ``np.random.<fn>`` module-level call.
* environment reads (``os.environ`` / ``os.getenv``) inside kernel
  packages whose outputs land in cache-hashed artifacts — a cache key
  cannot see the environment, so the body must not either.

Genuinely-benign sites (latency timestamps in ``serve``/``obs``, CLI
progress timing) carry an inline ``# repro: allow[determinism]`` pragma
with a justification.
"""

from __future__ import annotations

import ast

from repro.check.rules import Rule, dotted_path, register
from repro.check.walker import SourceFile

#: Calls whose return value is the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic_ns",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random constructors that are fine *when given seed material*.
SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.MT19937",
        "numpy.random.SFC64",
        "numpy.random.RandomState",
    }
)

#: Packages whose function bodies feed cache-hashed artifacts: reading
#: the environment there makes outputs depend on state the cache key
#: never sees.
KERNEL_PACKAGES = frozenset(
    {
        "geo", "stats", "data", "core", "synth", "extraction", "models",
        "epidemic", "stream", "experiments",
    }
)


@register
class DeterminismRule(Rule):
    """Flags wall-clock reads, global RNG use and kernel env reads."""

    name = "determinism"

    def check(self, source: SourceFile) -> None:
        kernel = source.package in KERNEL_PACKAGES
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                self._check_call(source, node, kernel)
            elif isinstance(node, ast.Attribute) and kernel:
                path = dotted_path(node, source.imports)
                if path == "os.environ":
                    self.report(
                        source,
                        node,
                        "env-read",
                        "os.environ read in a kernel package: artifact "
                        "content would depend on state the cache key "
                        "cannot see — thread the value in as a parameter",
                    )

    def _check_call(
        self,
        source: SourceFile,
        node: ast.Call,
        kernel: bool,
    ) -> None:
        path = dotted_path(node.func, source.imports)
        if path is None:
            return
        has_args = bool(node.args or node.keywords)
        if path in WALL_CLOCK_CALLS:
            self.report(
                source,
                node,
                "wall-clock",
                f"{path}() reads the wall clock; inject a clock or "
                "timestamp parameter (time.monotonic/perf_counter are "
                "fine for intervals)",
            )
        elif path in SEEDABLE_CONSTRUCTORS:
            if not has_args:
                self.report(
                    source,
                    node,
                    "unseeded-rng",
                    f"{path}() without seed material draws OS entropy; "
                    "pass an explicit seed or accept an rng parameter",
                )
        elif path == "random.Random":
            if not has_args:
                self.report(
                    source,
                    node,
                    "unseeded-rng",
                    "random.Random() without a seed draws OS entropy; "
                    "pass an explicit seed",
                )
        elif path == "random.SystemRandom" or path.startswith("random.SystemRandom."):
            self.report(
                source,
                node,
                "unseeded-rng",
                "random.SystemRandom is nondeterministic by design; use "
                "a seeded random.Random or numpy Generator",
            )
        elif path.startswith("random."):
            self.report(
                source,
                node,
                "global-rng",
                f"{path}() uses the process-global random state; use a "
                "seeded random.Random or numpy Generator instance",
            )
        elif path == "numpy.random.Generator":
            pass  # takes a mandatory (already-seeded) bit generator
        elif path.startswith("numpy.random."):
            self.report(
                source,
                node,
                "global-rng",
                f"{path}() uses numpy's legacy global RNG; use a seeded "
                "np.random.default_rng(seed) Generator",
            )
        elif kernel and path == "os.getenv":
            self.report(
                source,
                node,
                "env-read",
                f"{path}() in a kernel package: artifact content would "
                "depend on state the cache key cannot see — thread the "
                "value in as a parameter",
            )
