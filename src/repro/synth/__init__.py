"""Synthetic geo-tagged tweet substrate.

The paper's corpus (6.3M tweets, 473,956 users, Australia, Sept 2013 –
Apr 2014) came from the Twitter streaming API, which no longer grants
that access, and the collected corpus was never published.  This
subpackage synthesises a corpus with the same *statistical* shape — the
shape is all any experiment in the paper measures:

* tweets-per-user follows a discrete power law (Fig 2a);
* inter-tweet waiting times follow a heavy-tailed truncated Pareto
  (Fig 2b);
* users live in real Australian places with probability proportional to
  census population, modulated by a log-normal per-place Twitter-adoption
  bias (which produces the scatter around ``y = x`` in Fig 3);
* between tweets users travel between places according to a gravity
  process over the real Australian geography (which produces the OD
  structure behind Fig 4 / Table II);
* tweet positions scatter around place centres from a small set of
  per-user "favourite points" (home, work, haunts), giving the
  locations-per-user < tweets-per-user relation of Table I.

Every knob is in :class:`~repro.synth.config.SynthConfig`; generation is
fully deterministic given a seed.
"""

from repro.synth.config import SynthConfig
from repro.synth.distributions import DiscretePowerLaw, TruncatedPareto
from repro.synth.diurnal import DiurnalPattern
from repro.synth.generator import SyntheticCorpusGenerator, generate_corpus
from repro.synth.population import World, WorldSite, build_world
from repro.synth.scenarios import evacuation_event, gathering_event

__all__ = [
    "DiscretePowerLaw",
    "DiurnalPattern",
    "SynthConfig",
    "SyntheticCorpusGenerator",
    "TruncatedPareto",
    "World",
    "WorldSite",
    "build_world",
    "evacuation_event",
    "gathering_event",
    "generate_corpus",
]
