"""The benchmark's layer probe still finds every entry point it wraps.

``perfbench.layers.LayerProbe`` wraps each layer where its caller looks
it up (a module global such as ``repro.stream.online.label_points``, or
a class attribute such as ``MobilityMonitor.push_batch``).  Renaming or
deleting one of those names breaks a traced benchmark run
(``perfbench/run.py --trace 1``) even though an untraced run still
passes, so this suite pins the names at tier 1.
"""

from __future__ import annotations

import numpy as np
from perfbench.layers import LAYERS, LayerProbe

from repro.core.world import World
from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Scale
from repro.data.schema import Tweet
from repro.extraction import population


def _lookup(owner: object, attr: str) -> object:
    """What the probe reads before wrapping: a class's own attribute, or a
    module global."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _resolves(owner: object, attr: str) -> bool:
    if isinstance(owner, type):
        return attr in owner.__dict__
    return callable(getattr(owner, attr, None))


def test_every_layer_target_resolves():
    missing = [
        f"{getattr(layer.owner, '__name__', layer.owner)}.{layer.attr}"
        for layer in LAYERS
        if not _resolves(layer.owner, layer.attr)
    ]
    assert missing == []


def test_probe_wraps_and_restores_every_original():
    originals = [(layer.owner, layer.attr, _lookup(layer.owner, layer.attr)) for layer in LAYERS]
    with LayerProbe():
        for owner, attr, original in originals:
            assert _lookup(owner, attr) is not original, attr
    for owner, attr, original in originals:
        assert _lookup(owner, attr) is original, attr


def test_population_extraction_calls_the_probed_globals(monkeypatch):
    """The batch adapter reaches both corpus kernels through its module
    globals, which is where the probe wraps them."""
    calls: list[str] = []
    for name in ("label_corpus", "count_population"):
        kernel = getattr(population, name)

        def spy(*args, _kernel=kernel, _name=name, **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(population, name, spy)
    corpus = TweetCorpus.from_tweets(
        [Tweet(user_id=1, timestamp=0.0, lat=-33.87, lon=151.21)]
    )
    areas = World.from_scale(Scale.NATIONAL).areas
    population.extract_area_observations(corpus, areas, 50.0)
    labels = population.assign_tweets_to_areas(corpus, areas, 50.0)
    assert calls == ["count_population", "label_corpus"]
    assert np.all(labels >= 0)
