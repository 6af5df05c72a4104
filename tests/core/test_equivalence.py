"""Batch ≡ dense ≡ micro-batched streaming labelling, property-tested.

The tentpole claim of the kernel layer: whichever cadence a consumer
labels tweets at — the index-accelerated batch path, the dense
reference kernel, or the production kernel over stream-sized batches —
the labels are identical, at every paper radius.  Hypothesis drives
random corpora through all three; a final regression pins Fig 3's
overall Pearson r so the refactor provably reproduces the published
number.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.label import label_points, label_points_dense
from repro.core.world import World
from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Scale
from repro.data.schema import Tweet
from repro.extraction.population import assign_tweets_to_areas

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "golden_small.json"

#: The paper's Section III radii: national, state, metropolitan.
RADII_KM = (50.0, 25.0, 2.0)

NATIONAL = World.from_scale(Scale.NATIONAL)


def label_in_batches(world: World, corpus: TweetCorpus, batch_size: int) -> np.ndarray:
    """The production kernel over consecutive ``batch_size``-row batches."""
    return np.concatenate(
        [
            label_points(
                world,
                corpus.lats[start : start + batch_size],
                corpus.lons[start : start + batch_size],
            )
            for start in range(0, len(corpus), batch_size)
        ]
    )


@st.composite
def corpora(draw):
    """A random tweet corpus scattered around the national centres.

    Offsets up to ~1 degree put points inside, outside and near the
    boundary of every radius under test.
    """
    n = draw(st.integers(min_value=1, max_value=60))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=NATIONAL.n_areas - 1),
                st.floats(min_value=-1.0, max_value=1.0),
                st.floats(min_value=-1.0, max_value=1.0),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=n,
            max_size=n,
        )
    )
    tweets = []
    for i, (anchor, dlat, dlon, user) in enumerate(rows):
        center = NATIONAL.areas[anchor].center
        tweets.append(
            Tweet(
                user_id=user,
                timestamp=float(i),
                lat=center.lat + dlat,
                lon=center.lon + dlon,
            )
        )
    return TweetCorpus.from_tweets(tweets)


class TestThreeWayLabelEquivalence:
    @pytest.mark.parametrize("radius_km", RADII_KM)
    @given(corpus=corpora())
    @settings(max_examples=25, deadline=None)
    def test_batch_dense_and_streaming_agree(self, corpus, radius_km):
        world = NATIONAL.with_radius(radius_km)

        batch = assign_tweets_to_areas(corpus, world.areas, radius_km)
        dense = label_points_dense(world, corpus.lats, corpus.lons)
        streamed = label_in_batches(world, corpus, batch_size=7)

        assert np.array_equal(batch, dense)
        assert np.array_equal(batch, streamed)

    @given(corpus=corpora())
    @settings(max_examples=10, deadline=None)
    def test_micro_batch_size_never_changes_labels(self, corpus):
        world = NATIONAL
        reference = None
        for batch_size in (1, 3, 64):
            labels = label_in_batches(world, corpus, batch_size)
            if reference is None:
                reference = labels
            else:
                assert np.array_equal(labels, reference)


class TestFig3Regression:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_overall_pearson_r_is_pinned(self, golden):
        """The refactored kernel path reproduces Fig 3's published r."""
        from repro.experiments import ExperimentContext, run_fig3
        from repro.synth import SynthConfig, generate_corpus

        config = golden["config"]
        corpus = generate_corpus(
            SynthConfig(n_users=config["n_users"], seed=config["seed"])
        ).corpus
        fig3 = run_fig3(ExperimentContext(corpus))
        assert fig3.overall.r == pytest.approx(
            golden["fig3"]["overall_r"], rel=1e-9
        )
