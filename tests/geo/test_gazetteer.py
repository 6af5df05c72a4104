"""Tests for repro.geo.gazetteer: the country-scale area synthesiser."""

from __future__ import annotations

import time

import pytest

from repro.geo.bbox import AUSTRALIA_BBOX
from repro.geo.gazetteer import (
    DEFAULT_SEED,
    GazetteerSpec,
    GazetteerSpecError,
    SyntheticGazetteer,
    build_gazetteer,
    cached_gazetteer,
    parse_gazetteer_spec,
)


@pytest.fixture(scope="module")
def small() -> SyntheticGazetteer:
    return build_gazetteer(GazetteerSpec(n_areas=60, seed=7))


class TestSpecParsing:
    def test_legacy_sentinels_parse_to_none(self):
        assert parse_gazetteer_spec(None) is None
        assert parse_gazetteer_spec("") is None
        assert parse_gazetteer_spec("legacy") is None

    def test_count_only(self):
        spec = parse_gazetteer_spec("synth:1000")
        assert spec is not None
        assert spec.n_areas == 1000
        assert spec.seed == DEFAULT_SEED

    def test_count_and_seed(self):
        spec = parse_gazetteer_spec("synth:250@99")
        assert spec.n_areas == 250
        assert spec.seed == 99

    def test_spec_string_round_trips(self):
        for text in ("synth:1000", "synth:250@99", "synth:60@7"):
            spec = parse_gazetteer_spec(text)
            assert parse_gazetteer_spec(spec.spec_string) == spec

    @pytest.mark.parametrize(
        "bad",
        ["synth:", "synth:abc", "synth:10@", "synth:10@x", "grid:10",
         "synth:-5", "synth:1", "synth:1000@1@2", "SYNTH:10"],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(GazetteerSpecError):
            parse_gazetteer_spec(bad)

    def test_too_few_areas_rejected(self):
        with pytest.raises(GazetteerSpecError):
            GazetteerSpec(n_areas=3)

    def test_population_floor_rejected(self):
        with pytest.raises(GazetteerSpecError):
            GazetteerSpec(n_areas=100, total_population=99)


class TestStructure:
    def test_exact_leaf_count(self, small):
        assert len(small.suburbs) == 60
        assert small.n_areas == len(small.states) + len(small.cities) + 60

    def test_hierarchy_links_resolve(self, small):
        state_names = {a.name for a in small.states}
        city_names = {a.name for a in small.cities}
        for city in small.cities:
            assert city.parent in state_names
        for suburb in small.suburbs:
            assert suburb.parent in city_names
        for state in small.states:
            assert state.parent is None

    def test_population_rollups_exact(self, small):
        spec = small.spec
        assert sum(a.population for a in small.suburbs) == spec.total_population
        for parents, children in ((small.cities, small.suburbs), (small.states, small.cities)):
            for parent in parents:
                assert parent.population == sum(
                    a.population for a in children if a.parent == parent.name
                )

    def test_every_leaf_population_positive(self, small):
        assert all(a.population >= 1 for a in small.suburbs)

    def test_names_unique(self, small):
        names = [a.name for level in (small.states, small.cities, small.suburbs) for a in level]
        assert len(names) == len(set(names))

    def test_centers_inside_bbox(self, small):
        box = small.spec.bbox
        for suburb in small.suburbs:
            assert box.contains(suburb.center)

    def test_footprints_present_with_positive_area(self, small):
        for level in (small.states, small.cities, small.suburbs):
            for area in level:
                assert area.footprint is not None
                assert area.footprint.area_km2 > 0

    def test_suburb_center_inside_own_and_ancestor_footprints(self, small):
        cities = {a.name: a for a in small.cities}
        states = {a.name: a for a in small.states}
        for suburb in small.suburbs:
            lat, lon = suburb.center.lat, suburb.center.lon
            assert suburb.footprint.contains(lat, lon)
            city = cities[suburb.parent]
            assert city.footprint.contains(lat, lon)
            assert states[city.parent].footprint.contains(lat, lon)

    def test_parent_centers_anchor_on_capital(self, small):
        """City/state centres sit on the most populous child's centre.

        This is what makes coarse-scale ε-discs land on real activity:
        a state's 50 km disc is centred on its capital suburb, not the
        geographic middle of a huge Voronoi cell.
        """
        for city in small.cities:
            children = [a for a in small.suburbs if a.parent == city.name]
            capital = max(children, key=lambda a: a.population)
            assert city.center.lat == capital.center.lat
            assert city.center.lon == capital.center.lon
        for state in small.states:
            children = [a for a in small.cities if a.parent == state.name]
            capital = max(children, key=lambda a: a.population)
            assert state.center.lat == capital.center.lat
            assert state.center.lon == capital.center.lon


class TestDeterminism:
    def test_same_spec_bitwise_identical(self):
        a = build_gazetteer(GazetteerSpec(n_areas=80, seed=11))
        b = build_gazetteer(GazetteerSpec(n_areas=80, seed=11))
        for left, right in zip(a.suburbs, b.suburbs):
            assert left.name == right.name
            assert left.population == right.population
            assert left.center.lat == right.center.lat
            assert left.center.lon == right.center.lon
            assert left.footprint.vertex_lats.tolist() == right.footprint.vertex_lats.tolist()

    def test_different_seed_different_geometry(self):
        a = build_gazetteer(GazetteerSpec(n_areas=80, seed=11))
        b = build_gazetteer(GazetteerSpec(n_areas=80, seed=12))
        assert any(
            x.center.lat != y.center.lat for x, y in zip(a.suburbs, b.suburbs)
        )

    def test_cached_gazetteer_returns_same_object(self):
        assert cached_gazetteer("synth:60@7") is cached_gazetteer("synth:60@7")

    def test_default_bbox_is_australia(self):
        assert GazetteerSpec().bbox == AUSTRALIA_BBOX


class TestBuildSpeed:
    def test_5k_areas_build_under_five_seconds(self):
        start = time.perf_counter()  # repro: allow[determinism] acceptance-criterion timing
        gaz = build_gazetteer(GazetteerSpec(n_areas=5000, seed=3))
        elapsed = time.perf_counter() - start  # repro: allow[determinism] acceptance-criterion timing
        assert len(gaz.suburbs) == 5000
        assert elapsed < 5.0, f"5k-area build took {elapsed:.2f}s"
