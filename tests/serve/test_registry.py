"""Registry resolution, snapshot content and hot-reload semantics."""

from __future__ import annotations

import time

import pytest

from repro.check.sanitizer import _RAW_LOCK, LockSanitizer, _SanitizedLock
from repro.data.gazetteer import Scale
from repro.obs import tracer
from repro.pipeline import ArtifactStore, run_suite
from repro.serve import MODEL_KEYS, ModelRegistry, RegistryError
from repro.synth import SynthConfig

from tests.serve.conftest import make_store


class TestLatestRunResolution:
    def test_empty_store_has_no_run(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.latest_successful_run() is None

    def test_resolves_recorded_run(self, warm_store):
        manifest = warm_store.latest_successful_run()
        assert manifest is not None
        assert manifest.failed is None
        assert manifest.digest_of("corpus") is not None
        assert warm_store.has_object(manifest.digest_of("corpus"))

    def test_failed_runs_are_skipped(self, tmp_path):
        store = make_store(tmp_path, users=400)
        good = store.latest_successful_run()
        # Forge a newer run whose manifest records a failure.
        bad_id = "99999999-999999-deadbeef"
        bad_dir = store.runs_dir / bad_id
        bad_dir.mkdir(parents=True)
        (bad_dir / "manifest.json").write_text(
            '{"run_id": "%s", "records": [{"name": "corpus", '
            '"status": "failed", "error": "boom"}]}' % bad_id
        )
        resolved = store.latest_successful_run()
        assert resolved is not None
        assert resolved.run_id == good.run_id

    def test_runs_with_missing_objects_are_skipped(self, tmp_path):
        store = make_store(tmp_path, users=400)
        manifest = store.latest_successful_run()
        store._object_path(manifest.digest_of("corpus")).unlink()
        assert store.latest_successful_run() is None


class TestSnapshot:
    def test_snapshot_covers_all_scales(self, registry):
        snapshot = registry.snapshot
        assert set(snapshot.scales) == set(Scale)
        for scale_snapshot in snapshot.scales.values():
            assert len(scale_snapshot.areas) == 20
            assert len(scale_snapshot.observations) == 20
            assert scale_snapshot.flows.matrix.shape == (20, 20)

    def test_national_models_fitted(self, registry):
        models = registry.snapshot.scales[Scale.NATIONAL].models
        assert set(models) == set(MODEL_KEYS)

    def test_scale_lookup_by_name(self, registry):
        snapshot = registry.snapshot
        assert snapshot.scale("national").scale is Scale.NATIONAL
        assert snapshot.scale("NATIONAL").scale is Scale.NATIONAL
        assert snapshot.scale("mars") is None

    def test_empty_store_raises(self, tmp_path):
        registry = ModelRegistry(ArtifactStore(tmp_path))
        with pytest.raises(RegistryError):
            registry.load()


class TestHotReload:
    def test_reload_on_new_run(self, tmp_path):
        store = make_store(tmp_path, users=400, seed=1)
        registry = ModelRegistry(store, poll_interval=0.0)
        first = registry.load()
        assert registry.maybe_reload(force=True) is False

        # Run ids are second-resolution; make the new run sort strictly later.
        time.sleep(1.05)
        run_suite(
            config=SynthConfig(n_users=500, seed=2),
            store=store,
            targets=("corpus",),
        )
        assert registry.maybe_reload(force=True) is True
        second = registry.snapshot
        assert second.run_id != first.run_id
        assert second.corpus_digest != first.corpus_digest
        assert second.n_users == 500

    def test_poll_interval_throttles(self, tmp_path):
        store = make_store(tmp_path, users=400)
        registry = ModelRegistry(store, poll_interval=3600.0)
        registry.load()
        # First unforced call consumes the poll budget; later ones skip
        # the directory scan entirely (and report no swap).
        registry.maybe_reload()
        assert registry.maybe_reload() is False

    def test_readers_survive_reload(self, tmp_path):
        """A snapshot reference taken before a reload stays usable."""
        store = make_store(tmp_path, users=400, seed=1)
        registry = ModelRegistry(store, poll_interval=0.0)
        before = registry.load()
        time.sleep(1.05)
        run_suite(
            config=SynthConfig(n_users=500, seed=2),
            store=store,
            targets=("corpus",),
        )
        assert registry.maybe_reload(force=True)
        # The old immutable snapshot still answers queries.
        assert before.scales[Scale.NATIONAL].flows.total_trips >= 0


class TestLockOrder:
    def test_snapshot_builds_outside_the_registry_lock(self, tmp_path, monkeypatch):
        """Extraction and fits bump obs counters; none of it may run under
        ``ModelRegistry._lock``, on first load or on a forced reload."""
        store = make_store(tmp_path, users=400, seed=1)
        registry_lock = "repro.serve.registry.ModelRegistry._lock"
        with LockSanitizer(packages=("repro",)) as sanitizer:
            # The counter lock predates the sanitizer; watch it too.
            monkeypatch.setattr(
                tracer,
                "_counter_lock",
                _SanitizedLock(_RAW_LOCK(), "repro.obs.tracer._counter_lock", sanitizer),
            )
            registry = ModelRegistry(store, poll_interval=0.0)
            registry.load()
            time.sleep(1.05)
            run_suite(
                config=SynthConfig(n_users=500, seed=2),
                store=store,
                targets=("corpus",),
            )
            assert registry.maybe_reload(force=True) is True
        assert registry_lock in sanitizer.locks_seen
        assert [edge for edge in sanitizer.observed if edge[0] == registry_lock] == []
