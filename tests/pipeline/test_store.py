"""Tests for repro.pipeline.store."""

import numpy as np

from repro.pipeline.store import ArtifactStore, default_cache_dir


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload = {"xs": np.arange(5), "label": "hi"}
        digest = store.put(payload)
        loaded = store.get(digest)
        assert loaded["label"] == "hi"
        assert np.array_equal(loaded["xs"], payload["xs"])

    def test_content_addressing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.put([1, 2, 3]) == store.put([1, 2, 3])
        assert store.put([1, 2, 3]) != store.put([1, 2, 4])

    def test_has_object(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put("x")
        assert store.has_object(digest)
        assert not store.has_object("0" * 32)

    def test_key_binding(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put({"v": 1})
        store.record_key("somekey", digest, {"task": "t"})
        assert store.lookup("somekey") == digest
        assert store.key_meta("somekey")["task"] == "t"

    def test_lookup_missing_key(self, tmp_path):
        assert ArtifactStore(tmp_path).lookup("nothere") is None

    def test_lookup_requires_object_present(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put("x")
        store.record_key("k", digest)
        store._object_path(digest).unlink()
        assert store.lookup("k") is None

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.record_key("k", store.put("x"))
        removed = store.clear()
        assert removed == 2
        assert list(store.objects_dir.iterdir()) == []
        assert store.lookup("k") is None

    def test_clear_includes_journals(self, tmp_path):
        store = ArtifactStore(tmp_path)
        journal = store.journal("summary-national")
        journal.append(b"tile")
        journal.close()
        assert journal.size() > len(b"tile")
        assert store.clear() == 1
        assert journal.size() == 0
        assert journal.read() == []

    def test_clear_empty_store(self, tmp_path):
        assert ArtifactStore(tmp_path / "fresh").clear() == 0


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "repro"
        assert default_cache_dir().parent.name == ".cache"
