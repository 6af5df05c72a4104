"""Baseline round-trip and fingerprint-stability tests."""

import json

import pytest

from repro.check.baseline import (
    BASELINE_VERSION,
    diff_against_baseline,
    load_baseline,
    save_baseline,
)
from repro.check.hygiene import HygieneRule
from repro.check.runner import run_check
from repro.check.walker import CheckConfigError, SourceFile

VIOLATING = 'print("debug")\n'
CLEAN = "x = 1\n"


class TestRoundTrip:
    def test_record_then_clean_then_new_violation_fails(self, make_project):
        root = make_project({"data/mod.py": VIOLATING})

        first = run_check(root=root)
        assert not first.ok and len(first.new) == 1

        recorded = run_check(root=root, record=True)
        assert recorded.recorded == 1
        assert recorded.ok  # just-recorded debt is baselined by construction

        clean = run_check(root=root)
        assert clean.ok
        assert len(clean.baselined) == 1

        # a second, different violation is new — the ratchet holds
        (root / "src" / "repro" / "data" / "mod.py").write_text(
            VIOLATING + "def _f(xs=[]):\n    return xs\n", encoding="utf-8"
        )
        again = run_check(root=root)
        assert not again.ok
        assert [v.code for v in again.new] == ["hygiene/mutable-default"]
        assert len(again.baselined) == 1

    def test_fixed_violation_becomes_stale_not_failure(self, make_project):
        root = make_project({"data/mod.py": VIOLATING})
        run_check(root=root, record=True)
        (root / "src" / "repro" / "data" / "mod.py").write_text(CLEAN, encoding="utf-8")
        result = run_check(root=root)
        assert result.ok
        assert len(result.stale) == 1
        assert result.stale[0]["code"] == "hygiene/print"

    def test_absent_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "missing.json") == []


class TestFingerprints:
    @staticmethod
    def _fingerprints(text: str) -> list[str]:
        source = SourceFile.from_text(text, path="src/repro/data/mod.py", module="repro.data.mod")
        return [v.fingerprint for v in HygieneRule().run([source])]

    def test_stable_under_line_drift(self):
        before = self._fingerprints(VIOLATING)
        after = self._fingerprints("# a new comment\nimport os\n\n" + VIOLATING)
        assert before == after

    def test_identical_lines_distinguished_by_occurrence(self):
        prints = self._fingerprints(VIOLATING + VIOLATING)
        assert len(prints) == 2 and prints[0] != prints[1]

    def test_diff_matches_on_fingerprint_only(self):
        source = SourceFile.from_text(VIOLATING, module="repro.data.mod")
        violations = HygieneRule().run([source])
        entries = [{"fingerprint": violations[0].fingerprint}]
        diff = diff_against_baseline(violations, entries)
        assert diff.new == () and len(diff.baselined) == 1 and diff.stale == ()


class TestFileFormat:
    def test_save_is_sorted_versioned_and_newline_terminated(self, tmp_path):
        source = SourceFile.from_text(VIOLATING, path="src/repro/data/mod.py", module="repro.data.mod")
        violations = HygieneRule().run([source])
        path = tmp_path / "check-baseline.json"
        assert save_baseline(path, violations) == 1
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["version"] == BASELINE_VERSION
        assert {"fingerprint", "code", "path", "line", "message"} <= set(payload["entries"][0])

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "check-baseline.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckConfigError, match="unparseable"):
            load_baseline(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "check-baseline.json"
        path.write_text('{"version": 99, "entries": []}', encoding="utf-8")
        with pytest.raises(CheckConfigError, match="unsupported"):
            load_baseline(path)

    def test_non_list_entries_raises(self, tmp_path):
        path = tmp_path / "check-baseline.json"
        path.write_text('{"version": 1, "entries": {}}', encoding="utf-8")
        with pytest.raises(CheckConfigError, match="list"):
            load_baseline(path)
