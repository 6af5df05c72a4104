"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestGenerateAndStats:
    def test_generate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "corpus.csv"
        code = main(["generate", "--users", "300", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "wrote" in captured.out

    def test_stats_on_generated_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus.csv"
        main(["generate", "--users", "300", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        code = main(["stats", str(out)])
        assert code == 0
        assert "Table I" in capsys.readouterr().out

    def test_generate_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "--users", "200", "--seed", "3", "--out", str(a)])
        main(["generate", "--users", "200", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestExperimentCommand:
    def test_table1_on_synthesised_corpus(self, capsys):
        code = main(["experiment", "table1", "--users", "500", "--seed", "2"])
        assert code == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig3_runs(self, capsys):
        code = main(["experiment", "fig3", "--users", "2000", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 3(a)" in out

    def test_experiment_from_csv(self, tmp_path, capsys):
        out = tmp_path / "corpus.csv"
        main(["generate", "--users", "500", "--seed", "4", "--out", str(out)])
        capsys.readouterr()
        code = main(["experiment", "fig2", "--corpus", str(out)])
        assert code == 0
        assert "Fig 2(a)" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig9"])


class TestEpidemicCommand:
    def test_epidemic_runs(self, capsys):
        code = main(
            [
                "epidemic",
                "--users", "3000",
                "--seed", "5",
                "--seed-city", "Sydney",
                "--runs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Outbreak arrival times" in out
        assert "Sydney" in out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestNewSubcommands:
    def test_groundtruth(self, capsys):
        code = main(["groundtruth", "--users", "3000", "--seed", "9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ground-truth validation" in out

    def test_validate(self, capsys):
        code = main(["validate", "--users", "4000", "--seed", "9", "--folds", "3"])
        assert code == 0
        assert "cross-validated" in capsys.readouterr().out

    def test_distance(self, capsys):
        code = main(["distance", "--users", "4000", "--seed", "9"])
        assert code == 0
        assert "gamma" in capsys.readouterr().out

    def test_temporal_with_diurnal(self, capsys):
        code = main(["temporal", "--users", "1000", "--seed", "9", "--diurnal", "0.8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Hourly activity profile" in out
        assert "day/night activity ratio" in out

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(["report", "--users", "3000", "--seed", "9", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# Reproduction report")
        assert "## Checklist" in text

    def test_health(self, tmp_path, capsys):
        out = tmp_path / "corpus.csv"
        main(["generate", "--users", "400", "--seed", "9", "--out", str(out)])
        capsys.readouterr()
        code = main(["health", str(out)])
        assert code == 0
        assert "Corpus health report" in capsys.readouterr().out

    def test_anonymize(self, tmp_path, capsys):
        src = tmp_path / "corpus.csv"
        dst = tmp_path / "anon.csv"
        main(["generate", "--users", "300", "--seed", "9", "--out", str(src)])
        capsys.readouterr()
        code = main(["anonymize", str(src), "--out", str(dst), "--key", "k1"])
        assert code == 0
        assert dst.exists()
        assert "anonymised" in capsys.readouterr().out

    def test_densitymap(self, tmp_path, capsys):
        out = tmp_path / "map.ppm"
        code = main(["densitymap", "--users", "800", "--seed", "9", "--out", str(out)])
        assert code == 0
        assert out.read_bytes().startswith(b"P6\n")


class TestExperimentVariants:
    """Exercise the remaining experiment CLI paths."""

    def test_fig1(self, capsys):
        assert main(["experiment", "fig1", "--users", "800", "--seed", "2"]) == 0
        assert "Fig 1" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["experiment", "fig4", "--users", "3000", "--seed", "2"]) == 0
        assert "Gravity 2Param" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["experiment", "table2", "--users", "3000", "--seed", "2"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_all(self, capsys):
        assert main(["experiment", "all", "--users", "2000", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestCleanCorpusErrors:
    """Missing/unreadable corpus CSVs fail with one message, no traceback."""

    def test_stats_missing_file(self, capsys):
        code = main(["stats", "/tmp/definitely-not-here.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "corpus file not found" in err
        assert "Traceback" not in err

    def test_experiment_missing_file(self, capsys):
        code = main(["experiment", "table1", "--corpus", "/tmp/nope-corpus.csv"])
        assert code == 2
        assert "corpus file not found" in capsys.readouterr().err

    def test_health_missing_file(self, capsys):
        code = main(["health", "/tmp/nope-corpus.csv"])
        assert code == 2
        assert "corpus file not found" in capsys.readouterr().err

    def test_anonymize_missing_file(self, tmp_path, capsys):
        code = main(
            ["anonymize", "/tmp/nope-corpus.csv", "--out", str(tmp_path / "o.csv"),
             "--key", "k"]
        )
        assert code == 2
        assert "corpus file not found" in capsys.readouterr().err

    def test_stats_on_directory(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path)])
        assert code == 2
        assert "directory" in capsys.readouterr().err

    def test_stats_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("this,is,not\na,corpus,file\n")
        code = main(["stats", str(bad)])
        assert code == 2
        assert "malformed corpus file" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_without_runs_fails_cleanly(self, tmp_path, capsys):
        code = main(["serve", "--cache-dir", str(tmp_path), "--port", "0"])
        assert code == 2
        assert "no successful pipeline run" in capsys.readouterr().err


class TestSummaryCommand:
    def test_backfill_then_status(self, tmp_path, capsys):
        code = main([
            "summary", "backfill", "--users", "120", "--seed", "5",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "backfilled" in out and "minute tiles" in out

        code = main(["summary", "status", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "namespace: national" in out
        assert "minute" in out

    def test_second_backfill_installs_nothing_and_status_counts_stale(
        self, tmp_path, capsys
    ):
        from repro.pipeline.journal import Journal

        args = ["summary", "backfill", "--users", "120", "--seed", "5",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 0
        assert "backfilled 0 minute tiles" in capsys.readouterr().out
        assert main(["summary", "status", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "stale_frames: 0" in out
        for tier in ("minute", "hour", "day"):
            assert f"  {tier} " in out
        # A CRC-valid frame that is not a current-format tile.
        Journal(tmp_path / "journals" / "summary-national.log").append(b"not a tile")
        assert main(["summary", "status", "--cache-dir", str(tmp_path)]) == 0
        assert "stale_frames: 1" in capsys.readouterr().out

    def test_status_on_empty_cache(self, tmp_path, capsys):
        code = main(["summary", "status", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "0 persisted tiles" in capsys.readouterr().out

    def test_backfill_rejects_bad_jobs(self, tmp_path, capsys):
        code = main([
            "summary", "backfill", "--users", "50",
            "--cache-dir", str(tmp_path), "--jobs", "0",
        ])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err
