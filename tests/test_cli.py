"""Tests for the command-line interface."""

from __future__ import annotations

import csv
from pathlib import Path

import pytest

from repro.cli import build_parser, main, read_csv_table


@pytest.fixture()
def sample_csv(tmp_path: Path) -> Path:
    path = tmp_path / "contacts.csv"
    rows = [
        ["state", "website", "phone"],
        ["Alaska", "http://a.example.com/x", "(212) 555-0100"],
        ["Texas", "http://b.example.org/y", "646-555-0101"],
        ["Ohio", "http://c.example.net/z", "718-555-0102"],
        ["Maine", "http://d.example.io/w", "+1 917 555 0103"],
    ]
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    return path


class TestCsvLoading:
    def test_read_csv_with_header(self, sample_csv):
        table = read_csv_table(sample_csv)
        assert len(table) == 3
        assert table.column_by_name("state").values[0] == "Alaska"
        assert table.n_rows == 4

    def test_read_csv_without_header(self, sample_csv):
        table = read_csv_table(sample_csv, has_header=False)
        assert table.n_rows == 5
        assert table[0].values[0] == "state"

    def test_max_rows(self, sample_csv):
        table = read_csv_table(sample_csv, max_rows=2)
        assert table.n_rows == 2

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert len(read_csv_table(empty)) == 0


class TestAnnotateCommand:
    def test_annotate_prints_predictions(self, sample_csv, capsys):
        exit_code = main([
            "annotate", str(sample_csv),
            "--labels", "state,url,telephone,person",
            "--model", "gpt",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "state" in captured
        assert "url" in captured
        assert "telephone" in captured

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        exit_code = main([
            "annotate", str(tmp_path / "nope.csv"), "--labels", "a,b",
        ])
        assert exit_code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_empty_label_set_is_an_error(self, sample_csv, capsys):
        exit_code = main(["annotate", str(sample_csv), "--labels", " , "])
        assert exit_code == 2
        assert "at least one label" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_evaluate_benchmark(self, capsys):
        exit_code = main([
            "evaluate", "--benchmark", "d4-20", "--method", "archetype",
            "--model", "gpt", "--columns", "40", "--rules", "--per-class",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "d4-20" in captured
        assert "micro_f1" in captured
        assert "per-class accuracy" in captured

    def test_parser_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--benchmark", "unknown"])

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecutorKnobs:
    def test_annotate_with_concurrent_executor_and_stats(self, sample_csv, capsys):
        exit_code = main([
            "annotate", str(sample_csv),
            "--labels", "state,url,telephone,person",
            "--model", "gpt",
            "--executor", "concurrent", "--workers", "2", "--stats",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "per-stage pipeline stats" in captured
        assert "query" in captured

    def test_evaluate_executor_matches_default_predictions(self, capsys):
        args = ["evaluate", "--benchmark", "d4-20", "--method", "archetype",
                "--model", "gpt", "--columns", "30"]
        assert main(args) == 0
        default_out = capsys.readouterr().out
        assert main(args + ["--executor", "concurrent", "--workers", "4"]) == 0
        concurrent_out = capsys.readouterr().out

        def score_fields(output: str) -> list[str]:
            # Row fields up to cache_hits; the trailing plan_s/execute_s
            # columns are wall-clock and differ run to run.
            return output.splitlines()[3].split()[:10]

        # Identical predictions => identical scores in the summary table.
        assert score_fields(default_out) == score_fields(concurrent_out)

    def test_parser_rejects_unknown_executor(self):
        for name in ("warp-drive", "process"):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(["evaluate", "--executor", name])
            assert exit_info.value.code == 2

    def test_parser_rejects_nonpositive_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--workers", "0"])

    def test_workers_without_concurrent_executor_is_an_error(self, capsys):
        exit_code = main([
            "evaluate", "--benchmark", "d4-20", "--columns", "10",
            "--workers", "4",
        ])
        assert exit_code == 2
        assert "concurrent" in capsys.readouterr().err

    def test_evaluate_stats_flag_prints_stage_table(self, capsys):
        exit_code = main([
            "evaluate", "--benchmark", "d4-20", "--method", "archetype",
            "--model", "gpt", "--columns", "20", "--stats",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "per-stage pipeline stats" in captured


class TestSuiteCommand:
    def test_suite_list_prints_registry(self, capsys):
        assert main(["suite", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table4_zeroshot" in out and "registered experiments" in out

    def test_suite_list_honours_only_filter(self, capsys):
        assert main(["suite", "--list", "--only", "fig*"]) == 0
        out = capsys.readouterr().out
        assert "fig7_labelset" in out and "table4_zeroshot" not in out

    def test_suite_quick_run_writes_artifacts(self, tmp_path, capsys):
        cache_dir = tmp_path / "suite-cache"
        exit_code = main([
            "suite", "--quick", "--only", "shift", "--only", "table1_cost",
            "--cache-dir", str(cache_dir),
        ])
        assert exit_code == 0
        assert (cache_dir / "results.json").exists()
        assert (cache_dir / "REPORT.md").exists()
        assert "done in" in capsys.readouterr().out

    def test_suite_unknown_pattern_is_an_error(self, tmp_path, capsys):
        exit_code = main([
            "suite", "--quick", "--only", "tabel4*",
            "--output-dir", str(tmp_path),
        ])
        assert exit_code == 2
        assert "matches no experiment" in capsys.readouterr().err

    def test_suite_resume_without_cache_dir_is_an_error(self, tmp_path, capsys):
        exit_code = main([
            "suite", "--quick", "--only", "shift", "--resume", "some-run",
            "--output-dir", str(tmp_path),
        ])
        assert exit_code == 2
        assert "cache-dir" in capsys.readouterr().err
