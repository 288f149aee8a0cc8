"""Unit tests for the experiment runner and report formatting."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.llm_baselines import build_archetype_method
from repro.core.pipeline import AnnotationResult
from repro.core.remapping import NULL_LABEL
from repro.core.table import Column, Table
from repro.datasets.base import Benchmark, BenchmarkColumn
from repro.datasets.registry import load_benchmark
from repro.eval.reporting import format_score, format_stage_stats, format_table
from repro.eval.runner import EvaluationResult, ExperimentRunner
from repro.exceptions import ConfigurationError


class FixedAnnotator:
    """Test double that always predicts the same label."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.seen_tables: list[Table | None] = []

    def annotate_column(self, column: Column, table=None, column_index=None):
        self.seen_tables.append(table)
        return AnnotationResult(
            label=self.label, raw_response=self.label, prompt=None,
            remapped=False, rule_applied=False, strategy="fixed",
        )


def _tiny_benchmark() -> Benchmark:
    columns = [
        BenchmarkColumn(column=Column(values=["a"]), label="x", table_name="t.csv"),
        BenchmarkColumn(column=Column(values=["b"]), label="y"),
        BenchmarkColumn(column=Column(values=["c"]), label="x"),
    ]
    return Benchmark(name="tiny", label_set=["x", "y"], columns=columns)


class TestExperimentRunner:
    def test_evaluate_with_fixed_annotator(self):
        benchmark = _tiny_benchmark()
        result = ExperimentRunner().evaluate(FixedAnnotator("x"), benchmark, "always-x")
        assert isinstance(result, EvaluationResult)
        assert result.report.accuracy == 2 / 3
        assert result.method_name == "always-x"
        assert result.benchmark_name == "tiny"
        assert result.n_unmapped == 0

    def test_table_context_passed_when_available(self):
        annotator = FixedAnnotator("x")
        ExperimentRunner().evaluate(annotator, _tiny_benchmark(), "always-x")
        assert annotator.seen_tables[0] is not None
        assert annotator.seen_tables[0].name == "t.csv"
        assert annotator.seen_tables[1] is None

    def test_max_columns_limits_evaluation(self):
        result = ExperimentRunner().evaluate(
            FixedAnnotator("x"), _tiny_benchmark(), "always-x", max_columns=2
        )
        assert result.report.n_columns == 2

    def test_unmapped_counter(self):
        result = ExperimentRunner().evaluate(
            FixedAnnotator(NULL_LABEL), _tiny_benchmark(), "always-null"
        )
        assert result.n_unmapped == 3
        assert result.report.accuracy == 0.0

    def test_keep_annotations_flag(self):
        runner = ExperimentRunner(keep_annotations=True)
        result = runner.evaluate(FixedAnnotator("x"), _tiny_benchmark(), "always-x")
        assert len(result.annotations) == 3

    def test_evaluate_predictions_only(self):
        benchmark = _tiny_benchmark()
        result = ExperimentRunner().evaluate_predictions_only(
            benchmark, ["x", "y", "x"], "oracle"
        )
        assert result.report.accuracy == 1.0
        assert result.summary_row()["micro_f1"] == 100.0

    def test_summary_row_keys(self):
        result = ExperimentRunner().evaluate(FixedAnnotator("x"), _tiny_benchmark(), "m")
        row = result.summary_row()
        assert {"benchmark", "method", "micro_f1", "ci95", "accuracy",
                "n_columns", "n_remapped", "n_rule_applied"} <= set(row)

    def test_end_to_end_with_real_annotator(self, d4_small):
        annotator = build_archetype_method(d4_small, model="gpt", use_rules=True)
        result = ExperimentRunner().evaluate(annotator, d4_small, "archetype-gpt+")
        assert result.report.n_columns == len(d4_small.columns)
        assert result.report.weighted_f1 > 0.4


class TestPredictionsOnlyStrictness:
    """Regression (ISSUE 2 satellite): no silent truth truncation."""

    def test_matching_lengths_accepted(self):
        result = ExperimentRunner().evaluate_predictions_only(
            _tiny_benchmark(), ["x", "y", "x"], "oracle"
        )
        assert result.report.n_columns == 3

    @pytest.mark.parametrize("predictions", [["x"], ["x", "y"], ["x", "y", "x", "y"]])
    def test_length_mismatch_raises(self, predictions):
        with pytest.raises(ConfigurationError, match="predictions"):
            ExperimentRunner().evaluate_predictions_only(
                _tiny_benchmark(), predictions, "oracle"
            )


class TestRunnerDrives:
    def test_streaming_drive_matches_sequential_drive(self, d4_small):
        streamed = ExperimentRunner(batch_size=16).evaluate(
            build_archetype_method(d4_small, model="gpt"), d4_small, "streamed"
        )
        sequential = ExperimentRunner(batch_size=0).evaluate(
            build_archetype_method(d4_small, model="gpt"), d4_small, "sequential"
        )
        assert streamed.predictions == sequential.predictions
        assert streamed.weighted_f1_pct == sequential.weighted_f1_pct

    def test_concurrent_drive_matches_label_multiset(self, d4_small):
        from collections import Counter

        concurrent = ExperimentRunner(executor="concurrent", workers=4).evaluate(
            build_archetype_method(d4_small, model="gpt"), d4_small, "concurrent"
        )
        reference = ExperimentRunner().evaluate(
            build_archetype_method(d4_small, model="gpt"), d4_small, "reference"
        )
        assert Counter(concurrent.predictions) == Counter(reference.predictions)

    def test_per_run_stats_reset_between_evaluates(self, d4_small):
        # first-k sampling is deterministic, so the second run replays the
        # exact prompts of the first and is served from the cache.
        annotator = build_archetype_method(d4_small, model="gpt", sampler="firstk")
        runner = ExperimentRunner()
        first = runner.evaluate(annotator, d4_small, "run-1")
        second = runner.evaluate(annotator, d4_small, "run-2")
        assert first.counters is not None and first.counters["n_queries"] > 0
        # The second run reports per-run numbers: the replay is answered from
        # the engine's surviving cache, not billed as fresh model queries.
        assert second.counters["n_queries"] == 0
        assert second.counters["n_cache_hits"] > 0

    @pytest.mark.parametrize(
        ("executor", "workers"),
        [("batched", None), ("concurrent", 2)],
    )
    def test_coalesced_requests_reported_under_every_executor(
        self, executor, workers
    ):
        """Each column's twin coalesces onto its pending request, and both
        the row and the runner totals count it, whichever executor ran."""
        benchmark = load_benchmark("sotab-27", n_columns=30, seed=3)
        doubled = dataclasses.replace(
            benchmark, columns=[c for c in benchmark.columns for _ in range(2)]
        )
        annotator = build_archetype_method(
            doubled, model="gpt", seed=1, sampler="firstk"
        )
        runner = ExperimentRunner(executor=executor, workers=workers)
        row = runner.evaluate(annotator, doubled, executor).summary_row()
        assert list(row)[8:14] == [
            "n_queries", "cache_hits", "store_hits", "inflight_hits",
            "n_batches", "n_coalesced",
        ]
        assert row["n_coalesced"] == row["inflight_hits"] == 30
        assert runner.totals["n_coalesced"] == 30
        assert runner.totals["n_inflight_hits"] == 30

    def test_batch_size_zero_with_conflicting_executor_rejected(self, d4_small):
        annotator = build_archetype_method(d4_small, model="gpt")
        runner = ExperimentRunner(batch_size=0, executor="concurrent", workers=4)
        with pytest.raises(ConfigurationError, match="batch_size=0"):
            runner.evaluate(annotator, d4_small, "conflict")

    def test_pipeline_stats_surfaced_in_summary_row(self, d4_small):
        annotator = build_archetype_method(d4_small, model="gpt")
        result = ExperimentRunner().evaluate(annotator, d4_small, "instrumented")
        row = result.summary_row()
        assert {"n_queries", "cache_hits", "plan_s", "execute_s"} <= set(row)
        assert result.pipeline_stats is not None
        assert result.pipeline_stats["query"]["calls"] > 0
        assert result.stage_rows()
        rendered = format_stage_stats(result.pipeline_stats)
        assert "query" in rendered and "cache_hits" in rendered


class TestReporting:
    def test_format_table_alignment_and_missing_cells(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22}]
        rendered = format_table(rows, title="demo")
        lines = rendered.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_score(self):
        assert format_score(62.54, 0.84) == "62.5 ±0.8"
        assert format_score(62.54) == "62.5"
