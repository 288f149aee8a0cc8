"""Unit tests for the planning half of the plan/execute pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.core.plan import (
    STAGE_QUERY,
    STAGE_RULES,
    STAGE_SAMPLE,
    STAGE_SERIALIZE,
    AnnotationResult,
    ColumnPlan,
    PipelineStats,
)
from repro.core.remapping import NULL_LABEL
from repro.core.rules import SOTAB_27_RULES
from repro.core.table import Column

LABELS = ["state", "person", "url", "number", "text"]


def _annotator(**overrides) -> ArcheType:
    config = ArcheTypeConfig(model="gpt", label_set=LABELS, **overrides)
    return ArcheType(config)


class TestColumnPlan:
    def test_pending_plan_carries_prompt(self, state_column):
        annotator = _annotator()
        plan = annotator.plan_column(state_column)
        assert not plan.is_short_circuit
        assert plan.result is None
        assert plan.prompt is not None
        assert plan.sampled_values
        assert set(plan.prompt.label_set) == set(LABELS)

    def test_empty_column_short_circuits(self):
        annotator = _annotator()
        plan = annotator.plan_column(Column(values=["", "  "]))
        assert plan.is_short_circuit
        assert plan.result.label == NULL_LABEL
        assert plan.result.strategy == "empty-column"
        assert plan.prompt is None

    def test_rule_hit_short_circuits(self, url_column):
        annotator = _annotator(ruleset=SOTAB_27_RULES)
        plan = annotator.plan_column(url_column)
        assert plan.is_short_circuit
        assert plan.result.label == "url"
        assert plan.result.rule_applied
        assert plan.result.sampled_values  # sampling ran before the rule check

    def test_plan_is_immutable(self, state_column):
        plan = _annotator().plan_column(state_column)
        with pytest.raises(AttributeError):
            plan.position = 5  # type: ignore[misc]

    def test_plan_rejects_both_result_and_prompt(self, state_column):
        plan = _annotator().plan_column(state_column)
        result = AnnotationResult(
            label="state", raw_response="state", prompt=None,
            remapped=False, rule_applied=False, strategy="test",
        )
        with pytest.raises(ValueError):
            ColumnPlan(position=0, result=result, prompt=plan.prompt)
        with pytest.raises(ValueError):
            ColumnPlan(position=0)

    def test_planning_consumes_the_annotation_rng_stream(self, state_column):
        """plan_column and annotate_column are interchangeable in the stream."""
        planned = _annotator(seed=3)
        planned.plan_column(state_column)
        annotated = _annotator(seed=3)
        annotated.annotate_column(state_column)
        # After one column, both annotators' RNGs must be in the same state.
        assert (
            planned._rng.bit_generator.state["state"]
            == annotated._rng.bit_generator.state["state"]
        )

    def test_rules_do_not_perturb_the_rng_stream(self, url_column, state_column):
        """A rule hit consumes the same randomness as a queried column."""
        with_rules = _annotator(ruleset=SOTAB_27_RULES, seed=11)
        with_rules.annotate_column(url_column)
        plain = _annotator(seed=11)
        plain.annotate_column(url_column)
        assert (
            with_rules.annotate_column(state_column).label
            == plain.annotate_column(state_column).label
        )


class TestPipelineStats:
    def test_stages_accumulate(self, state_column):
        annotator = _annotator()
        annotator.annotate_column(state_column)
        snapshot = annotator.pipeline_stats.snapshot()
        assert snapshot[STAGE_SAMPLE]["calls"] == 1
        assert snapshot[STAGE_SERIALIZE]["calls"] == 1
        assert snapshot[STAGE_QUERY]["calls"] == 1
        assert snapshot[STAGE_QUERY]["seconds"] >= 0.0

    def test_rules_stage_timed_when_enabled(self, url_column):
        annotator = _annotator(ruleset=SOTAB_27_RULES)
        annotator.annotate_column(url_column)
        snapshot = annotator.pipeline_stats.snapshot()
        assert snapshot[STAGE_RULES]["calls"] == 1
        assert STAGE_QUERY not in snapshot  # rule hit: the model was never queried

    def test_query_hits_attributed(self):
        column = Column(values=["Alaska", "Colorado", "Kentucky"], name="state")
        annotator = _annotator(sampler="firstk")
        annotator.annotate_columns([column, column, column])
        snapshot = annotator.pipeline_stats.snapshot()
        # Duplicates submitted in one batch coalesce in flight; either way
        # they are attributed to the query stage as non-model-call hits.
        hits = (
            snapshot[STAGE_QUERY]["cache_hits"]
            + snapshot[STAGE_QUERY]["inflight_hits"]
        )
        assert hits >= 2

    def test_reset_stats_zeroes_everything(self, state_column):
        annotator = _annotator()
        annotator.annotate_column(state_column)
        assert annotator.query_count > 0
        assert annotator.pipeline_stats.total_seconds > 0
        annotator.reset_stats()
        assert annotator.query_count == 0
        assert annotator.cache_hit_count == 0
        assert annotator.pipeline_stats.snapshot() == {}

    def test_reset_keeps_the_response_cache(self, state_column):
        annotator = _annotator(sampler="firstk")
        annotator.annotate_column(state_column)
        annotator.reset_stats()
        annotator.annotate_column(state_column)
        # The second run is served from the surviving cache: zero new queries.
        assert annotator.query_count == 0
        assert annotator.cache_hit_count == 1

    def test_merge_and_rows(self):
        """Two records of one stage accumulate into one row."""
        stats = PipelineStats()
        stats.record(STAGE_SAMPLE, seconds=0.5, calls=2)
        stats.record(STAGE_SAMPLE, seconds=0.25, calls=1, cache_hits=3)
        snapshot = stats.snapshot()
        assert snapshot[STAGE_SAMPLE]["calls"] == 3
        assert snapshot[STAGE_SAMPLE]["seconds"] == pytest.approx(0.75)
        assert snapshot[STAGE_SAMPLE]["cache_hits"] == 3
        rows = stats.as_rows()
        assert rows[0]["stage"] == STAGE_SAMPLE

    def test_timed_context_manager(self):
        stats = PipelineStats()
        with stats.timed("custom", calls=4):
            np.zeros(10)
        assert stats.stage("custom").calls == 4
        assert stats.stage("custom").seconds >= 0.0
