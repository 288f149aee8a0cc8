"""Unit tests for extended-context feature selection (SS / TN / OC)."""

from __future__ import annotations

import pytest

from repro.core.features import (
    FeatureConfig,
    build_feature_strings,
    other_columns_feature,
    summary_statistics,
    table_name_feature,
)
from repro.core.table import Column, Table


class TestSummaryStatistics:
    def test_numeric_column_uses_values(self):
        stats = summary_statistics(["10", "20", "30"])
        assert stats is not None
        assert not stats.over_lengths
        assert stats.mean == pytest.approx(20.0)
        assert stats.minimum == 10.0
        assert stats.maximum == 30.0

    def test_non_numeric_column_uses_lengths(self):
        stats = summary_statistics(["ab", "abcd"])
        assert stats is not None
        assert stats.over_lengths
        assert stats.mean == pytest.approx(3.0)

    def test_empty_input_returns_none(self):
        assert summary_statistics([]) is None
        assert summary_statistics(["", "  "]) is None

    def test_formatting_rounds_to_two_decimals(self):
        stats = summary_statistics(["1", "2"])
        rendered = " ".join(stats.as_strings())
        assert "mean: 1.5" in rendered
        assert "min: 1" in rendered  # integers keep no decimal point

    def test_mixed_values_fall_back_to_lengths(self):
        stats = summary_statistics(["12", "abc"])
        assert stats.over_lengths


class TestNonFiniteNumbers:
    """A numeric column whose parse holds inf is summarised over lengths."""

    def test_overflowing_literal_is_summarised_over_lengths(self):
        # "1e999" passes the numeric gate but parses to inf; pstdev used to
        # raise AttributeError on it.
        for values in (["1e999", "2"], ["-1e999", "2"], ["9" * 400, "2"]):
            stats = summary_statistics(values)
            assert stats is not None
            assert stats.over_lengths
            lengths = [float(len(v)) for v in values]
            assert stats.maximum == max(lengths)
            assert stats.minimum == min(lengths)
            assert stats.mean == sum(lengths) / len(lengths)
        assert summary_statistics(["1e999", "2"]) == summary_statistics(["abcde", "x"])

    def test_annotate_column_with_summary_statistics(self):
        from repro import ArcheType, ArcheTypeConfig

        annotator = ArcheType(ArcheTypeConfig(
            model="gpt", label_set=("number", "text", "url"), seed=0,
            features=FeatureConfig(include_summary_stats=True),
        ))
        result = annotator.annotate_column(Column(values=["1e999", "2", "3"]))
        assert result.prompt is not None
        assert "len max: 5" in result.prompt.text


class TestFeatureConfig:
    def test_from_spec_round_trip(self):
        config = FeatureConfig.from_spec("CS+TN+SS")
        assert config.include_table_name and config.include_summary_stats
        assert not config.include_other_columns
        assert config.spec() == "CS+TN+SS"

    def test_from_spec_rejects_unknown_flags(self):
        with pytest.raises(ValueError):
            FeatureConfig.from_spec("CS+XX")

    def test_default_is_context_sample_only(self):
        assert FeatureConfig().spec() == "CS"


class TestFeatureAssembly:
    def test_table_name_feature(self, small_table):
        assert table_name_feature(small_table) == "TABLE NAME: demo_table.csv"
        assert table_name_feature(None) is None
        assert table_name_feature(Table()) is None

    def test_other_columns_feature_labels_source_columns(self, small_table):
        rendered = other_columns_feature(small_table, column_index=0, per_column=1)
        assert len(rendered) == 2
        assert rendered[0].startswith("col1: ")
        assert rendered[1].startswith("col2: ")

    def test_other_columns_feature_without_table(self):
        assert other_columns_feature(None, 0) == []

    def test_build_feature_strings_order(self, small_table):
        config = FeatureConfig.from_spec("CS+TN+SS+OC")
        strings = build_feature_strings(
            ["Alaska", "Nevada"], config, table=small_table, column_index=0,
            column=small_table[0],
        )
        assert strings[0].startswith("TABLE NAME:")
        assert "Alaska" in strings[1]
        assert any(s.startswith("len std:") or s.startswith("std:") for s in strings)
        assert any(s.startswith("col1:") for s in strings)

    def test_build_feature_strings_plain(self):
        strings = build_feature_strings(["a", "b"], FeatureConfig())
        assert strings == ["a", "b"]
