"""Property tests pinning the vectorized hot loops to their scalar references.

The perf work in the annotation core (ISSUE 7) replaced three per-value
Python loops with vectorized passes:

* importance scoring in :mod:`repro.core.sampling` (``importance.batch``),
* the all-numeric gate :func:`repro.core.table.all_numeric_strings`,
* the summary-statistics sketch in :mod:`repro.core.features`
  (array-wide float parse, integer-mantissa ``pstdev``, thresholded median).

All three feed either the RNG stream or the serialized prompt, so "close
enough" floats would silently change downstream labels.  These tests assert
**bit-identical** agreement with the scalar forms the vectorized code
replaced — ``np.array_equal`` on probability vectors, ``==`` on raw float
statistics, equality on the formatted prompt strings.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import SummaryStatistics, summary_statistics
from repro.core.sampling import (
    ArcheTypeSampler,
    length_importance,
    make_label_containment_importance,
)
from repro.core.table import Column, all_numeric_strings, is_numeric_string

# ---------------------------------------------------------------------------
# Strategies

#: Strings that must satisfy ``is_numeric_string``: plain integers, floats in
#: positional and scientific notation, comma-grouped thousands, padded with
#: optional whitespace and an optional explicit sign.
_numeric_cores = st.one_of(
    st.integers(-(10**9), 10**9).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(0, 10**9).map(lambda n: f"{n:,}"),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda f: f"{f:.3f}"),
    st.floats(-1e20, 1e20, allow_nan=False).map(lambda f: f"{f:e}"),
    st.fractions().map(lambda q: repr(float(q))),
    # Literals past the float range parse to inf (the length-summary rule).
    st.builds(lambda m, e: f"{m}e{e}", st.integers(1, 99), st.integers(309, 999)),
    st.integers(309, 400).map(lambda n: "9" * n),
)
_padding = st.sampled_from(["", " ", "  ", "\t"])
numeric_strings = st.builds(
    lambda left, sign, core, right: f"{left}{sign}{core.lstrip('+-')}{right}",
    _padding,
    st.sampled_from(["", "+", "-"]),
    _numeric_cores,
    _padding,
)

#: Arbitrary cell text (includes control characters such as newlines, which
#: exercise the joined-regex fallback inside ``all_numeric_strings``).
cell_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=30,
)

#: Mixed columns: mostly-numeric, mostly-text, and everything in between.
cell_values = st.one_of(numeric_strings, cell_text)
value_lists = st.lists(cell_values, min_size=1, max_size=60)
numeric_lists = st.lists(numeric_strings, min_size=1, max_size=60)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _scalar_summary_statistics(values) -> SummaryStatistics | None:
    """The historical per-value sketch the vectorized path replaced."""
    usable = [v for v in values if v.strip()]
    if not usable:
        return None
    numbers = None
    if all(is_numeric_string(v) for v in usable):
        numbers = [float(v.replace(",", "")) for v in usable]
    # The declared non-finite outcome: a numeric parse holding inf or nan is
    # summarised over value lengths, like any text column.
    over_lengths = numbers is None or not all(math.isfinite(x) for x in numbers)
    if over_lengths:
        numbers = [float(len(v)) for v in usable]
    std = statistics.pstdev(numbers) if len(numbers) > 1 else 0.0
    try:
        mode = float(statistics.mode(numbers))
    except statistics.StatisticsError:  # pragma: no cover - 3.8+ never raises
        mode = numbers[0]
    # The declared overflow outcome: an fsum that overflows falls back to the
    # exact mean, and an overflowing midpoint of the two middle values to
    # lo / 2 + hi / 2.
    try:
        mean = statistics.fmean(numbers)
    except OverflowError:
        mean = float(statistics.mean(numbers))
    median = float(statistics.median(numbers))
    if math.isinf(median) and len(numbers) % 2 == 0:
        ordered = sorted(numbers)
        lo, hi = ordered[len(ordered) // 2 - 1], ordered[len(ordered) // 2]
        median = lo / 2 + hi / 2
    return SummaryStatistics(
        std=std,
        mean=mean,
        mode=mode,
        median=median,
        maximum=max(numbers),
        minimum=min(numbers),
        over_lengths=over_lengths,
    )


def _identical(left: float, right: float) -> bool:
    """Value-exact float equality (NaN == NaN).

    The sign of zero is deliberately NOT distinguished: among equal values
    ``np.max`` may return a differently-signed zero than the scalar ``max``
    (e.g. over ``[0.0, -0.0]``), and ``_format_stat`` collapses both to
    ``"0"`` so the serialized prompt cannot observe the difference.
    """
    return left == right or (math.isnan(left) and math.isnan(right))


class TestAllNumericGate:
    @given(value_lists)
    @settings(max_examples=300)
    def test_matches_per_value_scan(self, values):
        assert all_numeric_strings(values) == all(
            is_numeric_string(v) for v in values
        )

    @given(numeric_lists)
    @settings(max_examples=150)
    def test_accepts_pure_numeric_columns(self, values):
        assert all_numeric_strings(values)

    @given(numeric_lists, cell_text.filter(lambda s: not is_numeric_string(s)))
    @settings(max_examples=150)
    def test_one_text_value_rejects_anywhere(self, values, text_value):
        for position in (0, len(values) // 2, len(values)):
            mixed = values[:position] + [text_value] + values[position:]
            assert not all_numeric_strings(mixed)


class TestSummaryStatisticsExactness:
    @given(value_lists)
    @settings(max_examples=300)
    def test_raw_floats_match_scalar_reference(self, values):
        fast = summary_statistics(values)
        reference = _scalar_summary_statistics(values)
        assert (fast is None) == (reference is None)
        if fast is None:
            return
        assert fast.over_lengths == reference.over_lengths
        for field in ("std", "mean", "mode", "median", "maximum", "minimum"):
            assert _identical(getattr(fast, field), getattr(reference, field)), (
                field,
                getattr(fast, field),
                getattr(reference, field),
            )

    @given(value_lists)
    @settings(max_examples=150)
    def test_prompt_strings_match_scalar_reference(self, values):
        fast = summary_statistics(values)
        reference = _scalar_summary_statistics(values)
        if fast is None:
            assert reference is None
            return
        assert fast.as_strings() == reference.as_strings()

    def test_numpy_median_branch_matches_stdlib(self):
        # Deterministic large columns straddling _NP_MEDIAN_MIN_SIZE: both
        # median branches (and the integer-mantissa pstdev at scale) must
        # agree with the scalar sketch bit-for-bit.
        rng = np.random.default_rng(7)
        for size in (511, 512, 513, 1200):
            numeric = [f"{x:.6f}" for x in rng.normal(1e3, 50.0, size=size)]
            text = ["v" * int(n) for n in rng.integers(1, 40, size=size)]
            for values in (numeric, text):
                assert summary_statistics(values) == _scalar_summary_statistics(
                    values
                )

    def test_overflowing_sums_stay_finite(self):
        # Regression: finite values whose sum passes the float range used to
        # raise OverflowError from fmean, and the median's (lo + hi) / 2 was
        # inf, which then raised from _format_stat.  Two values take the
        # stdlib median branch, 600 the np.median branch.
        cases = {
            ("9e307", "9e307"): 9e307,
            ("9e307",) * 300 + ("9.5e307",) * 300: 9.25e307,
        }
        for values, expected_median in cases.items():
            stats = summary_statistics(values)
            assert stats is not None
            assert stats.mean == statistics.mean(float(v) for v in values)
            assert stats.median == expected_median
            for field in ("std", "mean", "mode", "median", "maximum", "minimum"):
                assert math.isfinite(getattr(stats, field)), field
            assert len(stats.as_strings()) == 6
            assert stats == _scalar_summary_statistics(values)


class TestVectorizedImportanceScoring:
    @given(value_lists)
    @settings(max_examples=200)
    def test_length_batch_matches_scalar(self, values):
        batched = length_importance.batch(values)
        scalar = np.array([length_importance(v) for v in values])
        assert np.array_equal(batched, scalar)

    @given(
        st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6),
        value_lists,
    )
    @settings(max_examples=150)
    def test_label_containment_batch_matches_scalar(self, labels, values):
        importance = make_label_containment_importance(labels)
        batched = importance.batch(values)
        scalar = np.array([importance(v) for v in values])
        assert np.array_equal(batched, scalar)

    @given(value_lists)
    @settings(max_examples=200)
    def test_probability_vector_identical_to_scalar_path(self, values):
        unique = list(dict.fromkeys(v for v in values if v.strip()))
        if not unique:
            return
        scalar_importance = lambda v: length_importance(v)  # noqa: E731 - no .batch
        vectorized = ArcheTypeSampler()._probabilities(unique)
        scalar = ArcheTypeSampler(scalar_importance)._probabilities(unique)
        assert np.array_equal(vectorized, scalar)

    @given(value_lists, st.integers(1, 10), seeds)
    @settings(max_examples=100)
    def test_sampled_contexts_unchanged_by_vectorization(self, values, size, seed):
        if not any(v.strip() for v in values):
            return
        column = Column(values=values)
        scalar_importance = lambda v: length_importance(v)  # noqa: E731 - no .batch
        fast = ArcheTypeSampler().sample(
            column, size, np.random.default_rng(seed)
        )
        reference = ArcheTypeSampler(scalar_importance).sample(
            column, size, np.random.default_rng(seed)
        )
        assert fast.values == reference.values
        assert fast.with_replacement == reference.with_replacement
