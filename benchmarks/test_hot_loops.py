"""Micro-benchmarks for the vectorized pure-Python hot loops.

Profiling the annotation path (``repro --profile``) shows four loops paying
per-value Python interpreter cost on every column: importance scoring in
context sampling, number parsing in summary statistics, the CONTAINS label
scan in remapping, and the simulated model's per-label option scoring.  Each
benchmark here replays one of those loops at workload scale, comparing the
optimized implementation against an inline copy of the one it replaced —
asserting **exact** equivalence (same float64 arrays, same formatted strings,
same matched labels, same option scores) and recording
throughput + speedup into the ``BENCH_<shortsha>.json`` artifact, where
``scripts/bench_regression_check.py`` gates them against
``benchmarks/baseline.json``.

The equivalence assertions always gate (CI included); the speedup ratio
assertions are local-only, like every wall-clock check in this suite.  The
simulated model's concept-detector calls are also counted, a deterministic
cost proxy that CI gates.
"""

from __future__ import annotations

import os
import random
from time import perf_counter

import numpy as np
from _harness import record_bench_result, run_once

from repro.core.features import summary_statistics
from repro.core.remapping import contains_match, normalized_label_set
from repro.core.sampling import (
    ArcheTypeSampler,
    length_importance,
    make_label_containment_importance,
)
from repro.core.serialization import PromptSerializer, PromptStyle
from repro.datasets.sotab import SOTAB91_CLASSES, load_sotab91
from repro.llm.base import GenerationParams
from repro.llm.concepts import DEFAULT_RESOLVER, label_tokens
from repro.llm.knowledge import Concept, score_concept
from repro.llm.prompt_parsing import parse_prompt
from repro.llm.simulated import _GENERIC_TOKENS, OptionScore, SimulatedLLM, _stable_seed


def _synthetic_columns(n_columns: int, seed: int = 7) -> list[list[str]]:
    """Column-shaped value lists: mixed lengths, blanks, numbers, text."""
    rnd = random.Random(seed)
    alphabet = "abcdefghij klmnop 0123456789.,"
    columns = []
    for _ in range(n_columns):
        n_values = rnd.randint(20, 120)
        values = []
        for _ in range(n_values):
            kind = rnd.random()
            if kind < 0.1:
                values.append(rnd.choice(["", "  ", "\t"]))
            elif kind < 0.4:
                values.append(f"{rnd.uniform(-1e6, 1e6):.4f}")
            else:
                length = rnd.randint(1, 40)
                values.append("".join(rnd.choice(alphabet) for _ in range(length)))
        columns.append(values)
    return columns


def _scalar_probabilities(importance, values) -> np.ndarray:
    """The pre-vectorization ``_probabilities`` loop (inline reference)."""
    weights = np.array([max(importance(v), 0.0) for v in values])
    total = float(weights.sum())
    if total <= 0.0:
        return np.full(len(values), 1.0 / len(values))
    return weights / total


def test_sampling_probabilities_vectorized(benchmark, bench_columns):
    """Importance scoring: one numpy pass per column vs. a per-value loop."""
    label_set = [label for label, _, _ in SOTAB91_CLASSES]
    columns = _synthetic_columns(bench_columns * 4)
    functions = {
        "length": length_importance,
        "label-containment": make_label_containment_importance(label_set),
    }

    def compare() -> dict[str, float]:
        info: dict[str, float] = {"n_columns": len(columns)}
        for name, importance in functions.items():
            sampler = ArcheTypeSampler(importance)

            start = perf_counter()
            scalar = [_scalar_probabilities(importance, values) for values in columns]
            scalar_seconds = perf_counter() - start

            start = perf_counter()
            vectorized = [sampler._probabilities(values) for values in columns]
            vectorized_seconds = perf_counter() - start

            # Bit-identical probabilities: same weights feed the same RNG
            # draws, so any drift would change every sampled context.
            for left, right in zip(scalar, vectorized):
                assert np.array_equal(left, right)
            key = name.replace("-", "_")
            info[f"scalar_seconds_{key}"] = scalar_seconds
            info[f"vectorized_seconds_{key}"] = vectorized_seconds
            info[f"speedup_{key}"] = scalar_seconds / vectorized_seconds
            info[f"columns_per_second_{key}"] = len(columns) / vectorized_seconds
        return info

    info = run_once(benchmark, compare)
    benchmark.extra_info.update(info)
    record_bench_result("hot_loop_sampling_probabilities", **info)

    if not os.environ.get("CI"):
        assert info["speedup_label_containment"] > 1.0, info


def _scalar_summary_statistics(values):
    """The pre-vectorization ``summary_statistics`` (inline reference)."""
    import statistics

    from repro.core.features import SummaryStatistics
    from repro.core.table import is_numeric_string

    usable = [v for v in values if v.strip()]
    if not usable:
        return None
    all_numeric = all(is_numeric_string(v) for v in usable)
    if all_numeric:
        numbers = [float(v.replace(",", "")) for v in usable]
        over_lengths = False
    else:
        numbers = [float(len(v)) for v in usable]
        over_lengths = True
    std = statistics.pstdev(numbers) if len(numbers) > 1 else 0.0
    try:
        mode = float(statistics.mode(numbers))
    except statistics.StatisticsError:  # pragma: no cover
        mode = numbers[0]
    return SummaryStatistics(
        std=std,
        mean=statistics.fmean(numbers),
        mode=mode,
        median=statistics.median(numbers),
        maximum=max(numbers),
        minimum=min(numbers),
        over_lengths=over_lengths,
    )


def test_summary_statistics_vectorized(benchmark, bench_columns):
    """Feature extraction: single-pass gate/parse/std vs. per-value loops.

    The SS feature runs over *every* value of a column, so the workload uses
    table-length columns (hundreds to low thousands of rows — SOTAB scale),
    where the joined-regex numeric gate and the integer-partial ``pstdev``
    replacement dominate the per-value work they replaced.
    """
    rnd = random.Random(11)
    numeric_columns = [
        [f"{rnd.uniform(-1e7, 1e7):,.2f}" for _ in range(rnd.randint(200, 1200))]
        for _ in range(bench_columns)
    ]
    text_columns = [
        ["".join(rnd.choice("abcdef 0123.,") for _ in range(rnd.randint(1, 40)))
         for _ in range(rnd.randint(200, 1200))]
        for _ in range(bench_columns)
    ]
    columns = numeric_columns + text_columns

    def compare() -> dict[str, float]:
        start = perf_counter()
        scalar = [_scalar_summary_statistics(values) for values in columns]
        scalar_seconds = perf_counter() - start

        start = perf_counter()
        vectorized = [summary_statistics(values) for values in columns]
        vectorized_seconds = perf_counter() - start

        # The formatted prompt strings must not drift by a single character.
        for left, right in zip(scalar, vectorized):
            assert (left is None) == (right is None)
            if left is not None:
                assert left.as_strings() == right.as_strings()
        return {
            "n_columns": len(columns),
            "scalar_seconds": scalar_seconds,
            "vectorized_seconds": vectorized_seconds,
            "speedup": scalar_seconds / vectorized_seconds,
            "columns_per_second": len(columns) / vectorized_seconds,
        }

    info = run_once(benchmark, compare)
    benchmark.extra_info.update(info)
    record_bench_result("hot_loop_summary_statistics", **info)

    if not os.environ.get("CI"):
        assert info["speedup"] > 1.0, info


def _full_scan_contains(response_normalized: str, label_set) -> str | None:
    """The pre-matcher CONTAINS: full strictly-greater scan, no early exit."""
    best, best_length = None, -1
    for label, normalized_label in zip(label_set, normalized_label_set(label_set)):
        if not normalized_label:
            continue
        if (
            normalized_label in response_normalized
            or response_normalized in normalized_label
        ) and len(normalized_label) > best_length:
            best, best_length = label, len(normalized_label)
    return best


def test_contains_match_precompiled(benchmark, bench_columns):
    """Remapping: precompiled length-sorted scan + response cache vs. rescans.

    The workload repeats responses heavily (resample retries and duplicate
    model output re-ask the same question), which is exactly what the
    matcher's bounded per-response cache exploits.
    """
    from repro.core.remapping import normalize

    label_set = [label for label, _, _ in SOTAB91_CLASSES]
    responses = []
    for index in range(bench_columns * 10):
        label = label_set[index % len(label_set)]
        responses.extend(
            [f"The type is {label}.", f"The type is {label}.", f"junk {index % 97}"]
        )

    def compare() -> dict[str, float]:
        start = perf_counter()
        legacy = [
            _full_scan_contains(normalize(response), label_set)
            for response in responses
        ]
        legacy_seconds = perf_counter() - start

        start = perf_counter()
        precompiled = [contains_match(response, label_set) for response in responses]
        precompiled_seconds = perf_counter() - start

        assert precompiled == legacy
        return {
            "n_responses": len(responses),
            "n_labels": len(label_set),
            "legacy_seconds": legacy_seconds,
            "precompiled_seconds": precompiled_seconds,
            "speedup": legacy_seconds / precompiled_seconds,
            "responses_per_second": len(responses) / precompiled_seconds,
        }

    info = run_once(benchmark, compare)
    benchmark.extra_info.update(info)
    record_bench_result("hot_loop_contains_match", **info)

    if not os.environ.get("CI"):
        assert info["speedup"] > 1.5, info


def _per_label_score_options(model, parsed, params, rng) -> list[OptionScore]:
    """The per-label ``score_options`` loop before its label-set invariants
    were hoisted (inline reference)."""
    profile = model.profile
    skill = max(0.05, profile.base_skill + profile.style_modifier(parsed.style_letter))
    noise_scale = model._noise_scale(parsed, params, len(parsed.options))
    values = parsed.context_values
    scores = []
    for index, label in enumerate(parsed.options):
        resolved = model.resolver.resolve(label)
        evidence = 0.0
        concept_name = None
        if resolved.concept is not None:
            concept_name = resolved.concept.name
            raw = score_concept(resolved.concept, values)
            specificity = min(resolved.concept.specificity, 3.2) / 3.2
            evidence = raw * (0.55 + 0.45 * specificity) * resolved.match_quality
        tokens = [
            t for t in label_tokens(label) if len(t) > 3 and t not in _GENERIC_TOKENS
        ]
        affinity = 0.0
        if tokens:
            haystack = " ".join(values).lower()
            affinity = sum(1 for t in tokens if t in haystack) / len(tokens)
        lexical = affinity * profile.lexical_affinity_weight
        adjustment = 0.0
        normalized = label.strip().lower()
        if concept_name is not None:
            adjustment += profile.class_adjustments.get(concept_name, 0.0)
        adjustment += profile.class_adjustments.get(normalized, 0.0)
        position_jitter = (
            (_stable_seed(profile.name, label, index) % 1000) / 1000.0 - 0.5
        ) * 0.05
        noise = float(rng.normal(0.0, noise_scale))
        total = skill * (evidence + lexical) + adjustment + position_jitter + noise
        scores.append(OptionScore(
            label=label, concept_name=concept_name, evidence=evidence,
            lexical=lexical, adjustment=adjustment, noise=noise, total=total,
        ))
    return scores


def _sotab_prompts(bench_columns: int) -> tuple[list[str], list[str]]:
    """The offline write path's prompt shape: SOTAB-91 columns serialized
    against the full 91-label set, one prompt per column; and the label set."""
    sotab = load_sotab91(n_columns=bench_columns * 4, n_train_columns=0, seed=3)
    label_set = list(sotab.label_set)
    serializer = PromptSerializer(style=PromptStyle.S, context_window=4096)
    prompts = [
        serializer.serialize(labeled.column.values[:5], label_set).text
        for labeled in sotab.columns
    ]
    return prompts, label_set


def test_score_options_hoisted(benchmark, bench_columns):
    """Simulated model: label-set invariants memoized, each context value
    scored once under all of the set's concepts, every option scored with
    array operations and the option noise drawn in one call vs. the
    per-label loop, on the offline write path's prompts.
    """
    prompts, label_set = _sotab_prompts(bench_columns)
    parsed = [parse_prompt(prompt) for prompt in prompts]
    params = GenerationParams()

    def compare() -> dict[str, float]:
        legacy_model = SimulatedLLM("gpt")
        start = perf_counter()
        legacy = [
            _per_label_score_options(
                legacy_model, prompt, params, np.random.default_rng(index)
            )
            for index, prompt in enumerate(parsed)
        ]
        legacy_seconds = perf_counter() - start

        # A fresh model, so building the label-set memo is timed too.
        model = SimulatedLLM("gpt")
        start = perf_counter()
        hoisted = [
            model.score_options(prompt, params, np.random.default_rng(index))
            for index, prompt in enumerate(parsed)
        ]
        hoisted_seconds = perf_counter() - start

        # Every option score feeds the completion: not one float may drift.
        assert hoisted == legacy
        return {
            "n_prompts": len(parsed),
            "n_labels": len(label_set),
            "legacy_seconds": legacy_seconds,
            "hoisted_seconds": hoisted_seconds,
            "speedup": legacy_seconds / hoisted_seconds,
            "prompts_per_second": len(parsed) / hoisted_seconds,
        }

    info = run_once(benchmark, compare)
    benchmark.extra_info.update(info)
    record_bench_result("hot_loop_score_options", **info)

    if not os.environ.get("CI"):
        assert info["speedup"] > 1.3, info


def test_score_value_calls(benchmark, bench_columns, monkeypatch):
    """Simulated model: concept-detector calls with each context value scored
    once per label set and memoized, vs. every distinct concept of the set
    scored over every non-blank value of every prompt (the per-prompt cost
    before the value memo).

    Both are counts, so the ratio holds on any machine and CI gates it.  It
    falls with the workload's scale, as values recur across more columns.
    """
    prompts, _ = _sotab_prompts(bench_columns)
    per_prompt_calls = 0
    for prompt in prompts:
        parsed = parse_prompt(prompt)
        resolved = (DEFAULT_RESOLVER.resolve(label).concept for label in parsed.options)
        n_concepts = len({id(concept) for concept in resolved if concept is not None})
        n_values = sum(1 for value in parsed.context_values if value.strip())
        per_prompt_calls += n_values * n_concepts

    calls = 0
    score_value = Concept.score_value

    def counted(concept: Concept, value: str) -> float:
        nonlocal calls
        calls += 1
        return score_value(concept, value)

    monkeypatch.setattr(Concept, "score_value", counted)

    def measure() -> dict[str, float]:
        nonlocal calls
        calls = 0
        SimulatedLLM("gpt").generate_batch(prompts)  # a fresh, empty memo
        return {
            "n_prompts": len(prompts),
            "score_value_calls": calls,
            "per_prompt_score_value_calls": per_prompt_calls,
            "ratio": calls / per_prompt_calls,
        }

    info = run_once(benchmark, measure)
    benchmark.extra_info.update(info)
    record_bench_result("hot_loop_score_value_calls", **info)

    assert 0 < info["score_value_calls"] < per_prompt_calls, info
