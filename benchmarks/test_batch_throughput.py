"""Benchmark: batched/concurrent annotation vs. the sequential per-column loop.

The workload replays a SOTAB-sized evaluation split twice — the shape of
resampled / repeated-column traffic across experiments — with deterministic
first-k sampling so repeated columns serialize to identical prompts.  The
sequential side annotates column-at-a-time with the query cache disabled (the
seed repo's execution model); the batched side uses ``annotate_columns``
through the request scheduler, so the replayed half is served from the LRU
cache or coalesced onto in-flight requests without touching the model; the
concurrent side adds the multi-submitter fan-out policy on top of the same
scheduler, so the surviving unique prompts drain as cross-request batches in
parallel.  Each test registers its numbers (columns/sec per executor plus the
scheduler's batch-size histogram and coalescing counters) into the
machine-readable ``BENCH_RESULTS.json`` artifact.
"""

from __future__ import annotations

import os
from time import perf_counter

from _harness import record_bench_result, run_once

from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.core.remapping import contains_match, exact_match, normalize
from repro.datasets.registry import load_benchmark
from repro.datasets.sotab import SOTAB91_CLASSES


def _make_annotator(label_set, cache_size: int) -> ArcheType:
    return ArcheType(
        ArcheTypeConfig(
            model="gpt",
            label_set=label_set,
            sample_size=5,
            sampler="firstk",
            seed=17,
            query_cache_size=cache_size,
        )
    )


def test_batched_cached_beats_sequential(benchmark, bench_columns):
    data = load_benchmark("sotab-27", n_columns=bench_columns, seed=11)
    split = [bench_column.column for bench_column in data.columns]
    workload = split + split  # replayed split: repeated traffic

    def compare() -> dict[str, float]:
        sequential = _make_annotator(data.label_set, cache_size=0)
        start = perf_counter()
        sequential_results = [sequential.annotate_column(c) for c in workload]
        sequential_seconds = perf_counter() - start

        batched = _make_annotator(data.label_set, cache_size=4096)
        start = perf_counter()
        batched_results = batched.annotate_columns(workload)
        batched_seconds = perf_counter() - start

        assert [r.label for r in batched_results] == [
            r.label for r in sequential_results
        ]
        scheduler = batched.scheduler_stats
        return {
            "sequential_seconds": sequential_seconds,
            "batched_seconds": batched_seconds,
            "speedup": sequential_seconds / batched_seconds,
            "columns_per_second_sequential": len(workload) / sequential_seconds,
            "columns_per_second_batched": len(workload) / batched_seconds,
            "model_calls_sequential": sequential.query_count,
            "model_calls_batched": batched.query_count,
            "hits_batched": batched.hit_count,
            "scheduler_batched": scheduler,
        }

    info = run_once(benchmark, compare)
    benchmark.extra_info.update(info)
    record_bench_result("batched_vs_sequential", **info)

    # The replayed half never reaches the model — served from the LRU cache
    # or coalesced onto the in-flight request table — so the batched engine
    # issues at most half the model calls and must win on wall-clock
    # (~1.7x locally).
    assert info["model_calls_batched"] <= info["model_calls_sequential"] / 2
    assert info["hits_batched"] >= len(split)
    # Timing ratios on shared CI runners are noise-prone, so the wall-clock
    # assertion only gates local runs; CI relies on the deterministic
    # model-call halving above.
    if not os.environ.get("CI"):
        assert info["speedup"] > 1.0, info


def test_concurrent_executor_beats_sequential(benchmark, bench_columns):
    """Acceptance (ISSUE 2): concurrent >= 1.5x sequential on the replay."""
    data = load_benchmark("sotab-27", n_columns=bench_columns, seed=11)
    split = [bench_column.column for bench_column in data.columns]
    workload = split + split  # replayed split: repeated traffic

    def compare() -> dict[str, float]:
        sequential = _make_annotator(data.label_set, cache_size=0)
        start = perf_counter()
        sequential_results = [sequential.annotate_column(c) for c in workload]
        sequential_seconds = perf_counter() - start

        concurrent = _make_annotator(data.label_set, cache_size=4096)
        start = perf_counter()
        concurrent_results = concurrent.annotate_columns(
            workload, executor="concurrent", workers=4
        )
        concurrent_seconds = perf_counter() - start

        assert [r.label for r in concurrent_results] == [
            r.label for r in sequential_results
        ]
        scheduler = concurrent.scheduler_stats
        return {
            "sequential_seconds": sequential_seconds,
            "concurrent_seconds": concurrent_seconds,
            "speedup": sequential_seconds / concurrent_seconds,
            "columns_per_second_sequential": len(workload) / sequential_seconds,
            "columns_per_second_concurrent": len(workload) / concurrent_seconds,
            "model_calls_sequential": sequential.query_count,
            "model_calls_concurrent": concurrent.query_count,
            "hits_concurrent": concurrent.hit_count,
            "scheduler_concurrent": scheduler,
        }

    info = run_once(benchmark, compare)
    benchmark.extra_info.update(info)
    record_bench_result("concurrent_vs_sequential", **info)

    # Deduplication against the scheduler's cache and in-flight table halves
    # the model calls deterministically; the fan-out then overlaps the
    # remaining generation work.
    assert info["model_calls_concurrent"] <= info["model_calls_sequential"] / 2
    assert info["hits_concurrent"] >= len(split)
    # Wall-clock gate (the ISSUE 2 acceptance bar) runs locally and only at
    # representative scale — small --quick/--bench-columns workloads are
    # noise-dominated; CI relies on the deterministic call halving above.
    if not os.environ.get("CI") and bench_columns >= 100:
        assert info["speedup"] >= 1.5, info


def test_cross_request_coalescing_under_fanout(benchmark, bench_columns):
    """Satellite (ISSUE 6): the scheduler must coalesce across submitters.

    Runs the concurrent executor at a high worker count over an interleaved
    replay (each column immediately followed by its duplicate), so duplicate
    prompts are submitted while the original is still pending.  Those
    submissions must land on the in-flight table — one model call, shared
    future — and the drained batches must register as cross-request work.  A
    scheduler that silently degrades to per-request calls scores zero here.
    """
    data = load_benchmark("sotab-27", n_columns=bench_columns, seed=11)
    split = [bench_column.column for bench_column in data.columns]
    workload = [column for pair in zip(split, split) for column in pair]

    def fan_out() -> dict[str, object]:
        annotator = _make_annotator(data.label_set, cache_size=4096)
        annotator.engine.configure(max_wait=0.005)
        start = perf_counter()
        results = annotator.annotate_columns(
            workload, executor="concurrent", workers=8
        )
        seconds = perf_counter() - start

        reference = _make_annotator(data.label_set, cache_size=4096)
        reference_results = reference.annotate_columns(workload)
        assert [r.label for r in results] == [r.label for r in reference_results]
        scheduler = annotator.scheduler_stats
        return {
            "seconds": seconds,
            "columns_per_second": len(workload) / seconds,
            "model_calls": annotator.query_count,
            "model_calls_batched_reference": reference.query_count,
            "hits": annotator.hit_count,
            "workers": 8,
            "scheduler": scheduler,
        }

    info = run_once(benchmark, fan_out)
    benchmark.extra_info.update(info)
    record_bench_result("cross_request_coalescing_fanout8", **info)

    scheduler = info["scheduler"]
    # Every duplicate is submitted while its original is pending, so the
    # coalescing counters are deterministic regardless of thread timing.
    # The fan-out must pay exactly the deduplicated model-call budget —
    # the same count single-threaded batched execution pays (unique prompts
    # plus any resample retries).
    assert info["model_calls"] == info["model_calls_batched_reference"]
    assert scheduler["n_coalesced"] > 0, scheduler
    assert scheduler["n_cross_request_batches"] > 0, scheduler


def _legacy_exact_match(response: str, label_set) -> str | None:
    """The pre-memoization matcher: re-normalizes every label per call."""
    normalized = normalize(response)
    for label in label_set:
        if normalize(label) == normalized:
            return label
    return None


def _legacy_contains_match(response: str, label_set) -> str | None:
    """Pre-memoization CONTAINS: up to three normalizations per label."""
    normalized = normalize(response)
    if not normalized:
        return None
    candidates = [
        label
        for label in label_set
        if normalize(label)
        and (normalize(label) in normalized or normalized in normalize(label))
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda label: len(normalize(label)))


def test_remap_matching_throughput(benchmark, bench_columns):
    """Satellite (ISSUE 3): memoized label normalization in the remap path.

    Replays a stream of model responses against the full SOTAB-91 label set
    (the paper's worst-case inventory) through the exact+contains matcher
    cascade every remapper runs, comparing the memoized matchers against the
    historical per-call-normalization implementation.
    """
    label_set = [label for label, _, _ in SOTAB91_CLASSES]
    # Responses shaped like real model output: in-set answers, decorated
    # answers that need CONTAINS, and out-of-set junk that scans every label.
    responses = []
    for index in range(bench_columns * 20):
        label = label_set[index % len(label_set)]
        responses.extend(
            [label, f"The type is {label}.", f"unrecognized answer {index}"]
        )

    def compare() -> dict[str, float]:
        start = perf_counter()
        legacy_matches = 0
        for response in responses:
            matched = _legacy_exact_match(response, label_set)
            if matched is None:
                matched = _legacy_contains_match(response, label_set)
            legacy_matches += matched is not None
        legacy_seconds = perf_counter() - start

        start = perf_counter()
        memoized_matches = 0
        for response in responses:
            matched = exact_match(response, label_set)
            if matched is None:
                matched = contains_match(response, label_set)
            memoized_matches += matched is not None
        memoized_seconds = perf_counter() - start

        assert memoized_matches == legacy_matches
        return {
            "n_responses": len(responses),
            "n_labels": len(label_set),
            "legacy_seconds": legacy_seconds,
            "memoized_seconds": memoized_seconds,
            "speedup": legacy_seconds / memoized_seconds,
        }

    info = run_once(benchmark, compare)
    benchmark.extra_info.update(info)
    record_bench_result("remap_matching", **info)

    # Removing O(3·|labels|) normalizations per response is a large
    # deterministic win; the ratio assertion is local-only (CI timing noise)
    # but the match-count equivalence above always gates.
    if not os.environ.get("CI"):
        assert info["speedup"] > 1.5, info
