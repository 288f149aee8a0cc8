"""Benchmark: warm persistent-store reruns vs. cold runs.

The acceptance bar for the persistence layer (ISSUE 3): rerunning the same
evaluation against a warmed store must issue ~0 model queries — the workload
degrades to planning plus disk reads, which is exactly the cost profile that
makes replaying SOTAB-scale experiments (or resuming crashed ones) cheap.
"""

from __future__ import annotations

import os
from time import perf_counter

from _harness import record_bench_result, run_once

from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.datasets.registry import load_benchmark
from repro.eval.runner import ExperimentRunner


def _make_annotator(label_set) -> ArcheType:
    return ArcheType(
        ArcheTypeConfig(
            model="gpt",
            label_set=label_set,
            sample_size=5,
            sampler="archetype",
            seed=17,
        )
    )


def test_warm_store_rerun_issues_zero_queries(benchmark, bench_columns, tmp_path):
    data = load_benchmark("sotab-27", n_columns=bench_columns, seed=11)
    cache_dir = tmp_path / "cache"

    def cold_then_warm() -> dict[str, float]:
        runner = ExperimentRunner(cache_dir=cache_dir)

        start = perf_counter()
        cold = runner.evaluate(_make_annotator(data.label_set), data, "archetype")
        cold_seconds = perf_counter() - start

        start = perf_counter()
        warm = ExperimentRunner(cache_dir=cache_dir).evaluate(
            _make_annotator(data.label_set), data, "archetype"
        )
        warm_seconds = perf_counter() - start

        assert warm.predictions == cold.predictions
        return {
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / warm_seconds,
            "model_calls_cold": cold.counters["n_queries"],
            "model_calls_warm": warm.counters["n_queries"],
            "store_hits_warm": warm.counters["n_store_hits"],
        }

    info = run_once(benchmark, cold_then_warm)
    benchmark.extra_info.update(info)
    record_bench_result("warm_store_sqlite", **info)

    # The acceptance assertions are deterministic: a warm rerun re-pays zero
    # model calls, serving every executed prompt from disk.
    assert info["model_calls_cold"] > 0
    assert info["model_calls_warm"] == 0
    assert info["store_hits_warm"] > 0
    # Wall-clock gates are local-only (shared CI runners are noise-prone);
    # CI relies on the zero-model-call assertion above.
    if not os.environ.get("CI"):
        assert info["speedup"] > 1.0, info
