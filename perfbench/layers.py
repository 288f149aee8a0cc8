"""Per-layer metrics computed from a span dump and the program's counters.

A layer's *self time* is the time inside its outermost spans minus the part
of that interval covered by spans of other layers beneath them (a span of
the same layer nested inside — ``SimpleTokenizer.truncate`` calling
``count``, ``ContainsResampleRemapper`` delegating to ``ResampleRemapper`` —
is part of the layer, not a child of it).  Per-column figures divide by the
number of columns planned in the traced segment.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from common import percentile

ID, PARENT, NAME, START, END, THREAD, REQUEST, EXTRA = range(8)

#: Every per-layer metric and its unit, in report order.  BENCHMARK.json
#: lists the same names; ``README.md`` says which end-to-end metric each
#: one should move.
LAYER_UNITS: dict[str, str] = {
    "plan.us_per_col": "us/col",
    "sampling.us_per_col": "us/col",
    "features.us_per_col": "us/col",
    "serialization.us_per_col": "us/col",
    "serialization.tokens_per_prompt": "tokens",
    "tokenizer.calls_per_col": "calls/col",
    "tokenizer.us_per_col": "us/col",
    "executor.us_per_col": "us/col",
    "scheduler.submit_us": "us",
    "scheduler.wait_ms_per_col": "ms/col",
    "scheduler.cache_frac": "fraction",
    "scheduler.store_frac": "fraction",
    "scheduler.inflight_frac": "fraction",
    "scheduler.model_frac": "fraction",
    "scheduler.batch_size_mean": "prompts",
    "scheduler.cross_request_batch_frac": "fraction",
    "scheduler.max_queue_depth": "count",
    "model.calls_per_col": "calls/col",
    "model.prompts_per_call": "prompts",
    "model.busy_ms_per_call": "ms",
    "store.get_us": "us",
    "store.put_us": "us",
    "store.gets_per_col": "calls/col",
    "store.puts_per_col": "calls/col",
    "store.get_hit_frac": "fraction",
    "remap.us_per_col": "us/col",
    "remap.requeries_per_col": "calls/col",
    "remap.requery_ms_per_col": "ms/col",
    "remap.remapped_frac": "fraction",
    "protocol.parse_us": "us",
    "protocol.encode_us": "us",
    "admission.admit_us": "us",
    "admission.refused_frac": "fraction",
    "handlers.pool_wait_ms": "ms",
    "handlers.job_ms": "ms",
    "server.dispatch_ms_p50": "ms",
    "server.dispatch_ms_p99": "ms",
    "loadgen.lag_ms_p99": "ms",
    "loadgen.ref_sent": "count",
    "loadgen.ref_ok": "count",
    "loadgen.ref_failed": "count",
    "loadgen.ref_refused": "count",
    "loadgen.sat_sent": "count",
    "loadgen.sat_ok": "count",
    "loadgen.sat_failed": "count",
    "loadgen.sat_refused": "count",
    "trace.delta_cols_per_s": "columns/s",
    "trace.delta_p50_ms": "ms",
}

#: Count proxies: deterministic for one seed on the offline workloads, so a
#: later change may claim a difference in them as a count.
COUNT_PROXIES = (
    "tokenizer.calls_per_col",
    "model.calls_per_col",
    "scheduler.batch_size_mean",
    "remap.requeries_per_col",
    "serialization.tokens_per_prompt",
)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start  # type: ignore[operator]
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start  # type: ignore[operator]
    return total


class SpanIndex:
    """Spans grouped by name and by parent, for the metric formulas."""

    def __init__(self, spans: Iterable[list[Any]]) -> None:
        self.by_id: dict[int, list[Any]] = {}
        self.children: dict[int, list[list[Any]]] = defaultdict(list)
        self.by_name: dict[str, list[list[Any]]] = defaultdict(list)
        for span in spans:
            self.by_id[span[ID]] = span
            self.children[span[PARENT]].append(span)
            self.by_name[span[NAME]].append(span)

    def outermost(self, name: str) -> list[list[Any]]:
        """Spans of ``name`` not nested inside another span of ``name``."""
        return [
            span for span in self.by_name.get(name, [])
            if self.by_id.get(span[PARENT], [None] * 8)[NAME] != name
        ]

    def self_seconds(self, name: str) -> float:
        total = 0.0
        for span in self.outermost(name):
            foreign: list[tuple[float, float]] = []
            stack = list(self.children.get(span[ID], []))
            while stack:
                child = stack.pop()
                if child[NAME] == name:
                    stack.extend(self.children.get(child[ID], []))
                else:
                    foreign.append((child[START], child[END]))
            total += (span[END] - span[START]) - _covered(foreign)
        return total

    def total_seconds(self, name: str) -> float:
        return sum(span[END] - span[START] for span in self.outermost(name))

    def durations(self, name: str) -> list[float]:
        return [span[END] - span[START] for span in self.outermost(name)]

    def extras(self, name: str) -> list[Any]:
        return [span[EXTRA] for span in self.outermost(name) if span[EXTRA] is not None]


def pipeline_metrics(
    spans: Iterable[list[Any]],
    query_stats: dict[str, int],
    scheduler_stats: dict[str, Any],
) -> dict[str, float]:
    """Planning, scheduler, model, store, remap and executor metrics."""
    index = SpanIndex(spans)
    cols = max(len(index.outermost("plan")), 1)
    per_col_us = lambda seconds: seconds * 1e6 / cols  # noqa: E731
    metrics: dict[str, float] = {
        "plan.us_per_col": per_col_us(index.total_seconds("plan")),
        "sampling.us_per_col": per_col_us(index.self_seconds("sampling")),
        "features.us_per_col": per_col_us(index.self_seconds("features")),
        "serialization.us_per_col": per_col_us(index.self_seconds("serialization")),
        "serialization.tokens_per_prompt": _mean(index.extras("serialization")),
        "tokenizer.calls_per_col": len(index.outermost("tokenizer")) / cols,
        "tokenizer.us_per_col": per_col_us(index.total_seconds("tokenizer")),
        "executor.us_per_col": per_col_us(index.self_seconds("executor")),
    }

    submits = index.outermost("scheduler.submit")
    metrics["scheduler.submit_us"] = (
        index.self_seconds("scheduler.submit") * 1e6 / len(submits) if submits else 0.0
    )
    metrics["scheduler.wait_ms_per_col"] = index.self_seconds("scheduler.wait") * 1e3 / cols
    prompts = max(query_stats.get("n_prompts", 0), 1)
    metrics["scheduler.cache_frac"] = query_stats.get("n_cache_hits", 0) / prompts
    metrics["scheduler.store_frac"] = query_stats.get("n_store_hits", 0) / prompts
    metrics["scheduler.inflight_frac"] = query_stats.get("n_inflight_hits", 0) / prompts
    metrics["scheduler.model_frac"] = query_stats.get("n_queries", 0) / prompts
    histogram = {int(size): count for size, count in
                 scheduler_stats.get("batch_size_histogram", {}).items()}
    n_batches = sum(histogram.values())
    metrics["scheduler.batch_size_mean"] = (
        sum(size * count for size, count in histogram.items()) / n_batches
        if n_batches else 0.0
    )
    metrics["scheduler.cross_request_batch_frac"] = (
        scheduler_stats.get("n_cross_request_batches", 0) / n_batches if n_batches else 0.0
    )
    metrics["scheduler.max_queue_depth"] = float(scheduler_stats.get("max_queue_depth", 0))

    model_calls = index.durations("model")
    metrics["model.calls_per_col"] = len(model_calls) / cols
    metrics["model.prompts_per_call"] = _mean([float(n) for n in index.extras("model")])
    metrics["model.busy_ms_per_call"] = _mean(model_calls) * 1e3

    gets = index.durations("store.get")
    puts = index.durations("store.put")
    metrics["store.get_us"] = _mean(gets) * 1e6
    metrics["store.put_us"] = _mean(puts) * 1e6
    metrics["store.gets_per_col"] = len(gets) / cols
    metrics["store.puts_per_col"] = len(puts) / cols
    hits = index.extras("store.get")
    metrics["store.get_hit_frac"] = sum(hits) / len(hits) if hits else 0.0

    metrics["remap.us_per_col"] = per_col_us(index.self_seconds("remap"))
    requeries = index.durations("remap.requery")
    metrics["remap.requeries_per_col"] = len(requeries) / cols
    metrics["remap.requery_ms_per_col"] = sum(requeries) * 1e3 / cols
    remapped = index.extras("remap")
    metrics["remap.remapped_frac"] = sum(remapped) / len(remapped) if remapped else 0.0
    return metrics


def service_metrics(spans: Iterable[list[Any]]) -> dict[str, float]:
    """Protocol, admission, handler and dispatch metrics (server spans)."""
    index = SpanIndex(spans)
    admits = index.extras("admission.admit")
    dispatch = sorted(index.durations("server.dispatch"))
    pool_waits = []
    for job in index.outermost("handlers.job"):
        owner = index.by_id.get(job[PARENT])
        if owner is not None:
            pool_waits.append(job[START] - owner[START])
    return {
        "protocol.parse_us": _mean(index.durations("protocol.parse")) * 1e6,
        "protocol.encode_us": _mean(index.durations("protocol.encode")) * 1e6,
        "admission.admit_us": _mean(index.durations("admission.admit")) * 1e6,
        "admission.refused_frac": (
            sum(1 for admitted in admits if not admitted) / len(admits) if admits else 0.0
        ),
        "handlers.pool_wait_ms": _mean(pool_waits) * 1e3,
        "handlers.job_ms": _mean(index.durations("handlers.job")) * 1e3,
        "server.dispatch_ms_p50": percentile(dispatch, 0.50) * 1e3,
        "server.dispatch_ms_p99": percentile(dispatch, 0.99) * 1e3,
    }


def complete(metrics: dict[str, float]) -> dict[str, dict[str, object]]:
    """Every per-layer metric with its unit; a layer the workload does not
    run reads 0 (no calls, no time)."""
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in LAYER_UNITS.items()
    }
