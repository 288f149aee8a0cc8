"""The offline workloads: ``offline-cold`` (write path) and ``offline-warm``
(read path).

Both run ``ArcheType.annotate_stream`` with the default batched executor over
unique SOTAB-91 columns, in a fresh child process per repetition
(``offline_child.py``), against a ``SimulatedLLM`` with a 10 ms round trip.
The columns are generated once per run from the seed and handed to each
child as a JSON file, so the program receives only the generated inputs.

* ``offline-cold`` gives every repetition a fresh SQLite store, so every
  layer pays full cost: planning (the 91-label skeleton is the paper's
  largest inventory), the scheduler's model tier, the model, store writes
  and remap requeries.
* ``offline-warm`` replays against a store populated by the golden pass,
  outside the timed region and outside set-up.  Every prompt is a store hit
  and the model is never called, so the run measures only the system's own
  overhead: planning, store reads with LRU promotion, and remap.

The golden labels come from ``annotate_column`` over the same columns with
the same config and seed, computed in this process before any repetition
(with a zero-latency model: latency never changes a completion).

Every repetition of a run annotates the same columns, so each short stretch
of the stream is timed by the best quarter of its samples across
repetitions (``common.best_quarter``); see ``_summary``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import BENCH_DIR, OUT_DIR, best_quarter, child_env, log, median, percentile

#: Simulated model round trip, seconds per model call.
MODEL_LATENCY = 0.01
MODEL = "gpt"
#: Unique SOTAB-91 columns per repetition.
DEFAULT_COLUMNS = 1000
#: Columns per timed stretch of the stream (see ``_summary``).
SEGMENT = 25
#: Repetitions of each kind (untraced / traced) a run makes at least.
MIN_REPS = 4
CHILD_TIMEOUT_S = 120


def make_columns(seed: int, n_columns: int) -> tuple[list[Any], list[str]]:
    """``n_columns`` unique SOTAB-91 columns (by value list, without their
    ground-truth label) and the label set."""
    from repro import Column
    from repro.datasets.sotab import load_sotab91

    benchmark = load_sotab91(n_columns=n_columns, n_train_columns=0, seed=seed)
    seen: set[tuple[str, ...]] = set()
    columns = []
    for bench_column in benchmark.columns:
        key = tuple(bench_column.column.values)
        if key not in seen:
            seen.add(key)
            columns.append(Column(values=list(key), name=bench_column.column.name))
    return columns, list(benchmark.label_set)


def write_inputs(path: Path, columns: list[Any], label_set: list[str]) -> None:
    path.write_text(json.dumps({
        "label_set": label_set,
        "columns": [{"name": column.name, "values": column.values} for column in columns],
    }), encoding="utf-8")


def read_inputs(path: Path) -> tuple[list[Any], list[str]]:
    from repro import Column

    inputs = json.loads(path.read_text(encoding="utf-8"))
    columns = [Column(values=column["values"], name=column["name"])
               for column in inputs["columns"]]
    return columns, inputs["label_set"]


def golden(
    seed: int, columns: list[Any], label_set: list[str], store_path: Path | None
) -> tuple[list[str], int]:
    """The sequential golden labels and model-query count; with
    ``store_path`` the pass also populates that store for warm replays."""
    from repro import ArcheType, ArcheTypeConfig
    from repro.core.store import SQLiteResponseStore
    from repro.llm.registry import get_model

    annotator = ArcheType(ArcheTypeConfig(
        model=get_model(MODEL, seed=seed), label_set=label_set, seed=seed
    ))
    store = SQLiteResponseStore(store_path) if store_path is not None else None
    annotator.attach_store(store)
    try:
        labels = [annotator.annotate_column(column).label for column in columns]
    finally:
        if store is not None:
            store.close()
    return labels, annotator.query_count


def _run_child(
    seed: int, inputs: Path, store: Path, trace: bool, spans: Path, cpu: int
) -> dict[str, Any]:
    command = [
        sys.executable, str(BENCH_DIR / "offline_child.py"),
        "--seed", str(seed), "--inputs", str(inputs), "--store", str(store),
        "--trace", "1" if trace else "0", "--spans", str(spans), "--cpu", str(cpu),
    ]
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    proc = subprocess.run(
        command, capture_output=True, text=True, env=child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"offline child exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(
    workload: str, rep: dict[str, Any], expected: list[str], golden_queries: int
) -> list[str]:
    """Every violation in one repetition, as a printable line."""
    problems = []
    labels = rep["labels"]
    if len(labels) != len(expected):
        problems.append(f"{len(labels)} labels for {len(expected)} columns")
    for index, (got, want) in enumerate(zip(labels, expected)):
        if got != want:
            problems.append(f"column {index}: label {got!r} != golden {want!r}")
    stats = rep["query_stats"]
    tiers = (stats["n_cache_hits"] + stats["n_store_hits"]
             + stats["n_inflight_hits"] + stats["n_queries"])
    if stats["n_prompts"] != tiers:
        problems.append(
            f"n_prompts {stats['n_prompts']} != cache+store+inflight+queries {tiers}"
        )
    if workload == "offline-warm" and stats["n_queries"] != 0:
        problems.append(f"warm replay issued {stats['n_queries']} model queries")
    if workload == "offline-cold" and stats["n_queries"] != golden_queries:
        problems.append(
            f"cold run issued {stats['n_queries']} model queries, golden path "
            f"{golden_queries}"
        )
    return problems


def _segment_times(yielded: list[float]) -> list[float]:
    """Seconds each ``SEGMENT``-column stretch of the stream took, from the
    yield that ended the previous stretch to the yield that ends this one."""
    ends = list(range(SEGMENT - 1, len(yielded), SEGMENT))
    if not ends or ends[-1] != len(yielded) - 1:
        ends.append(len(yielded) - 1)
    marks = [0.0] + [yielded[end] for end in ends]
    return [later - earlier for earlier, later in zip(marks, marks[1:])]


def _summary(reps: list[dict[str, Any]]) -> dict[str, float]:
    """End-to-end metrics of one kind of repetition (untraced or traced).

    Every repetition does the same work over the same columns, so each
    stretch of the stream and each column is timed by the best quarter of
    its own samples across repetitions: the rate is all columns over the
    sum of the stretches' times, and the latency percentiles are taken over
    the columns' times."""
    segments = [_segment_times(rep["yielded_s"]) for rep in reps]
    best_segments = [best_quarter(list(samples), higher_is_better=False)
                     for samples in zip(*segments)]
    latencies = sorted(best_quarter(list(samples), higher_is_better=False)
                       for samples in zip(*(rep["latencies_s"] for rep in reps)))
    cols_per_s = len(latencies) / sum(best_segments)
    return {
        "setup_s": best_quarter([rep["setup_s"] for rep in reps], higher_is_better=False),
        "cols_per_s": cols_per_s,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        # The stream always has work queued, so the offline rate is the
        # sustained ceiling by construction.
        "sat_cols_per_s": cols_per_s,
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }


def run(
    workload: str, seed: int, seconds: float, trace: bool, n_columns: int | None
) -> dict[str, Any]:
    import layers
    from tracing import load_spans

    n_columns = n_columns or DEFAULT_COLUMNS
    run_dir = OUT_DIR / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        columns, label_set = make_columns(seed, n_columns)
        inputs = run_dir / "inputs.json"
        write_inputs(inputs, columns, label_set)
        warm_store = run_dir / "warm.sqlite" if workload == "offline-warm" else None
        log(f"{workload}: golden pass over {len(columns)} columns ...")
        expected, golden_queries = golden(seed, columns, label_set, warm_store)

        # Untraced and traced repetitions alternate in a traced run, so the
        # tracing overhead is measured under the same conditions.
        kinds = [False, True] if trace else [False]
        # Each repetition runs on one CPU, the CPUs in turn: on a shared
        # host each CPU slows down on its own, as other tenants come and go,
        # so the best quarter draws on whichever CPU was quick at the time.
        cpus = sorted(os.sched_getaffinity(0))
        reps: dict[bool, list[dict[str, Any]]] = {False: [], True: []}
        problems: list[str] = []
        attempted = 0
        started = time.monotonic()
        while (time.monotonic() - started < seconds
               or min(len(reps[kind]) for kind in kinds) < MIN_REPS):
            for traced in kinds:
                index = len(reps[False]) + len(reps[True])
                store = warm_store or run_dir / f"cold-{index}.sqlite"
                cpu = cpus[len(reps[traced]) % len(cpus)]
                rep = _run_child(
                    seed, inputs, store, traced, run_dir / f"spans-{index}.jsonl", cpu
                )
                if warm_store is None:
                    for suffix in ("", "-wal", "-shm"):
                        Path(f"{store}{suffix}").unlink(missing_ok=True)
                attempted += len(columns)
                problems += [f"rep {index}: {p}" for p in
                             _check(workload, rep, expected, golden_queries)]
                reps[traced].append(rep)
                log(f"{workload}: rep {index} traced={int(traced)} "
                    f"{rep['cols_per_s']:.1f} col/s setup {rep['setup_s']:.3f} s")

        end_to_end = _summary(reps[False])
        plain = reps[False]
        details: dict[str, Any] = {
            "columns": len(columns),
            "repetitions": len(plain),
            "per_rep": [
                {name: rep[name] for name in
                 ("cols_per_s", "elapsed_s", "cpu_s", "setup_s", "peak_rss_mb")}
                for rep in plain
            ],
            "query_stats": plain[-1]["query_stats"],
            "scheduler_stats": plain[-1]["scheduler_stats"],
            "golden_queries": golden_queries,
        }
        per_layer: dict[str, float] = {}
        if trace:
            per_rep = [
                layers.pipeline_metrics(
                    load_spans(Path(rep["spans_path"])), rep["query_stats"],
                    rep["scheduler_stats"],
                )
                for rep in reps[True]
            ]
            per_layer = {name: median([m[name] for m in per_rep]) for name in per_rep[0]}
            traced_summary = _summary(reps[True])
            per_layer["trace.delta_cols_per_s"] = (
                traced_summary["cols_per_s"] - end_to_end["cols_per_s"]
            )
            per_layer["trace.delta_p50_ms"] = traced_summary["p50_ms"] - end_to_end["p50_ms"]
            details["per_rep_count_proxies"] = [
                {name: m[name] for name in layers.COUNT_PROXIES} for m in per_rep
            ]
        return {
            "attempted": attempted,
            "problems": problems,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "details": details,
            "notes": {name: f"  ({len(columns)} columns, each timed over "
                            f"{len(plain)} repetitions)"
                      for name in ("p50_ms", "p99_ms")},
        }
    finally:
        # Stores are scratch; the span dumps are kept for inspection.
        for path in run_dir.glob("*.sqlite*"):
            path.unlink(missing_ok=True)
