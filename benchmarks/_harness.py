"""Helpers shared by the benchmark suite.

Kept outside ``conftest.py`` so benchmark modules can import them explicitly:
under ``--import-mode=importlib`` (the repo-wide pytest import mode) test
modules cannot ``from conftest import ...``, because conftest files are loaded
as plugins rather than as importable siblings.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

#: Benchmark records registered by the session, keyed by benchmark name.
#: ``conftest.pytest_sessionfinish`` serializes these into the
#: machine-readable ``BENCH_<shortsha>.json`` artifact (CI uploads it from the
#: bench-regression job, so perf trajectories are diffable across commits).
_BENCH_RESULTS: dict[str, dict] = {}


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    Experiment harnesses are deterministic and expensive relative to
    micro-benchmarks, so a single round gives a representative wall-clock
    figure without multiplying the suite's runtime.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def record_bench_result(name: str, **data: object) -> None:
    """Register one benchmark's machine-readable results for the artifact."""
    _BENCH_RESULTS[name] = dict(data)


def default_bench_results_path(directory: Path) -> Path:
    """The per-commit artifact path: ``BENCH_<shortsha>.json``.

    One file per commit turns the benchmark output into a trajectory — keep
    a few around locally and ``scripts/bench_regression_check.py`` (or a
    plain diff) shows how the numbers moved.  Falls back to
    ``BENCH_unknown.json`` outside a git checkout.
    """
    from repro.experiments.suite import git_sha

    sha = git_sha()
    short = sha[:10] if sha and sha != "unknown" else "unknown"
    return directory / f"BENCH_{short}.json"


def write_bench_results(
    path: str | Path, bench_columns: int | None = None
) -> Path | None:
    """Write ``BENCH_RESULTS.json``; returns the path (None when no data)."""
    if not _BENCH_RESULTS:
        return None
    from repro.experiments.suite import git_sha

    payload = {
        "schema_version": 1,
        "git_sha": git_sha(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "bench_columns": bench_columns,
        "benchmarks": _BENCH_RESULTS,
    }
    target = Path(path)
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    return target
