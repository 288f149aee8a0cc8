"""CI gate for the experiment suite: warm replays and resumes cost 0 queries.

Runs the whole registered suite four times against one persistent store
under ``--cache-dir``:

1. **cold** — pays every model call and fills the response store;
2. **warm** — must complete every experiment with **zero** model queries and
   produce bit-identical per-experiment metrics;
3. **resumed** — resumes the warm pass's suite run id, so every shard must
   come back replayed from the suite journal (``cached``), with **zero** on
   every run counter (``RUN_COUNTERS``: no queries, hits or batches) and the
   cold pass's metrics;
4. **resumed-cold** — the same gates, resuming the cold pass's run id.  Its
   journal records model queries, batches and coalesced requests, so a
   replay that reports the recorded run's work as its own shows here; the
   warm journal holds store hits alone.

Exits non-zero if any experiment fails, the warm pass touched the model, a
resumed pass reported any run counter, a resumed shard re-ran, or any metric
diverged from the cold pass.
``results.json`` and ``REPORT.md`` from each pass are left under
``<cache-dir>/<pass>/`` (``cold``, ``warm``, ``resumed``, ``resumed-cold``)
so CI can upload them as artifacts.

Usage::

    python scripts/suite_repro_check.py [--cache-dir DIR] [--jobs N]
                                        [--full] [--seed N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.eval.runner import RUN_COUNTERS  # noqa: E402
from repro.experiments.suite import SuiteOptions, run_suite  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default="suite-cache")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full-scale grids instead of --quick "
        "(the nightly configuration)",
    )
    args = parser.parse_args(argv)
    cache_dir = Path(args.cache_dir)

    # Each resumed pass names the pass whose suite run id it resumes.
    resumes = {"resumed": "warm", "resumed-cold": "cold"}
    passes = {}
    for label in ("cold", "warm", *resumes):
        print(f"=== {label} pass ===", flush=True)
        resume = passes[resumes[label]].suite_run_id if label in resumes else None
        passes[label] = run_suite(
            SuiteOptions(
                quick=not args.full,
                jobs=args.jobs,
                seed=args.seed,
                cache_dir=cache_dir,
                resume=resume,
                output_dir=cache_dir / label,
            )
        )

    failures: list[str] = []
    for label, result in passes.items():
        for experiment in result.experiments:
            if experiment.status != "ok":
                failures.append(
                    f"{label}: {experiment.name} failed: "
                    f"{'; '.join(experiment.errors)}"
                )
    cold_metrics = {e.name: e.metrics for e in passes["cold"].experiments}
    for label in ("warm", *resumes):
        # The warm pass is answered by the store; a resumed pass replays
        # the journal, which touches no tier and drains no batch.
        totals = passes[label].totals
        checked = ("n_queries",) if label == "warm" else RUN_COUNTERS
        paid = {name: totals[name] for name in checked if totals[name] != 0}
        if paid:
            failures.append(
                f"{label} pass reported {paid}; the persistent store and "
                "the suite journal should have answered everything"
            )
        pass_metrics = {e.name: e.metrics for e in passes[label].experiments}
        if cold_metrics != pass_metrics:
            diverged = sorted(
                name
                for name in cold_metrics
                if cold_metrics[name] != pass_metrics.get(name)
            )
            failures.append(
                f"{label} metrics diverged from cold for: {', '.join(diverged)}"
            )
    for label in resumes:
        rerun = [
            f"{experiment.name}/{shard['shard']}"
            for experiment in passes[label].experiments
            for shard in experiment.shards
            if not shard["cached"]
        ]
        if rerun:
            failures.append(
                f"{label} pass re-ran {len(rerun)} journalled shards: "
                f"{', '.join(rerun)}"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    n_shards = sum(len(e.shards) for e in passes["resumed"].experiments)
    print(
        f"OK: warm suite replay issued 0 model queries "
        f"({passes['warm'].totals['n_store_hits']} store hits) and "
        f"reproduced all {len(cold_metrics)} experiments bit-identically; "
        f"both resumes replayed all {n_shards} shards from the journal"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
