"""CI gate for the persistence layer: warm reruns must issue 0 model queries.

Runs the same quick evaluation twice against one persistent store under
``--cache-dir``.  The first (cold) run pays every model call and fills the
store; the second (warm) run must reproduce the same predictions while
issuing **zero** model queries — the whole point of the on-disk
``(prompt, params) → response`` tier.  Exits non-zero if the warm run touched
the model or diverged, printing both summary rows either way.

The run manifests written under ``<cache-dir>/runs/<run_id>/manifest.jsonl``
are left in place so CI can upload them as artifacts.

Usage::

    python scripts/warm_store_check.py [--cache-dir DIR] [--columns N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.baselines.llm_baselines import get_zero_shot_method  # noqa: E402
from repro.datasets.registry import load_benchmark  # noqa: E402
from repro.eval.reporting import format_table  # noqa: E402
from repro.eval.runner import ExperimentRunner  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default="warm-store-cache")
    parser.add_argument("--columns", type=int, default=60)
    parser.add_argument("--benchmark", default="sotab-27")
    parser.add_argument("--model", default="t5")
    args = parser.parse_args(argv)

    benchmark = load_benchmark(args.benchmark, n_columns=args.columns, seed=0)

    def run():
        # Run ids are generated (not fixed names) so repeated invocations
        # against the same cache directory never collide with the manifests
        # earlier runs deliberately leave behind.
        annotator = get_zero_shot_method(
            "archetype", benchmark, model=args.model, seed=0
        )
        runner = ExperimentRunner(cache_dir=args.cache_dir)
        return runner.evaluate(annotator, benchmark, f"archetype-{args.model}")

    cold = run()
    warm = run()

    print(format_table([cold.summary_row(), warm.summary_row()],
                       title=f"{args.benchmark}: cold vs warm store rerun"))

    failures = []
    if cold.n_queries == 0:
        failures.append(
            "first run issued zero queries — the store under "
            f"{args.cache_dir!r} is already warm, so this check is vacuous; "
            "point --cache-dir at a fresh directory"
        )
    if warm.n_queries != 0:
        failures.append(
            f"warm run issued {warm.n_queries} model queries (expected 0)"
        )
    if warm.predictions != cold.predictions:
        failures.append("warm predictions diverged from the cold run")
    if not failures:
        print(f"\nOK: warm rerun served {warm.n_store_hits} prompts from the "
              "store with 0 model queries "
              f"(cold run issued {cold.n_queries}).")
        return 0
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
