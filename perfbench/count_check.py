#!/usr/bin/env python3
"""Check that the count proxies repeat exactly across runs with one seed.

Usage (from the root of a source checkout)::

    python3 perfbench/count_check.py [--seed 7] [--columns 200]

Runs the traced ``offline-cold`` and ``offline-warm`` workloads twice each
with the same seed and asserts that every count proxy
(``layers.COUNT_PROXIES``) reads the same in every traced repetition of both
runs.  A later change may claim a difference in one of these as a count only
because this holds.  Exits 0 when they repeat, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import BENCH_DIR, OUT_DIR, log
from layers import COUNT_PROXIES


def traced_counts(workload: str, seed: int, columns: int) -> list[dict[str, float]]:
    """The count proxies of every traced repetition of one fresh run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1",
         "--columns", str(columns)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} run exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]:
        raise SystemExit(f"{workload} run was not correct:\n{proc.stderr[-4000:]}")
    record = json.loads(
        (OUT_DIR / f"result-{workload}-s{seed}-t1.json").read_text(encoding="utf-8")
    )
    return record["details"]["per_rep_count_proxies"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--columns", type=int, default=200)
    args = parser.parse_args()

    ok = True
    for workload in ("offline-cold", "offline-warm"):
        reps = traced_counts(workload, args.seed, args.columns)
        reps += traced_counts(workload, args.seed, args.columns)
        for name in COUNT_PROXIES:
            values = [rep[name] for rep in reps]
            same = len(set(values)) == 1
            ok &= same
            log(f"{workload:13s} {name:34s} {'repeats' if same else 'DIFFERS'} {values}")
    print("count proxies repeat exactly" if ok else "count proxies differ")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
