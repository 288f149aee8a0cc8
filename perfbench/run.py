#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload offline-cold --seed 1 --seconds 40 --trace 0

Workloads (``README.md`` says why each one exists and why ``BENCHMARK.json``
gates only ``offline-cold`` and ``serve-open``):

* ``offline-cold`` — ``annotate_stream`` over unique SOTAB-91 columns with a
  fresh store: the write path, every layer at full cost;
* ``offline-warm`` — the same columns replayed against a populated store:
  the read path, zero model calls;
* ``serve-open`` — ``repro serve`` under an open-loop SOTAB-27 request mix,
  a reference phase below saturation and an overload phase above it.

``--trace 0`` measures the end-to-end metrics with tracing off; each timing
is the median of the best quarter of many short samples (see ``README.md``).
``--trace 1`` is the separate traced run: it wraps each layer's public
functions from the benchmark's own files and reports the per-layer metrics,
plus the tracing overhead as traced-minus-untraced ``cols_per_s`` and
``p50_ms``.  Every run checks every output against the sequential golden
path and the prompt-accounting invariant; violations are printed and counted
as failures.  Progress and violations go to stderr, a summary table and the
result line to stdout; the last stdout line is the result JSON.  The full
record (context, per-repetition figures, counters) is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import OUT_DIR, SRC, have_sources, load_average, log, run_context, write_json

WORKLOADS = ("offline-cold", "offline-warm", "serve-open")

#: End-to-end metrics and units, reported by every workload.
END_TO_END_UNITS = {
    "setup_s": "s",
    "cols_per_s": "columns/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "sat_cols_per_s": "columns/s",
    "peak_rss_mb": "MB",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--columns", type=int, default=None,
                        help="offline: unique columns per repetition "
                             "(default 500); for quick checks only")
    args = parser.parse_args(argv)
    if not have_sources():
        print("error: no src/repro package next to the benchmark; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))

    context = run_context(args.seed)
    started = time.monotonic()
    if args.workload == "serve-open":
        import serve

        outcome = serve.run(args.seed, args.seconds, bool(args.trace))
    else:
        import offline

        outcome = offline.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.columns
        )
    context["loadavg_end"] = load_average()
    context["wall_s"] = time.monotonic() - started

    problems: list[str] = outcome["problems"]
    for problem in problems:
        log(f"FAIL: {problem}")
    if outcome.get("invalid"):
        log(f"INVALID RUN: {outcome['invalid']}")
        return 1

    import layers

    end_to_end = {
        name: {"value": float(outcome["end_to_end"][name]), "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
    per_layer = layers.complete(outcome["per_layer"]) if args.trace else {}
    attempted = int(outcome["attempted"])
    # Each violation fails one attempted operation (at most all of them).
    failed = min(len(problems), attempted)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "context": context,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "problems": problems[:200],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "details": outcome["details"],
    }
    write_json(
        OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", record
    )

    shown = per_layer if args.trace else end_to_end
    notes = outcome.get("notes", {})
    for name, metric in {**end_to_end, **shown}.items():
        print(f"{args.workload:13s} {name:36s} {metric['value']:14.4f} {metric['unit']}"
              f"{notes.get(name, '')}")
    print(f"{args.workload:13s} {'fail_frac':36s} {record['fail_frac']:14.4f} "
          f"share of {attempted} attempted")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
