"""One offline repetition in a fresh interpreter.

Set-up time runs from the parent's spawn to "ready" (interpreter start,
package import, annotator/engine/store build); reading the generated inputs
is timed separately and excluded.  The timed region is the whole
``annotate_stream`` pass, consumed to the last result; the moment each
result is yielded is recorded too.  Each column's latency runs from the
moment the stream pulls it from the input iterator to the moment its result
is yielded.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawn")
    parser.add_argument("--cpu", type=int, required=True,
                        help="the one CPU this repetition runs on")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    from repro import ArcheType, ArcheTypeConfig
    from repro.core.store import SQLiteResponseStore
    from repro.llm.registry import get_model

    # Loading the benchmark's own helpers counts as reading the inputs.
    inputs_started = time.monotonic()
    import offline

    columns, label_set = offline.read_inputs(args.inputs)
    inputs_s = time.monotonic() - inputs_started

    model = get_model(offline.MODEL, seed=args.seed)
    model.latency = offline.MODEL_LATENCY
    annotator = ArcheType(
        ArcheTypeConfig(model=model, label_set=label_set, seed=args.seed)
    )
    store = SQLiteResponseStore(args.store)
    annotator.attach_store(store)
    setup_s = time.monotonic() - args.spawned_at - inputs_s

    tracer = None
    if args.trace:
        from tracing import Tracer, install_core

        tracer = Tracer()
        install_core(tracer)

    pulled: list[float] = []

    def feed():
        for column in columns:
            pulled.append(time.perf_counter())
            yield column

    labels: list[str] = []
    latencies: list[float] = []
    yielded: list[float] = []
    cpu_started = time.process_time()
    started = time.perf_counter()
    for position, result in enumerate(annotator.annotate_stream(feed())):
        now = time.perf_counter()
        latencies.append(now - pulled[position])
        yielded.append(now - started)
        labels.append(result.label)
    elapsed = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    store.close()

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
    print(json.dumps({
        "setup_s": setup_s,
        "inputs_s": inputs_s,
        "elapsed_s": elapsed,
        "cpu_s": cpu_s,
        "cols_per_s": len(labels) / elapsed,
        "latencies_s": latencies,
        "yielded_s": yielded,
        "labels": labels,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "query_stats": annotator.engine.stats.as_dict(),
        "scheduler_stats": annotator.scheduler_stats,
        "spans_path": str(args.spans) if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
