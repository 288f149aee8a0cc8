#!/usr/bin/env python
"""Open-loop load check for the annotation service.

Replays SOTAB traffic against a live ``repro serve`` instance and verifies
the service-level guarantees that make annotation-as-a-service worth having:

* **correctness under concurrency** — every label returned over HTTP must
  match the sequential in-process golden path (same model, seed, sample
  size), independent of client count, arrival order, or coalescing;
* **shared warm tier** — replaying the identical workload against the
  already-warm service must issue **zero** new model queries;
* **cross-request batching** — concurrent single-column requests must
  actually coalesce into shared model batches
  (``scheduler.n_cross_request_batches > 0``), the economics the scheduler
  exists for.

Load is generated **open-loop**: request arrival times are scheduled up
front at ``--rate`` requests/second and latency is measured from the
*scheduled* arrival, not the send, so a slow server shows up as growing
latency instead of silently throttling the generator (no coordinated
omission).  The workload interleaves every column with an immediate
duplicate, exercising in-flight dedup and the LRU across sockets.

By default the script spawns ``python -m repro.cli serve --port 0`` as a
subprocess, parses the announced port, and SIGTERMs it at the end (asserting
a clean drained exit); point ``--url`` at an already-running instance to
skip that.  ``--report`` writes the full JSON report, ``--bench-append``
merges a ``service_load`` record into the newest ``benchmarks/BENCH_*.json``
artifact so ``scripts/bench_regression_check.py`` can gate service
throughput, and ``--quick`` selects the small CI shape.  Both also carry
the cold pass's model calls per column and mean prompts per model batch
(from ``/stats``), so the trade between latency and batching stays visible.

Exit code 0 iff every check passes.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))

from repro.core.pipeline import ArcheType, ArcheTypeConfig  # noqa: E402
from repro.datasets.registry import load_benchmark  # noqa: E402

_ANNOUNCE = re.compile(r"listening on http://[^:]+:(\d+)")


# --------------------------------------------------------------- workload
def build_workload(
    benchmark_name: str, n_columns: int, seed: int
) -> tuple[list[dict], list[str], list[str]]:
    """The request bodies, their expected labels, and the label set.

    Each benchmark column appears twice back-to-back (the duplicate must be
    answered from the in-flight dedup set or the LRU, never the model).
    """
    benchmark = load_benchmark(benchmark_name, n_columns=n_columns, seed=seed)
    label_set = list(benchmark.label_set)
    golden = ArcheType(
        ArcheTypeConfig(model="gpt", label_set=label_set, seed=seed)
    )
    bodies: list[dict] = []
    expected: list[str] = []
    for bench_column in benchmark.columns:
        # The golden path: a fresh annotator per column — exactly what the
        # service does per request (fresh planner RNG over a shared engine).
        fresh = ArcheType(
            ArcheTypeConfig(model="gpt", label_set=label_set, seed=seed)
        )
        label = fresh.annotate_column(bench_column.column).label
        body = {
            "column": {
                "name": bench_column.column.name,
                "values": list(bench_column.column.values),
            },
            "label_set": label_set,
            "seed": seed,
        }
        for _ in range(2):  # interleaved duplicate
            bodies.append(body)
            expected.append(label)
    del golden
    return bodies, expected, label_set


# ------------------------------------------------------------ HTTP client
_LOCAL = threading.local()


def _connection(host: str, port: int) -> http.client.HTTPConnection:
    conn = getattr(_LOCAL, "conn", None)
    if conn is None:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        _LOCAL.conn = conn
    return conn


def _post_json(host: str, port: int, path: str, body: dict) -> dict:
    payload = json.dumps(body)
    for attempt in range(2):  # one retry on a dropped keep-alive socket
        conn = _connection(host, port)
        try:
            conn.request(
                "POST", path, body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = response.read()
            if response.status != 200:
                raise RuntimeError(
                    f"{path} -> HTTP {response.status}: {data[:200]!r}"
                )
            return json.loads(data)
        except (http.client.HTTPException, ConnectionError, OSError):
            _LOCAL.conn = None
            conn.close()
            if attempt == 1:
                raise
    raise AssertionError("unreachable")


def _get_json(host: str, port: int, path: str) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"{path} -> HTTP {response.status}")
        return json.loads(data)
    finally:
        conn.close()


# ------------------------------------------------------------- load phase
def run_open_loop(
    host: str,
    port: int,
    bodies: list[dict],
    rate: float,
    clients: int,
) -> tuple[list[str], list[float], float]:
    """Fire the workload open-loop; returns (labels, latencies_s, wall_s)."""
    start = time.monotonic() + 0.05  # small lead so slot 0 is in the future
    labels: list[str | None] = [None] * len(bodies)
    latencies: list[float] = [0.0] * len(bodies)

    def one(index: int) -> None:
        scheduled = start + index / rate
        delay = scheduled - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        result = _post_json(host, port, "/v1/annotate", bodies[index])
        # Latency from the *scheduled* arrival: queueing delay caused by a
        # saturated server counts against it (no coordinated omission).
        latencies[index] = time.monotonic() - scheduled
        labels[index] = result["label"]

    with ThreadPoolExecutor(max_workers=clients) as pool:
        futures = [pool.submit(one, index) for index in range(len(bodies))]
        for future in futures:
            future.result()
    wall = time.monotonic() - start
    assert all(label is not None for label in labels)
    return [label for label in labels if label is not None], latencies, wall


def batching_summary(stats: dict) -> dict[str, float]:
    """Model calls per column and mean prompts per batch, from ``/stats``."""
    scheduler = stats["scheduler"]
    n_batches = scheduler["n_batches"]
    n_columns = stats["service"]["n_columns_annotated"]
    n_prompts = sum(
        int(size) * count
        for size, count in scheduler["batch_size_histogram"].items()
    )
    return {
        "model_calls_per_column": (
            round(n_batches / n_columns, 4) if n_columns else 0.0
        ),
        "prompts_per_batch": round(n_prompts / n_batches, 4) if n_batches else 0.0,
    }


def percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1)))
    return sorted_values[int(index)]


# ----------------------------------------------------------- server spawn
class SpawnedServer:
    """``repro serve`` as a child process; SIGTERM must exit 0 (drained)."""

    def __init__(self, args: argparse.Namespace) -> None:
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--model", args.model,
            "--model-latency", str(args.model_latency),
            "--max-batch-size", str(args.max_batch_size),
            "--max-batch-wait", str(args.max_batch_wait),
            "--workers", str(args.workers),
            "--max-pending", str(args.max_pending),
        ]
        env = dict(os.environ)
        src = str(_REPO / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=str(_REPO),
        )
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        match = _ANNOUNCE.search(line)
        if not match:
            self.process.kill()
            stderr = self.process.stderr.read() if self.process.stderr else ""
            raise RuntimeError(
                f"server did not announce a port (got {line!r}); "
                f"stderr:\n{stderr}"
            )
        self.host = "127.0.0.1"
        self.port = int(match.group(1))

    def stop(self) -> int:
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=60)


# ------------------------------------------------------------ bench merge
def append_bench_record(record: dict) -> Path:
    """Merge a ``service_load`` record into the newest BENCH artifact."""
    bench_dir = _REPO / "benchmarks"
    candidates = sorted(
        bench_dir.glob("BENCH_*.json"), key=lambda p: p.stat().st_mtime
    )
    if candidates:
        target = candidates[-1]
        payload = json.loads(target.read_text(encoding="utf-8"))
    else:
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=_REPO, text=True,
                capture_output=True, check=True,
            ).stdout.strip()
        except (subprocess.CalledProcessError, OSError):
            sha = "unknown"
        short = sha[:10] if sha != "unknown" else "unknown"
        target = bench_dir / f"BENCH_{short}.json"
        payload = {
            "schema_version": 1,
            "git_sha": sha,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": ".".join(map(str, sys.version_info[:3])),
            "bench_columns": None,
            "benchmarks": {},
        }
    payload.setdefault("benchmarks", {})["service_load"] = record
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    return target


# ------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--url", default=None,
                        help="base URL of a running service "
                             "(default: spawn `repro serve --port 0`)")
    parser.add_argument("--benchmark", default="sotab-27")
    parser.add_argument("--columns", type=int, default=100,
                        help="benchmark columns (each sent twice)")
    parser.add_argument("--clients", type=int, default=32,
                        help="concurrent client threads")
    parser.add_argument("--rate", type=float, default=400.0,
                        help="open-loop arrival rate, requests/second")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--model", default="gpt")
    parser.add_argument("--model-latency", type=float, default=0.01,
                        help="simulated model latency for the spawned server "
                             "(seconds per model round trip)")
    parser.add_argument("--max-batch-size", type=int, default=16)
    parser.add_argument("--max-batch-wait", type=float, default=0.01)
    parser.add_argument("--workers", type=int, default=16)
    parser.add_argument("--max-pending", type=int, default=256)
    parser.add_argument("--quick", action="store_true",
                        help="small CI shape: 30 columns, 8 clients, "
                             "200 req/s")
    parser.add_argument("--report", type=Path, default=None,
                        help="write the full JSON report here")
    parser.add_argument("--bench-append", action="store_true",
                        help="merge a service_load record into the newest "
                             "benchmarks/BENCH_*.json")
    args = parser.parse_args(argv)
    if args.quick:
        args.columns = min(args.columns, 30)
        args.clients = min(args.clients, 8)
        args.rate = min(args.rate, 200.0)

    print(f"building workload: {args.benchmark}, {args.columns} columns "
          f"(x2 with duplicates), golden labels in-process ...", flush=True)
    bodies, expected, _label_set = build_workload(
        args.benchmark, args.columns, args.seed
    )

    server: SpawnedServer | None = None
    if args.url:
        match = re.match(r"https?://([^:/]+):(\d+)", args.url)
        if not match:
            print(f"error: cannot parse --url {args.url!r}", file=sys.stderr)
            return 2
        host, port = match.group(1), int(match.group(2))
    else:
        server = SpawnedServer(args)
        host, port = server.host, server.port
        print(f"spawned repro serve on port {port}", flush=True)

    exit_code = 1
    try:
        print(f"cold pass: {len(bodies)} requests, {args.clients} clients, "
              f"{args.rate:g} req/s open-loop ...", flush=True)
        labels, latencies, wall = run_open_loop(
            host, port, bodies, args.rate, args.clients
        )
        mismatches = [
            index for index, label in enumerate(labels)
            if label != expected[index]
        ]
        cold_stats = _get_json(host, port, "/stats")
        cold_queries = cold_stats["queries"]["n_queries"]

        print("warm pass: replaying the identical workload ...", flush=True)
        warm_labels, _warm_latencies, _warm_wall = run_open_loop(
            host, port, bodies, args.rate, args.clients
        )
        warm_mismatches = [
            index for index, label in enumerate(warm_labels)
            if label != expected[index]
        ]
        warm_stats = _get_json(host, port, "/stats")
        warm_queries = warm_stats["queries"]["n_queries"] - cold_queries

        ordered = sorted(latencies)
        p50_ms = percentile(ordered, 0.50) * 1000.0
        p99_ms = percentile(ordered, 0.99) * 1000.0
        columns_per_sec = len(bodies) / wall if wall > 0 else 0.0
        cross_batches = warm_stats["scheduler"]["n_cross_request_batches"]

        checks = {
            "labels_match_golden": not mismatches and not warm_mismatches,
            "warm_rerun_zero_queries": warm_queries == 0,
            "cross_request_batching": cross_batches > 0,
        }
        report = {
            "benchmark": args.benchmark,
            "n_requests": len(bodies),
            "n_unique_columns": args.columns,
            "clients": args.clients,
            "rate_rps": args.rate,
            "model_latency_s": args.model_latency,
            "label_mismatches": len(mismatches) + len(warm_mismatches),
            "warm_model_queries": warm_queries,
            "latency_ms": {
                "p50": round(p50_ms, 3),
                "p99": round(p99_ms, 3),
                "max": round(ordered[-1] * 1000.0, 3) if ordered else 0.0,
            },
            "columns_per_sec": round(columns_per_sec, 3),
            "wall_s": round(wall, 3),
            # Over the cold pass: the warm replay adds columns, no batches.
            "batching": batching_summary(cold_stats),
            "scheduler": warm_stats["scheduler"],
            "admission": warm_stats["admission"],
            "checks": checks,
            "ok": all(checks.values()),
        }
    finally:
        if server is not None:
            drained_exit = server.stop()
            print(f"server drained, exit code {drained_exit}", flush=True)
            if drained_exit != 0:
                print("FAIL: server did not exit cleanly after SIGTERM",
                      file=sys.stderr)
                return 1

    print(json.dumps(
        {k: report[k] for k in
         ("label_mismatches", "warm_model_queries", "latency_ms",
          "columns_per_sec", "batching", "checks")},
        indent=2,
    ))
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.report}")
    if args.bench_append:
        record = {
            "n_requests": report["n_requests"],
            "clients": report["clients"],
            "rate_rps": report["rate_rps"],
            "columns_per_sec": report["columns_per_sec"],
            "p50_ms": report["latency_ms"]["p50"],
            "p99_ms": report["latency_ms"]["p99"],
            "label_mismatches": report["label_mismatches"],
            "warm_model_queries": report["warm_model_queries"],
            **report["batching"],
            "scheduler": report["scheduler"],
        }
        target = append_bench_record(record)
        print(f"service_load record merged into {target}")

    for name, passed in checks.items():
        print(f"{'PASS' if passed else 'FAIL'}: {name}")
    exit_code = 0 if report["ok"] else 1
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
