"""The ``serve-open`` workload: ``repro serve`` under open-loop load.

The server is its own process, started the way users start it (``python -m
repro.cli serve``) with the ``repro serve`` defaults, a 10 ms simulated model
round trip and no store; the traced run starts it through
``serve_launcher.py`` instead, which installs the layer wrappers first.

One generator process (this one) sends a seeded mix of single-column
``/v1/annotate`` and multi-column ``/v1/annotate/batch`` requests built from
unique SOTAB-27 columns.  Every request body is sent twice, a few requests
apart, so the second copy finds the first in the in-flight table or the LRU
— across connections.  Arrivals are open-loop at a constant rate: a
dispatcher thread releases each request at its scheduled time onto a queue
that at most ``nproc`` keep-alive connections (one thread each) drain, so a
slow server shows up as queueing on the client side, and latency runs from
the scheduled arrival to the last response byte.  The dispatcher's own
lateness is the generator lag; a session whose generator fell behind is
invalid and is run again.

Two phases: a reference phase at a fixed rate below saturation, where the
latency percentiles are taken, then an overload phase at a fixed rate well
above it, where the completed-columns rate is the sustained ceiling.  The
body mix is fixed per block of ten requests, so the seed changes which
columns are sent but not how many.  Requests still queued on the client
when the overload phase ends are never sent and are reported as unsent.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from common import BENCH_DIR, OUT_DIR, best_quarter, child_env, log, percentile

MODEL = "gpt"
MODEL_LATENCY = 0.01
#: Offered request rates (requests/second) of the two phases.
REF_RATE = 80.0
SAT_RATE = 300.0
#: Share of the measured time spent in the reference phase.
REF_SHARE = 0.75
#: Completions in the first part of the overload phase are not counted: the
#: client-side queue is still filling.  The rest is cut into windows, and
#: the sustained ceiling is the best-quarter median of their rates.
SAT_WARMUP_S = 0.5
SAT_WINDOW_S = 0.5
#: Columns per request in each block of ten consecutive bodies (shuffled
#: per block): seven single-column requests and three batches.  A fixed mix
#: keeps the columns per phase the same under every seed.
BLOCK_SHAPES = (1, 1, 1, 1, 1, 1, 1, 2, 3, 5)
#: A body's second copy follows its first by about 1-2x this many requests
#: (seeded), close enough that some copies find the first still in flight.
DUPLICATE_GAP = (1, 3)
#: Server starts per run; set-up time is their best-quarter median.
SETUP_SAMPLES = 6
#: The generator fell behind when its 99th-percentile lateness in the
#: reference phase exceeds this; such a session is invalid and is run again,
#: at most this many times.
MAX_LAG_P99_S = 0.010
LAG_RETRIES = 2
READY_TIMEOUT_S = 60.0

_ANNOUNCE = re.compile(r"listening on http://[^:]+:(\d+)")


# --------------------------------------------------------------- workload
@dataclass(frozen=True)
class Body:
    path: str
    payload: bytes
    columns: tuple[Any, ...]


def build_bodies(seed: int, n_bodies: int) -> tuple[list[Body], list[str]]:
    """``n_bodies`` request bodies over unique SOTAB-27 columns."""
    from repro.datasets.sotab import load_sotab27

    rng = random.Random(seed)
    shapes: list[int] = []
    while len(shapes) < n_bodies:
        shapes += rng.sample(BLOCK_SHAPES, len(BLOCK_SHAPES))
    shapes = shapes[:n_bodies]
    # Generate with headroom for duplicate value lists, then keep uniques.
    benchmark = load_sotab27(n_columns=int(sum(shapes) * 1.2) + 10, seed=seed)
    label_set = list(benchmark.label_set)
    seen: set[tuple[str, ...]] = set()
    unique = []
    for bench_column in benchmark.columns:
        key = tuple(bench_column.column.values)
        if key not in seen:
            seen.add(key)
            unique.append(bench_column.column)
    if len(unique) < sum(shapes):
        raise RuntimeError("not enough unique SOTAB-27 columns for the workload")
    bodies = []
    cursor = 0
    for size in shapes:
        columns = tuple(unique[cursor:cursor + size])
        cursor += size
        wire = [{"name": column.name, "values": list(column.values)} for column in columns]
        request: dict[str, Any] = {"label_set": label_set, "seed": seed}
        if size == 1:
            request["column"] = wire[0]
            path = "/v1/annotate"
        else:
            request["columns"] = wire
            path = "/v1/annotate/batch"
        bodies.append(Body(path, json.dumps(request).encode(), columns))
    return bodies, label_set


def send_order(first: int, n_bodies: int, rng: random.Random) -> list[int]:
    """Body indices, each body followed by its copy a few requests later."""
    keyed = []
    for offset in range(n_bodies):
        keyed.append((2 * offset, first + offset))
        keyed.append((2 * offset + 2 * rng.randint(*DUPLICATE_GAP) - 1, first + offset))
    return [body for _, body in sorted(keyed)]


def golden_labels(seed: int, label_set: list[str], body: Body, model: Any) -> list[str]:
    """What the service must answer: a fresh annotator per request, seeded
    from the request, annotating the request's columns in order."""
    from repro import ArcheType, ArcheTypeConfig

    annotator = ArcheType(ArcheTypeConfig(model=model, label_set=label_set, seed=seed))
    return [annotator.annotate_column(column).label for column in body.columns]


# ------------------------------------------------------------------ server
class Server:
    """A ``repro serve`` child process; SIGTERM must drain it to exit 0."""

    def __init__(self, seed: int, spans: Path | None, log_path: Path) -> None:
        serve_args = ["--port", "0", "--model", MODEL,
                      "--model-latency", str(MODEL_LATENCY), "--seed", str(seed)]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                       "--spans", str(spans), "--", *serve_args]
        self._stderr = log_path.open("w")
        self.spawned_at = time.monotonic()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=child_env(), cwd=str(BENCH_DIR.parent),
        )
        timer = threading.Timer(READY_TIMEOUT_S, self.process.kill)
        timer.start()
        try:
            line = self.process.stdout.readline() if self.process.stdout else ""
        finally:
            timer.cancel()
        match = _ANNOUNCE.search(line)
        if not match:
            self.process.kill()
            self.process.wait()
            self._stderr.close()
            raise RuntimeError(
                f"server did not announce a port (got {line!r}); see {log_path}"
            )
        self.port = int(match.group(1))
        while True:
            try:
                if get_json(self.port, "/healthz", timeout=1.0)["status"] == "ok":
                    break
            except OSError:
                pass
            if time.monotonic() - self.spawned_at > READY_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.002)
        self.setup_s = time.monotonic() - self.spawned_at

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise RuntimeError("no VmHWM in /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self) -> int:
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                return self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                return -9
        finally:
            if self.process.stdout is not None:
                self.process.stdout.close()
            self._stderr.close()


def get_json(port: int, path: str, timeout: float = 30.0) -> dict[str, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise OSError(f"GET {path} -> HTTP {response.status}")
        return json.loads(data)
    finally:
        conn.close()


# ----------------------------------------------------------------- loadgen
@dataclass
class Request:
    phase: str
    body: int
    scheduled: float
    released: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    labels: list[str] | None = None
    error: str = ""
    unsent: bool = False


@dataclass
class Schedule:
    requests: list[Request] = field(default_factory=list)
    ref_start: float = 0.0
    ref_end: float = 0.0
    sat_start: float = 0.0
    sat_end: float = 0.0


def make_schedule(
    seed: int, start: float, ref_s: float, sat_s: float
) -> tuple[Schedule, int, int]:
    """Constant-rate arrivals for both phases; returns the schedule and the
    body counts each phase draws (bodies are never reused across phases)."""
    schedule = Schedule(ref_start=start, ref_end=start + ref_s,
                        sat_start=start + ref_s, sat_end=start + ref_s + sat_s)
    n_ref = int(REF_RATE * ref_s)
    n_sat = int(SAT_RATE * sat_s)
    ref_bodies = (n_ref + 1) // 2
    sat_bodies = (n_sat + 1) // 2
    rng = random.Random(seed)
    for position, body in enumerate(send_order(0, ref_bodies, rng)[:n_ref]):
        schedule.requests.append(Request("ref", body, start + position / REF_RATE))
    for position, body in enumerate(send_order(ref_bodies, sat_bodies, rng)[:n_sat]):
        schedule.requests.append(
            Request("sat", body, schedule.sat_start + position / SAT_RATE)
        )
    return schedule, ref_bodies, sat_bodies


def drive(port: int, bodies: list[Body], schedule: Schedule, connections: int) -> None:
    """Release every request on schedule and send it on a free connection."""
    ready: queue.Queue[Request | None] = queue.Queue()

    def dispatcher() -> None:
        for request in schedule.requests:
            delay = request.scheduled - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            request.released = time.monotonic()
            ready.put(request)
        for _ in range(connections):
            ready.put(None)

    def connection() -> None:
        conn: http.client.HTTPConnection | None = None
        while True:
            request = ready.get()
            if request is None:
                break
            now = time.monotonic()
            if request.phase == "sat" and now > schedule.sat_end:
                request.unsent = True
                continue
            body = bodies[request.body]
            if conn is None:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            request.sent = now
            try:
                conn.request("POST", body.path, body=body.payload,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                data = response.read()
                request.done = time.monotonic()
                request.status = response.status
                if response.status == 200:
                    payload = json.loads(data)
                    results = payload["results"] if "results" in payload else [payload]
                    request.labels = [result["label"] for result in results]
                else:
                    request.error = data[:200].decode("utf-8", "replace")
            except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                request.done = time.monotonic()
                request.error = repr(exc)
                conn.close()
                conn = None
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=dispatcher, name="dispatcher")]
    threads += [threading.Thread(target=connection, name=f"conn-{i}")
                for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ------------------------------------------------------------------ session
def _session(
    seed: int, seconds: float, spans: Path | None, run_dir: Path, tag: str,
    setup_samples: int,
) -> dict[str, Any]:
    """Set-up samples, then one server under both load phases."""
    setups = []
    for sample in range(setup_samples - 1):
        probe = Server(seed, None, run_dir / f"server-{tag}-setup{sample}.log")
        setups.append(probe.setup_s)
        probe.stop()

    ref_s = seconds * REF_SHARE
    sat_s = seconds - ref_s
    # Bodies are built before the server starts: input generation is not
    # part of set-up.
    _, ref_bodies, sat_bodies = make_schedule(seed, 0.0, ref_s, sat_s)
    bodies, label_set = build_bodies(seed, ref_bodies + sat_bodies)

    server = Server(seed, spans, run_dir / f"server-{tag}.log")
    setups.append(server.setup_s)
    try:
        schedule, _, _ = make_schedule(seed, time.monotonic() + 0.05, ref_s, sat_s)
        drive(server.port, bodies, schedule, os.cpu_count() or 1)
        stats = get_json(server.port, "/stats")
        rss_mb = server.peak_rss_mb()
    finally:
        exit_code = server.stop()
    return {
        "setups": setups, "bodies": bodies, "label_set": label_set,
        "schedule": schedule, "stats": stats, "rss_mb": rss_mb,
        "exit_code": exit_code,
    }


def _evaluate(seed: int, session: dict[str, Any], golden_cache: dict[bytes, list[str]]
              ) -> tuple[dict[str, Any], list[str], int]:
    """Metrics, violations and attempted count for one session."""
    from repro.llm.registry import get_model

    model = get_model(MODEL, seed=seed)
    schedule: Schedule = session["schedule"]
    bodies: list[Body] = session["bodies"]
    problems = []
    counts: dict[str, int] = {}
    for phase in ("ref", "sat"):
        mine = [r for r in schedule.requests if r.phase == phase]
        sent = [r for r in mine if not r.unsent]
        counts[f"{phase}_sent"] = len(sent)
        counts[f"{phase}_unsent"] = len(mine) - len(sent)
        counts[f"{phase}_refused"] = sum(1 for r in sent if r.status == 429)
        ok = 0
        for request in sent:
            body = bodies[request.body]
            if request.status != 200:
                problems.append(
                    f"{phase} {body.path}: HTTP {request.status} {request.error}"
                )
                continue
            expected = golden_cache.get(body.payload)
            if expected is None:
                expected = golden_labels(seed, session["label_set"], body, model)
                golden_cache[body.payload] = expected
            if request.labels != expected:
                problems.append(
                    f"{phase} {body.path}: labels {request.labels} != golden {expected}"
                )
                continue
            ok += 1
        counts[f"{phase}_ok"] = ok
        counts[f"{phase}_failed"] = len(sent) - ok

    queries = session["stats"]["queries"]
    tiers = (queries["n_cache_hits"] + queries["n_store_hits"]
             + queries["n_inflight_hits"] + queries["n_queries"])
    if queries["n_prompts"] != tiers:
        problems.append(
            f"/stats n_prompts {queries['n_prompts']} != cache+store+inflight+queries {tiers}"
        )
    if session["exit_code"] != 0:
        problems.append(f"server exited {session['exit_code']} after SIGTERM drain")

    def good(request: Request) -> bool:
        return request.status == 200 and request.labels is not None

    ref = [r for r in schedule.requests if r.phase == "ref"]
    # A failed or refused request misses every latency limit: it counts as
    # outstanding until the load ended.
    latencies = sorted(
        (r.done if good(r) else schedule.sat_end) - r.scheduled for r in ref
    )
    ref_done = [r for r in ref if good(r)]
    ref_wall = max(r.done for r in ref_done) - schedule.ref_start if ref_done else 1.0
    window_start = schedule.sat_start + SAT_WARMUP_S
    n_windows = max(1, int((schedule.sat_end - window_start) / SAT_WINDOW_S))
    window_columns = [0] * n_windows
    for request in schedule.requests:
        if request.phase == "sat" and good(request) and request.done >= window_start:
            window = int((request.done - window_start) / SAT_WINDOW_S)
            if window < n_windows:
                window_columns[window] += len(bodies[request.body].columns)
    # Lateness of the generator's own releases; the reference phase decides
    # validity, since its latencies are the ones reported.
    lags = sorted(r.released - r.scheduled for r in ref if r.released)
    sat_lags = sorted(r.released - r.scheduled for r in schedule.requests
                      if r.phase == "sat" and r.released)
    queue_waits = sorted(r.sent - r.released for r in ref if r.sent)
    p99 = percentile(latencies, 0.99)
    metrics = {
        "setup_s": best_quarter(session["setups"], higher_is_better=False),
        "cols_per_s": sum(len(bodies[r.body].columns) for r in ref_done) / ref_wall,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": p99 * 1e3,
        "sat_cols_per_s": best_quarter(
            [columns / SAT_WINDOW_S for columns in window_columns], higher_is_better=True
        ),
        "peak_rss_mb": session["rss_mb"],
    }
    details = {
        "ref_samples": len(latencies),
        "ref_samples_above_p99": sum(1 for value in latencies if value > p99),
        "lag_ms_p99": percentile(lags, 0.99) * 1e3,
        "lag_ms_max": (lags[-1] if lags else 0.0) * 1e3,
        "sat_lag_ms_p99": percentile(sat_lags, 0.99) * 1e3,
        "ref_client_queue_ms_p50": percentile(queue_waits, 0.50) * 1e3,
        "sat_window_cols_per_s": [columns / SAT_WINDOW_S for columns in window_columns],
        "counts": counts,
        "setups_s": session["setups"],
        "stats": session["stats"],
        "offered_rps": {"ref": REF_RATE, "sat": SAT_RATE},
        "connections": os.cpu_count() or 1,
    }
    if details["ref_samples_above_p99"] < 10:
        log(f"serve-open: only {details['ref_samples_above_p99']} reference samples "
            "above p99; run longer for a p99 with ten samples beyond it")
    attempted = counts["ref_sent"] + counts["sat_sent"]
    return {"metrics": metrics, "details": details}, problems, attempted


def _valid_session(
    seed: int, seconds: float, spans: Path | None, run_dir: Path, tag: str,
    setup_samples: int, golden_cache: dict[bytes, list[str]],
) -> tuple[dict[str, Any], dict[str, Any], list[str], int, list[str]]:
    """A session whose generator kept to its schedule.  A session whose
    generator fell behind is invalid: it is reported and run again, and
    after ``LAG_RETRIES`` reruns the whole run is invalid."""
    invalid: list[str] = []
    while True:
        log(f"serve-open: {tag} session, {seconds:.1f} s of load ...")
        session = _session(seed, seconds, spans, run_dir, tag, setup_samples)
        evaluated, problems, attempted = _evaluate(seed, session, golden_cache)
        lag_ms = evaluated["details"]["lag_ms_p99"]
        if lag_ms <= MAX_LAG_P99_S * 1e3:
            return session, evaluated, problems, attempted, invalid
        invalid.append(
            f"{tag} session: generator fell behind its schedule "
            f"(lag p99 {lag_ms:.2f} ms > {MAX_LAG_P99_S * 1e3:.0f} ms)"
        )
        log(f"INVALID SESSION: {invalid[-1]}")
        if len(invalid) > LAG_RETRIES:
            raise InvalidRun("; ".join(invalid))


class InvalidRun(RuntimeError):
    """The load generator could not keep to its schedule."""


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import layers
    from tracing import load_spans

    run_dir = OUT_DIR / f"serve-open-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    golden_cache: dict[bytes, list[str]] = {}
    # A traced run loads an untraced and then a traced server for the full
    # time each, so the tracing overhead is measured under the same load.
    session_seconds = seconds
    try:
        _, evaluated, problems, attempted, invalid = _valid_session(
            seed, session_seconds, None, run_dir, "plain", SETUP_SAMPLES, golden_cache
        )
        details: dict[str, Any] = {"untraced": evaluated["details"]}
        per_layer: dict[str, float] = {}
        if trace:
            spans_path = run_dir / "server-spans.jsonl"
            traced, traced_eval, traced_problems, traced_attempted, traced_invalid = (
                _valid_session(seed, session_seconds, spans_path, run_dir, "traced", 1,
                               golden_cache)
            )
            problems += [f"traced: {p}" for p in traced_problems]
            attempted += traced_attempted
            invalid += traced_invalid
            details["traced"] = traced_eval["details"]
            spans = load_spans(spans_path)
            stats = traced["stats"]
            per_layer.update(layers.pipeline_metrics(
                spans, stats["queries"], stats["scheduler"]
            ))
            per_layer.update(layers.service_metrics(spans))
            # Client-side latency beside dispatch-side latency, same session.
            details["traced"]["client_ms"] = {
                name: traced_eval["metrics"][name] for name in ("p50_ms", "p99_ms")
            }
            per_layer["trace.delta_cols_per_s"] = (
                traced_eval["metrics"]["cols_per_s"] - evaluated["metrics"]["cols_per_s"]
            )
            per_layer["trace.delta_p50_ms"] = (
                traced_eval["metrics"]["p50_ms"] - evaluated["metrics"]["p50_ms"]
            )
    except InvalidRun as exc:
        return {"invalid": str(exc), "problems": [], "attempted": 0}
    untraced = evaluated["details"]
    per_layer["loadgen.lag_ms_p99"] = untraced["lag_ms_p99"]
    for name in ("ref_sent", "ref_ok", "ref_failed", "ref_refused",
                 "sat_sent", "sat_ok", "sat_failed", "sat_refused"):
        per_layer[f"loadgen.{name}"] = float(untraced["counts"][name])
    details["invalid_sessions"] = invalid
    return {
        "attempted": attempted,
        "problems": problems,
        "end_to_end": evaluated["metrics"],
        "per_layer": per_layer,
        "details": details,
        "notes": {name: f"  ({untraced['ref_samples']} samples, "
                        f"{untraced['ref_samples_above_p99']} above p99)"
                  for name in ("p50_ms", "p99_ms")},
    }
