"""Endpoint handlers and the shared state of the annotation service.

:class:`ServiceState` is the composition root: it owns the ONE model, the
ONE :class:`~repro.core.scheduler.RequestScheduler` (and therefore the one
LRU + persistent store + in-flight dedup set), the admission
controller, and the worker thread pool.  Requests are cheap on top of that —
each one builds a fresh :class:`~repro.core.pipeline.ArcheType` *over the
shared scheduler*, which re-seeds the planner RNG from the request seed, so a
column's label is a pure function of ``(column, label_set, seed,
sample_size)`` and never of what other tenants are doing concurrently.

The asyncio↔scheduler bridge is deliberately simple: the event loop admits
the request, then parks the annotation job on the worker pool via
``run_in_executor``.  Worker threads block inside the scheduler like any
other caller, which makes them drain leaders — so single-column requests
that arrive while another batch is at the model linger up to
``max_batch_wait`` and leave as one cross-request model batch, a request
that finds the model idle leaves at once, and identical prompts across
sockets coalesce onto one in-flight future.  The event loop itself never
blocks.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import AsyncIterator, Awaitable, Callable, Union

from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.core.scheduler import RequestScheduler
from repro.core.store import ResponseStore, open_store
from repro.exceptions import (
    ConfigurationError,
    ReproError,
    SchedulerSaturatedError,
)
from repro.llm.registry import get_model
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    AnnotationSpec,
    HTTPRequest,
    ProtocolError,
    RequestDefaults,
    Response,
    error_response,
    json_response,
    ndjson_line,
    parse_annotation_request,
    result_payload,
)

__all__ = ["ServiceState", "StreamingResponse"]


@dataclass(frozen=True)
class StreamingResponse:
    """A chunked NDJSON response: one JSON object per line."""

    lines: AsyncIterator[bytes]
    status: int = 200
    content_type: str = "application/x-ndjson"


HandlerResult = Union[Response, StreamingResponse]


class ServiceState:
    """Shared engine, admission control and per-endpoint counters."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        model = get_model(config.model, seed=config.seed)
        if config.model_latency > 0:
            if not hasattr(model, "latency"):
                raise ConfigurationError(
                    f"model {config.model!r} does not support simulated "
                    "latency (--model-latency)"
                )
            model.latency = config.model_latency
        self.engine = RequestScheduler(
            model,
            cache_size=config.query_cache_size,
            max_batch_size=config.max_batch_size,
            max_wait=config.max_batch_wait,
            queue_depth=config.queue_depth,
        )
        self.store: ResponseStore | None = None
        if config.cache_dir is not None:
            self.store = open_store(config.store, config.cache_dir)
            self.engine.store = self.store
        self.admission = AdmissionController(
            max_pending=config.max_pending,
            tenant_rate=config.tenant_rate,
            tenant_burst=config.tenant_burst,
        )
        self.pool = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="annotate"
        )
        self.defaults = RequestDefaults(
            label_set=tuple(config.label_set),
            seed=config.seed,
            sample_size=config.sample_size,
        )
        # The routing table is immutable after construction — not guarded.
        self._routes: dict[
            tuple[str, str], Callable[[HTTPRequest], Awaitable[HandlerResult]]
        ] = {
            ("GET", "/healthz"): self.handle_healthz,
            ("GET", "/stats"): self.handle_stats,
            ("POST", "/v1/annotate"): self.handle_annotate,
            ("POST", "/v1/annotate/batch"): self.handle_batch,
            ("POST", "/v1/annotate/stream"): self.handle_stream,
        }
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._n_requests: dict[str, int] = {}  # guarded-by: _lock
        self._n_errors = 0  # guarded-by: _lock
        self._n_columns_annotated = 0  # guarded-by: _lock

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the scheduler's background drainers."""
        self.engine.start_drainers(self.config.drainers)

    def shutdown(self) -> None:
        """Stop drainers, retire the worker pool, close the store."""
        self.engine.stop_drainers()
        self.pool.shutdown(wait=True)
        if self.store is not None:
            self.store.close()
            self.store = None

    # ------------------------------------------------------------- plumbing
    def build_annotator(self, spec: AnnotationSpec) -> ArcheType:
        """A fresh per-request annotator over the shared engine.

        Fresh construction re-seeds the planner RNG from the request's seed,
        which is what keeps labels independent of concurrent traffic.
        """
        request_config = ArcheTypeConfig(
            model=self.engine.model,
            label_set=spec.label_set,
            sample_size=spec.sample_size,
            seed=spec.seed,
        )
        return ArcheType(request_config, engine=self.engine)

    def _record(self, endpoint: str, n_columns: int = 0, error: bool = False) -> None:
        with self._lock:
            self._n_requests[endpoint] = self._n_requests.get(endpoint, 0) + 1
            self._n_columns_annotated += n_columns
            if error:
                self._n_errors += 1

    def annotate_job(self, spec: AnnotationSpec) -> list[dict[str, object]]:
        """Synchronous annotation of one spec (runs on a worker thread)."""
        annotator = self.build_annotator(spec)
        results = annotator.annotate_columns(list(spec.columns))
        return [
            result_payload(index, column, result)
            for index, (column, result) in enumerate(zip(spec.columns, results))
        ]

    # ------------------------------------------------------------- dispatch
    async def dispatch(self, request: HTTPRequest) -> HandlerResult:
        """Route one request; every exception becomes a JSON error here."""
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            known_path = any(
                path == request.path for (_, path) in self._routes
            )
            if known_path:
                return error_response(
                    405, f"method {request.method} not allowed here"
                )
            return error_response(404, f"no such endpoint: {request.path}")
        try:
            return await handler(request)
        except ProtocolError as exc:
            self._record(request.path, error=True)
            return error_response(exc.status, str(exc))
        except SchedulerSaturatedError as exc:
            self._record(request.path, error=True)
            return error_response(429, str(exc), retry_after=1.0)
        except ReproError as exc:
            self._record(request.path, error=True)
            return error_response(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - the service must not die
            self._record(request.path, error=True)
            return error_response(500, f"internal error: {exc!r}")

    # -------------------------------------------------------- GET endpoints
    async def handle_healthz(self, request: HTTPRequest) -> Response:
        snapshot = self.admission.snapshot()
        status = "draining" if snapshot["draining"] else "ok"
        return json_response(
            {
                "status": status,
                "uptime_s": round(time.monotonic() - self._started, 3),
                "pending": snapshot["pending"],
            }
        )

    async def handle_stats(self, request: HTTPRequest) -> Response:
        with self._lock:
            service: dict[str, object] = {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "n_requests": dict(self._n_requests),
                "n_errors": self._n_errors,
                "n_columns_annotated": self._n_columns_annotated,
            }
        store = self.store
        store_info: dict[str, object] | None = None
        if store is not None:
            # describe() counts rows under the store lock — sqlite I/O with
            # a busy timeout, so it runs on a worker, never the event loop.
            loop = asyncio.get_running_loop()
            store_info = await loop.run_in_executor(self.pool, store.describe)
        stats = self.engine.stats
        payload: dict[str, object] = {
            "service": service,
            "config": self.config.summary(),
            "admission": self.admission.snapshot(),
            "scheduler": self.engine.stats_snapshot(),
            "queries": {
                "n_prompts": stats.n_prompts,
                "n_queries": stats.n_queries,
                "n_cache_hits": stats.n_cache_hits,
                "n_store_hits": stats.n_store_hits,
                "n_inflight_hits": stats.n_inflight_hits,
                "n_resamples": stats.n_resamples,
            },
            "store": store_info,
        }
        return json_response(payload)

    # ------------------------------------------------------- POST endpoints
    def _admission_error(self, reason: str, retry_after: float) -> Response:
        if reason == "draining":
            return error_response(
                503, "service is draining; retry against a healthy replica",
                retry_after=retry_after,
            )
        if reason == "rate-limit":
            return error_response(
                429, "tenant rate limit exceeded", retry_after=retry_after
            )
        return error_response(
            429,
            f"too many pending requests (max {self.admission.max_pending})",
            retry_after=retry_after,
        )

    async def handle_annotate(self, request: HTTPRequest) -> Response:
        spec = parse_annotation_request(request, self.defaults, batch=False)
        decision = self.admission.try_admit(request.tenant)
        if not decision.admitted:
            self._record(request.path, error=True)
            return self._admission_error(decision.reason, decision.retry_after)
        try:
            loop = asyncio.get_running_loop()
            payloads = await loop.run_in_executor(
                self.pool, self.annotate_job, spec
            )
        finally:
            self.admission.release()
        self._record(request.path, n_columns=spec.n_columns)
        return json_response(payloads[0])

    async def handle_batch(self, request: HTTPRequest) -> Response:
        spec = parse_annotation_request(request, self.defaults, batch=True)
        decision = self.admission.try_admit(request.tenant)
        if not decision.admitted:
            self._record(request.path, error=True)
            return self._admission_error(decision.reason, decision.retry_after)
        try:
            loop = asyncio.get_running_loop()
            payloads = await loop.run_in_executor(
                self.pool, self.annotate_job, spec
            )
        finally:
            self.admission.release()
        self._record(request.path, n_columns=spec.n_columns)
        return json_response(
            {"results": payloads, "n_columns": spec.n_columns}
        )

    async def handle_stream(self, request: HTTPRequest) -> HandlerResult:
        spec = parse_annotation_request(request, self.defaults, batch=True)
        decision = self.admission.try_admit(request.tenant)
        if not decision.admitted:
            self._record(request.path, error=True)
            return self._admission_error(decision.reason, decision.retry_after)
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue[tuple[str, object]] = asyncio.Queue()
        self.pool.submit(self._stream_job, spec, queue, loop)
        return StreamingResponse(lines=self._stream_lines(request, spec, queue))

    def _stream_job(
        self,
        spec: AnnotationSpec,
        queue: "asyncio.Queue[tuple[str, object]]",
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        """Worker-thread side of the stream: annotate and pump the queue."""
        try:
            annotator = self.build_annotator(spec)
            stream = annotator.annotate_stream(
                iter(spec.columns), chunk_size=spec.chunk_size
            )
            for index, result in enumerate(stream):
                payload = result_payload(index, spec.columns[index], result)
                loop.call_soon_threadsafe(queue.put_nowait, ("result", payload))
            loop.call_soon_threadsafe(queue.put_nowait, ("done", spec.n_columns))
        except BaseException as exc:  # noqa: BLE001 - forwarded to the client
            loop.call_soon_threadsafe(queue.put_nowait, ("error", exc))

    async def _stream_lines(
        self,
        request: HTTPRequest,
        spec: AnnotationSpec,
        queue: "asyncio.Queue[tuple[str, object]]",
    ) -> AsyncIterator[bytes]:
        """Event-loop side of the stream: drain the queue into NDJSON lines."""
        try:
            while True:
                kind, payload = await queue.get()
                if kind == "result":
                    yield ndjson_line(payload)
                elif kind == "done":
                    self._record(request.path, n_columns=spec.n_columns)
                    yield ndjson_line({"done": True, "n_columns": payload})
                    return
                else:
                    self._record(request.path, error=True)
                    yield ndjson_line(
                        {"error": {"status": 500, "message": repr(payload)}}
                    )
                    return
        finally:
            # Covers normal completion, client disconnect (GeneratorExit)
            # and event-loop teardown alike: the admission slot is returned
            # exactly once, when the stream ends for any reason.
            self.admission.release()
