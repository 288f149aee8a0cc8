"""In-memory span tracing around the public functions of each layer.

Tracing lives in the benchmark, not in ``src/``: :func:`install` replaces a
layer's public function or method with a wrapper that records one span per
call and then calls the original.  A span is ``(id, parent, name, start,
end, thread, request, extra)``; ``extra`` holds a small measured fact about
the call (prompts in a model batch, tokens in a prompt, whether a store read
hit).  Spans stay in memory and are written as JSON lines when the traced
process finishes.

Parents come from a :class:`contextvars.ContextVar`, which is per thread in
threads and per task under asyncio, so interleaved requests on the event
loop never adopt each other's spans.  The service hands a request from the
event loop to a worker thread through ``run_in_executor``, which does not
carry the context across; the wrappers bridge that hop by remembering which
request parsed each :class:`AnnotationSpec` and re-entering that request
when ``annotate_job`` starts on the worker.

Functions that another module imported by name are wrapped where they are
looked up (``repro.service.handlers.parse_annotation_request``), since
patching the defining module would not reach the importer's binding.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: (span id, request id) of the innermost open span in this thread/task.
_CURRENT: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
    "perfbench_span", default=(0, 0)
)

Extra = Callable[[tuple[Any, ...], Any], object]


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[Any, ...]] = []
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []
        # id(AnnotationSpec) -> (dispatch span id, request id)
        self._spec_owner: dict[int, tuple[int, int]] = {}
        self._lock = threading.Lock()

    # -------------------------------------------------------------- wrapping
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))  # type: ignore[attr-defined]
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        extra: Extra | None = None,
        new_request: bool = False,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent, request = _CURRENT.get()
            span_id = next(ids)
            if new_request:
                request = span_id
            token = _CURRENT.set((span_id, request))
            result = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                _CURRENT.reset(token)
                spans.append((
                    span_id, parent, name, start, end, threading.get_ident(),
                    request, extra(args, result) if extra is not None else None,
                ))

        self._patch(owner, attr, traced)

    def wrap_async(self, owner: object, attr: str, name: str) -> None:
        """:meth:`wrap` for a coroutine method; each call opens a request."""
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids

        @functools.wraps(original)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            parent, _ = _CURRENT.get()
            span_id = next(ids)
            token = _CURRENT.set((span_id, span_id))
            start = perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                end = perf_counter()
                _CURRENT.reset(token)
                spans.append((
                    span_id, parent, name, start, end, threading.get_ident(),
                    span_id, None,
                ))

        self._patch(owner, attr, traced)

    def remember_spec_owner(self, args: tuple[Any, ...], spec: Any) -> None:
        """Tie a parsed request spec to the request that parsed it."""
        if spec is not None:
            with self._lock:
                self._spec_owner[id(spec)] = _CURRENT.get()

    def wrap_job(self, owner: object, attr: str, name: str) -> None:
        """Wrap ``ServiceState.annotate_job``: re-enter the owning request on
        the worker thread, so its spans hang under that request's dispatch."""
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        lock = self._lock
        owners = self._spec_owner

        @functools.wraps(original)
        def traced(state: Any, spec: Any) -> Any:
            with lock:
                parent, request = owners.pop(id(spec), (0, 0))
            span_id = next(ids)
            token = _CURRENT.set((span_id, request))
            start = perf_counter()
            try:
                return original(state, spec)
            finally:
                end = perf_counter()
                _CURRENT.reset(token)
                spans.append((
                    span_id, parent, name, start, end, threading.get_ident(),
                    request, None,
                ))

        self._patch(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ---------------------------------------------------------------- output
    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(span) + "\n")


def load_spans(path: Path) -> list[list[Any]]:
    with path.open("r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ------------------------------------------------------------------ layers
def _prompt_count(args: tuple[Any, ...], result: Any) -> int:
    return len(args[1])


def _token_count(args: tuple[Any, ...], result: Any) -> int | None:
    return None if result is None else int(result.token_count)


def _store_hit(args: tuple[Any, ...], result: Any) -> bool:
    return result is not None


def _remapped(args: tuple[Any, ...], result: Any) -> bool | None:
    return None if result is None else bool(result.remapped)


def _admitted(args: tuple[Any, ...], result: Any) -> bool | None:
    return None if result is None else bool(result.admitted)


def install_core(tracer: Tracer) -> None:
    """Wrap the public entry points of the annotation pipeline's layers."""
    from repro.core import executor, plan, querying, remapping, sampling, scheduler
    from repro.core import serialization, store
    from repro.llm import simulated, tokenizer

    tracer.wrap(plan.ColumnPlanner, "plan", "plan")
    for cls in (sampling.SimpleRandomSampler, sampling.FirstKSampler,
                sampling.ArcheTypeSampler):
        tracer.wrap(cls, "sample", "sampling")
    # plan.py imported build_feature_strings by name: wrap that binding.
    tracer.wrap(plan, "build_feature_strings", "features")
    tracer.wrap(serialization.PromptSerializer, "serialize", "serialization",
                extra=_token_count)
    tracer.wrap(tokenizer.SimpleTokenizer, "count", "tokenizer")
    tracer.wrap(tokenizer.SimpleTokenizer, "truncate", "tokenizer")
    tracer.wrap(executor.BatchedExecutor, "execute", "executor")
    tracer.wrap(scheduler.RequestScheduler, "submit", "scheduler.submit")
    tracer.wrap(scheduler.RequestScheduler, "wait", "scheduler.wait")
    tracer.wrap(simulated.SimulatedLLM, "generate_batch", "model",
                extra=_prompt_count)
    tracer.wrap(store.SQLiteResponseStore, "get", "store.get", extra=_store_hit)
    tracer.wrap(store.SQLiteResponseStore, "put", "store.put")
    for cls in (remapping.NoOpRemapper, remapping.ContainsRemapper,
                remapping.ResampleRemapper, remapping.SimilarityRemapper,
                remapping.ContainsResampleRemapper):
        tracer.wrap(cls, "remap", "remap", extra=_remapped)
    tracer.wrap(querying.QueryEngine, "requery", "remap.requery")


def install_service(tracer: Tracer) -> None:
    """Wrap the service layers (call after :func:`install_core`)."""
    from repro.service import admission, handlers

    tracer.wrap_async(handlers.ServiceState, "dispatch", "server.dispatch")
    tracer.wrap(handlers, "parse_annotation_request", "protocol.parse",
                extra=lambda args, spec: tracer.remember_spec_owner(args, spec))
    tracer.wrap(handlers, "json_response", "protocol.encode")
    tracer.wrap(handlers, "error_response", "protocol.encode")
    tracer.wrap(admission.AdmissionController, "try_admit", "admission.admit",
                extra=_admitted)
    tracer.wrap_job(handlers.ServiceState, "annotate_job", "handlers.job")
