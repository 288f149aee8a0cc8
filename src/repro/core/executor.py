"""Plan execution: the physical half of the plan/execute split.

:mod:`repro.core.plan` decides *what* model work each column needs; this
module decides *how* that work is carried out.  Since the scheduler refactor
the executors own no threading, batching or dedup of their own — the
:class:`repro.core.scheduler.RequestScheduler` behind the engine does all of
that — so each executor is just a **submission policy**: how many plans it
submits to the scheduler before awaiting any of them.

* :class:`BatchedExecutor` — submit a chunk, await the chunk
  (:meth:`repro.core.querying.QueryEngine.query_batch`): the scheduler
  drains each chunk as one cross-prompt ``generate_batch`` call.  With a
  chunk of one it is the ``"sequential"`` policy: each plan is queried and
  remapped before the next starts, bit-identical to the historical
  column-at-a-time loop (and the only policy valid for ``cache_size=0``
  stateful backends, whose answers depend on call order);
* :class:`ConcurrentExecutor` — submit from several threads at once
  (:meth:`QueryEngine.query_batch_fanout`): each thread becomes a drain
  leader, so multiple ``generate_batch`` calls run in parallel on pooled
  model clones while cache/dedup/stats stay centralized in the scheduler;
* :class:`ProcessExecutor` — shard contiguous plan chunks across a
  ``ProcessPoolExecutor``: each worker *process* owns its own scheduler and
  model copy (the pickled engine profile), so the GIL-bound Python work of
  the execute stages — querying AND remapping — runs truly in parallel.
  Workers reopen the parent's SQLite-WAL response store (hardened for
  cross-process writers), keep the parent engine's batch cap, and ship
  their per-stage and per-prompt counters back for the parent to absorb,
  so accounting stays whole-run truthful.

All four produce identical labels for the pure bundled backends; they differ
only in wall-clock and in how many times the model is consulted.  Stage 4
(label remapping) runs through :func:`_remap_plans` over every plan of an
executed chunk at once, so resample requeries go out in *waves*: one
:meth:`QueryEngine.requery` model batch per attempt, holding every plan
whose answer is still outside its label set (see
:meth:`repro.core.remapping.Remapper.remap_many`).  The thread-based
policies remap on the main thread through the main engine; in the process
policy each worker remaps its own contiguous chunk with a deterministic
engine copy.  Each plan sees the same retries either way, which preserves
the same bit-identical labels; only the grouping of model calls changes.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro.core.plan import (
    STAGE_QUERY,
    STAGE_REMAP,
    AnnotationResult,
    ColumnPlan,
    PipelineStats,
)
from repro.core.querying import QueryEngine
from repro.core.remapping import Remapper
from repro.core.store import SQLiteResponseStore
from repro.exceptions import ConfigurationError


@contextmanager
def _attributed_hits(
    engine: QueryEngine, stats: PipelineStats, stage_name: str
) -> Iterator[None]:
    """Attribute the engine's hit-tier deltas inside the block to a stage."""
    cache_before = engine.stats.n_cache_hits
    store_before = engine.stats.n_store_hits
    inflight_before = engine.stats.n_inflight_hits
    try:
        yield
    finally:
        stage = stats.stage(stage_name)
        stage.cache_hits += engine.stats.n_cache_hits - cache_before
        stage.store_hits += engine.stats.n_store_hits - store_before
        stage.inflight_hits += engine.stats.n_inflight_hits - inflight_before


def _split_pending(
    plans: Sequence[ColumnPlan],
) -> tuple[dict[int, AnnotationResult], list[ColumnPlan]]:
    """Separate short-circuited plans from those still awaiting model work."""
    produced: dict[int, AnnotationResult] = {}
    pending: list[ColumnPlan] = []
    for plan in plans:
        if plan.result is not None:
            produced[plan.position] = plan.result
        else:
            pending.append(plan)
    return produced, pending


def _remap_plans(
    plans: Sequence[ColumnPlan],
    responses: Sequence[str],
    engine: QueryEngine,
    remapper: Remapper,
    stats: PipelineStats,
) -> list[AnnotationResult]:
    """Run stage 4 (label remapping) over plans and their first responses.

    Resample retries go out in waves: one :meth:`QueryEngine.requery` batch
    per attempt, holding every plan still outside its label set.  The stage
    counts one call per plan, and its hits are attributed to the remap stage.
    """
    prompts = [plan.prompt for plan in plans]
    texts = [prompt.text for prompt in prompts]  # type: ignore[union-attr]

    def requery_many(indices: Sequence[int], attempt: int) -> list[str]:
        return engine.requery([texts[index] for index in indices], attempt)

    with _attributed_hits(engine, stats, STAGE_REMAP), stats.timed(
        STAGE_REMAP, calls=len(plans)
    ):
        remaps = remapper.remap_many(
            responses,
            [prompt.label_set for prompt in prompts],  # type: ignore[union-attr]
            requery_many,
        )
    return [
        AnnotationResult(
            label=remap.label,
            raw_response=response,
            prompt=prompt,
            remapped=remap.remapped,
            rule_applied=False,
            strategy=remapper.name,
            sampled_values=plan.sampled_values,
        )
        for plan, prompt, response, remap in zip(
            plans, prompts, responses, remaps, strict=True
        )
    ]


def _assemble(
    plans: Sequence[ColumnPlan], produced: dict[int, AnnotationResult]
) -> list[AnnotationResult]:
    """Order results by plan position, verifying every plan was answered."""
    results: list[AnnotationResult] = []
    for plan in sorted(plans, key=lambda p: p.position):
        if plan.position not in produced:
            raise RuntimeError(
                f"execution left plan position {plan.position} without a result"
            )
        results.append(produced[plan.position])
    return results


class Executor(ABC):
    """Strategy for carrying out the execution stages over a set of plans."""

    @abstractmethod
    def execute(
        self,
        plans: Sequence[ColumnPlan],
        engine: QueryEngine,
        remapper: Remapper,
        stats: PipelineStats,
    ) -> list[AnnotationResult]:
        """Return one result per plan, ordered by plan position."""


@dataclass
class BatchedExecutor(Executor):
    """Submission policy: submit a chunk of plans, then await the chunk.

    Pending prompts are issued through :meth:`QueryEngine.query_batch` in
    chunks of ``batch_size`` (all at once when ``None``); the scheduler
    resolves cache/store hits at submission, coalesces duplicates in flight,
    and drains each chunk as one ``generate_batch`` call.  Each chunk is
    then remapped at once: its resample retries go out as one model batch
    per attempt.

    ``batch_size=1`` is the ``"sequential"`` policy: each plan is queried,
    then remapped (its retries one model call each), before the next plan
    starts — the call order ``cache_size=0`` stateful backends depend on.
    """

    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size <= 0:
            raise ConfigurationError("BatchedExecutor batch_size must be None or > 0")

    def execute(
        self,
        plans: Sequence[ColumnPlan],
        engine: QueryEngine,
        remapper: Remapper,
        stats: PipelineStats,
    ) -> list[AnnotationResult]:
        produced, pending = _split_pending(plans)
        chunk = self.batch_size if self.batch_size is not None else len(pending)
        for start in range(0, len(pending), max(chunk, 1)):
            chunk_plans = pending[start:start + chunk]
            prompts = [plan.prompt.text for plan in chunk_plans]  # type: ignore[union-attr]
            with _attributed_hits(engine, stats, STAGE_QUERY), stats.timed(
                STAGE_QUERY, calls=len(prompts)
            ):
                responses = engine.query_batch(prompts)
            # strict= (inside _remap_plans): a miscounting backend must fail
            # loudly, not silently drop the tail of the column set.
            for plan, result in zip(
                chunk_plans,
                _remap_plans(chunk_plans, responses, engine, remapper, stats),
            ):
                produced[plan.position] = result
        return _assemble(plans, produced)


@dataclass
class ConcurrentExecutor(Executor):
    """Submission policy: submit plans from ``workers`` threads at once.

    Pending prompts go down :meth:`QueryEngine.query_batch_fanout`: each
    thread submits a contiguous slice into the shared scheduler and then
    drains it, so several ``generate_batch`` calls run in parallel on pooled
    :meth:`LanguageModel.clone_for_worker` model clones while dedup, caching
    and stats stay centralized.  Responses reassemble positionally, so the
    labels are identical to the batched path for the pure bundled backends.
    Remapping (stage 4) runs on the main thread over every pending plan at
    once, so resample retries go out as one model batch per attempt.

    ``chunk_size`` bounds each thread's drain batches; by default the
    prompts are split evenly across ``workers``.
    """

    workers: int = 4
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ConfigurationError("ConcurrentExecutor workers must be > 0")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ConfigurationError(
                "ConcurrentExecutor chunk_size must be None or > 0"
            )

    def execute(
        self,
        plans: Sequence[ColumnPlan],
        engine: QueryEngine,
        remapper: Remapper,
        stats: PipelineStats,
    ) -> list[AnnotationResult]:
        produced, pending = _split_pending(plans)
        if pending:
            prompts = [plan.prompt.text for plan in pending]  # type: ignore[union-attr]
            with _attributed_hits(engine, stats, STAGE_QUERY), stats.timed(
                STAGE_QUERY, calls=len(prompts)
            ):
                responses = engine.query_batch_fanout(
                    prompts, workers=self.workers, chunk_size=self.chunk_size
                )
            for plan, result in zip(
                pending, _remap_plans(pending, responses, engine, remapper, stats)
            ):
                produced[plan.position] = result
        return _assemble(plans, produced)


# --------------------------------------------------------------------------
# Process-pool execution.
#
# The worker functions below are module-level on purpose: a worker process
# imports them by reference, so they (and everything they close over) must be
# picklable.  Per-worker state lives in module globals initialised once per
# process by ``_process_worker_init`` — each worker owns a full QueryEngine
# (scheduler + LRU + model copy) and a store handle, built from the pickled
# engine profile shipped through the pool initializer.

_WORKER_ENGINE: QueryEngine | None = None
_WORKER_REMAPPER: Remapper | None = None


def _process_worker_init(spec_bytes: bytes) -> None:
    """Build this worker process's engine + remapper from the pickled spec.

    Runs once per worker via the pool's ``initializer`` hook.  The worker
    opens its own connection to the parent's SQLite store (WAL + busy
    timeout make cross-process writers safe) and caps its model batches
    exactly as the parent engine does.
    """
    global _WORKER_ENGINE, _WORKER_REMAPPER
    spec: dict[str, Any] = pickle.loads(spec_bytes)
    store = None
    if spec["store_path"] is not None:
        store = SQLiteResponseStore(spec["store_path"])
    _WORKER_ENGINE = QueryEngine(
        model=spec["model"],
        params=spec["params"],
        cache_size=spec["cache_size"],
        store=store,
        max_batch_size=spec["max_batch_size"],
        max_batch_wait=spec["max_batch_wait"],
        queue_depth=spec["queue_depth"],
    )
    _WORKER_REMAPPER = spec["remapper"]


def _process_execute_chunk(
    plans: Sequence[ColumnPlan],
) -> tuple[list[tuple[int, AnnotationResult]], dict, dict]:
    """Execute one contiguous chunk of plans inside a worker process.

    Returns position-keyed results plus two counter payloads for the parent
    to absorb: this chunk's per-stage :class:`PipelineStats` snapshot and the
    worker engine's :class:`QueryStats` delta (the engine persists across
    chunks, so the delta — not the running total — is what the chunk cost).
    """
    engine, remapper = _WORKER_ENGINE, _WORKER_REMAPPER
    assert engine is not None and remapper is not None  # initializer ran
    before = engine.stats.as_dict()
    chunk_stats = PipelineStats()
    results = BatchedExecutor().execute(plans, engine, remapper, chunk_stats)
    after = engine.stats.as_dict()
    ordered = sorted(plans, key=lambda plan: plan.position)
    return (
        [(plan.position, result) for plan, result in zip(ordered, results)],
        chunk_stats.snapshot(),
        {name: after[name] - before[name] for name in after},
    )


@dataclass
class ProcessExecutor(Executor):
    """Submission policy: shard plan chunks across worker *processes*.

    The thread-based policies only overlap waiting on the model — every byte
    of Python work (query bookkeeping, response remapping, resample retries)
    still serialises on the parent's GIL.  This policy escapes it: pending
    plans are split into contiguous chunks and shipped to a
    ``ProcessPoolExecutor`` whose workers each own a full engine (scheduler
    with the parent's ``max_batch_size`` / ``max_batch_wait`` /
    ``queue_depth``, LRU, model copy unpickled from the parent's) and their
    own connection to the shared SQLite-WAL response store.  Each worker
    queries its chunk as one batch and remaps it at once (resample retries
    in one batch per attempt, as in :class:`BatchedExecutor`); the parent merges
    results by position, so labels are bit-identical to the sequential
    policy for the pure bundled backends (planning — the only RNG
    consumer — already happened in the parent).

    Accounting stays whole-run truthful: workers ship back per-stage
    :class:`PipelineStats` snapshots (merged into the caller's stats; note
    ``seconds`` are summed across workers, so stage time can exceed
    wall-clock) and per-prompt :class:`QueryStats` deltas (absorbed into the
    parent scheduler, so ``query_count`` / hit tiers cover worker-side model
    calls).

    The pool is created lazily on first use and *reused* across ``execute``
    calls with the same engine profile (critical for ``annotate_stream``,
    which executes chunk after chunk) — call :meth:`close` or use the
    executor as a context manager to release it.  A model or remapper that
    cannot be pickled across processes, or an attached store that is not a
    :class:`~repro.core.store.SQLiteResponseStore`, raises
    :class:`ConfigurationError` up front rather than a cryptic pool crash or
    workers that silently run without the warm tier.

    ``chunk_size`` bounds each task's plan count; by default the pending
    plans are split evenly across ``workers``.
    """

    workers: int = 4
    chunk_size: int | None = None

    _pool: ProcessPoolExecutor | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _spec_bytes: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ConfigurationError("ProcessExecutor workers must be > 0")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ConfigurationError(
                "ProcessExecutor chunk_size must be None or > 0"
            )

    # ------------------------------------------------------- pool lifecycle
    def _worker_spec(self, engine: QueryEngine, remapper: Remapper) -> bytes:
        """Pickle the engine profile a worker needs to rebuild its own.

        Workers reopen the parent's SQLite store by path; any other attached
        store cannot be shared across processes, so it is a configuration
        error rather than a silently missing warm tier.
        """
        store = engine.store
        if store is not None and not isinstance(store, SQLiteResponseStore):
            raise ConfigurationError(
                "the process executor shares the response store with its "
                "workers by reopening a SQLite file, but the engine carries "
                f"a {type(store).__name__}. Attach a SQLiteResponseStore, "
                "detach the store, or choose a thread-based executor "
                "(sequential/batched/concurrent)."
            )
        scheduler = engine.scheduler
        spec = {
            "model": engine.model,
            "params": engine.params,
            "cache_size": engine.cache_size,
            "store_path": str(store.path) if store is not None else None,
            "max_batch_size": scheduler.max_batch_size,
            "max_batch_wait": scheduler.max_wait,
            "queue_depth": scheduler.queue_depth,
            "remapper": remapper,
        }
        try:
            return pickle.dumps(spec)
        except Exception as exc:
            raise ConfigurationError(
                "the process executor must pickle the model profile (model, "
                "generation params, remapper) into its worker processes, but "
                f"pickling failed: {exc!r}. Wrap stateful or unpicklable "
                "backends with a picklable profile, or choose a thread-based "
                "executor (sequential/batched/concurrent)."
            ) from exc

    def _ensure_pool(self, spec_bytes: bytes) -> ProcessPoolExecutor:
        """The (lazily created) pool, rebuilt only when the profile changes."""
        if self._pool is not None and spec_bytes == self._spec_bytes:
            return self._pool
        self.close()
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_process_worker_init,
            initargs=(spec_bytes,),
        )
        self._spec_bytes = spec_bytes
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._spec_bytes = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        with suppress(Exception):
            self.close()

    # ------------------------------------------------------------ execution
    def execute(
        self,
        plans: Sequence[ColumnPlan],
        engine: QueryEngine,
        remapper: Remapper,
        stats: PipelineStats,
    ) -> list[AnnotationResult]:
        produced, pending = _split_pending(plans)
        if pending:
            pool = self._ensure_pool(self._worker_spec(engine, remapper))
            chunk = self.chunk_size or -(
                -len(pending) // min(self.workers, len(pending))
            )  # ceil division: an even contiguous split across the workers
            futures = [
                pool.submit(_process_execute_chunk, pending[start:start + chunk])
                for start in range(0, len(pending), chunk)
            ]
            deltas: list[Mapping[str, int]] = []
            for future in futures:
                pairs, stage_snapshot, query_delta = future.result()
                for position, result in pairs:
                    produced[position] = result
                stats.merge_snapshot(stage_snapshot)
                deltas.append(query_delta)
            # Absorb after every chunk resolved, so a failed worker leaves
            # the parent's counters untouched rather than half-merged.
            for delta in deltas:
                engine.scheduler.absorb_stats(delta)
        return _assemble(plans, produced)


#: Executor names accepted by :func:`get_executor` (and the ``--executor``
#: CLI knob).
EXECUTOR_NAMES: tuple[str, ...] = ("sequential", "batched", "concurrent", "process")


def get_executor(
    name: str,
    batch_size: int | None = None,
    workers: int | None = None,
) -> Executor:
    """Construct an executor by name.

    ``batch_size`` parameterises the batched executor (and the concurrent /
    process executors' per-worker chunk); ``workers`` sets the concurrent
    thread-pool or process-pool width.  A knob the named executor cannot
    honour — ``workers`` without ``concurrent``/``process``, a chunk for
    ``sequential``, or the ``batch_size=0`` force-sequential sentinel with a
    non-sequential executor — is an error rather than a silently ignored
    request.
    """
    key = name.strip().lower()
    if key != "sequential" and batch_size == 0:
        raise ConfigurationError(
            "batch_size=0 forces the sequential per-column loop and "
            f"conflicts with executor={name!r}"
        )
    if key == "concurrent":
        return ConcurrentExecutor(
            workers=workers if workers is not None else 4,
            chunk_size=batch_size,
        )
    if key == "process":
        return ProcessExecutor(
            workers=workers if workers is not None else 4,
            chunk_size=batch_size,
        )
    if workers is not None:
        raise ConfigurationError(
            f"workers={workers} requires the concurrent or process executor, "
            f"got {name!r}"
        )
    if key == "sequential":
        if batch_size:
            raise ConfigurationError(
                f"batch_size={batch_size} has no effect with the sequential "
                "executor"
            )
        return BatchedExecutor(batch_size=1)
    if key == "batched":
        return BatchedExecutor(batch_size=batch_size)
    raise ConfigurationError(
        f"unknown executor {name!r}; choose from {EXECUTOR_NAMES}"
    )


def resolve_executor(
    executor: "Executor | str | None",
    batch_size: int | None = None,
    workers: int | None = None,
) -> Executor:
    """Normalise the ``executor`` argument accepted by the annotation APIs.

    ``None`` preserves the historical ``batch_size`` semantics: ``0`` forces
    the sequential column-at-a-time loop, anything else selects the batched
    path with that chunk size.  A knob the explicit selection cannot honour
    (``workers`` without a concurrent executor, ``batch_size`` alongside an
    already-configured ``Executor`` instance) is an error rather than a
    silently ignored request.
    """
    if isinstance(executor, str):
        return get_executor(executor, batch_size=batch_size, workers=workers)
    if workers is not None and not isinstance(
        executor, (ConcurrentExecutor, ProcessExecutor)
    ):
        raise ConfigurationError(
            f"workers={workers} requires the concurrent or process executor, "
            f"got {executor!r}"
        )
    if isinstance(executor, Executor):
        if batch_size is not None:
            raise ConfigurationError(
                f"batch_size={batch_size} cannot be combined with an "
                "executor instance; configure the executor's own chunking "
                "instead"
            )
        return executor
    if executor is not None:
        raise ConfigurationError(
            f"executor must be an Executor, a name, or None; got {executor!r}"
        )
    if batch_size == 0:
        return BatchedExecutor(batch_size=1)
    return BatchedExecutor(batch_size=batch_size or None)
