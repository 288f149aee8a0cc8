"""Plan execution: the physical half of the plan/execute split.

:mod:`repro.core.plan` decides *what* model work each column needs; this
module decides *how* that work is carried out.  The executors own no
threading, batching or dedup of their own — the annotator's
:class:`repro.core.scheduler.RequestScheduler` (its ``engine``) does all of
that — so each executor is just a **submission policy**: how many plans it
submits to the scheduler before awaiting any of them.

* :class:`BatchedExecutor` — submit a chunk, await the chunk
  (:meth:`RequestScheduler.query_batch`): the scheduler
  drains each chunk as one cross-prompt ``generate_batch`` call.  With a
  chunk of one it is the ``"sequential"`` policy: each plan is queried and
  remapped before the next starts, bit-identical to the historical
  column-at-a-time loop (and the only policy valid for ``cache_size=0``
  stateful backends, whose answers depend on call order);
* :class:`ConcurrentExecutor` — submit from several threads at once
  (:meth:`RequestScheduler.query_batch_fanout`): each thread becomes a drain
  leader until the queue is empty, so multiple ``generate_batch`` calls run
  in parallel on pooled model clones while cache/dedup/stats stay
  centralized in the scheduler.

Both produce identical labels for the pure bundled backends; they differ
only in wall-clock and in how many times the model is consulted.  Stage 4
(label remapping) runs through :func:`_remap_plans` over every plan of an
executed chunk at once, so resample requeries go out in *waves*: one
:meth:`RequestScheduler.requery` per attempt, holding every plan whose answer
is still outside its label set (see
:meth:`repro.core.remapping.Remapper.remap_many`).  Under the batched policy a
wave is one model batch; under the concurrent policy it fans out over the
same threads as the first queries.  Each plan sees the same retries as in the
column-at-a-time loop, which preserves the same bit-identical labels; only
the grouping of model calls changes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.plan import (
    STAGE_QUERY,
    STAGE_REMAP,
    AnnotationResult,
    ColumnPlan,
    PipelineStats,
)
from repro.core.remapping import Remapper
from repro.core.scheduler import RequestScheduler
from repro.exceptions import ConfigurationError


@contextmanager
def _attributed_hits(
    engine: RequestScheduler, stats: PipelineStats, stage_name: str
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
    engine: RequestScheduler,
    remapper: Remapper,
    stats: PipelineStats,
    workers: int = 1,
    chunk_size: int | None = None,
) -> list[AnnotationResult]:
    """Run stage 4 (label remapping) over plans and their first responses.

    Resample retries go out in waves: one :meth:`RequestScheduler.requery`
    per attempt, holding every plan still outside its label set, fanned out
    over ``workers`` threads in batches of at most ``chunk_size`` when
    ``workers > 1``.  The stage counts one call per plan, and its hits are
    attributed to the remap stage.
    """
    prompts = [plan.prompt for plan in plans]
    texts = [prompt.text for prompt in prompts]  # type: ignore[union-attr]

    def requery_many(indices: Sequence[int], attempt: int) -> list[str]:
        return engine.requery(
            [texts[index] for index in indices],
            attempt,
            workers=workers,
            chunk_size=chunk_size,
        )

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
        engine: RequestScheduler,
        remapper: Remapper,
        stats: PipelineStats,
    ) -> list[AnnotationResult]:
        """Return one result per plan, ordered by plan position."""


@dataclass
class BatchedExecutor(Executor):
    """Submission policy: submit a chunk of plans, then await the chunk.

    Pending prompts are issued through :meth:`RequestScheduler.query_batch` in
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
        engine: RequestScheduler,
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

    Pending prompts go down :meth:`RequestScheduler.query_batch_fanout`: each
    thread submits a contiguous slice into the shared scheduler and then
    drains the shared queue until it is empty, so ``workers``
    ``generate_batch`` calls run in parallel to the last batch on pooled
    :meth:`LanguageModel.clone_for_worker` model clones while dedup, caching
    and stats stay centralized.  Responses reassemble positionally, so the
    labels are identical to the batched path for the pure bundled backends.
    Remapping (stage 4) runs over every pending plan at once, and each
    resample wave fans out over the same ``workers`` and ``chunk_size`` as
    the first queries.

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
        engine: RequestScheduler,
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
            remapped = _remap_plans(
                pending, responses, engine, remapper, stats,
                workers=self.workers, chunk_size=self.chunk_size,
            )
            for plan, result in zip(pending, remapped):
                produced[plan.position] = result
        return _assemble(plans, produced)


#: Executor names accepted by :func:`get_executor` (and the ``--executor``
#: CLI knob).
EXECUTOR_NAMES: tuple[str, ...] = ("sequential", "batched", "concurrent")


def get_executor(
    name: str,
    batch_size: int | None = None,
    workers: int | None = None,
) -> Executor:
    """Construct an executor by name.

    ``batch_size`` parameterises the batched executor (and the concurrent
    executor's per-thread chunk); ``workers`` sets the concurrent thread
    count.  An unknown name is rejected before any knob is checked.  A knob
    the named executor cannot honour — ``workers`` without ``concurrent``, a
    chunk for ``sequential``, or the ``batch_size=0`` force-sequential
    sentinel with a non-sequential executor — is an error rather than a
    silently ignored request.
    """
    key = name.strip().lower()
    if key not in EXECUTOR_NAMES:
        raise ConfigurationError(
            f"unknown executor {name!r}; choose from {EXECUTOR_NAMES}"
        )
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
    if workers is not None:
        raise ConfigurationError(
            f"workers={workers} requires the concurrent executor, got {name!r}"
        )
    if key == "sequential":
        if batch_size:
            raise ConfigurationError(
                f"batch_size={batch_size} has no effect with the sequential "
                "executor"
            )
        return BatchedExecutor(batch_size=1)
    return BatchedExecutor(batch_size=batch_size)


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
    if workers is not None and not isinstance(executor, ConcurrentExecutor):
        raise ConfigurationError(
            f"workers={workers} requires the concurrent executor, "
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
