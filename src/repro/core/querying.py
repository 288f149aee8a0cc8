"""Model querying: the third stage of the ArcheType pipeline.

The querying stage submits serialized prompts to the chosen language model and
returns the raw responses, while tracking how many model calls were issued
(remap-resample issues extra ones) and which generation parameters were used.
Keeping it separate from the pipeline makes the Section 5.4.3 model-querying
ablation a one-line model swap.

Since the scheduler refactor, :class:`QueryEngine` is a thin façade over one
shared :class:`repro.core.scheduler.RequestScheduler`, which owns the whole
lookup-and-fill pipeline: LRU cache → persistent store → in-flight dedup →
microbatched ``generate_batch`` drains.  The engine's entry points are pure
submission policies:

* :meth:`QueryEngine.query` submits one request and awaits it — the caller
  becomes the drain leader immediately, so nothing is slower than a direct
  model call;
* :meth:`QueryEngine.query_batch` submits a whole batch before awaiting any
  of it, so the scheduler drains it as one ``generate_batch`` call with
  duplicates coalesced in-flight (first-occurrence order);
* :meth:`QueryEngine.query_batch_fanout` submits from several threads at
  once, which makes each thread a concurrent drain leader — the continuous-
  batching path, where independent callers' requests coalesce into shared
  cross-request batches;
* :meth:`QueryEngine.requery` is :meth:`~QueryEngine.query_batch` at the
  permuted parameters of one resample attempt: a remap wave's retries drain
  as one ``generate_batch`` call.

Caching, store tiering and coalescing are sound because every bundled backend
is a pure function of ``(prompt, params)``; set ``cache_size=0`` when wrapping
a stateful test double whose answers depend on call order — the scheduler
then bypasses every tier and preserves FIFO per-occurrence semantics.

:class:`QueryStats` (defined next to the scheduler, re-exported here)
separates ``n_prompts`` (prompts requested) from ``n_queries`` (prompts that
actually reached the model), with hits split by tier (``n_cache_hits`` for
the LRU, ``n_store_hits`` for disk, ``n_inflight_hits`` for requests
coalesced onto an identical pending one), so cost accounting stays truthful
under caching.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.scheduler import QueryStats, RequestScheduler, SchedulerStats
from repro.llm.base import BatchParams, GenerationParams, LanguageModel, broadcast_params

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.store import ResponseStore

__all__ = ["QueryEngine", "QueryStats", "SchedulerStats"]


class QueryEngine:
    """Submit prompts to a model with consistent generation parameters.

    A façade over :class:`RequestScheduler`: construction wires up the
    scheduler, and every query method reduces to "submit, then wait".
    ``cache_size`` bounds the LRU prompt cache; ``store`` adds the durable
    tier below it (see :mod:`repro.core.store`); ``cache_size=0`` disables
    both tiers *and* in-flight coalescing — the escape hatch for stateful
    backends whose answers depend on call order.  ``max_batch_size``,
    ``max_batch_wait`` and ``queue_depth`` pass through to the scheduler's
    microbatcher (see its docs); the defaults reproduce the historical
    engine behaviour exactly.
    """

    def __init__(
        self,
        model: LanguageModel,
        params: GenerationParams | None = None,
        stats: QueryStats | None = None,
        cache_size: int = 4096,
        store: "ResponseStore | None" = None,
        *,
        max_batch_size: int | None = None,
        max_batch_wait: float = 0.0,
        queue_depth: int | None = None,
    ) -> None:
        self.scheduler = RequestScheduler(
            model,
            params,
            cache_size=cache_size,
            store=store,
            stats=stats,
            max_batch_size=max_batch_size,
            max_wait=max_batch_wait,
            queue_depth=queue_depth,
        )

    # ------------------------------------------------------ scheduler views
    @property
    def model(self) -> LanguageModel:
        return self.scheduler.model

    @property
    def params(self) -> GenerationParams:
        return self.scheduler.params

    @property
    def stats(self) -> QueryStats:
        return self.scheduler.stats

    @property
    def scheduler_stats(self) -> SchedulerStats:
        return self.scheduler.scheduler_stats

    @property
    def cache_size(self) -> int:
        return self.scheduler.cache_size

    @property
    def store(self) -> "ResponseStore | None":
        return self.scheduler.store

    @store.setter
    def store(self, store: "ResponseStore | None") -> None:
        self.scheduler.store = store

    @property
    def cache_len(self) -> int:
        return self.scheduler.cache_len

    def clear_cache(self) -> None:
        """Drop every cached response (stats are left untouched)."""
        self.scheduler.clear_cache()

    def reset_stats(self) -> None:
        """Zero the counters so multi-run experiments report per-run numbers.

        The response cache is deliberately kept: cached answers stay valid
        across runs (backends are pure functions of ``(prompt, params)``), and
        :class:`QueryStats` already separates requested prompts from prompts
        that reached the model, so post-reset accounting stays truthful.
        """
        self.scheduler.reset_stats()

    # ------------------------------------------------------------ querying
    def query(self, prompt: str, params: GenerationParams | None = None) -> str:
        """Send one prompt to the model and return its raw completion.

        Submit-and-wait: on a miss in every tier the calling thread drains
        the admission queue itself, so a lone query costs exactly one model
        call with no scheduling latency.
        """
        future = self.scheduler.submit(prompt, params, on_full="drain")
        return self.scheduler.wait([future])[0]

    def query_batch(
        self,
        prompts: Sequence[str],
        params: BatchParams = None,
    ) -> list[str]:
        """Send a batch of prompts through the model's set-at-a-time path.

        Submit-all-then-wait: cache and store hits resolve at submission,
        duplicates within the batch coalesce onto one in-flight request, and
        the remaining unique ``(prompt, params)`` pairs drain in one
        :meth:`LanguageModel.generate_batch` call, in first-occurrence
        order.  Responses come back in the order of ``prompts``.
        """
        if not prompts:
            return []
        effective = [p or self.params for p in broadcast_params(prompts, params)]
        futures = [
            self.scheduler.submit(prompt, prompt_params, on_full="drain")
            for prompt, prompt_params in zip(prompts, effective)
        ]
        return self.scheduler.wait(futures)

    # ------------------------------------------------------------- fan-out
    def query_batch_fanout(
        self,
        prompts: Sequence[str],
        params: BatchParams = None,
        workers: int = 4,
        chunk_size: int | None = None,
    ) -> list[str]:
        """:meth:`query_batch`, submitted concurrently from ``workers`` threads.

        Each thread submits a contiguous slice of the batch and then drains
        the shared admission queue (``chunk_size``-bounded batches, or an
        even split over ``workers``, never above the scheduler's
        ``max_batch_size``), so several ``generate_batch`` calls run
        in parallel on pooled :meth:`LanguageModel.clone_for_worker` clones
        while cache, store, dedup and stats stay centralized in the one
        scheduler.  Sound only for backends that are pure functions of
        ``(prompt, params)`` — the bundled simulators — or whose clone hook
        returns an independent copy; responses and bookkeeping then match
        the batched path, timing-dependent hit-tier attribution aside.

        With caching disabled every prompt is submitted per-occurrence
        (duplicates included) and completions map back positionally,
        matching :meth:`query_batch`'s cache-off call-order semantics.
        """
        if not prompts:
            return []
        effective = [p or self.params for p in broadcast_params(prompts, params)]
        keys = list(zip(prompts, effective))
        n_workers = max(1, min(workers, len(keys)))
        batch_limit = chunk_size or -(-len(keys) // n_workers)  # ceil division
        return self.scheduler.run_wave(
            keys, submitters=n_workers, batch_limit=batch_limit
        )

    def requery(self, prompts: Sequence[str], attempt: int) -> list[str]:
        """One resample wave: re-ask ``prompts`` at permuted hyperparameters.

        Remap-resample (Algorithm 3) calls this once per attempt with every
        prompt whose answer is still outside its label set.  It is
        :meth:`query_batch` at ``params.permuted(attempt)``: submit all, then
        wait, so the wave drains as one ``generate_batch`` call, duplicates
        (and concurrent retries of the same ``(prompt, attempt)``) coalesce
        in flight, and completions are cached and persisted like any other.
        A bare ``str`` is rejected rather than re-asked character by
        character.
        """
        if isinstance(prompts, str):
            raise TypeError(
                "requery takes a sequence of prompts (one resample wave), "
                "not a single str"
            )
        return self.query_batch(prompts, self.params.permuted(attempt))
