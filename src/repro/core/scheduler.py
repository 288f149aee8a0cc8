"""The request scheduler: the single core of the model-query hot path.

Every way this codebase talks to a language model — batched annotation,
thread-pool fan-out, streaming evaluation, the annotation service — goes
through one pipeline of concerns: consult the LRU cache, consult the
persistent store, deduplicate identical pending prompts, batch what is left
into ``generate_batch`` calls, and keep the cost accounting truthful.
:class:`RequestScheduler` owns that pipeline exactly once; it is also the
querying stage's ``QueryEngine`` (:mod:`repro.core.querying`).  Its entry
points (``query_batch``, ``query_batch_fanout``, ``requery``), like the
executors above them, are *submission policies*: how many requests to
submit before awaiting them.

The request lifecycle::

    submit(prompt, params)
        │
        ├─ LRU cache hit ──────────────► resolved future   (n_cache_hits)
        ├─ store hit (promoted to LRU) ► resolved future   (n_store_hits)
        ├─ identical prompt in flight ─► shared future     (n_inflight_hits)
        └─ miss ───► admission queue (bounded: full queue *blocks*
                     submitters, or lets them help drain — never drops)
                          │
                 microbatch drain: a waiting caller becomes the *leader*,
                 pops up to ``max_batch_size`` requests (lingering up to
                 ``max_wait`` for stragglers, but only when another batch
                 is already at the model), and issues ONE ``generate_batch`` call
                 on a pooled model clone
                          │
                 completions → stats + LRU + store write-through (one
                 ``put_many`` per batch) → futures

There is deliberately **no background thread**: callers that wait on futures
drain the queue themselves (leader election via the scheduler lock).  A
single-threaded caller therefore pays zero added latency — submit one prompt,
wait, become leader, drain immediately — while concurrent callers get
continuous batching for free: while one leader generates, the other threads
keep submitting, so the next leader drains a larger, cross-request batch.
The linger follows the same signal: a leader waits for stragglers only when
another batch is already at the model, which is when stragglers keep
arriving; on an idle model a partial batch leaves at once, so light traffic pays no linger.
This is the same shape inference-serving stacks use, GIL-friendly and safe to
re-enter (a remap-stage requery submits and waits like any other caller).

The one caller that *cannot* drain is an asyncio event loop: awaiting a
future must never run model generation on the loop thread.  For that mode the
scheduler grows an opt-in background-drainer pool (:meth:`RequestScheduler.
start_drainers`) plus an async-friendly admission path — ``submit(...,
on_full="fail")`` raises :class:`~repro.exceptions.SchedulerSaturatedError`
instead of blocking on a full queue, and :meth:`RequestScheduler.submit_async`
wraps the admitted future for ``await``.  Drainers and waiting callers
cooperate through the same leader election: whoever takes the lock first
drains the next microbatch.

Purity contract: caching, the store tier and in-flight coalescing are sound
only for backends that are pure functions of ``(prompt, params)`` — true of
every bundled backend.  ``cache_size=0`` is the stateful-model escape hatch:
every tier is bypassed, every submission (duplicates included) reaches the
model in FIFO order, and completions map back positionally.

:class:`QueryStats` keeps the per-prompt cost accounting: hits split by
tier (in-flight hits are the coalesced requests) and the model batches
drained.  :class:`SchedulerStats` keeps the scheduler's own telemetry
(admissions, queue depth, the batch-size histogram, cross-request batches).
:meth:`RequestScheduler.stats_snapshot` reports both for the suite artifacts,
``/stats`` and the benchmark reports.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict, deque
from contextlib import suppress
from concurrent.futures import Future
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

from repro.exceptions import ConfigurationError, SchedulerSaturatedError, StoreError
from repro.llm.base import BatchParams, GenerationParams, LanguageModel, broadcast_params

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.store import ResponseStore

__all__ = [
    "QueryStats",
    "RequestScheduler",
    "SchedulerStats",
]

#: ``(prompt, params)`` — the identity of a model request in every tier.
RequestKey = tuple[str, GenerationParams]


@dataclass
class QueryStats:
    """Per-prompt cost counters of one scheduler.

    ``n_prompts`` counts every requested prompt; ``n_queries`` counts the
    prompts that actually reached the model.  The difference is split by the
    tier that absorbed it: ``n_cache_hits`` (LRU), ``n_store_hits`` (disk) and
    ``n_inflight_hits`` (coalesced onto an identical pending request).
    ``n_batches`` counts ``generate_batch`` calls issued by the microbatcher.
    """

    n_queries: int = 0
    n_resamples: int = 0
    total_prompt_chars: int = 0
    n_prompts: int = 0
    n_batches: int = 0
    n_cache_hits: int = 0
    n_store_hits: int = 0
    n_inflight_hits: int = 0

    def record(self, prompt: str, resample_index: int) -> None:
        """Record one prompt that reached the model (a miss in every tier)."""
        self.n_prompts += 1
        self.n_queries += 1
        if resample_index > 0:
            self.n_resamples += 1
        self.total_prompt_chars += len(prompt)

    def record_hit(self) -> None:
        """Record one prompt served from the LRU cache without a model call."""
        self.n_prompts += 1
        self.n_cache_hits += 1

    def record_store_hit(self) -> None:
        """Record one prompt served from the persistent store (LRU miss)."""
        self.n_prompts += 1
        self.n_store_hits += 1

    def record_inflight_hit(self) -> None:
        """Record one prompt coalesced onto an identical pending request."""
        self.n_prompts += 1
        self.n_inflight_hits += 1

    @property
    def n_hits(self) -> int:
        """Prompts served without a model call (LRU, store, or coalesced)."""
        return self.n_cache_hits + self.n_store_hits + self.n_inflight_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of requested prompts served without a model call."""
        if self.n_prompts == 0:
            return 0.0
        return self.n_hits / self.n_prompts

    def as_dict(self) -> dict[str, int]:
        """A plain-dict copy of every counter."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def reset(self) -> None:
        """Zero every counter (the cache and store, if any, are untouched)."""
        for f in fields(self):
            setattr(self, f.name, 0)


@dataclass
class SchedulerStats:
    """The scheduler's own telemetry, alongside the per-prompt QueryStats.

    ``n_cross_request_batches`` counts drained batches that served more
    than one submitter: requests from distinct submitting threads, or a
    request that other submitters coalesced onto.  The second kind includes
    one-prompt batches, so the count stays high when every batch holds a
    single prompt and is no proof that batching combines distinct prompts;
    the batch-size histogram shows that.  Coalesced requests and drained
    batches are counted once, in :class:`QueryStats` (``n_inflight_hits``,
    ``n_batches``); :meth:`snapshot` reports them as ``n_coalesced`` and
    ``n_batches``.
    """

    n_submitted: int = 0
    n_enqueued: int = 0
    n_cross_request_batches: int = 0
    max_queue_depth: int = 0
    #: Histogram of drained batch sizes.  Keys are stringified sizes so the
    #: snapshot survives a JSON round-trip unchanged (suite ``results.json``).
    batch_sizes: dict[str, int] = field(default_factory=dict)

    def record_batch(self, size: int, n_submitters: int, coalesced: bool) -> None:
        key = str(size)
        self.batch_sizes[key] = self.batch_sizes.get(key, 0) + 1
        if n_submitters > 1 or coalesced:
            self.n_cross_request_batches += 1

    def snapshot(self, queries: QueryStats) -> dict[str, object]:
        """A JSON-serializable copy of every counter, plus two that
        ``queries`` keeps: ``n_coalesced`` (its ``n_inflight_hits``) and
        ``n_batches``."""
        return {
            "n_submitted": self.n_submitted,
            "n_enqueued": self.n_enqueued,
            "n_coalesced": queries.n_inflight_hits,
            "n_batches": queries.n_batches,
            "n_cross_request_batches": self.n_cross_request_batches,
            "max_queue_depth": self.max_queue_depth,
            "batch_size_histogram": {
                key: self.batch_sizes[key]
                for key in sorted(self.batch_sizes, key=int)
            },
        }

    def reset(self) -> None:
        self.n_submitted = 0
        self.n_enqueued = 0
        self.n_cross_request_batches = 0
        self.max_queue_depth = 0
        self.batch_sizes: dict[str, int] = {}


class _Request:
    """One admitted model request: a queue entry plus its shared future."""

    __slots__ = ("key", "future", "submitters", "coalesced")

    def __init__(self, key: RequestKey, submitter: int) -> None:
        self.key = key
        self.future: Future[str] = Future()
        self.submitters = {submitter}
        self.coalesced = False

    @property
    def prompt(self) -> str:
        return self.key[0]

    @property
    def params(self) -> GenerationParams:
        return self.key[1]


def _resolved(response: str) -> "Future[str]":
    future: Future[str] = Future()
    future.set_result(response)
    return future


#: Sentinel distinguishing "leave unchanged" from an explicit ``None`` in
#: :meth:`RequestScheduler.configure`.
_UNSET = object()


class RequestScheduler:
    """Shared lookup-and-fill pipeline for model requests (see module docs).

    Parameters
    ----------
    model:
        The backend; batches are generated through pooled
        :meth:`repro.llm.base.LanguageModel.clone_for_worker` handles, so a
        clone never serves two batches concurrently.
    params:
        Default :class:`GenerationParams` for submissions that carry none.
    cache_size:
        Entries in the LRU response cache.  ``0`` disables the LRU, the store
        tier AND in-flight coalescing (the stateful-model escape hatch).
    store:
        Optional persistent tier below the LRU (settable afterwards; the
        caller owns its lifetime).
    max_batch_size:
        Per-drain cap on batch size (``None`` = the leader takes everything
        queued, which keeps one ``query_batch`` call one model batch).
    max_wait:
        Seconds a leader lingers for stragglers before draining a batch
        smaller than its cap, and only when another batch is already at the
        model: on an idle model a partial batch leaves at once.  With no cap
        (``max_batch_size=None`` and no per-call ``batch_limit``) a leader
        that lingers waits out the whole window.  The default ``0.0`` never
        delays a drain.
    queue_depth:
        Bound on the admission queue.  A full queue applies backpressure:
        submitters block (or help drain, for callers that also wait) until a
        drain frees space — requests are never dropped.
    """

    def __init__(
        self,
        model: LanguageModel,
        params: GenerationParams | None = None,
        *,
        cache_size: int = 4096,
        store: "ResponseStore | None" = None,
        max_batch_size: int | None = None,
        max_wait: float = 0.0,
        queue_depth: int | None = None,
    ) -> None:
        self._validate(max_batch_size, max_wait, queue_depth)
        self.model = model
        self.params = params if params is not None else GenerationParams()
        self.cache_size = cache_size
        self.store = store
        self.stats = QueryStats()
        self.scheduler_stats = SchedulerStats()
        self._lock = threading.Lock()
        # The microbatching knobs are mutable at runtime (configure()), so
        # they share the scheduler lock with the queue they parameterise.
        self.max_batch_size = max_batch_size  # guarded-by: _lock
        self.max_wait = max_wait  # guarded-by: _lock
        self.queue_depth = queue_depth  # guarded-by: _lock
        #: Signalled when a drain frees admission-queue space.
        self._space = threading.Condition(self._lock)
        #: Signalled when a request is enqueued (wakes lingering leaders).
        self._arrived = threading.Condition(self._lock)
        self._queue: deque[_Request] = deque()  # guarded-by: _lock
        self._inflight: dict[RequestKey, _Request] = {}  # guarded-by: _lock
        self._cache: "OrderedDict[RequestKey, str]" = OrderedDict()  # guarded-by: _lock
        self._clones: list[LanguageModel] = []  # guarded-by: _lock
        #: Batches handed out by _take_batch whose generation has not ended.
        self._batches_at_model = 0  # guarded-by: _lock
        self._drainers: list[threading.Thread] = []  # guarded-by: _lock
        self._drain_stop = False  # guarded-by: _lock

    @staticmethod
    def _validate(
        max_batch_size: int | None, max_wait: float, queue_depth: int | None
    ) -> None:
        if max_batch_size is not None and max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be None or > 0")
        if max_wait < 0:
            raise ConfigurationError("max_wait must be >= 0")
        if queue_depth is not None and queue_depth <= 0:
            raise ConfigurationError("queue_depth must be None or > 0")

    def configure(
        self,
        max_batch_size: object = _UNSET,
        max_wait: object = _UNSET,
        queue_depth: object = _UNSET,
    ) -> None:
        """Adjust the microbatching knobs on a live scheduler.

        Read-validate-write runs atomically under the scheduler lock:
        reading the current values outside it could interleave with a
        concurrent ``configure`` and validate (then commit) a mix of two
        callers' settings that neither asked for.
        """
        with self._lock:
            new_batch = (
                self.max_batch_size if max_batch_size is _UNSET else max_batch_size
            )
            new_wait = self.max_wait if max_wait is _UNSET else max_wait
            new_depth = self.queue_depth if queue_depth is _UNSET else queue_depth
            self._validate(new_batch, new_wait, new_depth)  # type: ignore[arg-type]
            self.max_batch_size = new_batch  # type: ignore[assignment]
            self.max_wait = new_wait  # type: ignore[assignment]
            self.queue_depth = new_depth  # type: ignore[assignment]
            # A raised depth bound may unblock waiting submitters.
            self._space.notify_all()

    # ------------------------------------------------------------ admission
    def submit(
        self,
        prompt: str,
        params: GenerationParams | None = None,
        on_full: str = "block",
    ) -> "Future[str]":
        """Admit one request and return its future.

        The returned future is resolved immediately for cache/store hits,
        shared with an identical pending request when one is in flight, and
        otherwise backed by a fresh admission-queue entry.  When the queue is
        full, ``on_full`` selects the backpressure behaviour: ``"block"``
        waits for a drain to free space (submitters are never dropped),
        ``"drain"`` makes the submitting thread drain a batch itself and
        retry (the deadlock-free semantic for callers that submit many
        requests before awaiting any), and ``"fail"`` raises
        :class:`~repro.exceptions.SchedulerSaturatedError` immediately (the
        load-shedding semantic for callers — an event loop, a service
        front end — that must not wait at all).
        """
        if on_full not in ("block", "drain", "fail"):
            raise ConfigurationError(
                f"on_full must be 'block', 'drain' or 'fail', got {on_full!r}"
            )
        key = (prompt, params if params is not None else self.params)
        first_attempt = True
        while True:
            with self._lock:
                future = self._try_admit(key, count=first_attempt)
                first_attempt = False
                if future is not None:
                    return future
                if on_full == "fail":
                    raise SchedulerSaturatedError(
                        f"admission queue is full ({self.queue_depth} pending "
                        "requests); retry after a drain frees space"
                    )
                if on_full == "block":
                    self._space.wait()
                    continue
            # on_full == "drain": free queue space by doing a drain's worth
            # of work ourselves, then retry admission (the key may even have
            # been answered meanwhile — _try_admit re-checks every tier).
            self._drain_once()

    def _try_admit(self, key: RequestKey, count: bool) -> "Future[str] | None":  # holds: _lock
        """One admission attempt under the lock; ``None`` means "queue full"."""
        if count:
            self.scheduler_stats.n_submitted += 1
        if self.cache_size > 0:
            cached = self._cache_get(key)
            if cached is not None:
                self.stats.record_hit()
                return _resolved(cached)
            if self.store is not None:
                # Allowlisted store read under the lock: admission must check
                # cache -> store -> in-flight -> enqueue atomically, or two
                # threads could both miss and enqueue the same key.  It is a
                # single indexed point-read (bounded by the store's own lock
                # and busy timeout), unlike a model call; the slow half of the
                # pipeline -- generation -- already runs outside the lock, and
                # the write-back side was moved out of it too (see _settle).
                stored = self.store.get(key[0], key[1])  # repro-lint: disable=lock-io-held
                if stored is not None:
                    self._cache_put(key, stored)
                    self.stats.record_store_hit()
                    return _resolved(stored)
            pending = self._inflight.get(key)
            if pending is not None:
                pending.submitters.add(threading.get_ident())
                pending.coalesced = True
                self.stats.record_inflight_hit()
                return pending.future
        if self.queue_depth is not None and len(self._queue) >= self.queue_depth:
            return None
        request = _Request(key, threading.get_ident())
        self._queue.append(request)
        if self.cache_size > 0:
            self._inflight[key] = request
        self.scheduler_stats.n_enqueued += 1
        self.scheduler_stats.max_queue_depth = max(
            self.scheduler_stats.max_queue_depth, len(self._queue)
        )
        self._arrived.notify_all()
        return request.future

    # -------------------------------------------------------------- waiting
    def wait(
        self,
        futures: Sequence["Future[str]"],
        batch_limit: int | None = None,
    ) -> list[str]:
        """Await ``futures``, draining the queue while any are unresolved.

        This is where leader election happens: a waiting caller keeps
        draining batches (its own submissions and anyone else's) until its
        futures resolve; once the queue is empty it blocks on the remaining
        futures, which a concurrent leader's in-progress batch will resolve.
        ``batch_limit`` further caps the drains performed by this call: the
        smaller of it and the scheduler's ``max_batch_size`` applies
        (:meth:`query_batch_fanout` uses it to keep several leaders
        generating concurrently).  Raises the first failed future's
        exception, exactly as the model call would have raised.
        """
        for future in futures:
            while not future.done():
                if not self._drain_once(batch_limit):
                    # Nothing queued: the request is inside another leader's
                    # in-progress batch, which will resolve (or fail) it.
                    future.exception()
                    break
        return [future.result() for future in futures]

    def _drain_once(self, batch_limit: int | None = None) -> bool:
        """Pop one microbatch and generate it; False when nothing was queued."""
        with self._lock:
            batch = self._take_batch(batch_limit)
        if not batch:
            return False
        self._generate(batch)
        return True

    def _take_batch(self, batch_limit: int | None) -> list[_Request]:  # holds: _lock
        """Select the next microbatch (lock held) and count it at the model.

        A leader lingers up to ``max_wait`` for the queue to reach the batch
        cap, but only when another batch is already at the model: then the
        traffic that keeps it busy is still arriving, and the wait buys a
        fuller cross-request batch.  On an idle model nothing says a
        straggler is coming, so a partial batch leaves at once.
        """
        limit = self.max_batch_size
        if batch_limit is not None and (limit is None or batch_limit < limit):
            limit = batch_limit
        if not self._queue:
            return []
        if (
            self.max_wait > 0
            and self._batches_at_model > 0
            and (limit is None or len(self._queue) < limit)
        ):
            deadline = time.monotonic() + self.max_wait
            # Spurious-wakeup safe: the predicate (queue non-empty, cap not
            # reached) is re-evaluated at the top of every iteration, and the
            # timeout is recomputed against a monotonic deadline, so a wakeup
            # with nothing new simply waits out the remaining linger.
            while self._queue and (limit is None or len(self._queue) < limit):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._arrived.wait(remaining):
                    break
            if not self._queue:  # another leader drained everything
                return []
        take = len(self._queue) if limit is None else min(limit, len(self._queue))
        batch = [self._queue.popleft() for _ in range(take)]
        self._batches_at_model += 1
        self._space.notify_all()
        return batch

    # ----------------------------------------------------------- generation
    def _generate(self, batch: list[_Request]) -> None:
        """Issue one ``generate_batch`` call and settle the batch's futures.

        Whatever ends the generation (completions, a model exception, a
        ``clone_for_worker`` that raises), the ``finally`` uncounts the batch
        from the model before any of its futures settles, so a waiter that
        sees its answer never finds its own batch still counted.
        """
        clone: LanguageModel | None = None
        error: BaseException | None = None
        try:
            clone = self._acquire_clone()
            completions = clone.generate_batch(
                [request.prompt for request in batch],
                [request.params for request in batch],
            )
            if len(completions) != len(batch):
                raise RuntimeError(
                    f"model {self.model.name!r} returned {len(completions)} "
                    f"completions for {len(batch)} prompts"
                )
        except BaseException as exc:
            error = exc
        finally:
            self._leave_model(clone)
        if error is None:
            self._settle(batch, completions=completions)
            return
        # A model failure must reach every waiter (via their futures) without
        # wedging the drain loop for later requests; interrupts and other
        # non-Exception signals still propagate to the leader.
        self._settle(batch, error=error)
        if not isinstance(error, Exception):
            raise error

    def _settle(
        self,
        batch: list[_Request],
        completions: Sequence[str] | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Account, cache, persist and resolve (or fail) a generated batch.

        The batch's fresh completions reach the store in ONE ``put_many``
        call (one commit per model batch), outside the scheduler lock and
        before any future resolves.  A store write that raises fails every
        future of the batch with :class:`~repro.exceptions.StoreError` and
        evicts the batch from the LRU, so a retry re-runs the whole path;
        the drain loop, and every later request, carry on.
        """
        submitters: set[int] = set()
        coalesced = False
        store = self.store
        writes: list[tuple[str, GenerationParams, str]] = []
        with self._lock:
            for request in batch:
                submitters |= request.submitters
                coalesced = coalesced or request.coalesced
                if self.cache_size > 0:
                    self._inflight.pop(request.key, None)
            if completions is not None:
                for request, response in zip(batch, completions):
                    self.stats.record(request.prompt, request.params.resample_index)
                    if self.cache_size > 0:
                        self._cache_put(request.key, response)
                        if store is not None:
                            writes.append((request.prompt, request.params, response))
                self.stats.n_batches += 1
                self.scheduler_stats.record_batch(
                    len(batch), len(submitters), coalesced
                )
            self._space.notify_all()
        # Store write-through happens OUTSIDE the scheduler lock: a SQLite
        # write can stall on another process's transaction for up to the busy
        # timeout, and holding the lock across that would freeze every
        # submitter.  Safe because the LRU entry (written under the lock
        # above) already answers concurrent lookups for these keys, and the
        # store is append-only first-write-wins, so late or racing writes are
        # idempotent.  Writes land before the futures resolve, keeping the
        # ordering guarantee that a caller observing a completion can count
        # on it being durable.
        if store is not None and writes:
            try:
                store.put_many(writes)
            except StoreError as exc:
                error = exc
            except Exception as exc:
                # Any backend failure reaches the waiters typed.
                error = StoreError(f"response store write-through failed: {exc!r}")
                error.__cause__ = exc
            if error is not None:
                with self._lock:
                    for prompt, params, _ in writes:
                        self._cache.pop((prompt, params), None)
        # Futures settle outside the lock: waiters wake straight into
        # result()/submit() without contending on the scheduler lock.
        for index, request in enumerate(batch):
            if error is not None:
                request.future.set_exception(error)
            else:
                request.future.set_result(completions[index])  # type: ignore[index]

    def _acquire_clone(self) -> LanguageModel:
        with self._lock:
            if self._clones:
                return self._clones.pop()
        return self.model.clone_for_worker()

    def _leave_model(self, clone: LanguageModel | None) -> None:
        """Uncount a batch from the model and pool its clone, if it got one."""
        with self._lock:
            self._batches_at_model -= 1
            if clone is not None:
                self._clones.append(clone)

    def submit_async(
        self,
        prompt: str,
        params: GenerationParams | None = None,
    ) -> "asyncio.Future[str]":
        """Admit one request from an asyncio event loop and return an awaitable.

        A thin wrapper over :meth:`submit` that binds the admitted future to
        the running loop via :func:`asyncio.wrap_future`.  Admission uses
        ``on_full="fail"`` unconditionally — an event-loop caller must never
        sleep on the scheduler's backpressure, so a full queue raises
        :class:`~repro.exceptions.SchedulerSaturatedError` for the serving
        layer to convert into 429 + Retry-After.  Requires background
        drainers (:meth:`start_drainers`) or concurrently waiting threads:
        the awaiting coroutine never drains the queue itself, so without a
        drain leader an admitted miss would pend forever.
        """
        return asyncio.wrap_future(self.submit(prompt, params, on_full="fail"))

    # ------------------------------------------------------------- drainers
    def start_drainers(self, count: int = 1) -> None:
        """Start ``count`` background drain threads (the async-service mode).

        By default the scheduler has no background thread: waiting callers
        drain the queue themselves.  An asyncio front end cannot — awaiting a
        future must never run model generation on the event-loop thread — so
        a long-running service starts drainers that block on the arrival
        condition, linger (``max_wait``, only when another batch is already at
        the model) and drain microbatches exactly like a waiting caller would.
        Drainers and waiting callers cooperate through the same leader
        election: whoever takes the lock first leads the next batch.
        """
        if count <= 0:
            raise ConfigurationError("drainer count must be > 0")
        with self._lock:
            if self._drainers:
                raise ConfigurationError("drainers are already running")
            self._drain_stop = False
            started = [
                threading.Thread(
                    target=self._drain_loop,
                    name=f"scheduler-drainer-{index}",
                    daemon=True,
                )
                for index in range(count)
            ]
            self._drainers = started
        for thread in started:
            thread.start()

    def stop_drainers(self) -> None:
        """Stop the background drainers, flushing anything still queued.

        Drainers keep draining until the queue is empty before exiting, so
        admitted futures are never orphaned: waiters see their results (or
        the model's exception) exactly as in caller-drained mode.  Idempotent
        — stopping with no drainers running is a no-op.
        """
        with self._lock:
            self._drain_stop = True
            self._arrived.notify_all()
            stopped = self._drainers
            self._drainers = []
        for thread in stopped:
            thread.join()

    def _drain_loop(self) -> None:
        """One background drainer: wait for arrivals, drain, repeat."""
        while True:
            with self._lock:
                while not self._queue and not self._drain_stop:
                    self._arrived.wait()
                if self._drain_stop and not self._queue:
                    return
                batch = self._take_batch(None)
            if batch:
                self._generate(batch)

    # ------------------------------------------------------------- querying
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
        order; a lone prompt costs one model call and no scheduling latency.
        Responses come back in the order of ``prompts``.
        """
        if not prompts:
            return []
        keys = zip(prompts, broadcast_params(prompts, params))
        futures = [self.submit(prompt, p, on_full="drain") for prompt, p in keys]
        return self.wait(futures)

    def query_batch_fanout(
        self,
        prompts: Sequence[str],
        params: BatchParams = None,
        workers: int = 4,
        chunk_size: int | None = None,
    ) -> list[str]:
        """:meth:`query_batch`, submitted concurrently from ``workers`` threads.

        Each thread submits a contiguous slice, then drains the shared queue
        in batches of at most ``chunk_size`` (default: an even split over
        ``workers``; never above ``max_batch_size``) until the queue is
        empty, not merely until its own slice resolves.  So up to
        ``workers`` ``generate_batch`` calls stay in flight until the last
        batch, on pooled :meth:`LanguageModel.clone_for_worker` clones.
        Sound for backends
        that are pure functions of ``(prompt, params)`` or whose clone hook
        returns an independent copy: responses (in ``prompts`` order) and
        bookkeeping then match :meth:`query_batch`, timing-dependent hit-tier
        attribution aside.  With caching disabled every occurrence is
        submitted and mapped back positionally.  The first failure re-raises
        in the calling thread.
        """
        keys = list(zip(prompts, broadcast_params(prompts, params)))
        if not keys:
            return []
        n_workers = max(1, min(workers, len(keys)))
        share = -(-len(keys) // n_workers)  # ceil division
        batch_limit = chunk_size or share
        if n_workers == 1:
            futures = [self.submit(prompt, p, on_full="drain") for prompt, p in keys]
            return self.wait(futures, batch_limit)

        slices = [range(start, min(start + share, len(keys)))
                  for start in range(0, len(keys), share)]
        futures: list["Future[str] | None"] = [None] * len(keys)

        def drive(indices: range) -> None:
            own: list["Future[str]"] = []
            for index in indices:
                prompt, prompt_params = keys[index]
                future = self.submit(prompt, prompt_params, on_full="drain")
                futures[index] = future
                own.append(future)
            # Failures travel on the shared futures; the gather below
            # re-raises them in the calling thread.
            with suppress(Exception):
                self.wait(own, batch_limit)
            # Keep leading until the queue is empty: a thread that left once
            # its own slice resolved would leave fewer than ``workers``
            # leaders generating the rest.
            while self._drain_once(batch_limit):
                pass

        threads = [
            threading.Thread(target=drive, args=(indices,), name=f"submitter-{i}")
            for i, indices in enumerate(slices)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [future.result() for future in futures]  # type: ignore[union-attr]

    def requery(
        self,
        prompts: Sequence[str],
        attempt: int,
        workers: int = 1,
        chunk_size: int | None = None,
    ) -> list[str]:
        """One resample wave: re-ask ``prompts`` at permuted hyperparameters.

        Remap-resample (Algorithm 3) calls this once per attempt with every
        prompt whose answer is still outside its label set.  It is
        :meth:`query_batch` at ``params.permuted(attempt)``: submit all, then
        wait, so the wave drains as one ``generate_batch`` call, duplicates
        (and concurrent retries of the same ``(prompt, attempt)``) coalesce
        in flight, and completions are cached and persisted like any other.
        With ``workers > 1`` it is :meth:`query_batch_fanout` instead, so a
        concurrent executor's waves drain across as many leaders (in batches
        of at most ``chunk_size``) as its first queries did.  A bare ``str``
        is rejected rather than re-asked character by character.
        """
        if isinstance(prompts, str):
            raise TypeError(
                "requery takes a sequence of prompts (one resample wave), "
                "not a single str"
            )
        params = self.params.permuted(attempt)
        if workers > 1:
            return self.query_batch_fanout(
                prompts, params, workers=workers, chunk_size=chunk_size
            )
        return self.query_batch(prompts, params)

    # -------------------------------------------------------------- caching
    def _cache_get(self, key: RequestKey) -> str | None:  # holds: _lock
        if key not in self._cache:
            return None
        self._cache.move_to_end(key)
        return self._cache[key]

    def _cache_put(self, key: RequestKey, response: str) -> None:  # holds: _lock
        self._cache[key] = response
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    @property
    def cache_len(self) -> int:
        with self._lock:
            return len(self._cache)

    @property
    def queue_len(self) -> int:
        with self._lock:
            return len(self._queue)

    def clear_cache(self) -> None:
        """Drop every cached response (stats are left untouched)."""
        with self._lock:
            self._cache.clear()

    def reset_stats(self) -> None:
        """Zero the query and scheduler counters (cache/store untouched)."""
        with self._lock:
            self.stats.reset()
            self.scheduler_stats.reset()

    def stats_snapshot(self) -> dict[str, object]:
        """The scheduler telemetry as a JSON-serializable dict."""
        with self._lock:
            return self.scheduler_stats.snapshot(self.stats)
