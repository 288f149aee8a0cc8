"""Tests for the request scheduler: in-flight dedup, backpressure, failures.

The golden-label and querying-module tests pin the scheduler's *sequential*
behaviour (bit-identical labels and stats through the façade); this module
pins the concurrent machinery those tests cannot reach: cross-thread
coalescing, bounded-queue backpressure, exception propagation to coalesced
futures, microbatch lingering, and the requery path's scheduling.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.core.querying import QueryEngine
from repro.core.scheduler import RequestScheduler
from repro.exceptions import ConfigurationError, SchedulerSaturatedError, StoreError
from repro.llm.base import GenerationParams, LanguageModel


class CountingModel(LanguageModel):
    """Pure test double: deterministic output, records every call."""

    name = "counting"
    context_window = 128

    def __init__(self) -> None:
        self.calls: list[str] = []
        self.batch_calls: list[list[str]] = []
        self._lock = threading.Lock()

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        params = params or GenerationParams()
        with self._lock:
            self.calls.append(prompt)
        return f"ans:{prompt}:{params.resample_index}"

    def generate_batch(self, prompts, params=None):
        with self._lock:
            self.batch_calls.append(list(prompts))
        return super().generate_batch(prompts, params)


class GatedModel(CountingModel):
    """Blocks inside ``generate`` until the test releases it."""

    name = "gated"

    def __init__(self) -> None:
        super().__init__()
        self.started = threading.Event()
        self.release = threading.Event()

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        self.started.set()
        assert self.release.wait(timeout=10.0), "test never released the model"
        return super().generate(prompt, params)


class ExplodingModel(CountingModel):
    """Raises for prompts containing "boom", answers everything else."""

    name = "exploding"

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        if "boom" in prompt:
            raise ValueError(f"cannot answer {prompt!r}")
        return super().generate(prompt, params)


def _wait_until(predicate, timeout=5.0, message="condition never became true"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.001)
    raise AssertionError(message)


class TestInflightDedup:
    def test_n_threads_same_prompt_one_model_call(self):
        """The satellite contract: N concurrent submitters, one model call."""
        model = GatedModel()
        scheduler = RequestScheduler(model)
        n_threads = 8
        results: list[str | None] = [None] * n_threads
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            try:
                future = scheduler.submit("shared", on_full="drain")
                results[index] = scheduler.wait([future])[0]
            except BaseException as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        threads[0].start()
        # The leader is now inside generate(); the request stays in the
        # in-flight table until its batch settles, so every late submitter
        # must coalesce onto it instead of issuing its own model call.
        assert model.started.wait(timeout=5.0)
        for thread in threads[1:]:
            thread.start()
        _wait_until(
            lambda: scheduler.stats.n_inflight_hits == n_threads - 1,
            message="late submitters did not coalesce onto the leader",
        )
        model.release.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert results == ["ans:shared:0"] * n_threads
        assert model.calls == ["shared"]
        assert scheduler.stats.n_queries == 1
        assert scheduler.stats.n_inflight_hits == n_threads - 1

    def test_duplicate_submissions_share_one_future(self):
        scheduler = RequestScheduler(CountingModel())
        first = scheduler.submit("p")
        second = scheduler.submit("p")
        assert first is second
        assert scheduler.wait([first, second]) == ["ans:p:0", "ans:p:0"]
        assert scheduler.stats.n_inflight_hits == 1

    def test_distinct_params_do_not_coalesce(self):
        model = CountingModel()
        scheduler = RequestScheduler(model)
        first = scheduler.submit("p", GenerationParams(resample_index=0))
        second = scheduler.submit("p", GenerationParams(resample_index=1))
        assert first is not second
        scheduler.wait([first, second])
        assert len(model.calls) == 2

    def test_cache_off_disables_coalescing(self):
        model = CountingModel()
        scheduler = RequestScheduler(model, cache_size=0)
        futures = [scheduler.submit("p"), scheduler.submit("p")]
        assert futures[0] is not futures[1]
        scheduler.wait(futures)
        assert model.calls == ["p", "p"]
        assert scheduler.stats.n_inflight_hits == 0


class TestBackpressure:
    def test_full_queue_blocks_submitters_not_drops(self):
        """The satellite contract: a full admission queue blocks, never drops."""
        model = CountingModel()
        scheduler = RequestScheduler(model, queue_depth=1)
        first = scheduler.submit("a")  # fills the queue

        blocked_result: list[str] = []

        def blocked_submitter() -> None:
            future = scheduler.submit("b", on_full="block")
            blocked_result.append(scheduler.wait([future])[0])

        thread = threading.Thread(target=blocked_submitter)
        thread.start()
        _wait_until(lambda: scheduler.scheduler_stats.n_submitted == 2)
        time.sleep(0.05)
        # The submitter is parked inside submit(): nothing dropped, nothing
        # enqueued past the bound, no exception.
        assert thread.is_alive()
        assert not blocked_result
        assert scheduler.scheduler_stats.n_enqueued == 1

        # Draining the queue frees space and wakes the parked submitter.
        assert scheduler.wait([first]) == ["ans:a:0"]
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert blocked_result == ["ans:b:0"]
        assert scheduler.scheduler_stats.n_enqueued == 2
        assert model.calls == ["a", "b"]

    def test_on_full_drain_makes_progress_single_threaded(self):
        # A single-threaded caller submitting more than queue_depth requests
        # before awaiting any would deadlock under pure blocking; on_full
        # "drain" has the submitter clear the queue itself instead.
        model = CountingModel()
        engine = QueryEngine(model=model, queue_depth=2)
        prompts = [f"p{i}" for i in range(10)]
        assert engine.query_batch(prompts) == [f"ans:p{i}:0" for i in range(10)]
        assert len(model.calls) == 10
        assert all(len(batch) <= 2 for batch in model.batch_calls)

    def test_invalid_on_full_rejected(self):
        scheduler = RequestScheduler(CountingModel())
        with pytest.raises(ConfigurationError, match="on_full"):
            scheduler.submit("p", on_full="drop")

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError, match="max_batch_size"):
            RequestScheduler(CountingModel(), max_batch_size=0)
        with pytest.raises(ConfigurationError, match="max_wait"):
            RequestScheduler(CountingModel(), max_wait=-1.0)
        with pytest.raises(ConfigurationError, match="queue_depth"):
            RequestScheduler(CountingModel(), queue_depth=-3)
        scheduler = RequestScheduler(CountingModel())
        with pytest.raises(ConfigurationError, match="queue_depth"):
            scheduler.configure(queue_depth=0)


class TestFailurePropagation:
    def test_exception_reaches_every_coalesced_future(self):
        """The satellite contract: one failed batch fails all its waiters."""
        scheduler = RequestScheduler(ExplodingModel())
        first = scheduler.submit("boom")
        second = scheduler.submit("boom")  # coalesced onto the first
        with pytest.raises(ValueError, match="cannot answer"):
            scheduler.wait([first])
        assert isinstance(second.exception(), ValueError)
        # ... and the drain loop is not wedged: later requests still flow.
        healthy = scheduler.submit("fine")
        assert scheduler.wait([healthy]) == ["ans:fine:0"]
        assert scheduler.stats.n_queries == 1  # the failed batch is not billed

    def test_failed_request_leaves_inflight_table(self):
        scheduler = RequestScheduler(ExplodingModel())
        future = scheduler.submit("boom")
        with pytest.raises(ValueError):
            scheduler.wait([future])
        # A resubmission gets a fresh request (and fails again), rather than
        # coalescing onto the dead future forever.
        retry = scheduler.submit("boom")
        assert retry is not future
        with pytest.raises(ValueError):
            scheduler.wait([retry])

    def test_engine_batch_failure_then_recovery(self):
        engine = QueryEngine(model=ExplodingModel())
        with pytest.raises(ValueError, match="cannot answer"):
            engine.query_batch(["ok1", "boom", "ok2"])
        assert engine.query_batch(["fine"])[0] == "ans:fine:0"

    def test_miscounting_backend_fails_loudly(self):
        class ShortModel(CountingModel):
            name = "short"

            def generate_batch(self, prompts, params=None):
                return ["only-one"]

        engine = QueryEngine(model=ShortModel())
        with pytest.raises(RuntimeError, match="completions for"):
            engine.query_batch(["a", "b"])


class TestMicrobatching:
    def test_batch_size_cap_splits_drains(self):
        model = CountingModel()
        engine = QueryEngine(model=model, max_batch_size=2)
        engine.query_batch([f"p{i}" for i in range(5)])
        assert [len(batch) for batch in model.batch_calls] == [2, 2, 1]
        assert engine.stats.n_batches == 3

    def test_max_wait_lingers_for_cross_request_batches(self):
        model = CountingModel()
        scheduler = RequestScheduler(model, max_batch_size=2, max_wait=5.0)
        barrier = threading.Barrier(2)
        results: dict[str, str] = {}

        def submitter(prompt: str) -> None:
            barrier.wait()
            future = scheduler.submit(prompt, on_full="drain")
            results[prompt] = scheduler.wait([future])[0]

        threads = [
            threading.Thread(target=submitter, args=(p,)) for p in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        assert results == {"a": "ans:a:0", "b": "ans:b:0"}
        # The first leader lingered until the second submitter's request
        # arrived, so the two independent requests shared one model batch.
        assert len(model.batch_calls) == 1
        assert sorted(model.batch_calls[0]) == ["a", "b"]
        assert scheduler.scheduler_stats.n_cross_request_batches == 1

    def test_stats_snapshot_is_json_safe(self):
        engine = QueryEngine(model=CountingModel())
        engine.query_batch(["a", "b", "c"])
        engine.query_batch(["d"])
        snapshot = engine.stats_snapshot()
        assert snapshot["batch_size_histogram"] == {"3": 1, "1": 1}
        assert snapshot["n_batches"] == 2
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped == snapshot

    def test_reset_stats_clears_scheduler_telemetry(self):
        engine = QueryEngine(model=CountingModel())
        engine.query_batch(["a", "b"])
        assert engine.stats.n_batches == 1
        engine.reset_stats()
        snapshot = engine.stats_snapshot()
        assert snapshot["n_batches"] == 0
        assert snapshot["batch_size_histogram"] == {}
        assert engine.cache_len == 2  # the cache survives, as for QueryStats


class TestRequeryScheduling:
    """Satellite regression: requery routes through the scheduler."""

    def test_requery_goes_through_the_scheduler(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        engine.query_batch(["p"])
        engine.requery(["p"], attempt=1)
        # Both calls drained through generate_batch — the scheduler path —
        # not a direct generate() side door.
        assert model.batch_calls == [["p"], ["p"]]
        assert engine.stats.n_queries == 2
        assert engine.stats.n_resamples == 1
        assert engine.stats.n_batches == 2

    def test_repeated_requery_is_cached_and_stats_pinned(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        [first] = engine.requery(["p"], attempt=2)
        [second] = engine.requery(["p"], attempt=2)
        assert first == second == "ans:p:2"
        assert len(model.calls) == 1
        assert engine.stats.n_queries == 1
        assert engine.stats.n_resamples == 1
        assert engine.stats.n_cache_hits == 1
        assert engine.stats.n_prompts == 2

    def test_requery_wave_is_one_model_batch(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        answers = engine.requery(["a", "b", "a"], 1)
        assert answers == ["ans:a:1", "ans:b:1", "ans:a:1"]
        assert model.batch_calls == [["a", "b"]]
        assert engine.stats.n_batches == 1
        assert engine.stats.n_queries == 2
        assert engine.stats.n_resamples == 2
        assert engine.stats.n_inflight_hits == 1

    def test_requery_rejects_a_bare_str(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        with pytest.raises(TypeError, match="sequence of prompts"):
            engine.requery("ab", 1)
        assert model.calls == []
        assert engine.stats.n_prompts == 0

    def test_concurrent_requeries_coalesce(self):
        model = GatedModel()
        engine = QueryEngine(model=model)
        outcomes: list[str] = []

        def retry() -> None:
            outcomes.extend(engine.requery(["p"], attempt=1))

        leader = threading.Thread(target=retry)
        leader.start()
        assert model.started.wait(timeout=5.0)
        follower = threading.Thread(target=retry)
        follower.start()
        _wait_until(lambda: engine.stats.n_inflight_hits == 1)
        model.release.set()
        leader.join(timeout=10.0)
        follower.join(timeout=10.0)
        assert outcomes == ["ans:p:1", "ans:p:1"]
        assert model.calls == ["p"]
        assert engine.stats.n_queries == 1
        assert engine.stats.n_inflight_hits == 1


class LockProbeStore:
    """Store double that records whether the scheduler lock was held.

    Pins the ``lock-io-held`` fix: write-through ``put_many`` calls must
    happen *outside* the scheduler lock (disk latency must never extend a
    lock hold), while the admission-time ``get`` is the one deliberate,
    allowlisted exception.  It also counts calls, so tests can pin one
    ``put_many`` per drained batch and no per-prompt ``put``.
    """

    def __init__(self) -> None:
        self.lock: threading.Lock | None = None  # wired after construction
        self.held_during_get: list[bool] = []
        self.held_during_put: list[bool] = []
        self.held_during_put_many: list[bool] = []
        self.puts: list[tuple[str, str]] = []
        self.batches: list[list[str]] = []

    def get(self, prompt, params):
        assert self.lock is not None
        self.held_during_get.append(self.lock.locked())
        return None

    def put(self, prompt, params, response):
        assert self.lock is not None
        self.held_during_put.append(self.lock.locked())
        self.puts.append((prompt, response))

    def put_many(self, entries):
        assert self.lock is not None
        self.held_during_put_many.append(self.lock.locked())
        self.batches.append([prompt for prompt, _, _ in entries])
        self.puts.extend((prompt, response) for prompt, _, response in entries)


class FlakyStore:
    """Store double whose next ``put_many`` raises ``failure``.

    Writes per prompt (``put``) are refused outright: the scheduler must
    write a drained batch through ``put_many``.
    """

    def __init__(self, failure: BaseException | None) -> None:
        self.failure = failure
        self.entries: dict[tuple[str, GenerationParams], str] = {}

    def get(self, prompt, params):
        return self.entries.get((prompt, params))

    def put(self, prompt, params, response):
        raise AssertionError("the scheduler wrote a single prompt")

    def put_many(self, entries):
        if self.failure is not None:
            failure, self.failure = self.failure, None
            raise failure
        for prompt, params, response in entries:
            self.entries.setdefault((prompt, params), response)


class TestStoreWriteThrough:
    """One ``put_many`` per drained batch, and a declared outcome when the
    store write fails."""

    def test_one_put_many_per_drained_batch_with_writes(self):
        store = LockProbeStore()
        scheduler = RequestScheduler(ExplodingModel(), store=store, max_batch_size=2)
        store.lock = scheduler._lock
        futures = [scheduler.submit(f"p{i}") for i in range(5)]
        scheduler.wait(futures)
        assert store.batches == [["p0", "p1"], ["p2", "p3"], ["p4"]]
        # A failed model batch has nothing to write.
        with pytest.raises(ValueError):
            scheduler.wait([scheduler.submit("boom")])
        # Cache hits drain nothing, so they write nothing either.
        scheduler.wait([scheduler.submit("p0"), scheduler.submit("p4")])
        assert store.batches == [["p0", "p1"], ["p2", "p3"], ["p4"]]
        assert store.held_during_put == []

    def test_store_failure_fails_every_waiter_and_keeps_the_drainer_alive(self):
        model = GatedModel()
        store = FlakyStore(OSError("disk full"))
        scheduler = RequestScheduler(model, store=store)
        scheduler.start_drainers(1)
        try:
            (drainer,) = scheduler._drainers
            leader = scheduler.submit("p")
            assert model.started.wait(timeout=5.0)
            outcomes: list[BaseException | None] = []

            def coalesced_waiter() -> None:
                future = scheduler.submit("p")
                outcomes.append(future.exception(timeout=5.0))

            follower = threading.Thread(target=coalesced_waiter)
            follower.start()
            _wait_until(lambda: scheduler.stats.n_inflight_hits == 1)
            model.release.set()

            error = leader.exception(timeout=5.0)
            follower.join(timeout=5.0)
            assert not follower.is_alive()
            assert isinstance(error, StoreError)
            assert isinstance(error.__cause__, OSError)
            assert outcomes == [error]

            # The drainer survived the failed write and serves fresh work.
            assert drainer.is_alive()
            assert scheduler.submit("fresh").result(timeout=5.0) == "ans:fresh:0"
            assert scheduler.queue_len == 0
            # The failed batch left the LRU, so a retry reaches the model
            # again and, this time, the store.
            assert scheduler.submit("p").result(timeout=5.0) == "ans:p:0"
            assert model.calls == ["p", "fresh", "p"]
            assert set(store.entries.values()) == {"ans:fresh:0", "ans:p:0"}
        finally:
            scheduler.stop_drainers()

    def test_store_error_reaches_every_future_of_a_caller_drained_batch(self):
        failure = StoreError("database is locked")
        scheduler = RequestScheduler(CountingModel(), store=FlakyStore(failure))
        futures = [scheduler.submit("a"), scheduler.submit("b")]
        with pytest.raises(StoreError) as raised:
            scheduler.wait(futures)
        assert raised.value is failure
        assert all(future.exception() is failure for future in futures)
        assert scheduler.wait([scheduler.submit("c")]) == ["ans:c:0"]


class TestLockDisciplineRegressions:
    """Pinned regressions for the repro-lint lock-discipline fixes."""

    def test_store_writes_happen_outside_the_scheduler_lock(self):
        store = LockProbeStore()
        scheduler = RequestScheduler(model=CountingModel(), store=store)
        store.lock = scheduler._lock
        futures = [scheduler.submit(p) for p in ("a", "b", "c")]
        scheduler._drain_once()
        assert [f.result(timeout=5.0) for f in futures] == [
            "ans:a:0",
            "ans:b:0",
            "ans:c:0",
        ]
        # Write-through landed for every settled request, as one batch...
        assert sorted(p for p, _ in store.puts) == ["a", "b", "c"]
        assert store.held_during_put == []
        # ...and never while the scheduler lock was held.
        assert store.held_during_put_many == [False]
        # The admission-time read IS under the lock (explained allowlist
        # entry in scheduler.py): pin that too, so a future refactor that
        # moves it cannot silently invalidate the suppression comment.
        assert store.held_during_get == [True, True, True]

    def test_configure_partial_update_preserves_other_knobs(self):
        scheduler = RequestScheduler(
            model=CountingModel(), max_batch_size=8, max_wait=0.25, queue_depth=16
        )
        scheduler.configure(max_wait=0.5)
        assert scheduler.max_batch_size == 8
        assert scheduler.max_wait == 0.5
        assert scheduler.queue_depth == 16

    def test_configure_rejects_invalid_mix_without_mutating(self):
        scheduler = RequestScheduler(
            model=CountingModel(), max_batch_size=8, max_wait=0.25, queue_depth=16
        )
        with pytest.raises(ConfigurationError):
            scheduler.configure(max_wait=-1.0)
        assert (
            scheduler.max_batch_size,
            scheduler.max_wait,
            scheduler.queue_depth,
        ) == (8, 0.25, 16)

    def test_lockcheck_instrumentation_is_active_in_this_module(self):
        # This module is in lockcheck's INSTRUMENTED_MODULES: every
        # threading.Lock created here is the TSan-lite wrapper, so the
        # whole scheduler suite doubles as a lock-order/guarded-attr test.
        scheduler = RequestScheduler(model=CountingModel())
        assert type(scheduler._lock).__name__ == "InstrumentedLock"


class TestDrainersAndAsyncSubmit:
    """The serving-layer additions: background drainers, fail-fast submit,
    and the asyncio bridge (``submit_async``)."""

    def test_on_full_fail_raises_instead_of_blocking(self):
        scheduler = RequestScheduler(CountingModel(), queue_depth=1)
        first = scheduler.submit("a")  # fills the queue
        with pytest.raises(SchedulerSaturatedError, match="admission queue"):
            scheduler.submit("b", on_full="fail")
        # The refused request left no residue: draining yields only "a".
        assert scheduler.wait([first]) == ["ans:a:0"]
        assert scheduler.scheduler_stats.n_enqueued == 1

    def test_drainer_resolves_futures_without_caller_participation(self):
        model = CountingModel()
        scheduler = RequestScheduler(model)
        scheduler.start_drainers(1)
        try:
            future = scheduler.submit("a")
            # The caller never drains: the background thread must.
            assert future.result(timeout=10.0) == "ans:a:0"
            assert model.calls == ["a"]
        finally:
            scheduler.stop_drainers()

    def test_stop_drainers_flushes_the_pending_queue(self):
        model = GatedModel()
        scheduler = RequestScheduler(model, max_batch_size=1)
        scheduler.start_drainers(1)
        futures = [scheduler.submit(p) for p in ("a", "b", "c")]
        assert model.started.wait(timeout=10.0)
        model.release.set()
        # stop_drainers must not strand queued requests: the drain loop
        # empties the queue before exiting.
        scheduler.stop_drainers()
        assert sorted(f.result(timeout=10.0) for f in futures) == [
            "ans:a:0",
            "ans:b:0",
            "ans:c:0",
        ]

    def test_drainer_lifecycle_validation(self):
        scheduler = RequestScheduler(CountingModel())
        with pytest.raises(ConfigurationError, match="count"):
            scheduler.start_drainers(0)
        scheduler.start_drainers(2)
        try:
            with pytest.raises(ConfigurationError, match="already running"):
                scheduler.start_drainers(1)
        finally:
            scheduler.stop_drainers()
        # A stopped scheduler can start a fresh pool.
        scheduler.start_drainers(1)
        scheduler.stop_drainers()

    def test_submit_async_resolves_on_the_event_loop(self):
        model = CountingModel()
        scheduler = RequestScheduler(model)
        scheduler.start_drainers(1)
        try:

            async def go() -> list[str]:
                futures = [
                    scheduler.submit_async(p) for p in ("x", "y", "x")
                ]
                return list(await asyncio.gather(*futures))

            assert asyncio.run(go()) == ["ans:x:0", "ans:y:0", "ans:x:0"]
            # The duplicate coalesced: only two prompts reached the model.
            assert sorted(model.calls) == ["x", "y"]
        finally:
            scheduler.stop_drainers()

    def test_submit_async_propagates_saturation_not_a_block(self):
        scheduler = RequestScheduler(CountingModel(), queue_depth=1)
        first = scheduler.submit("a")

        async def go() -> None:
            with pytest.raises(SchedulerSaturatedError):
                await scheduler.submit_async("b")

        asyncio.run(go())
        assert scheduler.wait([first]) == ["ans:a:0"]
