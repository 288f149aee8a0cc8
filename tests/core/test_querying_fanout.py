"""Tests for QueryEngine fan-out, worker spawning and stats reset."""

from __future__ import annotations

import threading
import time

from repro.core.querying import QueryEngine
from repro.llm.base import GenerationParams, LanguageModel
from repro.llm.registry import get_model


class RecordingModel(LanguageModel):
    """Pure test model that records which thread served each prompt."""

    name = "recording"
    context_window = 2048

    def __init__(self) -> None:
        self.calls: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        with self._lock:
            self.calls.append((prompt, threading.current_thread().name))
        return f"echo:{prompt}"


class TestQueryBatchFanout:
    def test_fanout_matches_query_batch_responses_and_stats(self):
        prompts = [f"prompt-{i}" for i in range(20)] + ["prompt-0", "prompt-1"]

        batched = QueryEngine(model=get_model("gpt"), cache_size=64)
        expected = batched.query_batch(prompts)

        fanned = QueryEngine(model=get_model("gpt"), cache_size=64)
        got = fanned.query_batch_fanout(prompts, workers=4)

        assert got == expected
        assert fanned.stats.n_queries == batched.stats.n_queries
        # Which tier absorbs a duplicate (LRU vs in-flight coalescing) is
        # timing-dependent under fan-out; the combined hit count is not.
        assert fanned.stats.n_hits == batched.stats.n_hits
        assert fanned.stats.n_prompts == batched.stats.n_prompts

    def test_fanout_uses_multiple_threads(self):
        class SlowRecordingModel(RecordingModel):
            def generate(self, prompt, params=None):
                time.sleep(0.005)  # long enough for chunks to overlap
                return super().generate(prompt, params)

        model = SlowRecordingModel()
        engine = QueryEngine(model=model, cache_size=64)
        prompts = [f"p{i}" for i in range(16)]
        responses = engine.query_batch_fanout(prompts, workers=4)
        assert responses == [f"echo:p{i}" for i in range(16)]
        assert len({thread for _, thread in model.calls}) > 1

    def test_fanout_deduplicates_against_the_cache(self):
        model = RecordingModel()
        engine = QueryEngine(model=model, cache_size=64)
        engine.query_batch(["p0"])
        engine.query_batch_fanout(["p0", "p1", "p1", "p2"], workers=2)
        called = [prompt for prompt, _ in model.calls]
        assert called.count("p0") == 1  # served from cache on the fan-out
        assert called.count("p1") == 1  # in-batch duplicate answered once
        assert engine.stats.n_hits == 2  # one LRU hit + one coalesced dupe

    def test_fanout_cache_disabled_sends_everything(self):
        model = RecordingModel()
        engine = QueryEngine(model=model, cache_size=0)
        engine.query_batch_fanout(["a", "a", "b"], workers=2)
        assert len(model.calls) == 3
        assert engine.stats.n_queries == 3

    def test_fanout_cache_disabled_keeps_per_occurrence_completions(self):
        """Regression: duplicates map back positionally, like query_batch."""

        class StatefulModel(LanguageModel):
            name = "stateful"
            context_window = 2048

            def __init__(self) -> None:
                self.n = 0
                self._lock = threading.Lock()

            def generate(self, prompt, params=None):
                with self._lock:
                    self.n += 1
                    return f"{prompt}#{self.n}"

        prompts = ["p", "p", "q"]
        expected = QueryEngine(model=StatefulModel(), cache_size=0).query_batch(prompts)
        got = QueryEngine(model=StatefulModel(), cache_size=0).query_batch_fanout(
            prompts, workers=1
        )
        assert got == expected  # ['p#1', 'p#2', 'q#3'], not the last 'p' twice

    def test_fanout_empty_batch(self):
        engine = QueryEngine(model=RecordingModel())
        assert engine.query_batch_fanout([], workers=4) == []

    def test_explicit_chunk_size(self):
        model = RecordingModel()
        engine = QueryEngine(model=model, cache_size=64)
        responses = engine.query_batch_fanout(
            [f"p{i}" for i in range(10)], workers=3, chunk_size=2
        )
        assert responses == [f"echo:p{i}" for i in range(10)]


class TestResetStats:
    def test_reset_stats_zeroes_counters_keeps_cache(self):
        engine = QueryEngine(model=get_model("gpt"), cache_size=64)
        engine.query_batch(["a prompt"])
        engine.query_batch(["a prompt"])
        assert engine.stats.n_queries == 1
        assert engine.stats.n_cache_hits == 1
        engine.reset_stats()
        assert engine.stats.n_queries == 0
        assert engine.stats.n_cache_hits == 0
        assert engine.cache_len == 1
        engine.query_batch(["a prompt"])
        assert engine.stats.n_queries == 0  # still served from the kept cache
        assert engine.stats.n_cache_hits == 1
