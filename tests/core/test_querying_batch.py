"""Tests for the batched query path and the (prompt, params) LRU cache."""

from __future__ import annotations

from repro.core.querying import QueryEngine
from repro.llm.base import GenerationParams, LanguageModel


class CountingModel(LanguageModel):
    """Pure test double: deterministic output, counts generate calls."""

    name = "counting"
    context_window = 128

    def __init__(self) -> None:
        self.calls: list[tuple[str, GenerationParams]] = []
        self.batch_calls: list[list[str]] = []

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        params = params or GenerationParams()
        self.calls.append((prompt, params))
        return f"ans:{prompt}:{params.resample_index}"

    def generate_batch(self, prompts, params=None):
        self.batch_calls.append(list(prompts))
        return super().generate_batch(prompts, params)


class TestQueryCache:
    def test_repeated_prompt_hits_cache(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        first = engine.query_batch(["hello"])[0]
        second = engine.query_batch(["hello"])[0]
        assert first == second
        assert len(model.calls) == 1
        assert engine.stats.n_queries == 1
        assert engine.stats.n_cache_hits == 1
        assert engine.stats.n_prompts == 2

    def test_distinct_params_are_distinct_keys(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        engine.query_batch(["hello"])
        engine.requery(["hello"], attempt=1)
        assert len(model.calls) == 2
        assert engine.stats.n_cache_hits == 0

    def test_cache_disabled(self):
        model = CountingModel()
        engine = QueryEngine(model=model, cache_size=0)
        engine.query_batch(["hello"])
        engine.query_batch(["hello"])
        assert len(model.calls) == 2
        assert engine.stats.n_cache_hits == 0

    def test_lru_eviction_bounds_cache(self):
        model = CountingModel()
        engine = QueryEngine(model=model, cache_size=2)
        engine.query_batch(["a"])
        engine.query_batch(["b"])
        engine.query_batch(["c"])  # evicts "a"
        assert engine.cache_len == 2
        engine.query_batch(["a"])
        assert len(model.calls) == 4

    def test_lru_recency_updated_on_hit(self):
        model = CountingModel()
        engine = QueryEngine(model=model, cache_size=2)
        engine.query_batch(["a"])
        engine.query_batch(["b"])
        engine.query_batch(["a"])  # refresh "a"; "b" is now oldest
        engine.query_batch(["c"])  # evicts "b"
        engine.query_batch(["a"])
        assert [prompt for prompt, _ in model.calls] == ["a", "b", "c"]

    def test_clear_cache(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        engine.query_batch(["a"])
        engine.clear_cache()
        assert engine.cache_len == 0
        engine.query_batch(["a"])
        assert len(model.calls) == 2

    def test_hit_rate(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        assert engine.stats.hit_rate == 0.0
        engine.query_batch(["a"])
        engine.query_batch(["a"])
        engine.query_batch(["a"])
        engine.query_batch(["b"])
        assert engine.stats.hit_rate == 0.5


class TestQueryBatch:
    def test_empty_batch(self):
        engine = QueryEngine(model=CountingModel())
        assert engine.query_batch([]) == []
        assert engine.stats.n_batches == 0

    def test_batch_matches_sequential_responses(self):
        prompts = ["p1", "p2", "p3", "p1"]
        sequential_engine = QueryEngine(model=CountingModel(), cache_size=0)
        sequential = [sequential_engine.query_batch([p])[0] for p in prompts]
        batched = QueryEngine(model=CountingModel()).query_batch(prompts)
        assert batched == sequential

    def test_batch_deduplicates_within_batch(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        engine.query_batch(["x", "y", "x", "x"])
        assert model.batch_calls == [["x", "y"]]
        assert engine.stats.n_queries == 2
        # Duplicates of a *pending* prompt coalesce onto its in-flight
        # request rather than hitting the (not yet filled) LRU.
        assert engine.stats.n_inflight_hits == 2
        assert engine.stats.n_cache_hits == 0
        assert engine.stats.n_hits == 2
        assert engine.stats.n_prompts == 4
        assert engine.stats.n_batches == 1

    def test_batch_uses_cache_across_batches(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        first = engine.query_batch(["x", "y"])
        second = engine.query_batch(["y", "z", "x"])
        assert second[2] == first[0] and second[0] == first[1]
        assert [prompt for prompt, _ in model.calls] == ["x", "y", "z"]
        assert engine.stats.n_cache_hits == 2

    def test_batch_per_prompt_params(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        params = [GenerationParams(resample_index=0), GenerationParams(resample_index=1)]
        out = engine.query_batch(["p", "p"], params)
        assert out == ["ans:p:0", "ans:p:1"]
        assert engine.stats.n_queries == 2

    def test_batch_without_cache_preserves_call_order(self):
        # cache_size=0 is the escape hatch for stateful models: duplicates
        # must all reach the model, in order, with no dedup and no "hits".
        model = CountingModel()
        engine = QueryEngine(model=model, cache_size=0)
        engine.query_batch(["x", "x", "y"])
        assert model.batch_calls == [["x", "x", "y"]]
        assert engine.stats.n_queries == 3
        assert engine.stats.n_cache_hits == 0

    def test_single_query_sees_batch_cache_entries(self):
        model = CountingModel()
        engine = QueryEngine(model=model)
        engine.query_batch(["x"])
        assert engine.query_batch(["x"])[0] == "ans:x:0"
        assert len(model.calls) == 1
