"""Tests for the query engine's persistent-store tier (LRU → store → model)."""

from __future__ import annotations

import pytest

from repro.core.querying import QueryEngine
from repro.core.store import open_store
from repro.llm.base import GenerationParams, LanguageModel


class CountingModel(LanguageModel):
    """Pure test double: completion is a function of (prompt, params)."""

    name = "counting"
    context_window = 2048

    def __init__(self) -> None:
        self.calls = 0

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        self.calls += 1
        params = params or GenerationParams()
        return f"answer:{prompt}:{params.resample_index}"


@pytest.fixture(params=["sqlite"])
def store(request, tmp_path):
    store = open_store(request.param, tmp_path)
    yield store
    store.close()


def _reopened(store, tmp_path):
    return open_store(store.kind, tmp_path)


class TestStoreTier:
    def test_miss_writes_through_hit_skips_model(self, store):
        model = CountingModel()
        engine = QueryEngine(model=model, store=store)
        assert engine.query_batch(["p1"])[0] == "answer:p1:0"
        assert model.calls == 1
        assert len(store) == 1

        # A second engine over the same store: no LRU, disk answers.
        cold_model = CountingModel()
        warm = QueryEngine(model=cold_model, store=store)
        assert warm.query_batch(["p1"])[0] == "answer:p1:0"
        assert cold_model.calls == 0
        assert warm.stats.n_store_hits == 1
        assert warm.stats.n_queries == 0

    def test_store_hit_promotes_into_lru(self, store):
        QueryEngine(model=CountingModel(), store=store).query_batch(["p1"])
        warm = QueryEngine(model=CountingModel(), store=store)
        warm.query_batch(["p1"])
        assert warm.cache_len == 1
        warm.query_batch(["p1"])  # second time must be an LRU hit, not a disk read
        assert warm.stats.n_store_hits == 1
        assert warm.stats.n_cache_hits == 1

    def test_survives_process_restart(self, store, tmp_path):
        QueryEngine(model=CountingModel(), store=store).query_batch(["p1"])
        reopened = _reopened(store, tmp_path)
        try:
            model = CountingModel()
            engine = QueryEngine(model=model, store=reopened)
            assert engine.query_batch(["p1"])[0] == "answer:p1:0"
            assert model.calls == 0
        finally:
            reopened.close()

    def test_batch_path_uses_and_fills_store(self, store):
        model = CountingModel()
        engine = QueryEngine(model=model, store=store)
        engine.query_batch(["a", "b", "a"])
        assert model.calls == 2
        assert len(store) == 2

        cold = CountingModel()
        warm = QueryEngine(model=cold, store=store)
        responses = warm.query_batch(["a", "b", "c"])
        assert responses == ["answer:a:0", "answer:b:0", "answer:c:0"]
        assert cold.calls == 1  # only "c" reaches the model
        assert warm.stats.n_store_hits == 2
        assert warm.stats.n_queries == 1

    def test_batch_duplicates_of_store_hit_count_once(self, store):
        QueryEngine(model=CountingModel(), store=store).query_batch(["a"])
        warm = QueryEngine(model=CountingModel(), store=store)
        warm.query_batch(["a", "a", "a"])
        # One disk read for the unique key, LRU hits for the duplicates.
        assert warm.stats.n_store_hits == 1
        assert warm.stats.n_cache_hits == 2
        assert warm.stats.n_prompts == 3

    def test_fanout_parent_owns_store(self, store):
        model = CountingModel()
        engine = QueryEngine(model=model, store=store)
        engine.query_batch_fanout(["a", "b", "c", "d"], workers=2)
        assert len(store) == 4

    def test_resample_params_are_stored_separately(self, store):
        model = CountingModel()
        engine = QueryEngine(model=model, store=store)
        engine.query_batch(["p"])
        engine.requery(["p"], attempt=1)
        assert len(store) == 2
        warm = QueryEngine(model=CountingModel(), store=store)
        assert warm.requery(["p"], attempt=1) == ["answer:p:1"]
        assert warm.stats.n_store_hits == 1

    def test_cache_size_zero_bypasses_store(self, store):
        store.put("p", GenerationParams(), "stale-from-disk")
        model = CountingModel()
        engine = QueryEngine(model=model, store=store, cache_size=0)
        # The stateful-model escape hatch must ignore the disk tier entirely:
        # no reads (call-order semantics) and no writes.
        assert engine.query_batch(["p"])[0] == "answer:p:0"
        assert engine.query_batch(["q", "q"]) == ["answer:q:0", "answer:q:0"]
        assert model.calls == 3
        assert engine.stats.n_store_hits == 0
        assert store.get("q", GenerationParams()) is None

    def test_hit_rate_counts_both_tiers(self, store):
        QueryEngine(model=CountingModel(), store=store).query_batch(["p"])
        warm = QueryEngine(model=CountingModel(), store=store)
        warm.query_batch(["p"])   # store hit
        warm.query_batch(["p"])   # LRU hit
        warm.query_batch(["new"])  # miss
        assert warm.stats.n_hits == 2
        assert warm.stats.hit_rate == pytest.approx(2 / 3)

    def test_reset_stats_keeps_store_and_counters_restart(self, store):
        model = CountingModel()
        engine = QueryEngine(model=model, store=store)
        engine.query_batch(["p"])
        engine.reset_stats()
        assert engine.stats.n_store_hits == 0
        assert len(store) == 1
