"""Unit tests for the model-querying stage."""

from __future__ import annotations

from repro.core.querying import QueryEngine, QueryStats
from repro.llm.base import GenerationParams, LanguageModel


class EchoModel(LanguageModel):
    """Test double that records the prompts and params it receives."""

    name = "echo"
    context_window = 128

    def __init__(self) -> None:
        self.calls: list[tuple[str, GenerationParams]] = []

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        params = params or GenerationParams()
        self.calls.append((prompt, params))
        return f"echo:{params.resample_index}"


class TestQueryStats:
    def test_record_counts_queries_and_resamples(self):
        stats = QueryStats()
        stats.record("abc", resample_index=0)
        stats.record("abcdef", resample_index=2)
        assert stats.n_queries == 2
        assert stats.n_resamples == 1
        assert stats.total_prompt_chars == 9


class TestQueryEngine:
    def test_query_uses_default_params(self):
        model = EchoModel()
        engine = QueryEngine(model=model)
        assert engine.query("hello") == "echo:0"
        assert engine.stats.n_queries == 1
        assert model.calls[0][1].temperature == 0.0

    def test_requery_permutes_parameters(self):
        model = EchoModel()
        engine = QueryEngine(model=model)
        engine.query("hello")
        engine.requery(["hello"], attempt=2)
        _, permuted = model.calls[1]
        assert permuted.resample_index == 2
        assert permuted.temperature > 0.0
        assert engine.stats.n_resamples == 1

    def test_explicit_params_override_defaults(self):
        model = EchoModel()
        engine = QueryEngine(model=model, params=GenerationParams(temperature=0.5))
        engine.query("x", GenerationParams(temperature=1.5))
        assert model.calls[0][1].temperature == 1.5


class TestGenerationParams:
    def test_permuted_is_identity_for_zero(self):
        params = GenerationParams(temperature=0.3, top_p=0.9)
        assert params.permuted(0) == params

    def test_permuted_scales_temperature_and_caps(self):
        params = GenerationParams(temperature=0.4)
        one = params.permuted(1)
        two = params.permuted(2)
        assert one.temperature > params.temperature
        assert two.temperature > one.temperature
        assert params.permuted(10).temperature <= 2.0

    def test_permuted_adjusts_top_p_and_repetition(self):
        params = GenerationParams(top_p=1.0, repetition_penalty=1.0)
        moved = params.permuted(3)
        assert moved.top_p < 1.0
        assert moved.repetition_penalty > 1.0
        assert moved.resample_index == 3
