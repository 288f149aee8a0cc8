"""Pin the simulated model's option scoring and completions.

:meth:`SimulatedLLM.score_options` computes each label set's invariants once
and reuses them across prompts.  Every table and figure this repository
reproduces is answered by the simulator, so the scoring must stay
bit-identical to the per-label loop it replaced: that loop is kept below,
verbatim, as the reference.  A golden SHA-256 over ``generate_batch``
completions pins the end-to-end behaviour on SOTAB-91 prompts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialization import PromptSerializer, PromptStyle
from repro.datasets.sotab import SOTAB91_CLASSES, load_sotab91
from repro.llm.base import GenerationParams
from repro.llm.concepts import label_tokens
from repro.llm.knowledge import CONCEPTS, score_concept
from repro.llm.profiles import list_profiles
from repro.llm.prompt_parsing import ParsedPrompt
from repro.llm.simulated import _GENERIC_TOKENS, OptionScore, SimulatedLLM, _stable_seed


def _lexical_affinity(label: str, values: tuple[str, ...]) -> float:
    """Fraction of the label's distinctive tokens found in the context."""
    tokens = [t for t in label_tokens(label) if len(t) > 3 and t not in _GENERIC_TOKENS]
    if not tokens:
        return 0.0
    haystack = " ".join(values).lower()
    hits = sum(1 for t in tokens if t in haystack)
    return hits / len(tokens)


def _reference_score_options(self, parsed, params, rng) -> list[OptionScore]:
    """The per-label ``SimulatedLLM.score_options`` from before the label-set
    invariants were hoisted, verbatim (``self`` is the model) except that
    ``_lexical_affinity`` is a module function here."""
    profile = self.profile
    skill = max(0.05, profile.base_skill + profile.style_modifier(parsed.style_letter))
    noise_scale = self._noise_scale(parsed, params, len(parsed.options))
    values = parsed.context_values
    scores: list[OptionScore] = []
    for index, label in enumerate(parsed.options):
        resolved = self.resolver.resolve(label)
        evidence = 0.0
        concept_name = None
        if resolved.concept is not None:
            concept_name = resolved.concept.name
            raw = score_concept(resolved.concept, values)
            specificity = min(resolved.concept.specificity, 3.2) / 3.2
            evidence = raw * (0.55 + 0.45 * specificity) * resolved.match_quality
        lexical = _lexical_affinity(label, values) * profile.lexical_affinity_weight
        adjustment = 0.0
        normalized = label.strip().lower()
        if concept_name is not None:
            adjustment += profile.class_adjustments.get(concept_name, 0.0)
        adjustment += profile.class_adjustments.get(normalized, 0.0)
        # Deterministic label-position sensitivity (Appendix C): the same
        # label at a different position receives a slightly different
        # prior, which is the functional equivalent of label noise.
        position_jitter = (
            (_stable_seed(profile.name, label, index) % 1000) / 1000.0 - 0.5
        ) * 0.05
        noise = float(rng.normal(0.0, noise_scale))
        total = skill * (evidence + lexical) + adjustment + position_jitter + noise
        scores.append(
            OptionScore(
                label=label,
                concept_name=concept_name,
                evidence=evidence,
                lexical=lexical,
                adjustment=adjustment,
                noise=noise,
                total=total,
            )
        )
    return scores


def _bits(score: OptionScore) -> tuple:
    """An OptionScore's fields with every float as its exact hex form."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(score)
    )


# ---------------------------------------------------------------------------
# Strategies

#: SOTAB-91 labels, concept names, labels without distinctive tokens
#: ("url", "a", "name of the"), labels no concept resolves, and blanks.
_LABEL_POOL = (
    [label for label, _, _ in SOTAB91_CLASSES]
    + list(CONCEPTS)[:20]
    + ["a", "name of the", "zzqx", "foo bar baz", "", "  ", "n/a", "region-in-the-bronx"]
)
#: Label sets, with up to three leading labels repeated at the end.
labels = st.builds(
    lambda drawn, repeats: drawn + drawn[:repeats],
    st.lists(st.one_of(st.sampled_from(_LABEL_POOL), st.text(max_size=15)), max_size=14),
    st.integers(0, 3),
)

#: Recognisable values, placeholders, extended-context markers and blanks.
_VALUE_POOL = [
    "Alaska", "Texas", "http://a.com/x", "www.b.org/y", "12", "3.5", "1,200",
    "John Smith", "2021-01-01", "New York Times", "c1ccccc1", "10001",
    "n/a", "-", "unknown", "0", "", "  ", "TABLE NAME: t.csv", "std: 3", "col1: x",
]
values = st.lists(
    st.one_of(st.sampled_from(_VALUE_POOL), st.text(max_size=20)), max_size=10
)

base_params = st.builds(
    GenerationParams,
    temperature=st.floats(-0.5, 2.5),
    top_p=st.floats(0.05, 1.0),
    repetition_penalty=st.floats(0.8, 2.0),
    seed=st.integers(0, 2**16),
)
params = st.builds(lambda p, k: p.permuted(k), base_params, st.integers(0, 4))

#: One model per profile, shared across examples so the label-set memo is
#: reused between prompts and label sets.
_MODELS = {name: SimulatedLLM(name) for name in list_profiles()}


class TestScoreOptionsMatchesPerLabelLoop:
    @given(
        st.sampled_from(sorted(_MODELS)),
        labels,
        values,
        st.sampled_from(list("CKISNB?") + ["FT"]),
        params,
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_option_scores_identical(self, profile, options, context, letter,
                                     generation, seed):
        model = _MODELS[profile]
        parsed = ParsedPrompt(
            context_values=tuple(context),
            options=tuple(options),
            style_letter=letter,
            has_options=bool(options),
        )
        fast_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        fast = model.score_options(parsed, generation, fast_rng)
        reference = _reference_score_options(model, parsed, generation, reference_rng)
        assert [_bits(s) for s in fast] == [_bits(s) for s in reference]
        # Generation keeps drawing after scoring: the stream must line up.
        assert fast_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_bounded_memo_evicts_without_changing_scores(self):
        model = SimulatedLLM("t5")
        model._LABEL_SET_MEMO_LIMIT = 2
        context = ("Alaska", "Texas", "n/a")
        for _ in range(2):
            for size in range(3, 8):
                parsed = ParsedPrompt(
                    context_values=context,
                    options=tuple(_LABEL_POOL[:size]),
                    style_letter="S",
                    has_options=True,
                )
                fast = model.score_options(
                    parsed, GenerationParams(), np.random.default_rng(size)
                )
                reference = _reference_score_options(
                    model, parsed, GenerationParams(), np.random.default_rng(size)
                )
                assert [_bits(s) for s in fast] == [_bits(s) for s in reference]
                assert len(model._label_sets) <= 2

    def test_threads_sharing_one_model_score_identically(self):
        # Eight threads race on one model's memo, which a bound of 3 keeps
        # clearing; every score must still match the per-label loop.
        model = SimulatedLLM("gpt")
        model._LABEL_SET_MEMO_LIMIT = 3
        contexts = [("Alaska", "Texas"), ("http://a.com/x", "12"), ("n/a", "", "Ohio")]
        cases = [
            ParsedPrompt(context_values=context, options=tuple(_LABEL_POOL[i:i + 12]),
                         style_letter="S", has_options=True)
            for i in range(0, 60, 6)
            for context in contexts
        ]
        expected = [
            [_bits(s) for s in _reference_score_options(
                model, parsed, GenerationParams(), np.random.default_rng(index)
            )]
            for index, parsed in enumerate(cases)
        ]
        mismatches: list[int] = []
        finished: list[int] = []

        def worker(offset: int) -> None:
            for _ in range(5):
                for step in range(len(cases)):
                    index = (step + offset) % len(cases)
                    scores = model.score_options(
                        cases[index], GenerationParams(), np.random.default_rng(index)
                    )
                    if [_bits(s) for s in scores] != expected[index]:
                        mismatches.append(index)
            finished.append(offset)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(8))  # no worker raised
        assert mismatches == []


#: SHA-256 over every completion of :func:`_golden_completions`, computed
#: with the per-label scoring loop above.
GOLDEN_COMPLETIONS_SHA256 = (
    "79532b35ee527cf936d98f2fb79a7ee5e840eaff50d245acf021ae3d703b8a62"
)


def _golden_completions() -> list[str]:
    """SOTAB-91 prompts x the six zero-shot styles x every profile x
    resample attempts 0-3, one ``generate_batch`` call per profile."""
    benchmark = load_sotab91(n_columns=8, n_train_columns=0, seed=11)
    label_set = list(benchmark.label_set)
    prompts = [
        PromptSerializer(style=style, context_window=4096)
        .serialize(labeled.column.values[:8], label_set)
        .text
        for style in PromptStyle.zero_shot_styles()
        for labeled in benchmark.columns
    ]
    attempts = [GenerationParams().permuted(k) for k in range(4)]
    batch = [prompt for prompt in prompts for _ in attempts]
    batch_params = [attempt for _ in prompts for attempt in attempts]
    completions: list[str] = []
    for name in list_profiles():
        completions.extend(SimulatedLLM(name).generate_batch(batch, batch_params))
    return completions


def test_generate_batch_completions_match_golden_digest():
    digest = hashlib.sha256()
    for completion in _golden_completions():
        digest.update(completion.encode("utf-8") + b"\x00")
    assert digest.hexdigest() == GOLDEN_COMPLETIONS_SHA256
