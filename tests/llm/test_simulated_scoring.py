"""Pin the simulated model's option scoring and completions.

The simulator scores a prompt set-at-a-time: each label set's invariants are
computed once, each context value is scored once under all of the set's
concepts (and memoized), and every option's score is an array element.
Every table and figure this repository reproduces is answered by the
simulator, so the scoring must stay bit-identical to the per-label loop it
replaced, and the completion to the decision that sorted those scores: both
are kept below, verbatim, as the reference.  A golden SHA-256 over
``generate_batch`` completions pins the end-to-end behaviour on SOTAB-91
prompts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialization import PromptSerializer, PromptStyle
from repro.datasets.sotab import SOTAB91_CLASSES, load_sotab91
from repro.llm.base import GenerationParams
from repro.llm.concepts import label_tokens
from repro.llm.knowledge import CONCEPTS, Concept, score_concept
from repro.llm.profiles import list_profiles
from repro.llm.prompt_parsing import ParsedPrompt, parse_prompt
from repro.llm.simulated import (
    _GENERIC_TOKENS,
    OptionScore,
    SimulatedLLM,
    _Scores,
    _stable_seed,
)


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


def _reference_free_form_answer(parsed, winner, rng) -> str:
    """``SimulatedLLM._free_form_answer`` from before the decision read
    arrays, verbatim (it took the winning :class:`OptionScore`)."""
    roll = rng.random()
    if winner is not None and roll < 0.45:
        # Near-miss: the model describes the concept rather than naming the
        # label.  Similarity remapping can usually recover this.
        concept = CONCEPTS.get(winner.concept_name or "")
        if concept is not None and concept.description:
            return concept.description
        return f"a column of {winner.label} values"
    if winner is not None and roll < 0.75:
        # Verbose phrasing that still contains the label: remap-contains
        # recovers this.
        return f"The column appears to contain {winner.label} entries"
    if parsed.context_values and roll < 0.9:
        # Parroting back part of the input (Section 3.2 notes this failure).
        return parsed.context_values[int(rng.integers(0, len(parsed.context_values)))]
    return "I don't know"


def _reference_decide(self, parsed, scores, rng) -> str:
    """The completion from a prompt's option scores as
    ``SimulatedLLM._generate_parsed`` decided it before it read arrays: two
    stable descending sorts, verbatim (``self`` is the model)."""
    ordered = sorted(scores, key=lambda s: s.total, reverse=True)
    winner = ordered[0]

    # Out-of-label answers become more likely the less separable the
    # candidate labels are.  Ambiguity is measured on the noise-free
    # evidence (what the column actually supports), not on the sampled
    # totals, so easy benchmarks keep a low remap rate (Table 7).
    clean = sorted((s.total - s.noise for s in scores), reverse=True)
    clean_margin = clean[0] - clean[1] if len(clean) > 1 else 1.0
    out_of_label = self.profile.out_of_label_rate
    if clean_margin < 0.05:
        out_of_label *= 3.5
    elif clean_margin < 0.2:
        out_of_label *= 1.8
    out_of_label = min(out_of_label, 0.9)

    if rng.random() < out_of_label:
        return _reference_free_form_answer(parsed, winner, rng)
    if rng.random() < self.profile.verbosity:
        return f"{winner.label} (most likely)"
    return winner.label


def _reference_generate(self, prompt, params) -> str:
    """``SimulatedLLM.generate`` (without the round trip) on the reference
    scoring and decision."""
    parsed = parse_prompt(prompt)
    params = params or GenerationParams()
    rng = self._rng(prompt, params)
    if not parsed.has_options:
        guess = self._best_concept_guess(parsed)
        if rng.random() < self.profile.verbosity:
            return f"This looks like a {guess} column"
        return guess
    scores = _reference_score_options(self, parsed, params, rng)
    return _reference_decide(self, parsed, scores, rng)


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
        # Eight threads race on one model's memos, which bounds of 3 label
        # sets and 2 values keep clearing; every score must still match the
        # per-label loop.
        model = SimulatedLLM("gpt")
        model._LABEL_SET_MEMO_LIMIT = 3
        model._VALUE_MEMO_LIMIT = 2
        contexts = [
            ("Alaska", "Texas"),
            ("http://a.com/x", "12"),
            ("n/a", "", "Ohio"),
            ("John Smith", "Texas", "3.5", "John Smith", "10001"),
        ]
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
        # Each thread checks the bound before its one insert, so a race can
        # overshoot the bound by at most one row per other thread.
        for entry in model._label_sets.values():
            assert len(entry.value_rows) <= model._VALUE_MEMO_LIMIT + len(threads) - 1


class TestValueMemo:
    def test_bounded_value_memo_evicts_without_changing_scores(self):
        model = SimulatedLLM("t5")
        model._VALUE_MEMO_LIMIT = 2
        contexts = [
            ("Alaska", "Texas", "n/a"),
            ("Texas", "12", "3.5", "Alaska"),
            ("", "Ohio", "Ohio", "http://a.com/x"),
        ]
        for _ in range(2):
            for index, context in enumerate(contexts):
                parsed = ParsedPrompt(
                    context_values=context,
                    options=tuple(_LABEL_POOL[:12]),
                    style_letter="S",
                    has_options=True,
                )
                fast = model.score_options(
                    parsed, GenerationParams(), np.random.default_rng(index)
                )
                reference = _reference_score_options(
                    model, parsed, GenerationParams(), np.random.default_rng(index)
                )
                assert [_bits(s) for s in fast] == [_bits(s) for s in reference]
                (entry,) = model._label_sets.values()
                assert 0 < len(entry.value_rows) <= 2

    def test_concept_scores_sum_in_value_order(self):
        # The "text" concept scores these 0.4, 0.2, 0.4, ...: summed in
        # another order, its mean differs in the last bit.
        context = (
            "STEAMER DELAYED BY HEAVY SEAS", "TBD", "STEAMER DELAYED BY HEAVY SEAS",
            "MINERS REACH WAGE AGREEMENT", "WHEAT PRICES RISE SHARPLY",
            "LOCAL COUNCIL APPROVES NEW BRIDGE", "FLOOD WATERS BEGIN TO RECEDE",
        )
        parsed = ParsedPrompt(
            context_values=context,
            options=("text", "headline", "city", "year"),
            style_letter="S",
            has_options=True,
        )
        model = SimulatedLLM("gpt")
        for seed in range(2):  # the second pass reads the memoized rows
            fast = model.score_options(
                parsed, GenerationParams(), np.random.default_rng(seed)
            )
            reference = _reference_score_options(
                model, parsed, GenerationParams(), np.random.default_rng(seed)
            )
            assert [_bits(s) for s in fast] == [_bits(s) for s in reference]

    def test_each_distinct_value_is_scored_once(self, monkeypatch):
        calls: list[str] = []
        score_value = Concept.score_value

        def counted(concept, value):
            calls.append(value)
            return score_value(concept, value)

        monkeypatch.setattr(Concept, "score_value", counted)
        model = SimulatedLLM("gpt")
        parsed = ParsedPrompt(
            context_values=("Ohio", "", "12", "Ohio", "n/a"),
            options=tuple(_LABEL_POOL[:30]),
            style_letter="S",
            has_options=True,
        )
        model.score_options(parsed, GenerationParams(), np.random.default_rng(0))
        n_concepts = len(model._label_set(parsed.options).concepts)
        assert n_concepts > 1
        # The blank value is never scored; the repeated one only once.
        assert sorted(calls) == sorted(["Ohio", "12", "n/a"] * n_concepts)
        calls.clear()
        # A resample retry of the same column skips the detectors.
        model.score_options(
            parsed, GenerationParams().permuted(1), np.random.default_rng(1)
        )
        assert calls == []

    def test_pickled_model_is_unchanged_by_use(self):
        model = SimulatedLLM("gpt")
        before = pickle.dumps(model)
        model.generate_batch(_golden_prompts()[:12])
        assert any(entry.value_rows for entry in model._label_sets.values())
        assert pickle.dumps(model) == before


#: Single-label sets that serialize and parse back to exactly one option.
single_labels = st.sampled_from(
    [label for label in _LABEL_POOL if label.strip() and "," not in label]
).map(lambda label: [label])


class TestCompletionsMatchTheSortedDecision:
    @given(
        st.sampled_from(sorted(_MODELS)),
        st.one_of(labels, single_labels),
        values,
        st.sampled_from(PromptStyle.zero_shot_styles()),
        params,
    )
    @settings(max_examples=300, deadline=None)
    def test_generate_and_generate_batch_match(self, profile, options, context,
                                               style, generation):
        model = _MODELS[profile]
        prompt = (
            PromptSerializer(style=style, context_window=4096)
            .serialize(context, options)
            .text
        )
        retry = generation.permuted(generation.resample_index + 1)
        expected = _reference_generate(model, prompt, generation)
        assert model.generate(prompt, generation) == expected
        batch = model.generate_batch(
            [prompt, prompt, prompt], [generation, retry, generation]
        )
        assert batch == [expected, _reference_generate(model, prompt, retry), expected]

    @given(
        st.sampled_from(list_profiles()),
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.1, 0.2]), st.sampled_from([-0.1, 0.0, 0.1])
            ),
            min_size=1,
            max_size=6,
        ),
        params,
    )
    @settings(max_examples=300, deadline=None)
    def test_ties_resolve_as_the_stable_sorts_did(self, profile, pairs, generation):
        # Sampled totals never tie; these do, and their clean margins fall on
        # and between the 0.05 and 0.2 thresholds.  The out-of-label rate is
        # raised so the margin shows in the completion.
        model = SimulatedLLM(profile)
        model.profile = dataclasses.replace(model.profile, out_of_label_rate=0.25)
        options = tuple(f"label {index}" for index in range(len(pairs)))
        parsed = ParsedPrompt(
            context_values=("Ohio", "12"), options=options, style_letter="S",
            has_options=True,
        )
        label_set = model._label_set(options)
        total = np.array([t for t, _ in pairs])
        noise = np.array([n for _, n in pairs])
        zeros = np.zeros(len(pairs))
        model._score = lambda *_: _Scores(label_set, zeros, zeros, noise, total)
        scores = [
            OptionScore(label=label, concept_name=name, evidence=0.0, lexical=0.0,
                        adjustment=adjustment, noise=z, total=t)
            for label, name, adjustment, (t, z) in zip(
                options, label_set.concept_names, label_set.adjustments.tolist(), pairs
            )
        ]
        prompt = "a prompt"
        expected = _reference_decide(
            model, parsed, scores, model._rng(prompt, generation)
        )
        assert model._generate_parsed(prompt, parsed, generation) == expected


#: SHA-256 over every completion of :func:`_golden_completions`, computed
#: with the per-label scoring loop above.
GOLDEN_COMPLETIONS_SHA256 = (
    "79532b35ee527cf936d98f2fb79a7ee5e840eaff50d245acf021ae3d703b8a62"
)


def _golden_prompts() -> list[str]:
    """8 SOTAB-91 columns x the six zero-shot styles."""
    benchmark = load_sotab91(n_columns=8, n_train_columns=0, seed=11)
    label_set = list(benchmark.label_set)
    return [
        PromptSerializer(style=style, context_window=4096)
        .serialize(labeled.column.values[:8], label_set)
        .text
        for style in PromptStyle.zero_shot_styles()
        for labeled in benchmark.columns
    ]


def _golden_completions() -> list[str]:
    """SOTAB-91 prompts x the six zero-shot styles x every profile x
    resample attempts 0-3, one ``generate_batch`` call per profile."""
    prompts = _golden_prompts()
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
