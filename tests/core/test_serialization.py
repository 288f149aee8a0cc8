"""Unit tests for prompt serialization (styles, overflow, numeric restriction)."""

from __future__ import annotations

import pytest

from repro.core.serialization import (
    PromptSerializer,
    PromptStyle,
    SerializedPrompt,
    detect_numeric_context,
    join_classnames,
    join_context,
    prompt_style_from_name,
)
from repro.datasets.sotab import load_sotab27, load_sotab91
from repro.exceptions import ConfigurationError, SerializationError
from repro.llm.tokenizer import SimpleTokenizer

LABELS = ["state", "person", "url", "number"]
CONTEXT = ["Alaska", "Colorado", "Kentucky"]


class TestHelpers:
    def test_join_context_skips_blanks(self):
        assert join_context(["a", " ", "b"]) == "a, b"

    def test_join_classnames(self):
        assert join_classnames(["a", "b"]) == "a, b"

    def test_detect_numeric_context(self):
        assert detect_numeric_context(["550mm", "608mm"])
        assert detect_numeric_context(["1", "2.5"])
        assert not detect_numeric_context(["Alaska", "42"])
        assert not detect_numeric_context([])

    def test_prompt_style_from_name(self):
        assert prompt_style_from_name("s") is PromptStyle.S
        with pytest.raises(ConfigurationError):
            prompt_style_from_name("Z")


class TestSerialization:
    @pytest.mark.parametrize("style", PromptStyle.zero_shot_styles())
    def test_every_style_includes_context_and_labels(self, style):
        serializer = PromptSerializer(style=style, context_window=2048)
        prompt = serializer.serialize(CONTEXT, LABELS)
        assert "Alaska" in prompt.text
        for label in LABELS:
            assert label in prompt.text
        assert prompt.style is style
        assert not prompt.truncated

    def test_labels_are_sorted_by_default(self):
        serializer = PromptSerializer(style=PromptStyle.S)
        prompt = serializer.serialize(CONTEXT, ["zebra", "apple"])
        assert prompt.label_set == ("apple", "zebra")
        assert prompt.text.index("apple") < prompt.text.index("zebra")

    def test_label_order_preserved_when_sorting_disabled(self):
        serializer = PromptSerializer(style=PromptStyle.S, sort_labels=False)
        prompt = serializer.serialize(CONTEXT, ["zebra", "apple"])
        assert prompt.label_set == ("zebra", "apple")

    def test_finetuned_style_omits_label_set(self):
        serializer = PromptSerializer(style=PromptStyle.FINETUNED)
        prompt = serializer.serialize(CONTEXT, LABELS)
        assert "state" not in prompt.text
        assert prompt.text.startswith("INSTRUCTION:")
        assert prompt.text.rstrip().endswith("CATEGORY:")

    def test_numeric_restriction_applies_only_to_numeric_context(self):
        serializer = PromptSerializer(
            style=PromptStyle.S, numeric_labels=["number"],
        )
        numeric_prompt = serializer.serialize(["550mm", "608mm"], LABELS)
        assert numeric_prompt.numeric_restricted
        assert numeric_prompt.label_set == ("number",)
        text_prompt = serializer.serialize(CONTEXT, LABELS)
        assert not text_prompt.numeric_restricted
        assert set(text_prompt.label_set) == set(LABELS)

    def test_overflow_truncates_context_but_keeps_labels(self):
        serializer = PromptSerializer(style=PromptStyle.S, context_window=120)
        long_context = [f"value number {i} with some extra words" for i in range(200)]
        prompt = serializer.serialize(long_context, LABELS)
        assert prompt.truncated
        assert prompt.token_count <= 120
        for label in LABELS:
            assert label in prompt.text

    def test_impossible_window_raises(self):
        serializer = PromptSerializer(style=PromptStyle.K, context_window=10)
        with pytest.raises(SerializationError):
            serializer.serialize(CONTEXT, LABELS)

    def test_invalid_context_window_rejected(self):
        with pytest.raises(ConfigurationError):
            PromptSerializer(context_window=0)

    def test_style_accepts_string_names(self):
        serializer = PromptSerializer(style="b")
        assert serializer.style is PromptStyle.B
        with pytest.raises(ConfigurationError):
            PromptSerializer(style="nonsense")

    def test_table_at_once_serialization_mentions_every_column(self):
        serializer = PromptSerializer(style=PromptStyle.K, context_window=100000)
        prompt = serializer.serialize_table_at_once(
            [["a", "b"], ["1", "2"], ["x", "y"]], LABELS
        )
        assert "column 0" in prompt.text
        assert "column 2" in prompt.text

    def test_token_count_reported(self):
        serializer = PromptSerializer(style=PromptStyle.S)
        prompt = serializer.serialize(CONTEXT, LABELS)
        assert prompt.token_count > 0


class SuperAdditiveTokenizer(SimpleTokenizer):
    """Adversarial tokenizer: counts are not additive across the join.

    Rendering context into the skeleton costs ``join_penalty`` extra tokens
    that neither half carries alone — the shape of a real BPE tokenizer whose
    merges differ once the strings are concatenated.  The old budget logic
    (window - skeleton) assumed additivity and could emit prompts whose final
    ``token_count`` exceeded the context window.
    """

    def __init__(self, join_penalty: int = 12) -> None:
        self.join_penalty = join_penalty

    def count(self, text: str) -> int:
        base = super().count(text)
        # The penalty only fires on a fully rendered prompt: instruction
        # skeleton AND non-empty context present.
        if "Column:" in text and "Classes:" in text:
            rendered_context = text.split("Column:", 1)[1].split(". Classes:", 1)[0]
            if rendered_context.strip():
                return base + self.join_penalty
        return base


class TestPostRenderOverflowGuard:
    def test_nonadditive_tokenizer_cannot_overflow_window(self):
        tokenizer = SuperAdditiveTokenizer(join_penalty=12)
        window = 60
        serializer = PromptSerializer(
            style=PromptStyle.S, context_window=window, tokenizer=tokenizer
        )
        # Sized so skeleton + context fits the naive budget but the rendered
        # prompt overflows by the join penalty.
        context = [f"value{i}" for i in range(40)]
        prompt = serializer.serialize(context, LABELS)
        assert prompt.token_count <= window
        assert tokenizer.count(prompt.text) <= window
        assert prompt.truncated

    def test_additive_tokenizer_behaviour_unchanged(self):
        window = 60
        baseline = PromptSerializer(style=PromptStyle.S, context_window=window)
        adversarial = PromptSerializer(
            style=PromptStyle.S,
            context_window=window,
            tokenizer=SuperAdditiveTokenizer(join_penalty=0),
        )
        context = [f"value{i}" for i in range(40)]
        assert baseline.serialize(context, LABELS).text == adversarial.serialize(
            context, LABELS
        ).text

    def test_huge_penalty_degrades_to_skeleton_not_overflow(self):
        # Even when any non-empty context overflows, serialization must not
        # emit an over-window prompt: the context is dropped entirely.
        tokenizer = SuperAdditiveTokenizer(join_penalty=1000)
        window = 60
        serializer = PromptSerializer(
            style=PromptStyle.S, context_window=window, tokenizer=tokenizer
        )
        prompt = serializer.serialize(["alpha", "beta"], LABELS)
        assert prompt.token_count <= window
        assert prompt.truncated

    def test_every_zero_shot_style_respects_window(self):
        tokenizer = SuperAdditiveTokenizer(join_penalty=7)
        context = [f"value{i}" for i in range(60)]
        for style in PromptStyle.zero_shot_styles():
            serializer = PromptSerializer(
                style=style, context_window=120, tokenizer=tokenizer
            )
            prompt = serializer.serialize(context, LABELS)
            assert tokenizer.count(prompt.text) <= 120, style


class ReferenceTokenizer(SimpleTokenizer):
    """The count before the single-pass counter: the token list's length
    plus one token per non-ASCII character."""

    def count(self, text: str) -> int:
        return len(self.tokenize(text)) + sum(1 for ch in text if ord(ch) > 127)


def reference_serialize(
    serializer: PromptSerializer,
    context_values: list[str],
    label_set: list[str],
    tokenizer: SimpleTokenizer | None = None,
) -> SerializedPrompt:
    """Frozen copy of ``PromptSerializer.serialize`` before the skeleton
    count was memoized and each rendered prompt counted once."""
    tokenizer = tokenizer or ReferenceTokenizer()
    window = serializer.context_window
    labels = list(label_set)
    restricted = False
    if serializer.numeric_labels and detect_numeric_context(context_values):
        numeric = [
            label for label in labels if label in set(serializer.numeric_labels)
        ]
        if numeric:
            labels = numeric
            restricted = True
    if serializer.sort_labels:
        labels = sorted(labels)
    template = serializer._template()
    classnames = join_classnames(labels)
    context = join_context(context_values)
    # str.format ignores the unused classnames of the fine-tuned template.
    skeleton = template.format(context="", classnames=classnames)
    skeleton_tokens = tokenizer.count(skeleton)
    if skeleton_tokens >= window:
        raise SerializationError(
            "label set and instruction alone exceed the context window "
            f"({skeleton_tokens} >= {window} tokens)"
        )
    budget = window - skeleton_tokens
    truncated = False
    if tokenizer.count(context) > budget:
        context = tokenizer.truncate(context, budget)
        truncated = True
    text = template.format(context=context, classnames=classnames)
    while context and tokenizer.count(text) > window:
        overshoot = tokenizer.count(text) - window
        budget = max(0, budget - max(overshoot, 1))
        shorter = tokenizer.truncate(context, budget)
        context = "" if (shorter == context and budget == 0) else shorter
        truncated = True
        text = template.format(context=context, classnames=classnames)
    final_tokens = tokenizer.count(text)
    if final_tokens > window:
        raise SerializationError(
            "prompt still exceeds the context window after truncation "
            f"({final_tokens} > {window} tokens); the "
            "tokenizer's skeleton count is inconsistent with its "
            "rendered-prompt count"
        )
    return SerializedPrompt(
        text=text,
        style=serializer.style,
        label_set=tuple(labels),
        context_values=tuple(context_values),
        truncated=truncated,
        token_count=final_tokens,
        numeric_restricted=restricted,
    )


def _outcome(serialize, *args):
    try:
        return serialize(*args)
    except SerializationError as exc:
        return ("raised", str(exc))


SOTAB = {
    "sotab-27": load_sotab27(n_columns=30, seed=3),
    "sotab-91": load_sotab91(n_columns=30, n_train_columns=0, seed=3),
}
#: Contexts that trigger the numeric-label restriction.
NUMERIC_CONTEXTS = [["12", "7.5", "3400", "-2"], ["550mm", "608mm", "1200mm"]]


def _contexts(dataset: str) -> list[list[str]]:
    columns = SOTAB[dataset].columns
    return [list(bc.column.values[:12]) for bc in columns] + NUMERIC_CONTEXTS


class TestGoldenSerialization:
    """``serialize`` returns exactly what the pre-change algorithm did."""

    @pytest.mark.parametrize("dataset", sorted(SOTAB))
    @pytest.mark.parametrize(
        "style", [*PromptStyle.zero_shot_styles(), PromptStyle.FINETUNED]
    )
    def test_prompts_match_the_frozen_algorithm(self, style, dataset):
        data = SOTAB[dataset]
        label_set = list(data.label_set)
        contexts = _contexts(dataset)
        skeleton = PromptSerializer(style=style).serialize([], label_set).token_count
        # Windows below the skeleton (raise unrestricted, truncate restricted
        # prompts), just above it (truncate), and the default (no overflow).
        windows = [24, 48, skeleton + 1, skeleton + 9, skeleton + 40, 2048]
        compared = truncated = restricted = 0
        for window in windows:
            for numeric_labels in (None, data.numeric_labels):
                serializer = PromptSerializer(
                    style=style, context_window=window, numeric_labels=numeric_labels
                )
                for context in contexts:
                    got = _outcome(serializer.serialize, context, label_set)
                    want = _outcome(reference_serialize, serializer, context, label_set)
                    assert got == want, (window, numeric_labels is not None, context)
                    if isinstance(got, SerializedPrompt):
                        compared += 1
                        truncated += got.truncated
                        restricted += got.numeric_restricted
        assert compared and truncated and restricted

    @pytest.mark.parametrize("join_penalty", [0, 7, 12, 1000])
    def test_retruncation_matches_the_frozen_algorithm(self, join_penalty):
        tokenizer = SuperAdditiveTokenizer(join_penalty=join_penalty)
        for window in (40, 60, 120):
            serializer = PromptSerializer(context_window=window, tokenizer=tokenizer)
            for context in (CONTEXT, [f"value{i}" for i in range(40)]):
                got = _outcome(serializer.serialize, context, LABELS)
                want = _outcome(
                    reference_serialize, serializer, context, LABELS, tokenizer
                )
                assert got == want, (window, context)

    def test_caller_label_order_matches_the_frozen_algorithm(self):
        serializer = PromptSerializer(sort_labels=False, context_window=40)
        for context in (CONTEXT, [f"value{i}" for i in range(30)]):
            assert serializer.serialize(context, LABELS) == reference_serialize(
                serializer, context, LABELS
            )


class CountingTokenizer(SimpleTokenizer):
    """Counts the ``count`` calls made to it directly; the calls ``truncate``
    makes internally are part of that truncation."""

    def __init__(self) -> None:
        self.counts = 0
        self.truncations = 0
        self._truncating = False

    def count(self, text: str) -> int:
        if not self._truncating:
            self.counts += 1
        return super().count(text)

    def truncate(self, text: str, max_tokens: int) -> str:
        self.truncations += 1
        self._truncating = True
        try:
            return super().truncate(text, max_tokens)
        finally:
            self._truncating = False


class TestTokenizerCallBudget:
    """Deterministic cost proxy: two counts per column, plus one per skeleton."""

    @pytest.mark.parametrize(
        ("dataset", "window"), [("sotab-91", 2048), ("sotab-27", 140)]
    )
    def test_two_counts_per_column_plus_one_per_skeleton(self, dataset, window):
        data = SOTAB[dataset]
        tokenizer = CountingTokenizer()
        # Two serializers, as two per-request annotators would build, share
        # the tokenizer and so its memoized skeleton counts.
        serializers = [
            PromptSerializer(
                context_window=window,
                numeric_labels=data.numeric_labels,
                tokenizer=tokenizer,
            )
            for _ in range(2)
        ]
        prompts = [
            serializer.serialize(context, list(data.label_set))
            for serializer in serializers
            for context in _contexts(dataset)
        ]
        skeletons = {prompt.label_set for prompt in prompts}
        assert len(skeletons) == 2  # numeric restriction on and off
        assert tokenizer.counts == 2 * len(prompts) + len(skeletons)
        assert tokenizer.truncations == sum(prompt.truncated for prompt in prompts)
        if window == 2048:
            assert tokenizer.truncations == 0
        else:
            assert tokenizer.truncations > 0

    def test_default_serializers_share_one_tokenizer(self):
        assert PromptSerializer().tokenizer is PromptSerializer(style="K").tokenizer
