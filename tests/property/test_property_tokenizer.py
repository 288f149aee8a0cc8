"""Property-based tests for the tokenizer, serializer and prompt parser."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialization import PromptSerializer, PromptStyle
from repro.llm.prompt_parsing import parse_prompt
from repro.llm.tokenizer import SimpleTokenizer

simple_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 .,:-", max_size=120
)
#: Cell values that survive the serializer's comma-separated join unambiguously.
cell_value = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_/",
    min_size=1,
    max_size=25,
).filter(lambda s: s.strip("-_/") != "")
label_value = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=2, max_size=15)
#: Characters at the edges of the token classes: non-ASCII decimal digits
#: (``\d`` matches them), digits that are not decimal (``²``), accented
#: letters (not ``[A-Za-z]``) and whitespace beyond the ASCII space.
edge_chars = "٣۷²½éÉñßЖ数\u00a0\u2003\u3000\t\n\r\x0b\x0c\x1c\x85"
unicode_text = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from(edge_chars + "aZ09 .,")
    ),
    max_size=200,
)


def reference_count(text: str) -> int:
    """``count`` as it was defined before the single-pass counter."""
    tokens = SimpleTokenizer().tokenize(text)
    return len(tokens) + sum(1 for ch in text if ord(ch) > 127)


class TestTokenizerInvariants:
    @given(simple_text)
    @settings(max_examples=200)
    def test_counts_are_non_negative_and_zero_only_for_blank(self, text):
        count = SimpleTokenizer().count(text)
        assert count >= 0
        if text.strip():
            assert count > 0

    @given(simple_text, simple_text)
    @settings(max_examples=150)
    def test_count_is_subadditive_within_tolerance(self, a, b):
        tokenizer = SimpleTokenizer()
        combined = tokenizer.count(a + " " + b)
        assert combined <= tokenizer.count(a) + tokenizer.count(b) + 1

    @given(simple_text, st.integers(min_value=1, max_value=200))
    @settings(max_examples=150)
    def test_truncate_never_exceeds_budget(self, text, budget):
        tokenizer = SimpleTokenizer()
        truncated = tokenizer.truncate(text, budget)
        assert tokenizer.count(truncated) <= budget


class TestCountMatchesTokenize:
    """``count`` counts without building the token list; ``tokenize`` stays
    the reference it must agree with."""

    @given(unicode_text)
    @settings(max_examples=400)
    def test_count_is_tokens_plus_non_ascii_surcharge(self, text):
        assert SimpleTokenizer().count(text) == reference_count(text)

    @pytest.mark.parametrize(
        "text",
        [
            "٣٣٣٣ ٣",
            "x² + y²",
            "café naïve résumé",
            "a\u00a0b\u2003c\u3000d\x1ce",
            "abcdefghi 1234567 Ab12cd345ef",
            "lone \ud800 surrogate",
            "",
        ],
    )
    def test_edge_cases(self, text):
        assert SimpleTokenizer().count(text) == reference_count(text)


class TestSerializationRoundTrip:
    @given(
        st.lists(cell_value, min_size=1, max_size=8),
        st.lists(label_value, min_size=2, max_size=8, unique=True),
        st.sampled_from(PromptStyle.zero_shot_styles()),
    )
    @settings(max_examples=150)
    def test_parse_recovers_options_for_every_style(self, values, labels, style):
        serializer = PromptSerializer(style=style, context_window=100000)
        prompt = serializer.serialize(values, labels)
        parsed = parse_prompt(prompt.text)
        assert parsed.has_options
        assert set(parsed.options) == set(prompt.label_set)
        assert parsed.style_letter == style.value

    @given(
        st.lists(cell_value, min_size=1, max_size=8),
        st.lists(label_value, min_size=2, max_size=8, unique=True),
    )
    @settings(max_examples=100)
    def test_serialized_token_count_matches_tokenizer(self, values, labels):
        serializer = PromptSerializer(style=PromptStyle.S, context_window=100000)
        prompt = serializer.serialize(values, labels)
        assert prompt.token_count == SimpleTokenizer().count(prompt.text)
        assert not prompt.truncated
