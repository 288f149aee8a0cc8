"""Prompt serialization: turning a context sample into an LLM prompt.

Section 3.3 of the paper describes six zero-shot prompt styles (C, K, I, S,
N, B — Figure 3), an Alpaca-style fine-tuned format (Figure 2), column-at-once
serialization, conservative overflow handling against the model's context
window, and an optional restriction of the label space to numeric labels when
every sampled value is numeric.  This module implements all of that.

Prompt style is treated as a *hyperparameter* — exactly the position the
paper takes — so the serializer accepts any of the six styles and the
experiment harness sweeps over them (Table 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

from repro.core.table import is_numeric_like
from repro.exceptions import ConfigurationError, SerializationError
from repro.llm.tokenizer import DEFAULT_TOKENIZER, SimpleTokenizer


class PromptStyle(str, Enum):
    """The six zero-shot prompt styles of Figure 3, plus the fine-tuned format."""

    C = "C"  # CHORUS-style
    K = "K"  # Korini-style
    I = "I"  # noqa: E741 - paper's name for the inverted (context-first) style
    S = "S"  # shortest possible
    N = "N"  # noisy / conversational
    B = "B"  # baseline: technical and formal
    FINETUNED = "FT"  # Alpaca instruction format (label set omitted)

    @classmethod
    def zero_shot_styles(cls) -> list["PromptStyle"]:
        """The styles swept over in the Table 6 ablation."""
        return [cls.C, cls.K, cls.I, cls.S, cls.N, cls.B]


_ZS_TEMPLATES: dict[PromptStyle, str] = {
    PromptStyle.C: (
        "For the following table column, select a schema.org type annotation "
        "from {classnames}. Input column: {context}. Output: "
    ),
    PromptStyle.K: (
        "Answer the question based on the task below. If the question cannot "
        "be answered using the information provided, answer with \"I don't "
        "know\". Task: Classify the column given to you into only one of "
        "these types: {classnames}. Input column: {context}. Type: "
    ),
    PromptStyle.I: (
        "Here is a column from a table: {context}. Please select the class "
        "from that best describes the column, from the following options. "
        "Options: {classnames} Response: "
    ),
    PromptStyle.S: (
        "Pick the column's class. Column: {context}. Classes: {classnames}. "
        "Output: "
    ),
    PromptStyle.N: (
        "Pick the column's class. I mean if you want to. It would be cool, I "
        "think. Anyway, give it a try, I guess? Here's the column itself! "
        "{context}. And, um, here are some column names you could pick from "
        "... {classnames}. Ok, go ahead! "
    ),
    PromptStyle.B: (
        "INSTRUCTION: Select the option which best describes the input. "
        "INPUT: {context} OPTIONS: {classnames} ANSWER: "
    ),
}

_FT_TEMPLATE = (
    "INSTRUCTION: Select the category which best matches the input. "
    "INPUT: {context} CATEGORY: "
)


@dataclass(frozen=True)
class SerializedPrompt:
    """The result of serializing one column's context."""

    text: str
    style: PromptStyle
    label_set: tuple[str, ...]
    context_values: tuple[str, ...]
    truncated: bool
    token_count: int
    numeric_restricted: bool


def join_context(values: Sequence[str], separator: str = ", ") -> str:
    """Join sampled values into the ``<CONTEXT>`` placeholder text."""
    return separator.join(v.strip() for v in values if v.strip())


def join_classnames(labels: Sequence[str]) -> str:
    """Join the label set into the ``<CLASSNAMES>`` placeholder text."""
    return ", ".join(labels)


@lru_cache(maxsize=128)
def _ordered_labels(
    labels: tuple[str, ...], sort: bool
) -> tuple[tuple[str, ...], str]:
    """The label order a prompt lists and its ``<CLASSNAMES>`` text."""
    ordered = tuple(sorted(labels)) if sort else labels
    return ordered, join_classnames(ordered)


@lru_cache(maxsize=128)
def _skeleton_tokens(tokenizer: SimpleTokenizer, skeleton: str) -> int:
    """Token count of a prompt rendered with an empty context.

    The skeleton is constant for a label set, so each (tokenizer, skeleton)
    pair is counted once per process.  Keyed on the tokenizer rather than
    the serializer: serializers built with the default tokenizer share it,
    so annotators built per request reuse these counts.
    """
    return tokenizer.count(skeleton)


def detect_numeric_context(values: Sequence[str]) -> bool:
    """True when every non-empty sampled value is numeric-like.

    The paper uses a simple type test on the sampled context to decide
    whether to restrict the label set to numeric labels (Section 3.3).
    """
    usable = [v for v in values if v.strip()]
    if not usable:
        return False
    return all(is_numeric_like(v) for v in usable)


class PromptSerializer:
    """Serialize context samples into prompts, handling overflow.

    Parameters
    ----------
    style:
        One of the :class:`PromptStyle` members.
    context_window:
        Maximum number of tokens the target model accepts.  Overflowing
        prompts are truncated conservatively: the context portion is cut but
        the label set and response cue are always preserved, mirroring the
        paper's overflow handling.
    numeric_labels:
        Optional subset of the label set that applies to numeric columns;
        used for the one-time-per-dataset numeric restriction optimization.
    sort_labels:
        The paper sorts classnames alphabetically for all main experiments
        (Appendix C shows shuffling them perturbs accuracy); ``False``
        preserves caller order so the Table 8 ablation can control ordering.
    """

    def __init__(
        self,
        style: PromptStyle | str = PromptStyle.S,
        context_window: int = 2048,
        numeric_labels: Sequence[str] | None = None,
        sort_labels: bool = True,
        tokenizer: SimpleTokenizer | None = None,
    ) -> None:
        if isinstance(style, str):
            try:
                style = PromptStyle(style.upper() if len(style) <= 2 else style)
            except ValueError as exc:
                raise ConfigurationError(f"unknown prompt style {style!r}") from exc
        self.style = style
        if context_window <= 0:
            raise ConfigurationError("context_window must be positive")
        self.context_window = context_window
        self.numeric_labels = frozenset(numeric_labels) if numeric_labels else None
        self.sort_labels = sort_labels
        self.tokenizer = tokenizer or DEFAULT_TOKENIZER

    def _template(self) -> str:
        if self.style is PromptStyle.FINETUNED:
            return _FT_TEMPLATE
        return _ZS_TEMPLATES[self.style]

    def _label_text(
        self, label_set: Sequence[str], context_values: Sequence[str]
    ) -> tuple[tuple[str, ...], str, bool]:
        """The effective labels in prompt order, their classnames text, and
        whether the numeric restriction applied."""
        labels = tuple(label_set)
        restricted = False
        if self.numeric_labels and detect_numeric_context(context_values):
            numeric = tuple(label for label in labels if label in self.numeric_labels)
            if numeric:
                labels = numeric
                restricted = True
        ordered, classnames = _ordered_labels(labels, self.sort_labels)
        return ordered, classnames, restricted

    def serialize(
        self,
        context_values: Sequence[str],
        label_set: Sequence[str],
    ) -> SerializedPrompt:
        """Render the prompt for one column.

        The returned prompt is guaranteed to satisfy ``token_count <=
        context_window`` under the serializer's tokenizer, even when the
        tokenizer is non-additive across the skeleton/context join.  Raises
        :class:`SerializationError` if no prompt can satisfy that — the label
        set alone is too large, or the tokenizer's counts are inconsistent.

        A column costs two tokenizer counts, the context and the rendered
        prompt, plus one truncation when the context overflows; the skeleton
        count is memoized per label set.
        """
        labels, classnames, restricted = self._label_text(label_set, context_values)
        template = self._template()
        context = join_context(context_values)
        skeleton_tokens = _skeleton_tokens(
            self.tokenizer, self._render(template, "", classnames)
        )
        if skeleton_tokens >= self.context_window:
            raise SerializationError(
                "label set and instruction alone exceed the context window "
                f"({skeleton_tokens} >= {self.context_window} tokens)"
            )
        budget = self.context_window - skeleton_tokens
        truncated = False
        if self.tokenizer.count(context) > budget:
            context = self.tokenizer.truncate(context, budget)
            truncated = True
        text = self._render(template, context, classnames)
        tokens = self.tokenizer.count(text)
        # Hard post-render check: the budget above assumes token counts are
        # additive (count(skeleton + context) == count(skeleton) +
        # count(context)), which a real BPE tokenizer does not guarantee —
        # merges across the join can push the rendered prompt past the
        # window even though both halves fit.  Re-truncate against the
        # observed overshoot until the final prompt fits; the loop terminates
        # because the budget shrinks by at least one token per pass and an
        # empty context renders the skeleton, which the precheck bounded.
        while context and tokens > self.context_window:
            overshoot = tokens - self.context_window
            budget = max(0, budget - max(overshoot, 1))
            shorter = self.tokenizer.truncate(context, budget)
            # A tokenizer whose truncate refuses to shrink further would spin
            # here; once the budget is exhausted, drop the context outright.
            context = "" if (shorter == context and budget == 0) else shorter
            truncated = True
            text = self._render(template, context, classnames)
            tokens = self.tokenizer.count(text)
        if tokens > self.context_window:
            raise SerializationError(
                "prompt still exceeds the context window after truncation "
                f"({tokens} > {self.context_window} tokens); the "
                "tokenizer's skeleton count is inconsistent with its "
                "rendered-prompt count"
            )
        return SerializedPrompt(
            text=text,
            style=self.style,
            label_set=labels,
            context_values=tuple(context_values),
            truncated=truncated,
            token_count=tokens,
            numeric_restricted=restricted,
        )

    def _render(self, template: str, context: str, classnames: str) -> str:
        if self.style is PromptStyle.FINETUNED:
            return template.format(context=context)
        return template.format(context=context, classnames=classnames)

    def serialize_table_at_once(
        self,
        columns: Sequence[Sequence[str]],
        label_set: Sequence[str],
    ) -> SerializedPrompt:
        """Serialize an entire table into a single prompt.

        ArcheType itself always uses column-at-once serialization; this method
        exists so the Table 1 cost comparison can quantify how much more
        expensive table-at-once prompts are.
        """
        pieces: list[str] = []
        for index, values in enumerate(columns):
            pieces.append(f"column {index}: " + join_context(values))
        return self.serialize(pieces, label_set)


def prompt_style_from_name(name: str) -> PromptStyle:
    """Look up a prompt style by its single-letter name (case-insensitive)."""
    try:
        return PromptStyle(name.upper())
    except ValueError as exc:
        raise ConfigurationError(f"unknown prompt style {name!r}") from exc
