"""Property-based tests for label remapping and embeddings."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.remapping import (
    NULL_LABEL,
    ContainsRemapper,
    ContainsResampleRemapper,
    NoOpRemapper,
    ResampleRemapper,
    SimilarityRemapper,
    normalize,
)
from repro.llm.embeddings import HashingEmbedder

text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=40,
)
label_sets = st.lists(
    st.text(alphabet="abcdefghij klmnop", min_size=1, max_size=20).filter(
        lambda s: bool(s.strip())
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda s: normalize(s),
).filter(lambda labels: all(normalize(l) for l in labels))

REMAPPERS = [NoOpRemapper(), ContainsRemapper(), SimilarityRemapper()]


class TestRemappingInvariants:
    @given(text, label_sets)
    @settings(max_examples=150)
    def test_remap_returns_label_from_set_or_null(self, response, labels):
        for remapper in REMAPPERS:
            result = remapper.remap(response, labels)
            assert result.label == NULL_LABEL or result.label in labels
            assert result.original_response == response

    @given(label_sets, st.integers(min_value=0, max_value=7))
    @settings(max_examples=100)
    def test_exact_label_is_always_accepted_unchanged(self, labels, index):
        label = labels[index % len(labels)]
        for remapper in REMAPPERS:
            result = remapper.remap(label, labels)
            assert result.label == label

    @given(text, label_sets)
    @settings(max_examples=100)
    def test_remapping_is_deterministic(self, response, labels):
        for remapper in REMAPPERS:
            first = remapper.remap(response, labels)
            second = remapper.remap(response, labels)
            assert first.label == second.label

    @given(text, label_sets)
    @settings(max_examples=100)
    def test_similarity_recovers_whenever_response_is_non_empty(self, response, labels):
        result = SimilarityRemapper().remap(response, labels)
        if response.strip() and HashingEmbedder().embed(response).any():
            assert result.label in labels


RESAMPLERS = {
    "resample": lambda k: ResampleRemapper(k=k),
    "resample+contains": lambda k: ResampleRemapper(k=k, use_contains=True),
    "contains+resample": lambda k: ContainsResampleRemapper(k=k),
}


def _answers(labels):
    """In-set, verbose (in-set only under CONTAINS) and free-form answers."""
    return st.one_of(
        st.sampled_from(labels),
        st.sampled_from(labels).map(lambda label: f"it is {label}"),
        text,
    )


class TestResampleWaves:
    """``remap_many`` retries in waves yet equals one ``remap`` per response."""

    @given(st.sampled_from(sorted(RESAMPLERS)), st.integers(1, 4), label_sets,
           st.data())
    @settings(max_examples=150)
    def test_remap_many_equals_remap_per_response(self, name, k, labels, data):
        remapper = RESAMPLERS[name](k)
        n = data.draw(st.integers(0, 8), label="n")
        responses = data.draw(st.lists(_answers(labels), min_size=n, max_size=n))
        scripts = data.draw(st.lists(
            st.lists(_answers(labels), min_size=k, max_size=k),
            min_size=n, max_size=n,
        ))
        label_sets_per_response = [labels] * n
        singles = [
            remapper.remap(
                response, labels, lambda attempt, i=i: scripts[i][attempt - 1]
            )
            for i, response in enumerate(responses)
        ]
        calls: list[tuple[list[int], int]] = []

        def requery_many(indices, attempt):
            calls.append((list(indices), attempt))
            return [scripts[i][attempt - 1] for i in indices]

        waves = remapper.remap_many(responses, label_sets_per_response, requery_many)
        assert waves == singles

        # One call per attempt, attempts 1, 2, ... and never more than k.
        assert [attempt for _, attempt in calls] == list(range(1, len(calls) + 1))
        assert len(calls) <= k

        # Attempt a re-asks exactly the responses no earlier attempt accepted,
        # in ascending order, and the waves stop once none is left.
        def unaccepted_before(attempt):
            return [
                i for i, single in enumerate(singles)
                if single.label == NULL_LABEL or single.attempts >= attempt
            ]

        for indices, attempt in calls:
            assert indices == unaccepted_before(attempt)
            assert indices
        assert len(calls) == k or not unaccepted_before(len(calls) + 1)

        # Without a requery callback nothing is retried, as for remap.
        assert remapper.remap_many(responses, label_sets_per_response) == [
            remapper.remap(response, labels) for response in responses
        ]


class TestEmbeddingInvariants:
    @given(text)
    @settings(max_examples=150)
    def test_embeddings_are_unit_norm_or_zero(self, value):
        vector = HashingEmbedder().embed(value)
        norm = float(np.linalg.norm(vector))
        assert norm == 0.0 or abs(norm - 1.0) < 1e-9

    @given(text, text)
    @settings(max_examples=150)
    def test_similarity_is_symmetric_and_bounded(self, a, b):
        embedder = HashingEmbedder()
        ab = embedder.similarity(a, b)
        ba = embedder.similarity(b, a)
        assert abs(ab - ba) < 1e-9
        assert -1.0 - 1e-9 <= ab <= 1.0 + 1e-9

    @given(text)
    @settings(max_examples=100)
    def test_self_similarity_is_one_for_non_trivial_text(self, value):
        embedder = HashingEmbedder()
        if embedder.embed(value).any():
            assert embedder.similarity(value, value) == 1.0 or abs(
                embedder.similarity(value, value) - 1.0
            ) < 1e-9
