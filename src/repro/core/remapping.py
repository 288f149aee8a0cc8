"""Label remapping: mapping free-form LLM output back into the label set.

Five strategies are implemented here (Section 3.5 of the paper describes the
base four; **contains+resample** is their best-performing combination):

* **no-op** — accept only exact matches; everything else maps to a null class.
* **contains** — accept when the response is contained in a label or vice
  versa; on multiple matches take the longest label.
* **resample** (Algorithm 3) — re-query the LLM up to ``k`` times with
  permuted generation hyperparameters until an in-set answer appears.
* **similarity** (Algorithm 4) — embed the response and every label and take
  the label with the highest cosine similarity.
* **contains+resample** — the paper's best-performing combination: try
  contains first, then resample (checking contains after each retry), then
  fall back to the null class.

All remappers share the :class:`Remapper` interface: they receive the raw
response, the label set and (optionally) a ``requery`` callback for resampling,
and return a :class:`RemapResult`.  :meth:`Remapper.remap_many` is the
set-at-a-time form the executors call: it remaps a whole chunk of responses
given a ``requery_many(indices, attempt)`` callback.  The base version loops
over :meth:`Remapper.remap`; :class:`ResampleRemapper` instead retries in
*waves* — every response still outside the label set after attempt ``a - 1``
is re-asked in ONE ``requery_many`` call at attempt ``a`` — so a chunk costs
at most ``k`` retry batches instead of one model call per retry.  Each
response sees exactly the retries, in the same order, that the one-at-a-time
Algorithm 3 would give it, so the results are identical.

A note on ``RemapResult.remapped`` semantics (relevant when reading Table 7's
remap counts): "exact match" everywhere means *equality under*
:func:`normalize` — case, whitespace, punctuation and underscore differences
are forgiven before any strategy runs.  Every strategy, including
:class:`NoOpRemapper`, therefore reports ``remapped=True`` when the accepted
label differs from the raw response only by normalization ("Person." →
``person``); counted remaps include these trivial normalizations, not just
substring/resample/similarity recoveries.

Matching is a per-response hot path — every model response is compared
against the full label set (91 labels for SOTAB), potentially several times
per column under resampling — so each distinct label set is compiled once
into a :class:`_LabelSetMatcher` and memoized: exact matching becomes one
dict lookup on the normalized response, and the CONTAINS scan walks the
labels pre-sorted by descending normalized length so the first hit *is* the
longest-label winner (ties keep label-set order — the historical semantics)
and the scan stops there.  Matchers also keep a bounded per-response result
cache, since real model output repeats heavily (resample retries, duplicate
responses across columns).  :func:`normalized_label_set` remains the public
memoized view of the per-label normalization.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

from repro.exceptions import ConfigurationError
from repro.llm.embeddings import DEFAULT_EMBEDDER, HashingEmbedder

#: The label returned when no remapping strategy can recover an answer.
NULL_LABEL = "__unmapped__"

RequeryFn = Callable[[int], str]
#: ``requery_many(indices, attempt)``: re-ask the responses at ``indices``
#: (ascending) at resample ``attempt``, one answer per index.
RequeryManyFn = Callable[[Sequence[int], int], Sequence[str]]


def normalize(text: str) -> str:
    """Case/whitespace/punctuation-insensitive comparison form of a label."""
    return " ".join(text.strip().lower().replace("_", " ").split()).strip(".\"' ")


@lru_cache(maxsize=128)
def _normalized_label_cache(label_set: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(normalize(label) for label in label_set)


def normalized_label_set(label_set: Sequence[str]) -> tuple[str, ...]:
    """Normalized forms of ``label_set``, memoized per distinct label tuple.

    Experiments use a handful of label sets but remap thousands of responses
    against each, so normalizing the labels once per set (rather than up to
    three times per response — exact, then contains, then per resample
    attempt) removes an O(|labels|) re-normalization from the hot path.
    """
    return _normalized_label_cache(tuple(label_set))


#: Sentinel distinguishing "cached None" from "not cached" in the matcher's
#: per-response result cache.
_MISS = object()


class _LabelSetMatcher:
    """Precompiled matching state for one distinct label set.

    * ``exact`` — normalized label → original label; ``setdefault`` keeps the
      *first* label per normalized form, matching the historical scan order.
    * ``by_length`` — ``(normalized, label)`` pairs sorted by descending
      normalized length (stable, so equal lengths keep label-set order).
      The historical CONTAINS picked the strictly-longest matching label,
      earliest on ties; scanning this order, the first hit is exactly that
      winner, so the scan early-exits instead of always walking all labels.
    * a bounded normalized-response → result cache for CONTAINS: resample
      retries and duplicate model output re-ask the same questions, and a
      full rescan per repeat is pure waste.  Cleared wholesale on overflow —
      eviction bookkeeping would cost more than the rescans it saves.
    """

    __slots__ = ("labels", "exact", "by_length", "_contains_cache")

    _CONTAINS_CACHE_LIMIT = 4096

    def __init__(self, label_set: tuple[str, ...]) -> None:
        self.labels = label_set
        normalized = _normalized_label_cache(label_set)
        self.exact: dict[str, str] = {}
        for label, normalized_label in zip(label_set, normalized):
            self.exact.setdefault(normalized_label, label)
        self.by_length: list[tuple[str, str]] = sorted(
            (
                (normalized_label, label)
                for label, normalized_label in zip(label_set, normalized)
                if normalized_label
            ),
            key=lambda pair: -len(pair[0]),
        )
        self._contains_cache: dict[str, str | None] = {}

    def contains(self, normalized_response: str) -> str | None:
        """The CONTAINS winner for an already-normalized response."""
        cached = self._contains_cache.get(normalized_response, _MISS)
        if cached is not _MISS:
            return cached  # type: ignore[return-value]
        best: str | None = None
        for normalized_label, label in self.by_length:
            if (
                normalized_label in normalized_response
                or normalized_response in normalized_label
            ):
                best = label
                break
        if len(self._contains_cache) >= self._CONTAINS_CACHE_LIMIT:
            self._contains_cache.clear()
        self._contains_cache[normalized_response] = best
        return best


@lru_cache(maxsize=128)
def _label_set_matcher_cache(label_set: tuple[str, ...]) -> _LabelSetMatcher:
    return _LabelSetMatcher(label_set)


def _matcher(label_set: Sequence[str]) -> _LabelSetMatcher:
    return _label_set_matcher_cache(tuple(label_set))


def exact_match(response: str, label_set: Sequence[str]) -> str | None:
    """Return the label equal to ``response`` under normalization, if any."""
    return _matcher(label_set).exact.get(normalize(response))


@dataclass(frozen=True)
class RemapResult:
    """Outcome of a remapping attempt."""

    label: str
    original_response: str
    remapped: bool
    strategy: str
    attempts: int = 0

    @property
    def recovered(self) -> bool:
        """True when remapping produced a usable (non-null) label."""
        return self.label != NULL_LABEL


class Remapper(ABC):
    """Interface shared by all remapping strategies."""

    name: str = "base"

    @abstractmethod
    def remap(
        self,
        response: str,
        label_set: Sequence[str],
        requery: RequeryFn | None = None,
    ) -> RemapResult:
        """Map ``response`` into ``label_set`` (or to :data:`NULL_LABEL`)."""

    def remap_many(
        self,
        responses: Sequence[str],
        label_sets: Sequence[Sequence[str]],
        requery_many: RequeryManyFn | None = None,
    ) -> list[RemapResult]:
        """Remap ``responses[i]`` into ``label_sets[i]`` for every ``i``.

        This version calls :meth:`remap` once per response, in order, and
        hands each one a single-response view of ``requery_many``; strategies
        that can batch their retries override it.
        """
        return [
            self.remap(
                response,
                label_set,
                None if requery_many is None
                else lambda attempt, i=index: requery_many([i], attempt)[0],
            )
            for index, (response, label_set) in enumerate(
                zip(responses, label_sets, strict=True)
            )
        ]

    def _passthrough(self, response: str, label_set: Sequence[str]) -> RemapResult | None:
        matched = exact_match(response, label_set)
        if matched is not None:
            return RemapResult(
                label=matched,
                original_response=response,
                remapped=matched != response,
                strategy=self.name,
                attempts=0,
            )
        return None


class NoOpRemapper(Remapper):
    """Accept exact matches only; everything else becomes the null class.

    "Exact" means equal under :func:`normalize`, so even this strategy
    reports ``remapped=True`` when the match required normalization (e.g.
    ``"Person."`` → ``person``).  Table 7's remap counts for the no-op row
    therefore count trivial normalizations, not recoveries.
    """

    name = "none"

    def remap(
        self,
        response: str,
        label_set: Sequence[str],
        requery: RequeryFn | None = None,
    ) -> RemapResult:
        passthrough = self._passthrough(response, label_set)
        if passthrough is not None:
            return passthrough
        return RemapResult(
            label=NULL_LABEL,
            original_response=response,
            remapped=False,
            strategy=self.name,
        )


def contains_match(response: str, label_set: Sequence[str]) -> str | None:
    """The CONTAINS rule: bidirectional substring match, longest label wins.

    Ties on normalized length keep the earliest label in ``label_set``,
    matching the historical ``max``-based implementation (see
    :class:`_LabelSetMatcher` for how the precompiled scan preserves that
    exact semantics while early-exiting on the first hit).
    """
    normalized = normalize(response)
    if not normalized:
        return None
    return _matcher(label_set).contains(normalized)


class ContainsRemapper(Remapper):
    """Substring intersection between response and labels (Section 3.5)."""

    name = "contains"

    def remap(
        self,
        response: str,
        label_set: Sequence[str],
        requery: RequeryFn | None = None,
    ) -> RemapResult:
        passthrough = self._passthrough(response, label_set)
        if passthrough is not None:
            return passthrough
        matched = contains_match(response, label_set)
        if matched is not None:
            return RemapResult(
                label=matched,
                original_response=response,
                remapped=True,
                strategy=self.name,
            )
        return RemapResult(
            label=NULL_LABEL,
            original_response=response,
            remapped=False,
            strategy=self.name,
        )


class ResampleRemapper(Remapper):
    """Algorithm 3: retry the LLM with permuted hyperparameters up to ``k`` times."""

    name = "resample"

    def __init__(self, k: int = 3, use_contains: bool = False) -> None:
        if k < 1:
            raise ConfigurationError("resample k must be >= 1")
        self.k = k
        self.use_contains = use_contains

    def _accept(self, response: str, label_set: Sequence[str]) -> str | None:
        matched = exact_match(response, label_set)
        if matched is not None:
            return matched
        if self.use_contains:
            return contains_match(response, label_set)
        return None

    def remap(
        self,
        response: str,
        label_set: Sequence[str],
        requery: RequeryFn | None = None,
    ) -> RemapResult:
        requery_many: RequeryManyFn | None = None if requery is None else (
            lambda indices, attempt: [requery(attempt)]
        )
        return self.remap_many([response], [label_set], requery_many)[0]

    def remap_many(
        self,
        responses: Sequence[str],
        label_sets: Sequence[Sequence[str]],
        requery_many: RequeryManyFn | None = None,
    ) -> list[RemapResult]:
        """Algorithm 3 over a chunk, retrying in waves.

        Attempt ``a`` re-asks, in one ``requery_many`` call, every response
        that attempts ``0 .. a - 1`` left outside its label set; a response
        is accepted at its first in-set answer, and gives up (null label,
        ``attempts == k``) when all ``k`` retries miss.
        """
        results: dict[int, RemapResult] = {}
        pending: list[int] = []
        for index, (response, label_set) in enumerate(
            zip(responses, label_sets, strict=True)
        ):
            accepted = self._accept(response, label_set)
            if accepted is None:
                pending.append(index)
            else:
                results[index] = RemapResult(
                    label=accepted,
                    original_response=response,
                    remapped=accepted != response,
                    strategy=self.name,
                )
        gave_up_after = 0
        if requery_many is not None:
            for attempt in range(1, self.k + 1):
                if not pending:
                    break
                answers = requery_many(pending, attempt)
                missed: list[int] = []
                for index, answer in zip(pending, answers, strict=True):
                    accepted = self._accept(answer, label_sets[index])
                    if accepted is None:
                        missed.append(index)
                    else:
                        results[index] = RemapResult(
                            label=accepted,
                            original_response=responses[index],
                            remapped=True,
                            strategy=self.name,
                            attempts=attempt,
                        )
                pending = missed
            gave_up_after = self.k
        for index in pending:
            results[index] = RemapResult(
                label=NULL_LABEL,
                original_response=responses[index],
                remapped=False,
                strategy=self.name,
                attempts=gave_up_after,
            )
        return [results[index] for index in range(len(responses))]


class SimilarityRemapper(Remapper):
    """Algorithm 4: embed response and labels, take the argmax cosine similarity."""

    name = "similarity"

    def __init__(self, embedder: HashingEmbedder | None = None,
                 min_similarity: float = -1.0) -> None:
        self.embedder = embedder or DEFAULT_EMBEDDER
        self.min_similarity = min_similarity

    def remap(
        self,
        response: str,
        label_set: Sequence[str],
        requery: RequeryFn | None = None,
    ) -> RemapResult:
        passthrough = self._passthrough(response, label_set)
        if passthrough is not None:
            return passthrough
        if not label_set or not response.strip():
            return RemapResult(
                label=NULL_LABEL, original_response=response,
                remapped=False, strategy=self.name,
            )
        index, similarity = self.embedder.most_similar(response, list(label_set))
        if similarity < self.min_similarity:
            return RemapResult(
                label=NULL_LABEL, original_response=response,
                remapped=False, strategy=self.name,
            )
        return RemapResult(
            label=label_set[index],
            original_response=response,
            remapped=True,
            strategy=self.name,
        )


class ContainsResampleRemapper(Remapper):
    """The paper's CONTAINS+RESAMPLE strategy (best at every context scale)."""

    name = "contains+resample"

    def __init__(self, k: int = 3) -> None:
        self._resample = ResampleRemapper(k=k, use_contains=True)

    def remap(
        self,
        response: str,
        label_set: Sequence[str],
        requery: RequeryFn | None = None,
    ) -> RemapResult:
        result = self._resample.remap(response, label_set, requery)
        return replace(result, strategy=self.name)

    def remap_many(
        self,
        responses: Sequence[str],
        label_sets: Sequence[Sequence[str]],
        requery_many: RequeryManyFn | None = None,
    ) -> list[RemapResult]:
        results = self._resample.remap_many(responses, label_sets, requery_many)
        return [replace(result, strategy=self.name) for result in results]


_REMAPPERS: dict[str, Callable[[], Remapper]] = {
    "none": NoOpRemapper,
    "contains": ContainsRemapper,
    "resample": ResampleRemapper,
    "similarity": SimilarityRemapper,
    "contains+resample": ContainsResampleRemapper,
}


def get_remapper(name: str, **kwargs: object) -> Remapper:
    """Construct a remapping strategy by name."""
    key = name.strip().lower()
    if key not in _REMAPPERS:
        raise ConfigurationError(
            f"unknown remapper {name!r}; choose from {sorted(_REMAPPERS)}"
        )
    return _REMAPPERS[key](**kwargs)  # type: ignore[call-arg]


def list_remappers() -> list[str]:
    """Names accepted by :func:`get_remapper`."""
    return sorted(_REMAPPERS)
