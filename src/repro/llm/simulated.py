"""The simulated LLM backend.

:class:`SimulatedLLM` turns a :class:`repro.llm.profiles.ModelProfile` into a
concrete :class:`repro.llm.base.LanguageModel`.  Given a serialized prompt it

1. re-parses the context sample and the candidate labels from the prompt text
   (:mod:`repro.llm.prompt_parsing`);
2. scores every candidate label by combining world-knowledge evidence
   (:mod:`repro.llm.knowledge`), lexical affinity between the label and the
   sampled values, per-architecture class adjustments, and calibrated noise;
3. answers either with the winning label verbatim, with a verbose phrase
   containing it, or with free-form text outside the label set — the last two
   behaviours are what the label-remapping stage exists to correct.

Every decision is a deterministic function of (profile, prompt, generation
parameters), so experiments are exactly reproducible while remap-resample
retries (which permute the generation parameters) still obtain different
completions.

Thread safety: every :meth:`SimulatedLLM.generate` call builds its own RNG
and parse.  What the model keeps between calls is a bounded memo of label
sets (resolved concepts, class adjustments, position jitter), each entry
holding a bounded memo of context values (a value's scores under the set's
concepts).  Both hold pure functions of their key, (profile, resolver,
label set) and (label set, value): an entry or a row is built in full and
published with one dict store, and a memo that is full is cleared before
the store.  So threads racing on a key only recompute identical values, and
a race can at most let a memo overshoot its bound by one entry per thread
until the next clear.  The default
:meth:`repro.llm.base.LanguageModel.clone_for_worker` (returning ``self``) is
therefore sound and concurrent fan-out may share one instance.  Both memos
are left out of the pickled state, so a model pickles to the same bytes
before and after use.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.llm.base import BatchParams, GenerationParams, LanguageModel, broadcast_params
from repro.llm.concepts import DEFAULT_RESOLVER, LabelResolver, label_tokens
from repro.llm.knowledge import CONCEPTS, Concept, score_concept
from repro.llm.profiles import ModelProfile, get_profile
from repro.llm.prompt_parsing import ParsedPrompt, parse_prompt

#: Markers injected by the extended-context features (Figure 6).  Their
#: presence in a zero-shot prompt distracts the model.
_CLUTTER_MARKERS = ("col", "TABLE NAME:", "std:", "mean:", "mode:", "median:",
                    "max:", "min:", "len std:", "len mean:")

#: Placeholder values that carry no semantic signal.  Sampling them into the
#: context wastes slots and distracts the model — the mechanism by which
#: importance-weighted context sampling outperforms simple random and first-k
#: sampling (Figure 4).
_PLACEHOLDER_VALUES = frozenset(
    {"n/a", "na", "-", "--", "null", ".", "unknown", "none", "tbd", "?", "0"}
)

#: Generic tokens that carry no discriminative signal for lexical affinity.
_GENERIC_TOKENS = frozenset(
    {"article", "from", "with", "label", "name", "type", "other", "alternative",
     "full", "first", "last", "title", "person", "persons"}
)


def _stable_seed(*parts: object) -> int:
    payload = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class OptionScore:
    """Diagnostic record of how one candidate label was scored."""

    label: str
    concept_name: str | None
    evidence: float
    lexical: float
    adjustment: float
    noise: float
    total: float


class _LabelSet(NamedTuple):
    """One label set's scoring invariants, for a given profile and resolver.

    Per-option values are arrays in option order, so a prompt scores every
    option with a few array operations.
    """

    labels: tuple[str, ...]
    concept_names: tuple[str | None, ...]
    #: The distinct concepts behind the labels, each scored once per value.
    concepts: tuple[Concept, ...]
    #: Per option, its concept's index into the prompt's concept scores;
    #: -1, a trailing 0.0, for unresolved labels.
    concept_slots: np.ndarray
    #: ``0.55 + 0.45 * specificity`` per option, 0.0 when unresolved.
    specificity_factors: np.ndarray
    match_qualities: np.ndarray
    adjustments: np.ndarray
    position_jitters: np.ndarray
    #: The distinct distinctive tokens of all labels, each matched against
    #: the context once per prompt.
    tokens: tuple[str, ...]
    #: Per (option, distinctive token) pair: the option's index and the
    #: token's index into ``tokens``.
    token_options: np.ndarray
    token_ids: np.ndarray
    #: Per option, its number of distinctive tokens (at least 1, so a label
    #: without any scores no hits out of one).
    token_counts: np.ndarray
    #: Context value -> its scores under ``concepts``, filled as prompts
    #: arrive and cleared when it reaches ``_VALUE_MEMO_LIMIT`` rows.
    value_rows: dict[str, tuple[float, ...]]


class _Scores(NamedTuple):
    """Every option's score components for one prompt, in option order."""

    label_set: _LabelSet
    evidence: np.ndarray
    lexical: np.ndarray
    noise: np.ndarray
    total: np.ndarray


class SimulatedLLM(LanguageModel):
    """Deterministic, profile-driven stand-in for a real LLM backend."""

    #: Label sets whose invariants the model keeps; the memo is cleared when
    #: full.  An annotation run prompts with few distinct label sets, so the
    #: bound only matters for sweeps over many label sets.
    _LABEL_SET_MEMO_LIMIT = 256
    #: Context values whose concept scores each label set keeps; its memo is
    #: cleared when full.  Values recur across columns (placeholders,
    #: categories) and across the resample retries of one column.  A sweep
    #: over many label sets holds at most the product of the two bounds.
    _VALUE_MEMO_LIMIT = 1024

    def __init__(
        self,
        profile: ModelProfile | str,
        resolver: LabelResolver | None = None,
        seed: int = 0,
        latency: float = 0.0,
    ) -> None:
        if isinstance(profile, str):
            profile = get_profile(profile)
        self.profile = profile
        self.name = f"sim-{profile.name}"
        self.context_window = profile.context_window
        self.architecture = profile.architecture
        self.open_source = profile.open_source
        self.resolver = resolver or DEFAULT_RESOLVER
        self.seed = seed
        #: Simulated API round-trip, in seconds per :meth:`generate` /
        #: :meth:`generate_batch` call.  The paper's deployment pays a
        #: network round trip per (batched) completion request; the default
        #: ``0.0`` keeps the bundled profiles instant, while executor
        #: benchmarks opt in to measure scheduling policies under the
        #: latency the real backends impose.  Completions are unaffected.
        self.latency = float(latency)
        self._label_sets: dict[tuple[str, ...], _LabelSet] = {}

    def __getstate__(self) -> dict[str, Any]:
        # The memo is derived data (and holds concept scorers, which are
        # lambdas): leave it out so pickling works and is independent of use.
        state = self.__dict__.copy()
        del state["_label_sets"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._label_sets = {}

    def _simulate_round_trip(self) -> None:
        if self.latency > 0.0:
            time.sleep(self.latency)

    # ------------------------------------------------------------------ rng
    def _rng(self, prompt: str, params: GenerationParams) -> np.random.Generator:
        return np.random.default_rng(
            _stable_seed(
                self.profile.name,
                prompt,
                self.seed,
                round(params.temperature, 4),
                round(params.top_p, 4),
                round(params.repetition_penalty, 4),
                params.seed,
                params.resample_index,
            )
        )

    # -------------------------------------------------------------- scoring
    def _clutter_level(self, parsed: ParsedPrompt) -> int:
        count = 0
        for value in parsed.context_values:
            if any(value.startswith(m) or m in value[:20] for m in _CLUTTER_MARKERS):
                count += 1
            elif value.strip().lower() in _PLACEHOLDER_VALUES:
                count += 1
        return count

    def _label_set(self, options: tuple[str, ...]) -> _LabelSet:
        """The scoring invariants of ``options``, memoized per label set."""
        cached = self._label_sets.get(options)
        if cached is not None:
            return cached
        profile = self.profile
        slots: dict[int, int] = {}  # id(concept) -> index into ``concepts``
        concepts: list[Concept] = []
        concept_names: list[str | None] = []
        concept_slots: list[int] = []
        specificity_factors: list[float] = []
        match_qualities: list[float] = []
        adjustments: list[float] = []
        position_jitters: list[float] = []
        token_index: dict[str, int] = {}  # token -> index into ``tokens``
        token_options: list[int] = []
        token_ids: list[int] = []
        token_counts: list[int] = []
        for index, label in enumerate(options):
            resolved = self.resolver.resolve(label)
            concept = resolved.concept
            concept_name = None
            slot = -1
            specificity_factor = 0.0
            adjustment = 0.0
            if concept is not None:
                concept_name = concept.name
                slot = slots.setdefault(id(concept), len(concepts))
                if slot == len(concepts):
                    concepts.append(concept)
                specificity = min(concept.specificity, 3.2) / 3.2
                specificity_factor = 0.55 + 0.45 * specificity
                adjustment += profile.class_adjustments.get(concept_name, 0.0)
            adjustment += profile.class_adjustments.get(label.strip().lower(), 0.0)
            concept_names.append(concept_name)
            concept_slots.append(slot)
            specificity_factors.append(specificity_factor)
            match_qualities.append(resolved.match_quality)
            adjustments.append(adjustment)
            # Deterministic label-position sensitivity (Appendix C): the same
            # label at a different position receives a slightly different
            # prior, which is the functional equivalent of label noise.
            position_jitters.append(
                ((_stable_seed(profile.name, label, index) % 1000) / 1000.0 - 0.5)
                * 0.05
            )
            lexical_tokens = [
                t for t in label_tokens(label)
                if len(t) > 3 and t not in _GENERIC_TOKENS
            ]
            for token in lexical_tokens:
                token_options.append(index)
                token_ids.append(token_index.setdefault(token, len(token_index)))
            token_counts.append(max(len(lexical_tokens), 1))
        entry = _LabelSet(
            labels=options,
            concept_names=tuple(concept_names),
            concepts=tuple(concepts),
            concept_slots=np.array(concept_slots, dtype=np.intp),
            specificity_factors=np.array(specificity_factors, dtype=np.float64),
            match_qualities=np.array(match_qualities, dtype=np.float64),
            adjustments=np.array(adjustments, dtype=np.float64),
            position_jitters=np.array(position_jitters, dtype=np.float64),
            tokens=tuple(token_index),
            token_options=np.array(token_options, dtype=np.intp),
            token_ids=np.array(token_ids, dtype=np.intp),
            token_counts=np.array(token_counts, dtype=np.float64),
            value_rows={},
        )
        memo = self._label_sets
        if len(memo) >= self._LABEL_SET_MEMO_LIMIT:
            memo.clear()
        memo[options] = entry
        return entry

    def _concept_scores(
        self, label_set: _LabelSet, values: Sequence[str]
    ) -> list[float]:
        """Each concept's mean score over the non-blank ``values``, plus a
        trailing 0.0 for unresolved labels.

        Each value is scored once under all of the set's concepts (a row,
        memoized per label set), and a concept's score sums its column of
        rows in value order: the same floats added in the same order as
        :func:`repro.llm.knowledge.score_concept`.
        """
        usable = [v for v in values if v.strip()]
        if not usable:
            return [0.0] * (len(label_set.concepts) + 1)
        rows = label_set.value_rows
        matrix: list[tuple[float, ...]] = []
        for value in usable:
            row = rows.get(value)
            if row is None:
                row = tuple([c.score_value(value) for c in label_set.concepts])
                if len(rows) >= self._VALUE_MEMO_LIMIT:
                    rows.clear()
                rows[value] = row
            matrix.append(row)
        n_usable = len(usable)
        scores = [sum(column) / n_usable for column in zip(*matrix)]
        scores.append(0.0)
        return scores

    def _noise_scale(
        self,
        parsed: ParsedPrompt,
        params: GenerationParams,
        n_options: int,
    ) -> float:
        profile = self.profile
        label_factor = 1.0 + profile.label_size_sensitivity * max(0, n_options - 10) / 27.0
        clutter = self._clutter_level(parsed)
        clutter_factor = 1.0 + profile.clutter_sensitivity * min(clutter, 6)
        temperature_factor = 1.0 + 0.8 * max(params.temperature, 0.0)
        n_samples = max(len(parsed.context_values) - clutter, 1)
        sample_factor = 1.0 + 0.8 / math.sqrt(n_samples)
        return (profile.knowledge_noise * label_factor * clutter_factor
                * temperature_factor * sample_factor)

    def _score(
        self,
        parsed: ParsedPrompt,
        params: GenerationParams,
        rng: np.random.Generator,
    ) -> _Scores:
        """Score every candidate label against the parsed context at once.

        Per label, evidence is the resolved concept's score over the context
        weighted by specificity and match quality, and lexical is the share
        of the label's distinctive tokens found in the context.  Every
        component is an array in option order, computed with the same
        floating-point operations, in the same order, as one label at a time;
        the noise of every option is drawn in one call (the same floats, in
        label order, as one draw per label).
        """
        profile = self.profile
        skill = max(0.05, profile.base_skill + profile.style_modifier(parsed.style_letter))
        noise_scale = self._noise_scale(parsed, params, len(parsed.options))
        values = parsed.context_values
        label_set = self._label_set(parsed.options)
        n_options = len(label_set.labels)
        concept_scores = np.array(self._concept_scores(label_set, values))
        evidence = (concept_scores[label_set.concept_slots]
                    * label_set.specificity_factors * label_set.match_qualities)
        haystack = " ".join(values).lower()
        hits = np.array([t in haystack for t in label_set.tokens], dtype=np.float64)
        hit_counts = np.bincount(
            label_set.token_options,
            weights=hits[label_set.token_ids],
            minlength=n_options,
        )
        lexical = hit_counts / label_set.token_counts * profile.lexical_affinity_weight
        noise = rng.normal(0.0, noise_scale, size=n_options)
        total = (skill * (evidence + lexical) + label_set.adjustments
                 + label_set.position_jitters + noise)
        return _Scores(label_set, evidence, lexical, noise, total)

    def score_options(
        self,
        parsed: ParsedPrompt,
        params: GenerationParams,
        rng: np.random.Generator,
    ) -> list[OptionScore]:
        """Score every candidate label against the parsed context (see
        :meth:`_score`), one :class:`OptionScore` per label in option order."""
        scores = self._score(parsed, params, rng)
        label_set = scores.label_set
        return [
            OptionScore(
                label=label,
                concept_name=concept_name,
                evidence=evidence,
                lexical=lexical,
                adjustment=adjustment,
                noise=noise,
                total=total,
            )
            for label, concept_name, evidence, lexical, adjustment, noise, total in zip(
                label_set.labels,
                label_set.concept_names,
                scores.evidence.tolist(),
                scores.lexical.tolist(),
                label_set.adjustments.tolist(),
                scores.noise.tolist(),
                scores.total.tolist(),
            )
        ]

    # ----------------------------------------------------------- generation
    def _best_concept_guess(self, parsed: ParsedPrompt) -> str:
        """Free-form best guess used when the prompt provides no options."""
        best_name = "text"
        best_score = 0.0
        for name, concept in CONCEPTS.items():
            raw = score_concept(concept, parsed.context_values)
            weighted = raw * concept.specificity
            if weighted > best_score:
                best_score = weighted
                best_name = name
        return best_name

    def _free_form_answer(
        self,
        parsed: ParsedPrompt,
        label: str,
        concept_name: str | None,
        rng: np.random.Generator,
    ) -> str:
        """Produce an out-of-label answer of the kinds the paper describes,
        given the winning ``label`` and its concept."""
        roll = rng.random()
        if roll < 0.45:
            # Near-miss: the model describes the concept rather than naming the
            # label.  Similarity remapping can usually recover this.
            concept = CONCEPTS.get(concept_name or "")
            if concept is not None and concept.description:
                return concept.description
            return f"a column of {label} values"
        if roll < 0.75:
            # Verbose phrasing that still contains the label: remap-contains
            # recovers this.
            return f"The column appears to contain {label} entries"
        if parsed.context_values and roll < 0.9:
            # Parroting back part of the input (Section 3.2 notes this failure).
            return parsed.context_values[int(rng.integers(0, len(parsed.context_values)))]
        return "I don't know"

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        """Answer a CTA prompt (see the module docstring for the procedure)."""
        self._simulate_round_trip()
        return self._generate_parsed(prompt, parse_prompt(prompt), params)

    def generate_batch(
        self,
        prompts: Sequence[str],
        params: BatchParams = None,
    ) -> list[str]:
        """Set-at-a-time :meth:`generate`, completion-for-completion identical.

        Every completion is a pure function of ``(profile, prompt, params)``,
        which makes two batch optimisations safe: duplicate ``(prompt,
        params)`` pairs are answered once, and prompt parsing — the shared
        prefix of every scoring pass, and the dominant non-RNG cost — is done
        once per distinct prompt even when the same prompt appears with
        different parameters (as remap-resample retries do).
        """
        self._simulate_round_trip()
        per_prompt = broadcast_params(prompts, params)
        parsed_cache: dict[str, ParsedPrompt] = {}
        answers: dict[tuple[str, GenerationParams], str] = {}
        out: list[str] = []
        for prompt, prompt_params in zip(prompts, per_prompt):
            effective = prompt_params or GenerationParams()
            key = (prompt, effective)
            if key not in answers:
                parsed = parsed_cache.get(prompt)
                if parsed is None:
                    parsed = parse_prompt(prompt)
                    parsed_cache[prompt] = parsed
                answers[key] = self._generate_parsed(prompt, parsed, effective)
            out.append(answers[key])
        return out

    def _generate_parsed(
        self,
        prompt: str,
        parsed: ParsedPrompt,
        params: GenerationParams | None,
    ) -> str:
        params = params or GenerationParams()
        rng = self._rng(prompt, params)

        if not parsed.has_options:
            guess = self._best_concept_guess(parsed)
            if rng.random() < self.profile.verbosity:
                return f"This looks like a {guess} column"
            return guess

        scores = self._score(parsed, params, rng)
        # The first maximal total wins: what a stable descending sort of the
        # options by total would put first.
        winner = int(scores.total.argmax())
        label = scores.label_set.labels[winner]

        # Out-of-label answers become more likely the less separable the
        # candidate labels are.  Ambiguity is measured on the noise-free
        # evidence (what the column actually supports), not on the sampled
        # totals, so easy benchmarks keep a low remap rate (Table 7).
        clean = scores.total - scores.noise
        clean_margin = 1.0
        if len(clean) > 1:
            second, first = np.partition(clean, -2)[-2:].tolist()
            clean_margin = first - second
        out_of_label = self.profile.out_of_label_rate
        if clean_margin < 0.05:
            out_of_label *= 3.5
        elif clean_margin < 0.2:
            out_of_label *= 1.8
        out_of_label = min(out_of_label, 0.9)

        if rng.random() < out_of_label:
            return self._free_form_answer(
                parsed, label, scores.label_set.concept_names[winner], rng
            )
        if rng.random() < self.profile.verbosity:
            return f"{label} (most likely)"
        return label

    # -------------------------------------------------------------- utility
    def explain(self, prompt: str, params: GenerationParams | None = None) -> list[OptionScore]:
        """Return the per-option diagnostic scores for a prompt (no sampling noise
        is re-used from :meth:`generate`; this is an independent scoring pass)."""
        params = params or GenerationParams()
        parsed = parse_prompt(prompt)
        rng = self._rng(prompt, params)
        return self.score_options(parsed, params, rng)
