"""Column planning: the logical half of the plan/execute split.

The ArcheType annotator is a four-stage dataflow (context sampling, prompt
serialization, model querying, label remapping).  The first half of that
dataflow — everything up to and including the serialized prompt — is a pure
planning problem: given a column, decide *what* work the model must do, or
short-circuit the column entirely (empty columns, rule hits).  This module
owns that half:

* :class:`ColumnPlan` — an immutable record of the planned work for one
  column: either a precomputed :class:`AnnotationResult` (short-circuit) or a
  serialized prompt awaiting execution;
* :class:`ColumnPlanner` — the ONE shared implementation of stages 1/0/2
  (sampling, rules, features + serialization).  Every execution mode —
  sequential, batched, concurrent, streaming — consumes plans built here, so
  the stage logic exists exactly once;
* :class:`PipelineStats` — per-stage instrumentation (wall time, call counts,
  cache hits) accumulated by the planner and the executors.

Planning is deliberately sequential and RNG-ordered: context sampling is the
only consumer of the annotator's random stream, so building plans in column
order draws exactly the same stream as the historical column-at-a-time loop.
That invariant is what keeps every executor bit-identical to the original
implementation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.features import FeatureConfig, build_feature_strings
from repro.core.remapping import NULL_LABEL
from repro.core.rules import RuleSet
from repro.core.sampling import ContextSampler
from repro.core.serialization import PromptSerializer, SerializedPrompt
from repro.core.table import Column, Table
from repro.exceptions import EmptyColumnError

#: Canonical stage names used by :class:`PipelineStats`.  "plan" stages run in
#: the planner; "execute" stages run in the executors.
STAGE_SAMPLE = "sample"
STAGE_RULES = "rules"
STAGE_SERIALIZE = "serialize"
STAGE_QUERY = "query"
STAGE_REMAP = "remap"

#: Display order for reports.
STAGE_ORDER: tuple[str, ...] = (
    STAGE_SAMPLE, STAGE_RULES, STAGE_SERIALIZE, STAGE_QUERY, STAGE_REMAP
)


@dataclass(frozen=True)
class AnnotationResult:
    """The annotation produced for one column."""

    label: str
    raw_response: str
    prompt: SerializedPrompt | None
    remapped: bool
    rule_applied: bool
    strategy: str
    sampled_values: tuple[str, ...] = ()

    @property
    def recovered(self) -> bool:
        return self.label != NULL_LABEL


@dataclass
class StageStats:
    """Counters for one pipeline stage.

    ``cache_hits`` counts prompts served from the scheduler's in-memory LRU;
    ``store_hits`` counts prompts served from the persistent on-disk store
    (see :mod:`repro.core.store`); ``inflight_hits`` counts prompts coalesced
    onto an identical request already in the scheduler's admission queue.
    All three mean "no model call".
    """

    calls: int = 0
    seconds: float = 0.0
    cache_hits: int = 0
    store_hits: int = 0
    inflight_hits: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "cache_hits": self.cache_hits,
            "store_hits": self.store_hits,
            "inflight_hits": self.inflight_hits,
        }


def stage_rows_from_snapshot(
    snapshot: "Mapping[str, Mapping[str, float]]",
) -> list[dict[str, object]]:
    """Shape a stats snapshot into report-table rows (one per stage).

    The single row-shaping implementation behind
    :meth:`PipelineStats.as_rows`, ``EvaluationResult.stage_rows`` and
    :func:`repro.eval.reporting.format_stage_stats`.
    """
    return [
        {
            "stage": stage,
            "calls": int(counters.get("calls", 0)),
            "seconds": round(float(counters.get("seconds", 0.0)), 4),
            "cache_hits": int(counters.get("cache_hits", 0)),
            "store_hits": int(counters.get("store_hits", 0)),
            "inflight_hits": int(counters.get("inflight_hits", 0)),
        }
        for stage, counters in snapshot.items()
    ]


class PipelineStats:
    """Per-stage wall time, call counts and cache hits for one annotator.

    The planner times the plan-side stages (sample / rules / serialize) and
    the executors time the execute-side stages (query / remap), so the same
    instrumentation covers every execution mode.  Cache hits are attributed to
    the query stage by the executors, which measure the engine's hit-counter
    delta around each model call.
    """

    def __init__(self) -> None:
        self._stages: dict[str, StageStats] = {}

    def stage(self, name: str) -> StageStats:
        """The (created-on-demand) counters for ``name``."""
        stats = self._stages.get(name)
        if stats is None:
            stats = self._stages[name] = StageStats()
        return stats

    def record(
        self,
        name: str,
        seconds: float = 0.0,
        calls: int = 1,
        cache_hits: int = 0,
        store_hits: int = 0,
        inflight_hits: int = 0,
    ) -> None:
        stats = self.stage(name)
        stats.calls += calls
        stats.seconds += seconds
        stats.cache_hits += cache_hits
        stats.store_hits += store_hits
        stats.inflight_hits += inflight_hits

    @contextmanager
    def timed(self, name: str, calls: int = 1) -> Iterator[None]:
        """Time a ``with`` block and attribute it to stage ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, seconds=time.perf_counter() - start, calls=calls)

    # ------------------------------------------------------------ reporting
    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self._stages.values())

    def snapshot(self) -> dict[str, dict[str, float]]:
        """A plain-dict copy of every stage's counters (stable stage order)."""
        ordered = [n for n in STAGE_ORDER if n in self._stages]
        ordered += [n for n in self._stages if n not in STAGE_ORDER]
        return {name: self._stages[name].as_dict() for name in ordered}

    def as_rows(self) -> list[dict[str, object]]:
        """Rows for :func:`repro.eval.reporting.format_table`."""
        return stage_rows_from_snapshot(self.snapshot())

    def reset(self) -> None:
        """Zero every stage (multi-run experiments report per-run numbers)."""
        self._stages.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}={stats.calls}c/{stats.seconds:.3f}s"
            for name, stats in self._stages.items()
        )
        return f"<PipelineStats {parts}>"


@dataclass(frozen=True)
class ColumnPlan:
    """The planned work for one column (immutable).

    Exactly one of two shapes:

    * **short-circuit** — ``result`` carries the finished
      :class:`AnnotationResult` (empty column, or a stage-0 rule hit) and
      ``prompt`` is ``None``; no model work is needed;
    * **pending** — ``prompt`` carries the serialized prompt for the
      execution stages (query + remap) and ``result`` is ``None``.

    ``position`` is the column's index within the planned set, used by
    executors for deterministic result reassembly.
    """

    position: int
    result: AnnotationResult | None = None
    prompt: SerializedPrompt | None = None
    sampled_values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if (self.result is None) == (self.prompt is None):
            raise ValueError(
                "a ColumnPlan carries either a short-circuit result or a "
                "pending prompt, never both or neither"
            )

    @property
    def is_short_circuit(self) -> bool:
        return self.result is not None


@dataclass
class ColumnPlanner:
    """Shared implementation of the plan-side stages (Figure 1, stages 1-2).

    One planner instance is owned by each :class:`repro.core.pipeline.ArcheType`
    and consulted by every execution mode.  ``plan`` runs, in order:

    1. **context sampling** — before the rule check, so enabling rules does
       not perturb the random stream used for the remaining columns;
    0. **rule-based assignment** (optional) — a match answers the column
       directly and skips the LLM entirely;
    2. **feature building + prompt serialization**.
    """

    sampler: ContextSampler
    sample_size: int
    serializer: PromptSerializer
    label_set: Sequence[str]
    features: FeatureConfig = field(default_factory=FeatureConfig)
    ruleset: RuleSet | None = None
    stats: PipelineStats = field(default_factory=PipelineStats)

    def plan(
        self,
        column: Column,
        rng: np.random.Generator,
        table: Table | None = None,
        column_index: int | None = None,
        position: int = 0,
    ) -> ColumnPlan:
        """Build the :class:`ColumnPlan` for one column."""
        # Stage 1: context sampling.
        with self.stats.timed(STAGE_SAMPLE):
            try:
                sample = self.sampler.sample(column, self.sample_size, rng)
            except EmptyColumnError:
                return ColumnPlan(
                    position=position,
                    result=AnnotationResult(
                        label=NULL_LABEL,
                        raw_response="",
                        prompt=None,
                        remapped=False,
                        rule_applied=False,
                        strategy="empty-column",
                    ),
                )

        # Stage 0 (optional): rule-based assignment before querying.
        if self.ruleset is not None:
            with self.stats.timed(STAGE_RULES):
                rule_label = self.ruleset.apply(column, list(self.label_set))
            if rule_label is not None:
                return ColumnPlan(
                    position=position,
                    result=AnnotationResult(
                        label=rule_label,
                        raw_response=rule_label,
                        prompt=None,
                        remapped=False,
                        rule_applied=True,
                        strategy="rule",
                        sampled_values=tuple(sample.values),
                    ),
                )

        # Stage 2: feature building + prompt serialization.
        with self.stats.timed(STAGE_SERIALIZE):
            context_strings = build_feature_strings(
                sample.values,
                self.features,
                table=table,
                column_index=column_index,
                column=column,
            )
            prompt = self.serializer.serialize(context_strings, list(self.label_set))
        return ColumnPlan(
            position=position,
            prompt=prompt,
            sampled_values=tuple(sample.values),
        )
