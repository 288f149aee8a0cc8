"""The end-to-end ArcheType annotator.

:class:`ArcheType` wires together the four stages of Figure 1 — context
sampling, prompt serialization, model querying and label remapping — plus the
optional rule-based remapping that produces the paper's "+" variants.

Since the plan/execute refactor the stages live in exactly two places:

* :class:`repro.core.plan.ColumnPlanner` builds an immutable
  :class:`repro.core.plan.ColumnPlan` per column (sample → rule
  short-circuit → features → serialized prompt);
* a pluggable :class:`repro.core.executor.Executor` carries out the pending
  query + remap work as a submission policy over the annotator's request
  scheduler (its ``engine``) — a batch at a time (one column at a time is
  a batch of one) or from several submitter threads at once (see
  :mod:`repro.core.scheduler`).

Every public entry point is a thin wrapper over that split:

* :meth:`ArcheType.annotate_column` — plan one column, execute it as a
  batch of one;
* :meth:`ArcheType.annotate_columns` — plan a column set in order, execute
  with the selected executor (``batch_size=0`` keeps the historical
  column-at-a-time escape hatch for stateful models);
* :meth:`ArcheType.annotate_stream` — plan/execute chunk-at-a-time, yielding
  results as each chunk completes, with O(chunk) memory;
* :meth:`ArcheType.annotate_table` — the batched mode over a table's columns.

Planning is sequential and RNG-ordered (context sampling is the only consumer
of the annotator's RNG), so the sequential and batched executors produce
bit-identical labels, and the concurrent executor produces the same labels for
the (pure) bundled backends.  Per-stage wall time, call counts and cache hits
are accumulated in :attr:`ArcheType.stats`.

Typical usage::

    from repro import ArcheType, ArcheTypeConfig, Column

    annotator = ArcheType(ArcheTypeConfig(
        model="gpt",
        label_set=["state", "person", "url", "number"],
        sample_size=5,
    ))
    result = annotator.annotate_column(Column(["Alaska", "Colorado", "Kentucky"]))
    assert result.label == "state"
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.core.executor import BatchedExecutor, Executor, resolve_executor
from repro.core.features import FeatureConfig
from repro.core.plan import AnnotationResult, ColumnPlan, ColumnPlanner, PipelineStats
from repro.core.remapping import Remapper, get_remapper
from repro.core.rules import RuleSet
from repro.core.sampling import ContextSampler, get_sampler
from repro.core.scheduler import RequestScheduler
from repro.core.serialization import PromptSerializer, PromptStyle
from repro.core.table import Column, Table
from repro.exceptions import ConfigurationError
from repro.llm.base import GenerationParams, LanguageModel
from repro.llm.registry import get_model

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.store import ResponseStore, RunManifest

__all__ = [
    "AnnotationResult",
    "ArcheType",
    "ArcheTypeConfig",
]


@dataclass(frozen=True)
class ArcheTypeConfig:
    """Configuration for one ArcheType annotator.

    Every knob corresponds to a decision the paper discusses:

    * ``model`` — the backend (name in the model registry or an instance).
    * ``label_set`` — the test-time label set (zero-shot CTA defines it here).
    * ``sample_size`` — ``phi``, the number of context samples per column.
    * ``sampler`` / ``importance`` — context-sampling strategy (Figure 4).
    * ``prompt_style`` — one of the six styles (Table 6); treated as a
      hyperparameter.
    * ``remapper`` — label-remapping strategy (Figure 5).
    * ``features`` — extended-context features (Figure 6).
    * ``ruleset`` — rule-based remapping; non-None produces "+" behaviour.
    * ``numeric_labels`` — labels eligible for the numeric-context restriction.

    ``query_cache_size``, ``max_batch_size``, ``max_batch_wait`` and
    ``queue_depth`` are engineering knobs (not from the paper): they
    configure the request scheduler behind the engine — the LRU
    prompt-response cache, the microbatcher's per-drain batch cap and
    linger window, and the bounded admission queue's backpressure depth.
    """

    model: str | LanguageModel = "t5"
    label_set: Sequence[str] = field(default_factory=tuple)
    sample_size: int = 5
    sampler: str = "archetype"
    importance: str = "length"
    prompt_style: PromptStyle | str = PromptStyle.S
    remapper: str | Remapper = "contains+resample"
    resample_k: int = 3
    features: FeatureConfig = field(default_factory=FeatureConfig)
    ruleset: RuleSet | None = None
    numeric_labels: Sequence[str] | None = None
    sort_labels: bool = True
    context_window: int | None = None
    seed: int = 0
    generation: GenerationParams = field(default_factory=GenerationParams)
    #: Entries in the scheduler's (prompt, params) LRU response cache; 0
    #: disables every lookup tier (required when wrapping a stateful,
    #: order-dependent model).
    query_cache_size: int = 4096
    #: Per-drain cap on scheduler microbatches (None = drain everything
    #: queued, keeping one batched call one model batch).
    max_batch_size: int | None = None
    #: Seconds a drain leader lingers for stragglers before generating an
    #: under-full microbatch, only when another batch is already at the
    #: model (on an idle model a partial batch leaves at once).  With no
    #: ``max_batch_size`` a leader that lingers waits out the whole window.
    max_batch_wait: float = 0.0
    #: Bound on the scheduler's admission queue; a full queue blocks
    #: submitters (backpressure) instead of dropping requests.
    queue_depth: int | None = None
    #: Default execution strategy for ``annotate_columns``/``annotate_stream``
    #: (one of :data:`repro.core.executor.EXECUTOR_NAMES`); ``None`` keeps the
    #: historical per-call ``batch_size`` semantics.  A per-call ``executor``
    #: argument overrides this.
    executor: str | None = None
    #: Default thread count for the ``"concurrent"`` executor; ``None`` means
    #: the executor's own default.
    workers: int | None = None

    def with_updates(self, **changes: object) -> "ArcheTypeConfig":
        """Return a copy of the config with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


class ArcheType:
    """Four-stage LLM column type annotator (Figure 1).

    ``engine`` injects a shared :class:`RequestScheduler` instead of building
    a private one: the annotation service constructs one scheduler (one LRU
    cache, one store tier, one stats ledger) at startup and a cheap
    fresh annotator per request over it, so concurrent requests coalesce into
    cross-request model batches and dedup through the shared tiers while each
    request keeps its own planner RNG — labels stay bit-identical to a
    sequential run regardless of concurrency.  With ``engine`` given, the
    annotator uses its model and generation parameters; the config's
    ``model``/``generation`` and scheduler knobs are ignored.
    """

    def __init__(
        self, config: ArcheTypeConfig, *, engine: RequestScheduler | None = None
    ) -> None:
        if not config.label_set:
            raise ConfigurationError("ArcheTypeConfig.label_set must be non-empty")
        if config.sample_size <= 0:
            raise ConfigurationError("sample_size must be positive")
        self.config = config
        self.label_set = list(config.label_set)

        if engine is not None:
            model: LanguageModel | str = engine.model
        else:
            model = config.model
        if isinstance(model, str):
            model = get_model(model, seed=config.seed)
        self.model: LanguageModel = model

        self.sampler: ContextSampler = get_sampler(
            config.sampler, label_set=self.label_set, importance=config.importance
        )
        window = config.context_window or self.model.context_window
        self.serializer = PromptSerializer(
            style=config.prompt_style,
            context_window=window,
            numeric_labels=config.numeric_labels,
            sort_labels=config.sort_labels,
        )
        if isinstance(config.remapper, Remapper):
            self.remapper = config.remapper
        elif config.remapper in ("resample", "contains+resample"):
            self.remapper = get_remapper(config.remapper, k=config.resample_k)
        else:
            self.remapper = get_remapper(config.remapper)
        if engine is not None:
            self.engine = engine
        else:
            self.engine = RequestScheduler(
                model=self.model,
                params=config.generation,
                cache_size=config.query_cache_size,
                max_batch_size=config.max_batch_size,
                max_wait=config.max_batch_wait,
                queue_depth=config.queue_depth,
            )
        self.stats = PipelineStats()
        self.planner = ColumnPlanner(
            sampler=self.sampler,
            sample_size=config.sample_size,
            serializer=self.serializer,
            label_set=self.label_set,
            features=config.features,
            ruleset=config.ruleset,
            stats=self.stats,
        )
        self._rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------ planning
    def plan_column(
        self,
        column: Column,
        table: Table | None = None,
        column_index: int | None = None,
        position: int = 0,
    ) -> ColumnPlan:
        """Build the :class:`ColumnPlan` for one column.

        Consumes the annotator's RNG exactly as annotation would, so plan and
        annotate calls are interchangeable in the random stream.
        """
        return self.planner.plan(
            column,
            self._rng,
            table=table,
            column_index=column_index,
            position=position,
        )

    def _plan_set(
        self,
        columns: Sequence[Column],
        per_column_tables: Sequence[Table | None],
        indices: Sequence[int | None],
    ) -> list[ColumnPlan]:
        """Plan a column set in column order (preserving the RNG stream)."""
        return [
            self.plan_column(
                column,
                table=per_column_tables[position],
                column_index=indices[position],
                position=position,
            )
            for position, column in enumerate(columns)
        ]

    # ------------------------------------------------------------------ api
    def annotate_column(
        self,
        column: Column,
        table: Table | None = None,
        column_index: int | None = None,
    ) -> AnnotationResult:
        """Annotate one column with a label from the configured label set."""
        plan = self.plan_column(column, table=table, column_index=column_index)
        return BatchedExecutor(batch_size=1).execute(
            [plan], self.engine, self.remapper, self.stats
        )[0]

    def annotate_columns(
        self,
        columns: Sequence[Column],
        table: Table | None = None,
        column_indices: Sequence[int | None] | None = None,
        tables: Sequence[Table | None] | None = None,
        batch_size: int | None = None,
        executor: Executor | str | None = None,
        workers: int | None = None,
    ) -> list[AnnotationResult]:
        """Annotate a set of columns through the plan/execute pipeline.

        Stages 1-2 (sampling, rules, serialization) are planned for every
        column first, in column order; the selected executor then carries out
        the pending query + remap work.  With the default ``executor=None``
        the historical ``batch_size`` semantics apply: prompts are issued
        through :meth:`RequestScheduler.query_batch` in chunks of ``batch_size``
        (all at once when ``None``), and ``batch_size=0`` falls back to the
        sequential column-at-a-time loop — the escape hatch for stateful
        models whose answers depend on call order (pair it with
        ``query_cache_size=0``, since the default response cache also
        collapses repeated prompts).  ``executor`` accepts an
        :class:`repro.core.executor.Executor` instance or one of the names
        ``"sequential"``, ``"batched"``, ``"concurrent"`` (``workers`` sets the
        concurrent thread count); when both are omitted, the config's
        ``executor``/``workers`` defaults apply.

        Sequential and batched execution are bit-identical; concurrent
        execution is label-identical for the pure bundled backends.

        ``table`` provides shared table context for every column (as in
        :meth:`annotate_table`); ``tables`` overrides it per column for
        callers annotating columns drawn from different tables.
        """
        if batch_size is not None and batch_size < 0:
            raise ConfigurationError("batch_size must be None or >= 0")
        columns = list(columns)
        per_column_tables, indices = self._broadcast_context(
            len(columns), table, column_indices, tables
        )
        chosen = self._resolve_executor(executor, batch_size, workers)
        plans = self._plan_set(columns, per_column_tables, indices)
        return chosen.execute(plans, self.engine, self.remapper, self.stats)

    def _resolve_executor(
        self,
        executor: Executor | str | None,
        batch_size: int | None,
        workers: int | None,
    ) -> Executor:
        """Per-call knobs override the config's executor/workers defaults."""
        if executor is None and batch_size is None:
            executor = self.config.executor
        if workers is None and executor == "concurrent":
            workers = self.config.workers
        return resolve_executor(executor, batch_size=batch_size, workers=workers)

    def annotate_stream(
        self,
        columns: Iterable[Column],
        table: Table | None = None,
        column_indices: Iterable[int | None] | None = None,
        tables: Iterable[Table | None] | None = None,
        chunk_size: int = 64,
        executor: Executor | str | None = None,
        workers: int | None = None,
        manifest: "RunManifest | None" = None,
    ) -> Iterator[AnnotationResult]:
        """Annotate a stream of columns, yielding results in column order.

        ``columns`` may be any iterable — including a generator over a split
        too large to materialise.  Columns are planned and executed in chunks
        of ``chunk_size``; each chunk's results are yielded as soon as the
        chunk completes, so memory stays O(chunk) in plans, prompts and
        results (the engine's bounded LRU cache aside).  Chunking does not
        change labels: planning stays in global column order (one RNG
        stream), and each chunk is executed exactly as a ``batch_size=chunk``
        batched call would be.

        ``column_indices`` and ``tables`` mirror :meth:`annotate_columns` but
        are consumed lazily alongside ``columns``.  ``executor`` selects the
        per-chunk execution strategy (default: batched).

        ``manifest`` enables run checkpointing (see :mod:`repro.core.store`):
        each chunk's results are committed as the chunk completes, keyed by
        global column position, and columns the manifest already holds are
        *not* re-executed — they are still planned (planning is what consumes
        the annotator's RNG stream, so skipping it would shift sampling for
        every later column) but their recorded results are yielded directly.
        Replaying an interrupted run over the same column stream with the
        same config/seed therefore reproduces the original labels
        bit-identically while only paying for the columns the crash left
        unfinished.
        """
        if chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        chosen = self._resolve_executor(executor, None, workers)
        column_iter = iter(columns)
        index_iter = iter(column_indices) if column_indices is not None else None
        tables_iter = iter(tables) if tables is not None else None
        stream_position = 0  # global column position, for shared-table indices

        while True:
            chunk_columns: list[Column] = []
            chunk_tables: list[Table | None] = []
            chunk_indices: list[int | None] = []
            for column in column_iter:
                chunk_columns.append(column)
                try:
                    chunk_tables.append(
                        next(tables_iter) if tables_iter is not None else table
                    )
                    if index_iter is not None:
                        chunk_indices.append(next(index_iter))
                    else:
                        chunk_indices.append(
                            None if table is None else stream_position
                        )
                except StopIteration:
                    # Without this, Python would convert the StopIteration
                    # into an opaque "generator raised StopIteration"
                    # RuntimeError mid-stream.
                    raise ConfigurationError(
                        "tables and column_indices must yield one entry per "
                        f"column; exhausted at column {stream_position}"
                    ) from None
                stream_position += 1
                if len(chunk_columns) == chunk_size:
                    break
            if not chunk_columns:
                return
            chunk_start = stream_position - len(chunk_columns)
            plans = self._plan_set(chunk_columns, chunk_tables, chunk_indices)
            if manifest is None:
                yield from chosen.execute(
                    plans, self.engine, self.remapper, self.stats
                )
            else:
                yield from self._execute_checkpointed(
                    plans, chunk_start, manifest, chosen
                )

    def _execute_checkpointed(
        self,
        plans: Sequence[ColumnPlan],
        chunk_start: int,
        manifest: "RunManifest",
        executor: Executor,
    ) -> Iterator[AnnotationResult]:
        """Execute one stream chunk against a run manifest.

        Plans whose global position the manifest already holds are answered
        from it; the rest are executed normally and committed as one chunk
        before any result is yielded, so a consumer abandoning the stream
        mid-chunk still leaves the whole chunk resumable.
        """
        done: dict[int, AnnotationResult] = {}
        pending: list[ColumnPlan] = []
        for plan in plans:
            result = manifest.get(chunk_start + plan.position)
            if result is not None:
                done[plan.position] = result
            else:
                pending.append(plan)
        if pending:
            results = executor.execute(
                pending, self.engine, self.remapper, self.stats
            )
            # executor.execute returns results ordered by plan position.
            executed = dict(
                zip(sorted(p.position for p in pending), results, strict=True)
            )
            manifest.record(
                {chunk_start + position: r for position, r in executed.items()}
            )
            done.update(executed)
        for plan in plans:
            yield done[plan.position]

    def annotate_table(
        self,
        table: Table,
        batch_size: int | None = None,
        executor: Executor | str | None = None,
        workers: int | None = None,
    ) -> list[AnnotationResult]:
        """Annotate every column of a table through the batched engine."""
        return self.annotate_columns(
            table.columns,
            table=table,
            batch_size=batch_size,
            executor=executor,
            workers=workers,
        )

    @staticmethod
    def _broadcast_context(
        n_columns: int,
        table: Table | None,
        column_indices: Sequence[int | None] | None,
        tables: Sequence[Table | None] | None,
    ) -> tuple[list[Table | None], list[int | None]]:
        """Normalise per-column table context, validating lengths."""
        if tables is None:
            per_column_tables = [table] * n_columns
        else:
            per_column_tables = list(tables)
        if column_indices is None:
            indices: list[int | None] = (
                list(range(n_columns)) if table is not None else [None] * n_columns
            )
        else:
            indices = list(column_indices)
        if len(per_column_tables) != n_columns or len(indices) != n_columns:
            raise ConfigurationError(
                "columns, tables and column_indices must have matching lengths"
            )
        return per_column_tables, indices

    # --------------------------------------------------------- persistence
    def attach_store(self, store: "ResponseStore | None") -> None:
        """Attach (or detach, with ``None``) a persistent response store.

        The store becomes the durable tier under the engine's LRU cache:
        LRU miss → store lookup → model call, with fresh completions written
        through to disk.  The caller keeps ownership of the store's lifetime
        (open it once, share it across annotators, close it when done).  Do
        not attach a store when wrapping a stateful, call-order-dependent
        backend — the same rule as the LRU, which already implies it:
        ``query_cache_size=0`` bypasses both tiers.
        """
        self.engine.store = store

    # ------------------------------------------------------------- metrics
    @property
    def query_count(self) -> int:
        """Total number of LLM queries issued so far (includes resamples)."""
        return self.engine.stats.n_queries

    @property
    def cache_hit_count(self) -> int:
        """Prompts served from the engine's LRU cache instead of the model."""
        return self.engine.stats.n_cache_hits

    @property
    def hit_count(self) -> int:
        """Prompts served without a model call, across every tier."""
        return self.engine.stats.n_hits

    @property
    def scheduler_stats(self) -> dict[str, object]:
        """The request scheduler's telemetry (JSON-serializable snapshot)."""
        return self.engine.stats_snapshot()

    @property
    def pipeline_stats(self) -> PipelineStats:
        """Per-stage wall time / call counts / cache hits (see :class:`PipelineStats`)."""
        return self.stats

    def reset_stats(self) -> None:
        """Zero per-stage and engine counters for per-run reporting.

        The engine's response cache survives the reset (cached answers stay
        valid across runs); only the counters restart, so ``query_count`` and
        ``cache_hit_count`` report the work of the current run.
        """
        self.stats.reset()
        self.engine.reset_stats()
