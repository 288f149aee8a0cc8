"""Experiment runner: evaluate an annotator over a benchmark.

Every experiment in the paper boils down to "run method M over benchmark B and
report weighted F1".  :class:`ExperimentRunner` standardises that loop for any
object exposing ``annotate_column`` (the ArcheType pipeline, the C-/K-
baselines, or the classical baselines through a small adapter), collects
predictions and remap/rule statistics, and returns an
:class:`EvaluationResult` that the per-table experiment modules format.

Annotators that expose the plan/execute pipeline's streaming API
(``annotate_stream``) are driven chunk-at-a-time: the runner consumes results
as each chunk completes, so evaluation memory stays O(chunk) in annotation
state regardless of split size (predictions/truth are O(split), as the
metrics require).  Any other annotator (the baselines) is driven
column-at-a-time through ``annotate_column``.  Both drives produce
bit-identical predictions for the bundled annotators.

``executor`` / ``workers`` select the physical execution strategy
(sequential, batched, concurrent, process) for pipeline annotators, and
per-stage :class:`repro.core.plan.PipelineStats` plus engine counters are
captured into the result when the annotator exposes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro.core.pipeline import AnnotationResult
from repro.core.plan import stage_rows_from_snapshot
from repro.core.remapping import NULL_LABEL
from repro.core.store import ResponseStore, RunManifest, open_store
from repro.core.table import Column, Table
from repro.datasets.base import Benchmark, BenchmarkColumn
from repro.eval.confusion import ConfusionMatrix
from repro.eval.metrics import ClassificationReport, evaluate_predictions
from repro.exceptions import ConfigurationError


class ColumnAnnotator(Protocol):
    """Anything that can annotate a single column."""

    def annotate_column(
        self,
        column: Column,
        table: Table | None = None,
        column_index: int | None = None,
    ) -> AnnotationResult:
        ...  # pragma: no cover - protocol definition


@runtime_checkable
class StreamingColumnAnnotator(Protocol):
    """Anything that can annotate a lazily-consumed stream of columns."""

    def annotate_stream(
        self,
        columns: Iterable[Column],
        table: Table | None = None,
        column_indices: Iterable[int | None] | None = None,
        tables: Iterable[Table | None] | None = None,
        chunk_size: int = 64,
    ) -> Iterator[AnnotationResult]:
        ...  # pragma: no cover - protocol definition


@dataclass
class EvaluationResult:
    """Predictions plus aggregate metrics for one (method, benchmark) pair."""

    benchmark_name: str
    method_name: str
    truth: list[str]
    predictions: list[str]
    report: ClassificationReport
    confusion: ConfusionMatrix
    n_remapped: int = 0
    n_rule_applied: int = 0
    n_unmapped: int = 0
    annotations: list[AnnotationResult] = field(default_factory=list)
    #: Per-stage instrumentation captured from the annotator, when it exposes
    #: a ``pipeline_stats`` attribute: ``{stage: {calls, seconds, cache_hits}}``.
    pipeline_stats: dict[str, dict[str, float]] | None = None
    #: Engine counters captured from the annotator, when exposed.
    n_queries: int | None = None
    n_cache_hits: int | None = None
    n_store_hits: int | None = None
    n_inflight_hits: int | None = None
    #: Request-scheduler telemetry snapshot (batches drained, coalesced
    #: requests, batch-size histogram …), when the annotator exposes one.
    scheduler: dict[str, object] | None = None
    #: Identifier of the checkpointed run (when a cache directory was used);
    #: pass it back as ``resume`` to continue an interrupted run.
    run_id: str | None = None

    @property
    def weighted_f1_pct(self) -> float:
        return self.report.weighted_f1_pct

    def summary_row(self) -> dict[str, object]:
        """A compact dictionary row for report tables.

        When the annotator exposed instrumentation, the row additionally
        carries the engine counters and the plan/query wall-time split.
        """
        row: dict[str, object] = {
            "benchmark": self.benchmark_name,
            "method": self.method_name,
            "micro_f1": round(self.report.weighted_f1_pct, 1),
            "ci95": round(self.report.ci95_pct, 1),
            "accuracy": round(100.0 * self.report.accuracy, 1),
            "n_columns": self.report.n_columns,
            "n_remapped": self.n_remapped,
            "n_rule_applied": self.n_rule_applied,
        }
        if self.n_queries is not None:
            row["n_queries"] = self.n_queries
        if self.n_cache_hits is not None:
            row["cache_hits"] = self.n_cache_hits
        if self.n_store_hits is not None:
            row["store_hits"] = self.n_store_hits
        if self.n_inflight_hits is not None:
            row["inflight_hits"] = self.n_inflight_hits
        if self.scheduler is not None:
            row["n_batches"] = self.scheduler.get("n_batches", 0)
            row["n_coalesced"] = self.scheduler.get("n_coalesced", 0)
        if self.run_id is not None:
            row["run_id"] = self.run_id
        if self.pipeline_stats:
            plan_s = sum(
                counters["seconds"]
                for stage, counters in self.pipeline_stats.items()
                if stage in ("sample", "rules", "serialize")
            )
            execute_s = sum(
                counters["seconds"]
                for stage, counters in self.pipeline_stats.items()
                if stage in ("query", "remap")
            )
            row["plan_s"] = round(plan_s, 3)
            row["execute_s"] = round(execute_s, 3)
        return row

    def stage_rows(self) -> list[dict[str, object]]:
        """Per-stage instrumentation rows (empty when none was captured)."""
        if not self.pipeline_stats:
            return []
        return stage_rows_from_snapshot(self.pipeline_stats)


@dataclass
class RunnerTotals:
    """Counters accumulated across every evaluation a runner performs.

    The suite orchestrator hands one :class:`ExperimentRunner` to an
    experiment shard and reads these totals afterwards, so a shard's
    machine-readable result can report how many model queries the whole
    experiment cost (and how many were absorbed by the LRU / store tiers)
    without every experiment module threading counters by hand.
    """

    n_evaluations: int = 0
    n_queries: int = 0
    n_cache_hits: int = 0
    n_store_hits: int = 0
    n_inflight_hits: int = 0
    n_coalesced: int = 0
    n_batches: int = 0
    n_cross_request_batches: int = 0

    def add(self, result: "EvaluationResult") -> None:
        """Fold one evaluation's engine/scheduler counters into the totals."""
        self.n_evaluations += 1
        self.n_queries += result.n_queries or 0
        self.n_cache_hits += result.n_cache_hits or 0
        self.n_store_hits += result.n_store_hits or 0
        self.n_inflight_hits += result.n_inflight_hits or 0
        if result.scheduler is not None:
            self.n_coalesced += int(result.scheduler.get("n_coalesced", 0))  # type: ignore[arg-type]
            self.n_batches += int(result.scheduler.get("n_batches", 0))  # type: ignore[arg-type]
            self.n_cross_request_batches += int(
                result.scheduler.get("n_cross_request_batches", 0)  # type: ignore[arg-type]
            )

    def as_dict(self) -> dict[str, int]:
        return {
            "n_evaluations": self.n_evaluations,
            "n_queries": self.n_queries,
            "n_cache_hits": self.n_cache_hits,
            "n_store_hits": self.n_store_hits,
            "n_inflight_hits": self.n_inflight_hits,
            "n_coalesced": self.n_coalesced,
            "n_batches": self.n_batches,
            "n_cross_request_batches": self.n_cross_request_batches,
        }


@dataclass
class ExperimentRunner:
    """Evaluate annotators over benchmarks.

    * ``batch_size`` — stream chunk for streaming-capable annotators (``0``
      = one column at a time through the sequential executor, the
      stateful-model escape hatch; ``None`` = 64-column chunks), which
      changes scheduling but never labels;
    * ``executor`` / ``workers`` — physical execution strategy for pipeline
      annotators (an :class:`repro.core.executor.Executor`, a name among
      ``sequential``/``batched``/``concurrent``/``process``, or ``None``
      for the historical ``batch_size`` semantics);
    * ``stream_chunk_size`` — chunk for the streaming drive (defaults to
      ``batch_size`` or 64);
    * ``max_batch_wait`` / ``queue_depth`` — request-scheduler knobs applied
      to the annotator's engine when it exposes one: the microbatcher's
      linger window for cross-request coalescing, and the bound on the
      admission queue (full queue = backpressure, never drops);
    * ``reset_stats`` — zero the annotator's engine/pipeline counters before
      evaluating (when it exposes ``reset_stats``), so multi-run experiments
      report per-run numbers;
    * ``cache_dir`` — directory for the persistence layer (see
      :mod:`repro.core.store`): a durable ``(prompt, params) → response``
      store shared by every run plus one checkpoint manifest per run.  The
      store is attached to the annotator's engine for the duration of the
      evaluation (an engine that already carries a store keeps its own);
    * ``store`` — store kind under ``cache_dir`` (one of
      :data:`repro.core.store.STORE_KINDS`): ``"sqlite"`` (default), or
      ``"none"`` to checkpoint runs without persisting responses (the right
      setting for stateful backends);
    * ``checkpoint`` — whether streaming runs under ``cache_dir`` journal a
      per-run manifest.  The suite orchestrator disables this: its shards are
      resumed at shard granularity from the suite journal plus the shared
      response store, and one manifest directory per evaluation would bury
      ``cache_dir/runs/`` under hundreds of entries;
    * ``run_id`` — explicit id for the run manifest (default: generated);
    * ``resume`` — id of an interrupted run to resume: columns already in
      that run's manifest are replayed from the journal (bit-identically —
      planning still burns the RNG stream) instead of re-executed.  Requires
      ``cache_dir`` and a streaming-capable annotator.
    """

    keep_annotations: bool = False
    batch_size: int | None = None
    executor: object | str | None = None
    workers: int | None = None
    stream_chunk_size: int | None = None
    max_batch_wait: float | None = None
    queue_depth: int | None = None
    reset_stats: bool = True
    cache_dir: str | Path | None = None
    store: str = "sqlite"
    checkpoint: bool = True
    run_id: str | None = None
    resume: str | None = None
    totals: RunnerTotals = field(default_factory=RunnerTotals)

    def evaluate(
        self,
        annotator: ColumnAnnotator,
        benchmark: Benchmark,
        method_name: str,
        max_columns: int | None = None,
    ) -> EvaluationResult:
        """Annotate every benchmark column and compute metrics."""
        columns: Sequence[BenchmarkColumn] = benchmark.columns
        if max_columns is not None:
            columns = columns[:max_columns]
        if self.reset_stats and hasattr(annotator, "reset_stats"):
            annotator.reset_stats()
        self._configure_scheduler(annotator)
        store_obj, manifest, attached = self._open_persistence(
            annotator, benchmark, method_name
        )
        try:
            truth: list[str] = []
            predictions: list[str] = []
            annotations: list[AnnotationResult] = []
            n_remapped = 0
            n_rule_applied = 0
            n_unmapped = 0
            for bench_column, result in zip(
                columns, self._annotate(annotator, columns, manifest), strict=True
            ):
                truth.append(bench_column.label)
                predictions.append(result.label)
                n_remapped += int(result.remapped)
                n_rule_applied += int(result.rule_applied)
                n_unmapped += int(result.label == NULL_LABEL)
                if self.keep_annotations:
                    annotations.append(result)
            report = evaluate_predictions(truth, predictions)
            confusion = ConfusionMatrix.from_predictions(truth, predictions)
            stats = getattr(annotator, "pipeline_stats", None)
            engine = getattr(annotator, "engine", None)
            engine_stats = getattr(engine, "stats", None)
            scheduler = getattr(engine, "scheduler", None)
            result = EvaluationResult(
                benchmark_name=benchmark.name,
                method_name=method_name,
                truth=truth,
                predictions=predictions,
                report=report,
                confusion=confusion,
                n_remapped=n_remapped,
                n_rule_applied=n_rule_applied,
                n_unmapped=n_unmapped,
                annotations=annotations,
                pipeline_stats=stats.snapshot() if stats is not None else None,
                n_queries=engine_stats.n_queries if engine_stats is not None else None,
                n_cache_hits=engine_stats.n_cache_hits if engine_stats is not None else None,
                n_store_hits=(
                    engine_stats.n_store_hits if engine_stats is not None else None
                ),
                n_inflight_hits=(
                    engine_stats.n_inflight_hits if engine_stats is not None else None
                ),
                scheduler=(
                    scheduler.stats_snapshot() if scheduler is not None else None
                ),
                run_id=manifest.run_id if manifest is not None else None,
            )
            self.totals.add(result)
            return result
        finally:
            if manifest is not None:
                manifest.close()
            if attached:
                getattr(annotator, "engine").store = None
            if store_obj is not None:
                store_obj.close()

    def _configure_scheduler(self, annotator: ColumnAnnotator) -> None:
        """Apply the runner's scheduler knobs to the annotator's engine.

        A no-op for annotators without a scheduler-backed engine; configuring
        an unconfigurable annotator while asking for scheduler behaviour is
        an error rather than a silently ignored request.
        """
        if self.max_batch_wait is None and self.queue_depth is None:
            return
        scheduler = getattr(getattr(annotator, "engine", None), "scheduler", None)
        if scheduler is None:
            raise ConfigurationError(
                "max_batch_wait/queue_depth require a scheduler-backed "
                f"annotator; {type(annotator).__name__} has none"
            )
        kwargs: dict[str, object] = {}
        if self.max_batch_wait is not None:
            kwargs["max_wait"] = self.max_batch_wait
        if self.queue_depth is not None:
            kwargs["queue_depth"] = self.queue_depth
        scheduler.configure(**kwargs)

    def _open_persistence(
        self,
        annotator: ColumnAnnotator,
        benchmark: Benchmark,
        method_name: str,
    ) -> tuple[ResponseStore | None, RunManifest | None, bool]:
        """Open the response store and run manifest configured for this run.

        Returns ``(store, manifest, attached)`` where ``attached`` records
        whether the store was attached to the annotator's engine by this call
        (and must therefore be detached when the evaluation finishes — the
        store object's lifetime belongs to the runner, not the annotator).
        """
        if self.cache_dir is None:
            if self.resume is not None:
                raise ConfigurationError(
                    "resume requires cache_dir to locate the run manifest"
                )
            return None, None, False
        store_obj = open_store(self.store, self.cache_dir)
        attached = False
        try:
            if store_obj is not None:
                engine = getattr(annotator, "engine", None)
                if engine is not None and getattr(engine, "store", None) is None:
                    engine.store = store_obj
                    attached = True
            manifest: RunManifest | None = None
            if isinstance(annotator, StreamingColumnAnnotator):
                if self.resume is not None:
                    manifest = RunManifest.load(self.cache_dir, self.resume)
                    try:
                        self._check_resume_metadata(
                            manifest, annotator, benchmark, method_name
                        )
                    except BaseException:
                        manifest.close()
                        raise
                elif self.checkpoint:
                    manifest = RunManifest.create(
                        self.cache_dir,
                        run_id=self.run_id,
                        metadata=self._run_metadata(
                            annotator, benchmark, method_name
                        ),
                    )
            elif self.resume is not None:
                raise ConfigurationError(
                    "resume requires a streaming-capable annotator "
                    "(one exposing annotate_stream)"
                )
        except BaseException:
            # evaluate()'s try/finally has not started yet, so clean up here:
            # a store left attached to the annotator's engine after a failed
            # open would silently serve a closed (or foreign) store on the
            # next evaluation.
            if attached:
                getattr(annotator, "engine").store = None
            if store_obj is not None:
                store_obj.close()
            raise
        return store_obj, manifest, attached

    @staticmethod
    def _run_metadata(
        annotator: ColumnAnnotator, benchmark: Benchmark, method_name: str
    ) -> dict[str, object]:
        """Identity of the experiment a manifest belongs to.

        The annotator seed is included when discoverable so a resume with a
        different seed — which would mix two RNG streams' predictions — is
        caught, not silently scored.
        """
        metadata: dict[str, object] = {
            "benchmark": benchmark.name,
            "method": method_name,
        }
        seed = getattr(getattr(annotator, "config", None), "seed", None)
        if seed is not None:
            metadata["seed"] = seed
        return metadata

    @classmethod
    def _check_resume_metadata(
        cls,
        manifest: RunManifest,
        annotator: ColumnAnnotator,
        benchmark: Benchmark,
        method_name: str,
    ) -> None:
        """Refuse to splice a manifest into a different experiment.

        Resuming replays recorded labels positionally, so a manifest written
        for another benchmark, method or annotator seed would silently score
        the wrong predictions.
        """
        expected = cls._run_metadata(annotator, benchmark, method_name)
        for key, value in expected.items():
            recorded = manifest.metadata.get(key)
            if recorded is not None and recorded != value:
                raise ConfigurationError(
                    f"run {manifest.run_id!r} was recorded for {key}="
                    f"{recorded!r}, not {value!r}; resuming would splice "
                    "predictions across experiments"
                )

    @staticmethod
    def _column_table(bench_column: BenchmarkColumn) -> Table | None:
        if bench_column.table_name is None:
            return None
        return Table(columns=[bench_column.column], name=bench_column.table_name)

    def _annotate(
        self,
        annotator: ColumnAnnotator,
        columns: Sequence[BenchmarkColumn],
        manifest: RunManifest | None = None,
    ) -> Iterator[AnnotationResult]:
        """Stream a streaming-capable annotator, else go column by column.

        Streaming-capable annotators are consumed lazily, so only one chunk
        of annotation state is alive at a time; any other annotator (the
        baselines) gets one ``annotate_column`` call per column.  Run
        checkpointing (``manifest``) is a streaming-drive feature; for the
        per-column drive it is ``None`` by construction.
        """
        if isinstance(annotator, StreamingColumnAnnotator):
            return self._annotate_streaming(annotator, columns, manifest)
        return self._annotate_sequential(annotator, columns)

    def _annotate_sequential(
        self,
        annotator: ColumnAnnotator,
        columns: Sequence[BenchmarkColumn],
    ) -> Iterator[AnnotationResult]:
        for bench_column in columns:
            yield annotator.annotate_column(
                bench_column.column,
                table=self._column_table(bench_column),
                column_index=0,
            )

    def _annotate_streaming(
        self,
        annotator: StreamingColumnAnnotator,
        columns: Sequence[BenchmarkColumn],
        manifest: RunManifest | None = None,
    ) -> Iterator[AnnotationResult]:
        """Drive a streaming-capable annotator chunk-at-a-time.

        Each benchmark column carries its own single-column table context, so
        the per-column ``tables`` form is used (with ``column_index=0``
        everywhere, matching the other drives).  ``batch_size=0`` — the
        stateful-model escape hatch — selects the sequential executor with a
        chunk of 1 so call order matches the column-at-a-time loop exactly.
        """
        if self.batch_size == 0:
            if self.executor not in (None, "sequential"):
                raise ConfigurationError(
                    "batch_size=0 forces the sequential per-column loop and "
                    f"conflicts with executor={self.executor!r}"
                )
            chunk_size = 1
            executor: object | str | None = "sequential"
        else:
            chunk_size = self.stream_chunk_size or self.batch_size or 64
            executor = self.executor
        kwargs: dict[str, object] = {}
        if executor is not None:
            kwargs["executor"] = executor
        if self.workers is not None:
            kwargs["workers"] = self.workers
        if manifest is not None:
            kwargs["manifest"] = manifest
        return annotator.annotate_stream(
            (bench_column.column for bench_column in columns),
            tables=(self._column_table(bench_column) for bench_column in columns),
            column_indices=(0 for _ in columns),
            chunk_size=chunk_size,
            **kwargs,
        )

    def evaluate_predictions_only(
        self,
        benchmark: Benchmark,
        predictions: Sequence[str],
        method_name: str,
    ) -> EvaluationResult:
        """Build an :class:`EvaluationResult` from precomputed predictions.

        Used by the classical baselines, which predict in batch rather than
        through ``annotate_column``.  ``predictions`` must cover the whole
        benchmark: a length mismatch means predictions and truth are out of
        register, and silently truncating would score the wrong pairs.
        """
        if len(predictions) != len(benchmark.columns):
            raise ConfigurationError(
                f"{method_name}: got {len(predictions)} predictions for "
                f"{len(benchmark.columns)} benchmark columns; predictions "
                "must cover the benchmark exactly"
            )
        truth = [bc.label for bc in benchmark.columns]
        report = evaluate_predictions(truth, list(predictions))
        confusion = ConfusionMatrix.from_predictions(truth, list(predictions))
        result = EvaluationResult(
            benchmark_name=benchmark.name,
            method_name=method_name,
            truth=truth,
            predictions=list(predictions),
            report=report,
            confusion=confusion,
        )
        self.totals.add(result)
        return result
