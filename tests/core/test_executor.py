"""Executor tests: golden equivalence, edge cases, and failure modes.

The golden label lists below were captured from the PRE-refactor
``annotate_column`` / ``annotate_columns`` implementations (commit 6c0124c)
on fixed benchmark seeds.  They pin the acceptance criterion that the
plan/execute refactor changes no labels: sequential and batched execution
must stay bit-identical to the historical code, and the concurrent executor
must produce the same labels for the pure bundled backends.
"""

from __future__ import annotations

import zlib
from collections import Counter

import pytest

from repro.core.executor import (
    EXECUTOR_NAMES,
    BatchedExecutor,
    ConcurrentExecutor,
    ProcessExecutor,
    get_executor,
    resolve_executor,
)
from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.core.remapping import NULL_LABEL
from repro.core.rules import SOTAB_27_RULES
from repro.core.store import ResponseStore
from repro.core.table import Column
from repro.datasets.registry import load_benchmark
from repro.eval.runner import ExperimentRunner
from repro.exceptions import ConfigurationError
from repro.llm.base import GenerationParams, LanguageModel
from repro.llm.simulated import SimulatedLLM

LABELS = ["state", "person", "url", "number", "text"]

#: Labels produced by the pre-refactor pipeline for
#: load_benchmark("sotab-27", n_columns=60, seed=5) with
#: ArcheTypeConfig(model="gpt", sample_size=5, seed=0); sequential and
#: batched (batch_size=7) paths agreed bit-for-bit.
GOLDEN_SOTAB_GPT = [
    'product', 'streetaddress', 'url', 'currency', 'product', 'number',
    'time', 'category', 'category', 'boolean', 'product', 'zipcode',
    'telephone', 'streetaddress', 'organization', 'category',
    'streetaddress', 'currency', 'weight', 'category', 'price', 'person',
    'time', 'person', 'url', 'time', 'time', 'category', 'category',
    'creativework', 'telephone', 'country', 'product', 'streetaddress',
    'streetaddress', 'time', 'date', 'url', 'time', 'date', 'category',
    'category', 'price', 'number', 'weight', 'zipcode', 'coordinates',
    'person', 'creativework', 'person', 'boolean', 'time', 'number',
    'telephone', 'category', 'date', 'date', 'category', 'company', 'weight',
]

#: Labels produced by the pre-refactor batched pipeline for
#: load_benchmark("sotab-27", n_columns=40, seed=13) with
#: ArcheTypeConfig(model="t5", sample_size=5, seed=2, ruleset=SOTAB_27_RULES).
GOLDEN_SOTAB_T5_RULES = [
    'product', 'url', 'telephone', 'language', 'creativework', 'time',
    'product', 'url', 'boolean', 'country', 'age', 'company', 'gender',
    'gender', 'email', 'currency', 'number', 'date', 'product', 'company',
    'date', 'date', 'date', 'product', 'telephone', 'number',
    'creativework', 'jobposting', 'company', 'time', 'time', 'country',
    'gender', 'time', 'zipcode', 'url', 'sportsteam', 'organization',
    'organization', 'person',
]


def _golden_benchmark():
    return load_benchmark("sotab-27", n_columns=60, seed=5)


def _golden_annotator(benchmark) -> ArcheType:
    return ArcheType(ArcheTypeConfig(
        model="gpt", label_set=benchmark.label_set, sample_size=5, seed=0,
    ))


class TestGoldenEquivalence:
    """The refactored pipeline reproduces pre-refactor labels exactly."""

    def test_sequential_matches_pre_refactor_golden(self):
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        labels = [
            annotator.annotate_column(bc.column).label for bc in benchmark.columns
        ]
        assert labels == GOLDEN_SOTAB_GPT

    def test_batched_matches_pre_refactor_golden(self):
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        results = annotator.annotate_columns(
            [bc.column for bc in benchmark.columns], batch_size=7
        )
        assert [r.label for r in results] == GOLDEN_SOTAB_GPT

    def test_rules_variant_matches_pre_refactor_golden(self):
        benchmark = load_benchmark("sotab-27", n_columns=40, seed=13)
        annotator = ArcheType(ArcheTypeConfig(
            model="t5", label_set=benchmark.label_set, sample_size=5, seed=2,
            ruleset=SOTAB_27_RULES,
        ))
        results = annotator.annotate_columns([bc.column for bc in benchmark.columns])
        assert [r.label for r in results] == GOLDEN_SOTAB_T5_RULES

    def test_concurrent_matches_golden_label_multiset(self):
        """Acceptance: >= 4 workers produce the same label multiset."""
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        results = annotator.annotate_columns(
            [bc.column for bc in benchmark.columns],
            executor="concurrent",
            workers=4,
        )
        assert Counter(r.label for r in results) == Counter(GOLDEN_SOTAB_GPT)
        # The bundled backends are pure, so ordering is in fact identical too.
        assert [r.label for r in results] == GOLDEN_SOTAB_GPT

    def test_stream_matches_pre_refactor_golden(self):
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        labels = [
            r.label
            for r in annotator.annotate_stream(
                (bc.column for bc in benchmark.columns), chunk_size=13
            )
        ]
        assert labels == GOLDEN_SOTAB_GPT


class TestExecutorEdgeCases:
    """Edge cases the refactor must preserve (ISSUE 2 satellite)."""

    def _annotator(self, **overrides) -> ArcheType:
        return ArcheType(ArcheTypeConfig(model="gpt", label_set=LABELS, **overrides))

    def test_empty_column_short_circuit_inside_batched_mode(self):
        empty = Column(values=["", "   ", ""])
        state = Column(values=["Alaska", "Colorado", "Kentucky", "Nevada", "Texas"])
        for batch_size in (None, 1, 2):
            results = self._annotator().annotate_columns(
                [empty, state, empty], batch_size=batch_size
            )
            assert results[0].label == NULL_LABEL
            assert results[0].strategy == "empty-column"
            assert results[1].label == "state"
            assert results[2].label == NULL_LABEL

    def test_all_columns_short_circuit_issues_no_queries(self):
        empty = Column(values=[""])
        annotator = self._annotator()
        results = annotator.annotate_columns([empty, empty], batch_size=3)
        assert [r.label for r in results] == [NULL_LABEL, NULL_LABEL]
        assert annotator.query_count == 0

    @pytest.mark.parametrize("batch_size", [1, 3, 99])
    def test_chunk_boundaries(self, batch_size):
        """chunk=1, chunk mid-split and chunk>len all agree with unchunked."""
        benchmark = load_benchmark("d4-20", n_columns=12, seed=21)
        columns = [bc.column for bc in benchmark.columns]

        def annotate(**kwargs):
            annotator = ArcheType(ArcheTypeConfig(
                model="gpt", label_set=benchmark.label_set, seed=0,
            ))
            return [r.label for r in annotator.annotate_columns(columns, **kwargs)]

        assert annotate(batch_size=batch_size) == annotate(batch_size=None)

    def test_rule_hits_interleaved_with_queried_columns(self):
        url = Column(values=["http://a.com/x", "http://b.org/y", "http://c.net/z"])
        state = Column(values=["Alaska", "Colorado", "Kentucky", "Nevada", "Texas"])
        empty = Column(values=[""])
        workload = [url, state, empty, url, state]
        for executor in ("sequential", "batched", "concurrent"):
            annotator = self._annotator(ruleset=SOTAB_27_RULES)
            results = annotator.annotate_columns(workload, executor=executor)
            assert [r.label for r in results] == \
                ["url", "state", NULL_LABEL, "url", "state"]
            assert [r.rule_applied for r in results] == \
                [True, False, False, True, False]

    def test_executor_object_can_be_passed_directly(self):
        state = Column(values=["Alaska", "Colorado", "Kentucky", "Nevada", "Texas"])
        annotator = self._annotator()
        results = annotator.annotate_columns(
            [state], executor=BatchedExecutor(batch_size=2)
        )
        assert results[0].label == "state"


class TestExecutorResolution:
    def test_get_executor_names(self):
        assert get_executor("sequential") == BatchedExecutor(batch_size=1)
        assert isinstance(get_executor("batched", batch_size=5), BatchedExecutor)
        concurrent = get_executor("concurrent", workers=8)
        assert isinstance(concurrent, ConcurrentExecutor)
        assert concurrent.workers == 8

    def test_get_executor_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_executor("warp-drive")

    def test_conflicting_batch_size_rejected_cleanly(self):
        """Knobs the named executor cannot honour are clean config errors."""
        with pytest.raises(ConfigurationError, match="batch_size=0"):
            get_executor("batched", batch_size=0)
        with pytest.raises(ConfigurationError, match="batch_size=0"):
            get_executor("concurrent", batch_size=0, workers=2)
        with pytest.raises(ConfigurationError, match="no effect"):
            get_executor("sequential", batch_size=5)
        with pytest.raises(ConfigurationError, match="executor instance"):
            resolve_executor(BatchedExecutor(batch_size=2), batch_size=5)
        # batch_size=0 with the sequential executor is consistent, not an error.
        assert get_executor("sequential", batch_size=0) == \
            BatchedExecutor(batch_size=1)

    def test_resolve_defaults_preserve_batch_size_semantics(self):
        assert resolve_executor(None, batch_size=0) == BatchedExecutor(batch_size=1)
        batched = resolve_executor(None, batch_size=7)
        assert isinstance(batched, BatchedExecutor)
        assert batched.batch_size == 7
        assert isinstance(resolve_executor(None), BatchedExecutor)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchedExecutor(batch_size=0)
        with pytest.raises(ConfigurationError):
            ConcurrentExecutor(workers=0)
        with pytest.raises(ConfigurationError):
            resolve_executor(3.14)  # type: ignore[arg-type]

    def test_workers_without_concurrent_executor_rejected(self):
        """workers must not be silently ignored on a single-threaded run."""
        with pytest.raises(ConfigurationError, match="concurrent or process"):
            resolve_executor(None, workers=8)
        with pytest.raises(ConfigurationError, match="concurrent or process"):
            get_executor("batched", workers=8)
        with pytest.raises(ConfigurationError, match="concurrent or process"):
            get_executor("sequential", workers=8)

    def test_get_executor_process(self):
        process = get_executor("process", workers=3)
        assert isinstance(process, ProcessExecutor)
        assert process.workers == 3
        # batch_size maps onto the per-worker chunk size, like the
        # concurrent executor's chunking knob.
        chunked = get_executor("process", workers=2, batch_size=9)
        assert isinstance(chunked, ProcessExecutor)
        assert chunked.chunk_size == 9
        with pytest.raises(ConfigurationError):
            ProcessExecutor(workers=0)


class ShortReturningModel(LanguageModel):
    """A miscounting backend: generate_batch silently drops the last answer."""

    name = "short-returning"
    context_window = 2048

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        return "state"

    def generate_batch(self, prompts, params=None) -> list[str]:
        return ["state"] * max(len(prompts) - 1, 0)


class TestShortReturningBackend:
    """Regression (ISSUE 2 satellite): a miscounting backend must fail loudly
    instead of silently dropping columns."""

    def _workload(self) -> list[Column]:
        return [
            Column(values=["Alaska", "Colorado", "Kentucky"]),
            Column(values=["Bob Smith", "Alice Jones", "Carol White"]),
            Column(values=["http://a.com", "http://b.org", "http://c.net"]),
        ]

    def test_batched_mode_raises(self):
        annotator = ArcheType(ArcheTypeConfig(
            model=ShortReturningModel(), label_set=LABELS, remapper="none",
        ))
        with pytest.raises(RuntimeError, match="completions for"):
            annotator.annotate_columns(self._workload())

    def test_batched_mode_raises_with_cache_disabled(self):
        annotator = ArcheType(ArcheTypeConfig(
            model=ShortReturningModel(), label_set=LABELS, remapper="none",
            query_cache_size=0,
        ))
        with pytest.raises(RuntimeError, match="completions for"):
            annotator.annotate_columns(self._workload())

    def test_concurrent_mode_raises(self):
        annotator = ArcheType(ArcheTypeConfig(
            model=ShortReturningModel(), label_set=LABELS, remapper="none",
        ))
        with pytest.raises(RuntimeError, match="completions for"):
            annotator.annotate_columns(
                self._workload(), executor="concurrent", workers=2
            )


class UnpicklableModel(LanguageModel):
    """A backend holding process-local state that cannot cross a fork."""

    name = "unpicklable"
    context_window = 2048

    def __init__(self) -> None:
        self.session = lambda prompt: "state"  # lambdas never pickle

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        return self.session(prompt)


class MemoryStore(ResponseStore):
    """A ``ResponseStore`` that lives in one process's memory."""

    kind = "memory"

    def __init__(self, path) -> None:
        self.path = path
        self.entries: dict[tuple[str, GenerationParams], str] = {}

    def get(self, prompt, params):
        return self.entries.get((prompt, params))

    def put(self, prompt, params, response):
        self.entries.setdefault((prompt, params), response)

    def __len__(self) -> int:
        return len(self.entries)


class TestProcessExecutor:
    """ISSUE 7 tentpole: worker processes, bit-identical labels, truthful
    accounting."""

    def test_process_matches_pre_refactor_golden(self):
        """Acceptance: bit-identical labels to the sequential executor."""
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        results = annotator.annotate_columns(
            [bc.column for bc in benchmark.columns],
            executor="process",
            workers=4,
        )
        assert [r.label for r in results] == GOLDEN_SOTAB_GPT

    def test_worker_accounting_absorbed_into_parent(self):
        """query_count and stage stats must cover worker-side model calls."""
        benchmark = _golden_benchmark()
        reference = _golden_annotator(benchmark)
        workload = [bc.column for bc in benchmark.columns]
        [reference.annotate_column(column) for column in workload]

        annotator = _golden_annotator(benchmark)
        annotator.annotate_columns(workload, executor="process", workers=3)
        assert annotator.query_count == reference.query_count
        stages = {row["stage"]: row for row in annotator.stats.as_rows()}
        assert stages["query"]["calls"] > 0
        assert stages["remap"]["calls"] > 0

    def test_pool_reused_across_stream_chunks(self):
        """annotate_stream executes chunk-at-a-time through ONE pool."""
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        executor = ProcessExecutor(workers=2)
        with executor:
            labels = [
                r.label
                for r in annotator.annotate_stream(
                    (bc.column for bc in benchmark.columns),
                    chunk_size=20,
                    executor=executor,
                )
            ]
            assert labels == GOLDEN_SOTAB_GPT
            assert executor._pool is not None

    def test_pool_reused_after_in_process_annotation(self):
        """In-process calls fill the simulated model's label-set memo; the
        memo must stay out of the pickled worker spec, or the spec fails to
        pickle (concept scorers are lambdas) or changes, rebuilding the pool.
        The call in between adds a label set: the numeric restriction."""
        benchmark = load_benchmark("sotab-27", n_columns=24, seed=5)
        columns = [bc.column for bc in benchmark.columns]
        numeric = Column(values=["12", "7", "3.5", "40", "18"])
        config = ArcheTypeConfig(
            model="gpt", label_set=benchmark.label_set, sample_size=5, seed=0,
            numeric_labels=("number", "price", "weight"),
        )

        def labels(results):
            return [r.label for r in results]

        reference = ArcheType(config)
        expected = [
            reference.annotate_column(columns[0]).label,
            labels(reference.annotate_columns(columns[1:12], executor="sequential")),
            reference.annotate_column(numeric).label,
            labels(reference.annotate_columns(columns[12:], executor="sequential")),
        ]

        annotator = ArcheType(config)
        with ProcessExecutor(workers=2) as executor:
            first = annotator.annotate_column(columns[0]).label
            one = labels(annotator.annotate_columns(columns[1:12], executor=executor))
            pool = executor._pool
            between = annotator.annotate_column(numeric).label
            two = labels(annotator.annotate_columns(columns[12:], executor=executor))
            assert pool is not None
            assert executor._pool is pool
        assert [first, one, between, two] == expected

    def test_non_sqlite_store_is_a_clean_config_error(self, tmp_path):
        """Workers can only share a SQLite store; any other store fails up
        front instead of leaving the workers without a warm tier."""
        annotator = _golden_annotator(_golden_benchmark())
        store = MemoryStore(tmp_path / "memory")
        annotator.attach_store(store)
        workload = [Column(values=["Alaska", "Colorado", "Kentucky"])]
        with pytest.raises(ConfigurationError, match="SQLite"):
            annotator.annotate_columns(workload, executor="process", workers=2)
        assert annotator.query_count == 0
        assert len(store) == 0

    def test_unpicklable_model_is_a_clean_config_error(self):
        annotator = ArcheType(ArcheTypeConfig(
            model=UnpicklableModel(), label_set=LABELS, remapper="none",
        ))
        workload = [Column(values=["Alaska", "Colorado", "Kentucky"])]
        with pytest.raises(ConfigurationError, match="pickle"):
            annotator.annotate_columns(workload, executor="process", workers=2)

    def test_config_executor_and_workers_defaults(self):
        """ArcheTypeConfig(executor=..., workers=...) applies when the call
        site passes neither."""
        benchmark = load_benchmark("sotab-27", n_columns=12, seed=5)
        reference = ArcheType(ArcheTypeConfig(
            model="gpt", label_set=benchmark.label_set, sample_size=5, seed=0,
        ))
        configured = ArcheType(ArcheTypeConfig(
            model="gpt", label_set=benchmark.label_set, sample_size=5, seed=0,
            executor="process", workers=2,
        ))
        workload = [bc.column for bc in benchmark.columns]
        expected = [reference.annotate_column(column).label for column in workload]
        assert [r.label for r in configured.annotate_columns(workload)] == expected
        # An explicit executor still overrides the config default (fresh
        # annotator: each planned column advances the RNG stream).
        override = ArcheType(ArcheTypeConfig(
            model="gpt", label_set=benchmark.label_set, sample_size=5, seed=0,
            executor="process", workers=2,
        ))
        assert [
            r.label
            for r in override.annotate_columns(workload, executor="sequential")
        ] == expected


class CappedModel(SimulatedLLM):
    """The simulated gpt backend, refusing any batch above ``CAP`` prompts.

    Module-level so the process executor can pickle it into its workers.
    """

    CAP = 4

    def generate_batch(self, prompts, params=None):
        if len(prompts) > self.CAP:
            raise RuntimeError(
                f"batch of {len(prompts)} prompts exceeds the cap of {self.CAP}"
            )
        return super().generate_batch(prompts, params)


def _workers(name: str) -> int | None:
    return 2 if name in ("concurrent", "process") else None


@pytest.mark.parametrize("name", EXECUTOR_NAMES)
class TestEveryExecutor:
    """Contracts every submission policy keeps, the process pool included."""

    def test_max_batch_size_caps_every_model_batch(self, name):
        benchmark = _golden_benchmark()
        annotator = ArcheType(ArcheTypeConfig(
            model=CappedModel("gpt"), label_set=benchmark.label_set,
            sample_size=5, seed=0, max_batch_size=CappedModel.CAP,
        ))
        results = annotator.annotate_columns(
            [bc.column for bc in benchmark.columns],
            executor=name,
            workers=_workers(name),
        )
        assert [r.label for r in results] == GOLDEN_SOTAB_GPT
        stats = annotator.engine.stats
        assert stats.n_queries <= CappedModel.CAP * stats.n_batches

    def test_warm_rerun_issues_zero_model_queries(self, name, tmp_path):
        benchmark = load_benchmark("sotab-27", n_columns=40, seed=5)

        def run():
            runner = ExperimentRunner(
                cache_dir=tmp_path, executor=name, workers=_workers(name)
            )
            return runner.evaluate(
                _golden_annotator(benchmark), benchmark, "archetype"
            )

        cold = run()
        warm = run()
        assert cold.counters["n_queries"] > 0
        assert warm.counters["n_queries"] == 0
        assert warm.counters["n_store_hits"] > 0
        assert warm.predictions == cold.predictions


class RetryBudgetModel(LanguageModel):
    """Answers outside the label set until a prompt's retry budget runs out.

    The budget, 0 to 4 retries, is a pure function of the prompt text, so a
    worker process answers exactly as the parent would; a budget of 4
    outlasts the default ``resample_k`` of 3, so that column gives up.
    Module-level so the process executor can pickle it into its workers.
    """

    name = "retry-budget"
    context_window = 2048

    def __init__(self) -> None:
        self.batches: list[list[str]] = []

    @staticmethod
    def budget(prompt: str) -> int:
        return zlib.crc32(prompt.encode("utf-8")) % 5

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        budget = self.budget(prompt)
        if (params or GenerationParams()).resample_index < budget:
            return "no idea"
        return LABELS[budget]

    def generate_batch(self, prompts, params=None) -> list[str]:
        self.batches.append(list(prompts))
        return super().generate_batch(prompts, params)


def _run_retry_workload(executor):
    """Annotate 30 unique columns with the retry-budget model in one execute."""
    columns = [
        bc.column for bc in load_benchmark("sotab-27", n_columns=30, seed=5).columns
    ]
    model = RetryBudgetModel()
    annotator = ArcheType(ArcheTypeConfig(model=model, label_set=LABELS, seed=0))
    results = annotator.annotate_columns(columns, executor=executor)
    return model, annotator, results


def _remap_calls(annotator) -> int:
    return {row["stage"]: row for row in annotator.stats.as_rows()}["remap"]["calls"]


class TestRemapWaves:
    """Resample retries go out as one model batch per attempt per chunk."""

    K = 3  # ArcheTypeConfig.resample_k

    def test_sequential_issues_one_batch_per_query_and_per_retry(self):
        _, annotator, results = _run_retry_workload("sequential")
        budgets = [RetryBudgetModel.budget(r.prompt.text) for r in results]
        assert {0, 4} <= set(budgets)  # covers no retry and giving up after k
        assert annotator.engine.stats.n_batches == len(results) + sum(
            min(budget, self.K) for budget in budgets
        )
        assert _remap_calls(annotator) == len(results)

    @pytest.mark.parametrize("name", ["batched", "process"])
    def test_one_model_batch_per_resample_attempt(self, name):
        _, reference, golden = _run_retry_workload("sequential")
        if name == "process":
            with ProcessExecutor(workers=1) as executor:
                model, annotator, results = _run_retry_workload(executor)
        else:
            model, annotator, results = _run_retry_workload(BatchedExecutor())

        def outcome(result):
            return (result.label, result.remapped, result.raw_response)

        assert [outcome(r) for r in results] == [outcome(r) for r in golden]
        assert annotator.query_count == reference.query_count
        prompts = [r.prompt.text for r in results]
        assert len(set(prompts)) == len(prompts)
        budgets = [RetryBudgetModel.budget(prompt) for prompt in prompts]
        waves = min(max(budgets), self.K)
        assert annotator.engine.stats.n_batches == 1 + waves
        assert _remap_calls(annotator) == len(results)
        if name == "batched":
            # The model ran in this process: check each batch's contents.
            assert model.batches == [prompts] + [
                [p for p, budget in zip(prompts, budgets) if budget >= attempt]
                for attempt in range(1, waves + 1)
            ]
