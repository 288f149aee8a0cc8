"""Golden tests for resumable runs: kill mid-stream, resume, bit-identical.

The resume invariant is the acceptance bar of the persistence subsystem: a
run interrupted at any column and resumed with the same config/seed must
produce predictions bit-identical to an uninterrupted run.  Planning is the
only consumer of the annotator's RNG and stays in global column order, so
replayed (manifest-recorded) columns burn the same random draws as live ones
and the tail of the stream sees an unshifted RNG stream.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.core.store import RunManifest, open_store
from repro.datasets.registry import load_benchmark
from repro.eval.runner import ExperimentRunner
from repro.exceptions import ConfigurationError

N_COLUMNS = 48
CHUNK = 8

#: Exit status of a child killed inside its second chunk's transaction.
KILLED_MID_COMMIT = 17

#: Runs this file's ``_record_a_chunk_then_die_mid_commit`` in a child.
_CHILD = (
    "import runpy, sys; "
    "runpy.run_path(sys.argv[1])['_record_a_chunk_then_die_mid_commit'](sys.argv[2])"
)


def _benchmark():
    return load_benchmark("sotab-27", n_columns=N_COLUMNS, seed=5)


def _annotator(label_set) -> ArcheType:
    # archetype sampling draws from the RNG per column, so any stream shift
    # between the interrupted and resumed runs would change labels.
    return ArcheType(
        ArcheTypeConfig(
            model="gpt",
            label_set=label_set,
            sample_size=5,
            sampler="archetype",
            seed=123,
        )
    )


def _columns(benchmark):
    return [bench_column.column for bench_column in benchmark.columns]


def _record_a_chunk_then_die_mid_commit(cache_dir: str) -> None:
    """Commit chunk 0, then exit inside chunk 1's transaction, before COMMIT."""
    benchmark = _benchmark()
    manifest = RunManifest.create(cache_dir, run_id="killed-mid-commit")
    commits: list[str] = []

    def exit_at_the_second_commit(statement: str) -> None:
        if statement == "COMMIT":
            commits.append(statement)
            if len(commits) == 2:
                os._exit(KILLED_MID_COMMIT)

    manifest._conn.set_trace_callback(exit_at_the_second_commit)
    for _ in _annotator(benchmark.label_set).annotate_stream(
        _columns(benchmark), chunk_size=CHUNK, manifest=manifest
    ):
        pass


@pytest.fixture(scope="module")
def golden_labels():
    """Labels from an uninterrupted run (no store, no manifest)."""
    benchmark = _benchmark()
    annotator = _annotator(benchmark.label_set)
    stream = annotator.annotate_stream(_columns(benchmark), chunk_size=CHUNK)
    return [result.label for result in stream]


class TestStreamResume:
    def test_killed_then_resumed_stream_is_bit_identical(
        self, tmp_path, golden_labels
    ):
        benchmark = _benchmark()

        # First attempt: consume a prefix that ends mid-chunk, then abandon
        # the generator — the moral equivalent of the process dying.
        manifest = RunManifest.create(tmp_path, run_id="killed")
        annotator = _annotator(benchmark.label_set)
        stream = annotator.annotate_stream(
            _columns(benchmark), chunk_size=CHUNK, manifest=manifest
        )
        interrupted = [next(stream).label for _ in range(CHUNK + 3)]
        stream.close()
        manifest.close()
        assert interrupted == golden_labels[: CHUNK + 3]

        # Chunks are journaled atomically before their results are yielded,
        # so the partially consumed second chunk is fully recorded.
        recorded = RunManifest.load(tmp_path, "killed")
        assert recorded.n_completed == 2 * CHUNK

        # Resume: a fresh annotator (fresh RNG) replays the stream.
        resumed_annotator = _annotator(benchmark.label_set)
        resumed = [
            result.label
            for result in resumed_annotator.annotate_stream(
                _columns(benchmark), chunk_size=CHUNK, manifest=recorded
            )
        ]
        recorded.close()
        assert resumed == golden_labels

        # The replayed prefix must not have touched the model again.
        assert resumed_annotator.query_count <= N_COLUMNS - 2 * CHUNK + (
            resumed_annotator.engine.stats.n_resamples
        )

    def test_killed_mid_commit_resumes_committed_chunks(
        self, tmp_path, golden_labels
    ):
        src = str(Path(repro.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, __file__, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert child.returncode == KILLED_MID_COMMIT

        # The uncommitted chunk is invisible, and it does not block the
        # resumed run's writes.
        recorded = RunManifest.load(tmp_path, "killed-mid-commit")
        assert recorded.completed_indices() == list(range(CHUNK))
        benchmark = _benchmark()
        resumed = [
            result.label
            for result in _annotator(benchmark.label_set).annotate_stream(
                _columns(benchmark), chunk_size=CHUNK, manifest=recorded
            )
        ]
        assert resumed == golden_labels
        assert recorded.n_completed == N_COLUMNS
        recorded.close()

    def test_resume_with_store_issues_no_queries_for_recorded_prefix(
        self, tmp_path, golden_labels
    ):
        benchmark = _benchmark()
        store = open_store("sqlite", tmp_path)

        manifest = RunManifest.create(tmp_path, run_id="partial")
        annotator = _annotator(benchmark.label_set)
        annotator.attach_store(store)
        stream = annotator.annotate_stream(
            _columns(benchmark), chunk_size=CHUNK, manifest=manifest
        )
        for _ in range(CHUNK):
            next(stream)
        stream.close()
        manifest.close()

        # Resume against the same store: the recorded prefix is replayed
        # from the manifest and the remaining columns' prompts are fresh, so
        # total model traffic across both attempts equals one clean run.
        first_attempt_queries = annotator.query_count
        recorded = RunManifest.load(tmp_path, "partial")
        resumed_annotator = _annotator(benchmark.label_set)
        resumed_annotator.attach_store(store)
        labels = [
            result.label
            for result in resumed_annotator.annotate_stream(
                _columns(benchmark), chunk_size=CHUNK, manifest=recorded
            )
        ]
        recorded.close()
        store.close()
        assert labels == golden_labels
        total = first_attempt_queries + resumed_annotator.query_count
        clean = _annotator(benchmark.label_set)
        clean_labels = [
            r.label for r in clean.annotate_stream(_columns(benchmark), chunk_size=CHUNK)
        ]
        assert clean_labels == golden_labels
        assert total == clean.query_count


class TestRunnerResume:
    def test_interrupted_runner_resumes_bit_identically(self, tmp_path):
        benchmark = _benchmark()

        # Uninterrupted reference run (no persistence).
        reference = ExperimentRunner(batch_size=CHUNK).evaluate(
            _annotator(benchmark.label_set), benchmark, "archetype"
        )

        # Partial run: only the first half of the split, checkpointed.
        partial = ExperimentRunner(
            batch_size=CHUNK, cache_dir=tmp_path, run_id="half"
        ).evaluate(
            _annotator(benchmark.label_set),
            benchmark,
            "archetype",
            max_columns=N_COLUMNS // 2,
        )
        assert partial.run_id == "half"
        assert partial.predictions == reference.predictions[: N_COLUMNS // 2]

        # Resumed full run: replays the first half from the manifest.
        resumed = ExperimentRunner(
            batch_size=CHUNK, cache_dir=tmp_path, resume="half"
        ).evaluate(_annotator(benchmark.label_set), benchmark, "archetype")
        assert resumed.predictions == reference.predictions
        assert resumed.run_id == "half"
        # Only the second half issued model traffic (plus its resamples).
        assert resumed.counters["n_queries"] <= reference.counters["n_queries"]

        manifest = RunManifest.load(tmp_path, "half")
        assert manifest.n_completed == N_COLUMNS
        manifest.close()

    @pytest.mark.parametrize("run_id", ["../../escaped", "a/b"])
    def test_run_id_is_a_key_not_a_path(self, tmp_path, run_id):
        benchmark = _benchmark()
        cache = tmp_path / "deep" / "cache"
        reference = ExperimentRunner(batch_size=CHUNK).evaluate(
            _annotator(benchmark.label_set), benchmark, "archetype"
        )
        ExperimentRunner(batch_size=CHUNK, cache_dir=cache, run_id=run_id).evaluate(
            _annotator(benchmark.label_set),
            benchmark,
            "archetype",
            max_columns=N_COLUMNS // 2,
        )
        resumed = ExperimentRunner(
            batch_size=CHUNK, cache_dir=cache, resume=run_id
        ).evaluate(_annotator(benchmark.label_set), benchmark, "archetype")
        assert resumed.run_id == run_id
        assert resumed.predictions == reference.predictions
        outside = [
            path for path in tmp_path.rglob("*")
            if path != cache and cache not in path.parents
        ]
        assert outside == [tmp_path / "deep"]

    def test_warm_store_rerun_issues_zero_queries(self, tmp_path):
        benchmark = _benchmark()
        runner = ExperimentRunner(batch_size=CHUNK, cache_dir=tmp_path)
        cold = runner.evaluate(_annotator(benchmark.label_set), benchmark, "archetype")
        assert cold.counters["n_queries"] > 0

        warm = ExperimentRunner(batch_size=CHUNK, cache_dir=tmp_path).evaluate(
            _annotator(benchmark.label_set), benchmark, "archetype"
        )
        assert warm.predictions == cold.predictions
        assert warm.counters["n_queries"] == 0
        assert warm.counters["n_store_hits"] > 0
        row = warm.summary_row()
        assert row["n_queries"] == 0
        assert row["store_hits"] == warm.counters["n_store_hits"]

    def test_resume_requires_cache_dir(self):
        benchmark = _benchmark()
        with pytest.raises(ConfigurationError, match="cache_dir"):
            ExperimentRunner(resume="half").evaluate(
                _annotator(benchmark.label_set), benchmark, "archetype"
            )

    def test_resume_refuses_foreign_manifest(self, tmp_path):
        benchmark = _benchmark()
        ExperimentRunner(cache_dir=tmp_path, run_id="other").evaluate(
            _annotator(benchmark.label_set),
            benchmark,
            "some-other-method",
            max_columns=4,
        )
        with pytest.raises(ConfigurationError, match="method"):
            ExperimentRunner(cache_dir=tmp_path, resume="other").evaluate(
                _annotator(benchmark.label_set), benchmark, "archetype"
            )

    def test_store_detached_from_annotator_after_evaluate(self, tmp_path):
        benchmark = _benchmark()
        annotator = _annotator(benchmark.label_set)
        ExperimentRunner(cache_dir=tmp_path).evaluate(
            annotator, benchmark, "archetype", max_columns=4
        )
        assert annotator.engine.store is None

    def test_resume_refuses_different_seed(self, tmp_path):
        benchmark = _benchmark()
        ExperimentRunner(cache_dir=tmp_path, run_id="seeded").evaluate(
            _annotator(benchmark.label_set), benchmark, "archetype", max_columns=4
        )
        different_seed = ArcheType(
            ArcheTypeConfig(
                model="gpt", label_set=benchmark.label_set, sample_size=5,
                sampler="archetype", seed=999,
            )
        )
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentRunner(cache_dir=tmp_path, resume="seeded").evaluate(
                different_seed, benchmark, "archetype"
            )

    def test_failed_resume_does_not_leak_attached_store(self, tmp_path):
        benchmark = _benchmark()
        annotator = _annotator(benchmark.label_set)
        with pytest.raises(ConfigurationError):
            ExperimentRunner(cache_dir=tmp_path, resume="does-not-exist").evaluate(
                annotator, benchmark, "archetype"
            )
        # The store opened before the failure must be detached and closed.
        assert annotator.engine.store is None
        # The engine stays usable with no disk tier afterwards.
        assert annotator.annotate_column(
            benchmark.columns[0].column
        ).label is not None
