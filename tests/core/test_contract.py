"""The annotation contract, checked over drawn configurations.

Three promises hold however the execute half is run: labels equal a plain
``annotate_column`` loop, a warm rerun costs zero model queries, and every
requested prompt is resolved by exactly one tier.  The tests elsewhere pin
them one axis at a time; the bugs found so far came from interactions
between axes (a fan-out batch limit that replaced ``max_batch_size``, a
store-write failure that stranded the futures of a batch).  So one hypothesis test draws the whole configuration
— executor, chunking, workers, batch cap, cache size, store, remapper,
sampler and column set — and checks every promise on each draw.

A store that fails its writes is one more arm of the draw.  Its declared
outcome is a typed :class:`StoreError` with nothing left queued, and a run
that does not finish within :data:`RUN_TIMEOUT_S` fails as a hang.

A stream may also be abandoned after a drawn number of results and resumed
by a fresh annotator from its :class:`RunManifest`: the manifest holds every
chunk the abandoned stream started, and the resumed run the whole stream.

Stateful backends (``query_cache_size=0``) get one more promise: every
sequential entry point calls the model in the order of the loop.
"""

from __future__ import annotations

import sqlite3
import tempfile
import threading
import zlib
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Callable

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.executor import get_executor
from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.core.remapping import list_remappers
from repro.core.store import ResponseStore, RunManifest, SQLiteResponseStore
from repro.core.table import Table
from repro.datasets.registry import load_benchmark
from repro.eval.runner import ExperimentRunner
from repro.exceptions import StoreError
from repro.llm.base import GenerationParams, LanguageModel

LABELS = ["state", "person", "url", "number", "text"]

#: Final answers: exact, needing normalisation, containing one label,
#: containing two, and outside the label set.
ANSWERS = ["state", "Person.", "a url", "text or number", "no idea"]

#: Seconds one annotation run may take before it counts as a hang.
RUN_TIMEOUT_S = 30.0

POOL = [bc.column for bc in load_benchmark("sotab-27", n_columns=8, seed=5).columns]


class WaveModel(LanguageModel):
    """Answers outside the label set until a prompt's retry budget runs out.

    The budget, 0 to 4 retries, and the final answer are pure functions of
    the prompt text, so every executor sees the same answers; a budget of 4
    outlasts the default ``resample_k`` of 3.  A batch above ``cap`` raises.
    """

    name = "wave"
    context_window = 2048

    def __init__(self, cap: int | None) -> None:
        self.cap = cap

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        digest = zlib.crc32(prompt.encode("utf-8"))
        if (params or GenerationParams()).resample_index < digest % 5:
            return "no idea"
        return ANSWERS[digest // 5 % len(ANSWERS)]

    def generate_batch(self, prompts, params=None) -> list[str]:
        if self.cap is not None and len(prompts) > self.cap:
            raise RuntimeError(f"batch of {len(prompts)} exceeds the cap {self.cap}")
        return super().generate_batch(prompts, params)


class FailingStore(ResponseStore):
    """An in-memory store whose writes fail after ``fail_after`` batches.

    The failure is the backend's own exception, not a :class:`StoreError`:
    typing it is the scheduler's job.
    """

    kind = "failing"

    def __init__(self, path: Path, fail_after: int) -> None:
        self.path = path
        self.fail_after = fail_after
        self.failed = False
        self.entries: dict[tuple[str, GenerationParams], str] = {}
        self._lock = threading.Lock()

    def get(self, prompt, params):
        with self._lock:
            return self.entries.get((prompt, params))

    def put(self, prompt, params, response):
        self.put_many([(prompt, params, response)])

    def put_many(self, entries):
        with self._lock:
            if self.fail_after == 0:
                self.failed = True
                raise sqlite3.OperationalError("database is locked")
            self.fail_after -= 1
            for prompt, params, response in entries:
                self.entries.setdefault((prompt, params), response)

    def __len__(self) -> int:
        with self._lock:
            return len(self.entries)


@dataclass(frozen=True)
class Case:
    """One drawn configuration of the execute half."""

    executor: str
    #: ``"columns"`` (``annotate_columns``) or ``"stream"`` (``annotate_stream``).
    entry: str
    #: The executor's own chunk: the batched batch size, or the concurrent
    #: per-thread chunk (``None`` for the sequential executor).
    chunk: int | None
    stream_chunk: int
    workers: int | None
    max_batch_size: int | None
    cache_size: int
    #: ``"none"``, ``"cold"`` or ``"warm"`` SQLite, or ``"failing"``.
    store: str
    fail_after: int
    remapper: str
    sampler: str
    columns: tuple[int, ...]
    #: Stream results consumed before the stream is abandoned and resumed
    #: from its run manifest; ``None`` streams without a manifest.
    abandon_after: int | None = None


@st.composite
def cases(draw: Callable) -> Case:
    executor = draw(st.sampled_from(("sequential", "batched", "concurrent")))
    workers = draw(st.integers(1, 3)) if executor == "concurrent" else None
    store = draw(st.sampled_from(("none", "cold", "warm", "failing")))
    entry = draw(st.sampled_from(("columns", "stream")))
    columns = tuple(draw(st.lists(st.integers(0, len(POOL) - 1),
                                  min_size=1, max_size=8)))
    abandon_after = None
    if entry == "stream" and store != "failing":
        abandon_after = draw(st.none() | st.integers(0, len(columns)))
    return Case(
        executor=executor,
        entry=entry,
        chunk=None if executor == "sequential" else draw(
            st.none() | st.integers(1, 4)
        ),
        stream_chunk=draw(st.integers(1, 6)),
        workers=workers,
        max_batch_size=draw(st.none() | st.integers(1, 4)),
        cache_size=draw(st.sampled_from((0, 2, 4096))),
        store=store,
        fail_after=draw(st.integers(0, 2)),
        remapper=draw(st.sampled_from(list_remappers())),
        sampler=draw(st.sampled_from(("archetype", "firstk"))),
        columns=columns,
        abandon_after=abandon_after,
    )


def _config(case: Case, model: LanguageModel, cache_size: int) -> ArcheTypeConfig:
    return ArcheTypeConfig(
        model=model,
        label_set=LABELS,
        remapper=case.remapper,
        sampler=case.sampler,
        seed=0,
        query_cache_size=cache_size,
        max_batch_size=case.max_batch_size,
    )


def _bounded(run: Callable[[], list]) -> tuple[list | None, BaseException | None]:
    """Run on a daemon thread; still running after the timeout is a hang."""
    outcome: dict[str, object] = {}

    def target() -> None:
        try:
            outcome["results"] = run()
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            outcome["error"] = exc

    thread = threading.Thread(target=target, name="contract-run", daemon=True)
    thread.start()
    thread.join(RUN_TIMEOUT_S)
    assert not thread.is_alive(), f"annotation hung for {RUN_TIMEOUT_S} s"
    return outcome.get("results"), outcome.get("error")  # type: ignore[return-value]


def _outcomes(results) -> list[tuple[str, bool, str]]:
    return [(r.label, r.remapped, r.raw_response) for r in results]


def _assert_conserved(annotator: ArcheType) -> None:
    stats = annotator.engine.stats
    assert stats.n_prompts == (
        stats.n_cache_hits + stats.n_store_hits + stats.n_inflight_hits
        + stats.n_queries
    )


def _stream(case: Case, annotator: ArcheType, executor, columns, manifest=None):
    return annotator.annotate_stream(
        iter(columns), chunk_size=case.stream_chunk, executor=executor,
        manifest=manifest,
    )


def _annotate(
    case: Case, fresh: Callable[[], ArcheType], executor, columns,
    directory: Path,
) -> list:
    """Run the drawn entry point; ``fresh`` builds each annotator it uses."""
    if case.entry == "columns":
        return fresh().annotate_columns(columns, executor=executor)
    if case.abandon_after is None:
        return list(_stream(case, fresh(), executor, columns))
    # Abandon a checkpointed stream, then resume it with a fresh annotator.
    with RunManifest.create(directory) as manifest:
        stream = _stream(case, fresh(), executor, columns, manifest)
        abandoned = list(islice(stream, case.abandon_after))
        stream.close()
        chunk = case.stream_chunk
        started = -(-case.abandon_after // chunk) * chunk  # whole chunks
        assert manifest.n_completed == min(started, len(columns))
    with RunManifest.load(directory, manifest.run_id) as resumed:
        results = list(_stream(case, fresh(), executor, columns, resumed))
        assert resumed.n_completed == len(columns)
    assert _outcomes(abandoned) == _outcomes(results[:case.abandon_after])
    return results


def _reference(case: Case, columns, store: ResponseStore | None) -> list:
    """The ``annotate_column`` loop, writing through ``store`` when given."""
    annotator = ArcheType(_config(case, WaveModel(None), cache_size=4096))
    annotator.attach_store(store)
    return [annotator.annotate_column(column) for column in columns]


def _open_store(case: Case, directory: Path) -> ResponseStore | None:
    if case.store == "none":
        return None
    if case.store == "failing":
        return FailingStore(directory / "failing", case.fail_after)
    return SQLiteResponseStore(directory / "store.sqlite")


def _check_case(case: Case, directory: Path) -> None:
    columns = [POOL[index] for index in case.columns]
    store = _open_store(case, directory)
    executor = get_executor(case.executor, batch_size=case.chunk,
                            workers=case.workers)
    try:
        reference = _reference(
            case, columns, store if case.store == "warm" else None
        )

        def run() -> tuple[list[ArcheType], list | None, BaseException | None]:
            # A batch above the cap makes the model raise, failing the run.
            model = WaveModel(case.max_batch_size)
            annotators: list[ArcheType] = []

            def fresh() -> ArcheType:
                annotator = ArcheType(_config(case, model, case.cache_size))
                annotator.attach_store(store)
                annotators.append(annotator)
                return annotator

            results, error = _bounded(
                lambda: _annotate(case, fresh, executor, columns, directory)
            )
            for annotator in annotators:
                _assert_conserved(annotator)
            return annotators, results, error

        annotators, results, error = run()
        if isinstance(store, FailingStore) and store.failed:
            assert isinstance(error, StoreError), repr(error)
            assert annotators[0].engine.queue_len == 0
            return
        assert error is None, repr(error)
        assert _outcomes(results) == _outcomes(reference)
        tiered = case.cache_size > 0  # cache 0 bypasses the store by design
        if case.store == "warm" and tiered:
            assert sum(annotator.query_count for annotator in annotators) == 0
        if case.store in ("cold", "warm") and tiered:
            reruns, results, error = run()
            assert error is None, repr(error)
            assert sum(annotator.query_count for annotator in reruns) == 0
            assert _outcomes(results) == _outcomes(reference)
    finally:
        if store is not None:
            store.close()


# Explicit examples pin the historical interaction bugs on every run, not
# only when the draw reaches them.  A fan-out batch limit (here 4 prompts a
# thread) that replaces the cap:
_FANOUT = Case(
    executor="concurrent", entry="columns", chunk=None, stream_chunk=1,
    workers=2, max_batch_size=1, cache_size=4096, store="none", fail_after=0,
    remapper="contains+resample", sampler="archetype",
    columns=tuple(range(len(POOL))),
)
# A store-write failure that strands the futures of the failed batch:
_FAILING = replace(
    _FANOUT, workers=3, max_batch_size=None, store="failing", fail_after=1,
    sampler="firstk",
)
# A fanned-out stream, abandoned mid-chunk and resumed:
_ABANDONED = replace(
    _FANOUT, entry="stream", stream_chunk=2, max_batch_size=2,
    columns=(0, 1, 2, 3, 0), abandon_after=3,
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=_FANOUT)
@example(case=_FAILING)
@example(case=_ABANDONED)
# A fanned-out stream over a warm store:
@example(case=replace(
    _ABANDONED, stream_chunk=3, workers=1, store="warm", remapper="resample",
    sampler="firstk", columns=(4, 4, 5, 6, 7), abandon_after=None,
))
@given(case=cases())
def test_every_configuration_keeps_the_contract(case: Case) -> None:
    threads_before = threading.active_count()
    with tempfile.TemporaryDirectory() as directory:
        _check_case(case, Path(directory))
    assert threading.active_count() == threads_before


class CallOrderModel(LanguageModel):
    """A stateful backend: whether an answer is in the label set depends on
    how many calls came before it, so a reordered call changes the labels."""

    name = "call-order"
    context_window = 2048

    def __init__(self) -> None:
        self.calls: list[tuple[str, int]] = []

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        self.calls.append((prompt, (params or GenerationParams()).resample_index))
        return "no idea" if len(self.calls) % 4 else LABELS[len(self.calls) % 5]


class TestStatefulCallOrder:
    """With ``query_cache_size=0``, every sequential entry point calls the
    model in the order of an ``annotate_column`` loop: a column's query,
    then its resample retries, then the next column."""

    BENCHMARK = load_benchmark("sotab-27", n_columns=12, seed=5)

    def _run(self, drive: Callable[[ArcheType], list[str]]):
        model = CallOrderModel()
        annotator = ArcheType(ArcheTypeConfig(
            model=model, label_set=LABELS, seed=0, query_cache_size=0,
        ))
        labels = drive(annotator)
        return model.calls, labels

    def test_sequential_entry_points_match_the_loop(self):
        columns = [bc.column for bc in self.BENCHMARK.columns]
        loop = self._run(lambda annotator: [
            annotator.annotate_column(column).label for column in columns
        ])
        assert {index for _, index in loop[0]} == {0, 1, 2, 3}
        drives = [
            lambda annotator: annotator.annotate_columns(columns, batch_size=0),
            lambda annotator: annotator.annotate_columns(
                columns, executor="sequential"
            ),
            lambda annotator: list(annotator.annotate_stream(
                iter(columns), executor="sequential"
            )),
        ]
        for drive in drives:
            assert self._run(
                lambda annotator: [r.label for r in drive(annotator)]
            ) == loop

    def test_runner_batch_size_zero_matches_the_loop(self):
        """The runner gives each column its own one-column table at index 0."""

        def table(bench_column) -> Table | None:
            if bench_column.table_name is None:
                return None
            return Table(columns=[bench_column.column], name=bench_column.table_name)

        loop = self._run(lambda annotator: [
            annotator.annotate_column(
                bc.column, table=table(bc), column_index=0
            ).label
            for bc in self.BENCHMARK.columns
        ])
        runner = ExperimentRunner(batch_size=0)
        assert self._run(lambda annotator: runner.evaluate(
            annotator, self.BENCHMARK, "archetype"
        ).predictions) == loop
