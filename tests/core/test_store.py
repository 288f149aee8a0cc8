"""Unit tests for the persistent query store and run manifests."""

from __future__ import annotations

import json
import threading
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import AnnotationResult
from repro.core.store import (
    STORE_KINDS,
    RunManifest,
    SQLiteResponseStore,
    generate_run_id,
    list_runs,
    open_store,
    params_key,
)
from repro.exceptions import ConfigurationError, StoreError
from repro.llm.base import GenerationParams


def _open(kind: str, tmp_path):
    store = open_store(kind, tmp_path)
    assert store is not None
    return store


class TestParamsKey:
    def test_deterministic_and_compact(self):
        params = GenerationParams(temperature=0.5, resample_index=2)
        assert params_key(params) == params_key(
            GenerationParams(temperature=0.5, resample_index=2)
        )
        assert json.loads(params_key(params))["temperature"] == 0.5

    def test_distinguishes_parameters(self):
        assert params_key(GenerationParams()) != params_key(
            GenerationParams(resample_index=1)
        )

    @given(
        st.builds(
            GenerationParams,
            temperature=st.floats(),
            top_p=st.floats(),
            repetition_penalty=st.floats(),
            seed=st.one_of(st.integers(), st.booleans()),
            resample_index=st.integers(0, 10),
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_asdict_encoding(self, params, k):
        # Keys already on disk were written with ``asdict``: a changed byte
        # would turn every warm replay into model calls.  -0.0, NaN, bools and
        # the permuted floats of resample retries must all encode the same.
        permuted = params.permuted(k)
        assert params_key(permuted) == json.dumps(
            asdict(permuted), sort_keys=True, separators=(",", ":")
        )


class TestOpenStore:
    def test_none_kind_disables_persistence(self, tmp_path):
        assert open_store("none", tmp_path) is None

    def test_unknown_kind_raises(self, tmp_path):
        assert STORE_KINDS == ("sqlite", "none")
        # "jsonl" is not a store kind: SQLite is the only backend.
        for kind in ("redis", "jsonl"):
            with pytest.raises(ConfigurationError, match="unknown store kind"):
                open_store(kind, tmp_path)

    def test_creates_cache_dir(self, tmp_path):
        nested = tmp_path / "a" / "b"
        store = open_store("sqlite", nested)
        assert nested.is_dir()
        store.close()

    def test_backend_classes(self, tmp_path):
        with open_store("sqlite", tmp_path / "s") as store:
            assert isinstance(store, SQLiteResponseStore)


@pytest.mark.parametrize("kind", ["sqlite"])
class TestResponseStoreContract:
    """The behaviour every ``ResponseStore`` implementation must have."""

    def test_round_trip(self, kind, tmp_path):
        with _open(kind, tmp_path) as store:
            params = GenerationParams()
            assert store.get("prompt", params) is None
            store.put("prompt", params, "answer")
            assert store.get("prompt", params) == "answer"
            assert len(store) == 1

    def test_params_distinguish_entries(self, kind, tmp_path):
        with _open(kind, tmp_path) as store:
            store.put("p", GenerationParams(), "cold")
            store.put("p", GenerationParams(resample_index=1), "resampled")
            assert store.get("p", GenerationParams()) == "cold"
            assert store.get("p", GenerationParams(resample_index=1)) == "resampled"
            assert len(store) == 2

    def test_append_only_first_write_wins(self, kind, tmp_path):
        with _open(kind, tmp_path) as store:
            store.put("p", GenerationParams(), "first")
            store.put("p", GenerationParams(), "second")
            assert store.get("p", GenerationParams()) == "first"
            assert len(store) == 1

    def test_persists_across_reopen(self, kind, tmp_path):
        with _open(kind, tmp_path) as store:
            store.put("p", GenerationParams(), "answer")
        with _open(kind, tmp_path) as store:
            assert store.get("p", GenerationParams()) == "answer"
            assert len(store) == 1

    def test_concurrent_writers_are_safe(self, kind, tmp_path):
        store = _open(kind, tmp_path)
        errors: list[Exception] = []

        def write(worker: int) -> None:
            try:
                for i in range(25):
                    store.put(f"prompt-{worker}-{i}", GenerationParams(), f"r{i}")
                    # Every worker also races on one shared key.
                    store.put("shared", GenerationParams(), f"from-{worker}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store) == 8 * 25 + 1
        for worker in range(8):
            assert store.get(f"prompt-{worker}-0", GenerationParams()) == "r0"
        assert store.get("shared", GenerationParams()).startswith("from-")
        store.close()

    def test_unicode_and_newlines_round_trip(self, kind, tmp_path):
        with _open(kind, tmp_path) as store:
            prompt = "düsseldorf \n \"quoted\" \t 数"
            store.put(prompt, GenerationParams(), "naïve\nanswer")
        with _open(kind, tmp_path) as store:
            assert store.get(prompt, GenerationParams()) == "naïve\nanswer"

    def test_put_many_matches_put(self, kind, tmp_path):
        with _open(kind, tmp_path) as store:
            store.put("p", GenerationParams(), "first")
            store.put_many([
                ("p", GenerationParams(), "second"),
                ("q", GenerationParams(), "cold"),
                ("q", GenerationParams(resample_index=1), "resampled"),
            ])
            store.put_many([])
            assert store.get("p", GenerationParams()) == "first"
            assert store.get("q", GenerationParams()) == "cold"
            assert store.get("q", GenerationParams(resample_index=1)) == "resampled"
        with _open(kind, tmp_path) as store:
            assert len(store) == 3


class TestSQLiteGroupCommit:
    def test_one_commit_per_batch_at_full_durability(self, tmp_path):
        with SQLiteResponseStore(tmp_path / "store.sqlite") as store:
            statements: list[str] = []
            store._conn.set_trace_callback(statements.append)
            store.put_many([(f"p{i}", GenerationParams(), "r") for i in range(5)])
            assert [
                s for s in statements if s.startswith(("BEGIN", "COMMIT"))
            ] == ["BEGIN IMMEDIATE", "COMMIT"]
            assert len(store) == 5
            # FULL: the one commit is fsync'd.
            assert store._conn.execute("PRAGMA synchronous").fetchone() == (2,)

    def test_failed_batch_lands_nothing_and_store_stays_writable(self, tmp_path):
        with SQLiteResponseStore(tmp_path / "store.sqlite") as store:
            with pytest.raises(StoreError, match="write failed"):
                store.put_many([
                    ("ok", GenerationParams(), "r"),
                    ("bad", GenerationParams(), object()),  # unbindable
                ])
            assert store.get("ok", GenerationParams()) is None
            store.put_many([("ok", GenerationParams(), "r")])
            assert store.get("ok", GenerationParams()) == "r"


def _result(label: str, raw: str | None = None) -> AnnotationResult:
    return AnnotationResult(
        label=label,
        raw_response=raw if raw is not None else label,
        prompt=None,
        remapped=False,
        rule_applied=False,
        strategy="test",
    )


class TestRunManifest:
    def test_create_record_load_round_trip(self, tmp_path):
        manifest = RunManifest.create(tmp_path, run_id="run-a",
                                      metadata={"benchmark": "sotab-27"})
        manifest.record(0, _result("person"))
        manifest.record(1, _result("city", raw="City."))
        manifest.close()

        loaded = RunManifest.load(tmp_path, "run-a")
        assert loaded.n_completed == 2
        assert loaded.metadata["benchmark"] == "sotab-27"
        assert loaded.get(0).label == "person"
        assert loaded.get(1).raw_response == "City."
        assert loaded.get(2) is None
        assert 1 in loaded and 5 not in loaded
        loaded.close()

    def test_record_is_idempotent_per_index(self, tmp_path):
        manifest = RunManifest.create(tmp_path, run_id="run-b")
        manifest.record(0, _result("first"))
        manifest.record(0, _result("second"))
        manifest.close()
        loaded = RunManifest.load(tmp_path, "run-b")
        assert loaded.get(0).label == "first"
        assert loaded.n_completed == 1
        loaded.close()

    def test_resumed_manifest_keeps_appending(self, tmp_path):
        manifest = RunManifest.create(tmp_path, run_id="run-c")
        manifest.record(0, _result("a"))
        manifest.close()
        resumed = RunManifest.load(tmp_path, "run-c")
        resumed.record(1, _result("b"))
        resumed.close()
        final = RunManifest.load(tmp_path, "run-c")
        assert final.completed_indices() == [0, 1]
        final.close()

    def test_load_missing_run_raises_with_available_runs(self, tmp_path):
        RunManifest.create(tmp_path, run_id="exists").close()
        with pytest.raises(ConfigurationError, match="exists"):
            RunManifest.load(tmp_path, "missing")

    def test_create_refuses_to_clobber_existing_run(self, tmp_path):
        RunManifest.create(tmp_path, run_id="dup").close()
        with pytest.raises(ConfigurationError, match="resume"):
            RunManifest.create(tmp_path, run_id="dup")

    def test_truncated_trailing_record_is_skipped(self, tmp_path):
        manifest = RunManifest.create(tmp_path, run_id="run-d")
        manifest.record(0, _result("kept"))
        manifest.close()
        path = tmp_path / "runs" / "run-d" / "manifest.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type":"result","i":1,"label":"lo')
        loaded = RunManifest.load(tmp_path, "run-d")
        assert loaded.completed_indices() == [0]
        assert loaded.corrupt_entries_skipped == 1
        loaded.close()

    def test_list_runs(self, tmp_path):
        assert list_runs(tmp_path) == []
        RunManifest.create(tmp_path, run_id="2026-run").close()
        assert list_runs(tmp_path) == ["2026-run"]

    def test_generated_run_ids_are_unique(self):
        ids = {generate_run_id() for _ in range(32)}
        assert len(ids) == 32
