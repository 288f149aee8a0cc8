"""Durable query store and run manifests: the persistence layer.

The in-memory LRU prompt cache (:mod:`repro.core.querying`) makes repeated
prompts cheap *within* a process, but every cached answer dies with the
process — replaying a SOTAB-scale experiment, or resuming one that crashed
partway through, re-pays every model call.  This module adds the durable tier
under the LRU:

* :class:`ResponseStore` — the interface of a thread-safe, append-only,
  on-disk ``(prompt, params) → response`` store, implemented by
  :class:`SQLiteResponseStore` (one file, one table, transactional, safe
  for writers in several processes).  Entries are immutable once written —
  a second ``put`` for an existing key is a no-op — because every bundled
  backend is a pure function of ``(prompt, params)``, so the first recorded
  answer is *the* answer.  ``put_many`` commits a whole model batch as one
  transaction (group commit: one ``fsync`` per batch, at full durability,
  instead of one per prompt).

* :class:`RunManifest` — an append-only JSONL journal of per-column
  predictions for one experiment run, keyed by global column index.  The
  streaming pipeline records each chunk's results as it completes, so a run
  killed mid-stream can be resumed: the annotator re-plans completed columns
  (planning consumes the RNG stream exactly as annotation would, keeping the
  replay bit-identical) and takes their results from the manifest instead of
  re-executing them.

The cache hierarchy is therefore LRU → store → model: the engine consults its
LRU first, then the store (promoting hits into the LRU), and only then the
model — writing fresh completions through to both tiers.  Both tiers assume
response purity; disable them (``query_cache_size=0`` / ``store="none"``)
when wrapping a stateful backend whose answers depend on call order.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from abc import ABC, abstractmethod
from contextlib import suppress
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.plan import AnnotationResult
from repro.exceptions import ConfigurationError, StoreError
from repro.llm.base import GenerationParams

#: Store kinds accepted by :func:`open_store` (and the ``--store`` CLI knob).
STORE_KINDS: tuple[str, ...] = ("sqlite", "none")

#: File names used inside a cache directory.
SQLITE_STORE_FILENAME = "store.sqlite"
RUNS_DIRNAME = "runs"
MANIFEST_FILENAME = "manifest.jsonl"


def params_key(params: GenerationParams) -> str:
    """Canonical JSON encoding of generation parameters for store keys.

    Key order is fixed and separators are compact so the same parameters
    always encode to the same string across processes and Python versions.
    The fields are flat scalars, so the instance dict encodes exactly as
    ``dataclasses.asdict`` does, without its recursive copy.  Not memoized:
    equal parameters can encode differently (``0.0 == -0.0``, ``True == 1``).
    """
    return json.dumps(vars(params), sort_keys=True, separators=(",", ":"))


class ResponseStore(ABC):
    """Thread-safe, append-only on-disk ``(prompt, params) → response`` map."""

    kind: str = "base"
    #: Path of the backing file.
    path: Path

    @abstractmethod
    def get(self, prompt: str, params: GenerationParams) -> str | None:
        """The stored response for ``(prompt, params)``, or ``None``."""

    @abstractmethod
    def put(self, prompt: str, params: GenerationParams, response: str) -> None:
        """Persist a response.  A key already present is left untouched."""

    def put_many(
        self, entries: Sequence[tuple[str, GenerationParams, str]]
    ) -> None:
        """Persist ``(prompt, params, response)`` entries, as :meth:`put` does.

        The scheduler writes each drained model batch through this one call.
        Backends override it to make the batch durable at once; this default
        writes entry by entry.
        """
        for prompt, params, response in entries:
            self.put(prompt, params, response)

    @abstractmethod
    def __len__(self) -> int:
        """Number of distinct ``(prompt, params)`` entries on disk."""

    def close(self) -> None:
        """Release file handles.  ``get``/``put`` after close are errors."""

    def describe(self) -> dict[str, object]:
        """A JSON-serializable summary of the warm tier.

        Surfaced by the annotation service's ``/stats`` endpoint so operators
        can see which shared store backs the scheduler and how full it is
        without shelling into the box.
        """
        return {
            "kind": self.kind,
            "path": str(self.path),
            "entries": len(self),
        }

    def __enter__(self) -> "ResponseStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {str(self.path)!r} entries={len(self)}>"


class SQLiteResponseStore(ResponseStore):
    """SQLite-backed response store (the default backend).

    One table, primary-keyed on ``(prompt, params)``; writes use ``INSERT OR
    IGNORE`` so the store is append-only at the row level and concurrent
    writers racing on the same key keep the first-committed answer.  A single
    connection is shared across threads behind a lock (the workload is
    read-mostly and answers are small, so lock contention is negligible next
    to model-call latency).
    """

    kind = "sqlite"

    #: Seconds a connection waits on another process's write lock before
    #: failing.  Suite shards in separate worker processes share one store
    #: file, so contention is expected and transient rather than fatal.
    BUSY_TIMEOUT_S = 30.0

    _INSERT = (
        "INSERT OR IGNORE INTO responses"
        " (prompt, params, response, created_at) VALUES (?, ?, ?, ?)"
    )

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        try:
            # guarded-by: _lock (one shared connection, not thread-safe alone)
            self._conn = sqlite3.connect(
                str(self.path),
                check_same_thread=False,
                isolation_level=None,
                timeout=self.BUSY_TIMEOUT_S,
            )
            self._conn.execute(
                f"PRAGMA busy_timeout = {int(self.BUSY_TIMEOUT_S * 1000)}"
            )
            # WAL lets suite shards in other processes read while one
            # writes; on filesystems that cannot support it (some network
            # mounts) SQLite keeps the default journal, which is merely
            # slower under cross-process contention, not wrong.
            with suppress(sqlite3.DatabaseError):
                self._conn.execute("PRAGMA journal_mode = WAL")
            # Every commit is durable (fsync'd) whatever the build's WAL
            # default; batching writes (put_many), not a weaker pragma, is
            # what keeps that affordable.
            self._conn.execute("PRAGMA synchronous = FULL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS responses ("
                "  prompt TEXT NOT NULL,"
                "  params TEXT NOT NULL,"
                "  response TEXT NOT NULL,"
                "  created_at REAL NOT NULL,"
                "  PRIMARY KEY (prompt, params))"
            )
        except sqlite3.DatabaseError as exc:
            raise StoreError(
                f"cannot open SQLite response store at {self.path}: {exc}"
            ) from exc

    def get(self, prompt: str, params: GenerationParams) -> str | None:
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT response FROM responses WHERE prompt = ? AND params = ?",
                    (prompt, params_key(params)),
                ).fetchone()
            except sqlite3.DatabaseError as exc:
                raise StoreError(f"response store read failed: {exc}") from exc
        return row[0] if row is not None else None

    def put(self, prompt: str, params: GenerationParams, response: str) -> None:
        self.put_many([(prompt, params, response)])

    def put_many(
        self, entries: Sequence[tuple[str, GenerationParams, str]]
    ) -> None:
        """Write every entry in ONE transaction: a single commit, so a single
        ``fsync`` under ``synchronous = FULL``, however many entries the
        batch holds.  The batch lands whole or not at all."""
        if not entries:
            return
        # Allowlisted wall-clock read: created_at is provenance metadata for
        # humans inspecting the store; nothing in the pipeline ever reads it
        # back, so it cannot break replay.
        created_at = time.time()  # repro-lint: disable=det-wallclock
        rows = [
            (prompt, params_key(params), response, created_at)
            for prompt, params, response in entries
        ]
        with self._lock:
            try:
                # IMMEDIATE takes the write lock up front, so contention with
                # another process waits out the busy timeout instead of
                # failing a deferred transaction's lock upgrade.
                self._conn.execute("BEGIN IMMEDIATE")
                try:
                    self._conn.executemany(self._INSERT, rows)
                    self._conn.execute("COMMIT")
                except BaseException:
                    if self._conn.in_transaction:
                        with suppress(sqlite3.DatabaseError):
                            self._conn.execute("ROLLBACK")
                    raise
            except sqlite3.DatabaseError as exc:
                raise StoreError(f"response store write failed: {exc}") from exc

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM responses"
            ).fetchone()
        return int(count)

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def open_store(kind: str, cache_dir: str | Path) -> ResponseStore | None:
    """Open (creating if needed) the response store inside ``cache_dir``.

    ``kind`` is one of :data:`STORE_KINDS`; ``"none"`` returns ``None`` — the
    escape hatch for stateful backends whose answers depend on call order.
    """
    key = kind.strip().lower()
    if key not in STORE_KINDS:
        raise ConfigurationError(
            f"unknown store kind {kind!r}; choose from {STORE_KINDS}"
        )
    if key == "none":
        return None
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return SQLiteResponseStore(directory / SQLITE_STORE_FILENAME)


def generate_run_id() -> str:
    """A fresh, filesystem-safe, sortable run identifier.

    Allowlisted nondeterminism: a run id must be *unique across runs*, which
    is the opposite of derivable-from-the-seed — two runs with identical
    configs still need distinct manifests.  Results are keyed by run id but
    never derived from it, so replay stays bit-identical; callers needing a
    stable id pass ``run_id=`` explicitly.
    """
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:8]  # repro-lint: disable=det-wallclock,det-unseeded-rng


class RunManifest:
    """Append-only JSONL journal of per-column predictions for one run.

    Line 1 is a header (``run_id`` plus caller metadata: benchmark, method,
    seed, ...); every following line records one column's finished
    :class:`~repro.core.plan.AnnotationResult`, keyed by global column index.
    Records are flushed as they are written, so after a crash the manifest
    holds every column whose chunk completed; a line truncated mid-write, or
    any other malformed line, is skipped on load and counted in
    :attr:`corrupt_entries_skipped` rather than failing the resume.

    Recorded results deliberately persist only the fields evaluation needs
    (label, raw response, remap/rule flags, strategy) — prompts and sampled
    values are reproducible from the plan side and would bloat the journal.
    """

    def __init__(
        self,
        path: str | Path,
        run_id: str,
        metadata: Mapping[str, object] | None = None,
        _write_header: bool = True,
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.metadata: dict[str, object] = dict(metadata or {})
        self.corrupt_entries_skipped = 0
        self._lock = threading.Lock()
        self._records: dict[int, AnnotationResult] = {}  # guarded-by: _lock
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if _write_header:
            with self.path.open("w", encoding="utf-8") as handle:
                handle.write(
                    json.dumps(
                        {
                            "type": "header",
                            "run_id": run_id,
                            # Allowlisted wall-clock read: header provenance
                            # only; stripped out on reload (_load_records)
                            # and never consulted by the replay path.
                            "created_at": time.time(),  # repro-lint: disable=det-wallclock
                            **self.metadata,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        self._handle = self.path.open("a", encoding="utf-8")  # guarded-by: _lock

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def create(
        cls,
        cache_dir: str | Path,
        run_id: str | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> "RunManifest":
        """Start a fresh manifest under ``cache_dir/runs/<run_id>/``."""
        run_id = run_id or generate_run_id()
        path = Path(cache_dir) / RUNS_DIRNAME / run_id / MANIFEST_FILENAME
        if path.exists():
            raise ConfigurationError(
                f"run {run_id!r} already exists under {cache_dir}; "
                "pass it as the resume id instead of creating it again"
            )
        return cls(path, run_id=run_id, metadata=metadata)

    @classmethod
    def load(cls, cache_dir: str | Path, run_id: str) -> "RunManifest":
        """Reopen an existing manifest for resumption."""
        path = Path(cache_dir) / RUNS_DIRNAME / run_id / MANIFEST_FILENAME
        if not path.exists():
            available = list_runs(cache_dir)
            raise ConfigurationError(
                f"no manifest for run {run_id!r} under {cache_dir}"
                + (f"; available runs: {available}" if available else "")
            )
        manifest = cls(path, run_id=run_id, _write_header=False)
        manifest._load_records()
        return manifest

    def _load_records(self) -> None:
        # Taken for the _records writes below: replay happens right after
        # construction (before the manifest is shared), but holding the lock
        # keeps the guarded-attribute invariant unconditional instead of
        # depending on every caller's timing.
        with self._lock, self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    self.corrupt_entries_skipped += 1
                    continue
                if record.get("type") == "header":
                    self.metadata = {
                        k: v
                        for k, v in record.items()
                        if k not in ("type", "run_id", "created_at")
                    }
                    continue
                try:
                    index = int(record["i"])
                    result = AnnotationResult(
                        label=record["label"],
                        raw_response=record["raw"],
                        prompt=None,
                        remapped=bool(record["remapped"]),
                        rule_applied=bool(record["rule"]),
                        strategy=record["strategy"],
                    )
                except (KeyError, TypeError, ValueError):
                    self.corrupt_entries_skipped += 1
                    continue
                self._records.setdefault(index, result)

    # ------------------------------------------------------------- journal
    def record(self, index: int, result: AnnotationResult) -> None:
        """Append one column's finished result (idempotent per index)."""
        with self._lock:
            if index in self._records:
                return
            self._handle.write(
                json.dumps(
                    {
                        "type": "result",
                        "i": index,
                        "label": result.label,
                        "raw": result.raw_response,
                        "remapped": result.remapped,
                        "rule": result.rule_applied,
                        "strategy": result.strategy,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
            self._handle.flush()
            self._records[index] = result

    def get(self, index: int) -> AnnotationResult | None:
        """The recorded result for global column ``index``, if any."""
        with self._lock:
            return self._records.get(index)

    def __contains__(self, index: int) -> bool:
        return self.get(index) is not None

    @property
    def n_completed(self) -> int:
        """Number of columns with a recorded result."""
        with self._lock:
            return len(self._records)

    def completed_indices(self) -> list[int]:
        """Sorted global column indices with recorded results."""
        with self._lock:
            return sorted(self._records)

    def close(self) -> None:
        with self._lock:
            self._handle.close()

    def __enter__(self) -> "RunManifest":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunManifest {self.run_id!r} completed={self.n_completed}>"


def list_runs(cache_dir: str | Path) -> list[str]:
    """Run ids with a manifest under ``cache_dir/runs/``, oldest first."""
    runs_dir = Path(cache_dir) / RUNS_DIRNAME
    if not runs_dir.is_dir():
        return []
    return sorted(
        entry.name
        for entry in os.scandir(runs_dir)
        if entry.is_dir() and (Path(entry.path) / MANIFEST_FILENAME).exists()
    )

