"""Durable query store and run manifests: the persistence layer.

The in-memory LRU prompt cache (:mod:`repro.core.querying`) dies with the
process, so replaying a SOTAB-scale experiment, or resuming one that crashed
partway through, would re-pay every model call.  This module adds the durable
tier under the LRU:

* :class:`ResponseStore` — a thread-safe, append-only ``(prompt, params) →
  response`` map, implemented by :class:`SQLiteResponseStore`.  The first
  recorded answer is *the* answer, because every bundled backend is a pure
  function of ``(prompt, params)``.  ``put_many`` commits a whole model batch
  as one transaction (one ``fsync`` per batch, at full durability).
* :class:`RunManifest` — one run's per-column predictions, keyed by global
  column index and committed chunk by chunk, so a run killed mid-stream
  resumes bit-identically: the annotator re-plans completed columns (planning
  consumes the RNG stream exactly as annotation would) and takes their
  results from the manifest instead of re-executing them.

The cache hierarchy is therefore LRU → store → model.  Both tiers assume
response purity; disable them (``query_cache_size=0`` / ``store="none"``)
when wrapping a stateful backend whose answers depend on call order.

Schema
------
A cache directory holds one durable file, ``<cache-dir>/store.sqlite``.  The
response store, each run manifest and the suite's shard journal open their
own connection to it (:func:`_connect`), with these pragmas:

================  ========  ================================================
Pragma            Value     Purpose
================  ========  ================================================
``busy_timeout``  30000 ms  wait out another process's write lock
``journal_mode``  WAL       others read while one writes (if the FS allows)
``synchronous``   FULL      every commit is fsync'd
================  ========  ================================================

Every write is one ``BEGIN IMMEDIATE`` … ``COMMIT`` (:func:`_transaction`)
that lands whole or not at all.  Run ids are keys, never paths.

================  =======================  =================================
Table             Primary key              Other columns
================  =======================  =================================
``responses``     ``prompt``, ``params``   ``response``, ``created_at``
``runs``          ``run_id``               ``metadata`` (JSON), ``created_at``
``run_results``   ``run_id``, ``i``        ``label``, ``raw``, ``remapped``,
                                           ``rule``, ``strategy``
``suite_shards``  ``suite_run_id``,        ``record`` (JSON)
                  ``fingerprint``
================  =======================  =================================

:func:`open_journal` creates all but ``responses``, also under
``store="none"``.  ``i`` is the global column index; every column is
``NOT NULL``; nothing reads ``created_at`` back.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from abc import ABC, abstractmethod
from contextlib import closing, contextmanager, suppress
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.core.plan import AnnotationResult
from repro.exceptions import ConfigurationError, StoreError
from repro.llm.base import GenerationParams

#: Store kinds accepted by :func:`open_store` (and the ``--store`` CLI knob).
STORE_KINDS: tuple[str, ...] = ("sqlite", "none")

#: The one durable file inside a cache directory.
SQLITE_STORE_FILENAME = "store.sqlite"

#: Seconds a connection waits on another process's write lock before
#: failing.  Suite shards in separate worker processes share one store
#: file, so contention is expected and transient rather than fatal.
BUSY_TIMEOUT_S = 30.0

_RESPONSES_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS responses (prompt TEXT NOT NULL,"
    " params TEXT NOT NULL, response TEXT NOT NULL, created_at REAL NOT NULL,"
    " PRIMARY KEY (prompt, params))",
)

_JOURNAL_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS runs (run_id TEXT NOT NULL PRIMARY KEY,"
    " metadata TEXT NOT NULL, created_at REAL NOT NULL)",
    "CREATE TABLE IF NOT EXISTS run_results (run_id TEXT NOT NULL,"
    " i INTEGER NOT NULL, label TEXT NOT NULL, raw TEXT NOT NULL,"
    " remapped INTEGER NOT NULL, rule INTEGER NOT NULL,"
    " strategy TEXT NOT NULL, PRIMARY KEY (run_id, i))",
    "CREATE TABLE IF NOT EXISTS suite_shards (suite_run_id TEXT NOT NULL,"
    " fingerprint TEXT NOT NULL, record TEXT NOT NULL,"
    " PRIMARY KEY (suite_run_id, fingerprint))",
)


def _connect(path: Path, schema: Sequence[str]) -> sqlite3.Connection:
    """Open ``path`` with the cache file's pragmas and create ``schema``.

    Raises :class:`StoreError` when the file cannot be opened as a SQLite
    database (a missing directory, a file that is not a database, ...).
    """
    try:
        conn = sqlite3.connect(
            str(path),
            check_same_thread=False,
            isolation_level=None,
            timeout=BUSY_TIMEOUT_S,
        )
        try:
            conn.execute(f"PRAGMA busy_timeout = {int(BUSY_TIMEOUT_S * 1000)}")
            # On filesystems that cannot support WAL (some network mounts)
            # SQLite keeps the default journal, which is merely slower under
            # cross-process contention, not wrong.
            with suppress(sqlite3.DatabaseError):
                conn.execute("PRAGMA journal_mode = WAL")
            # Every commit is durable (fsync'd) whatever the build's WAL
            # default; batching writes, not a weaker pragma, is what keeps
            # that affordable.
            conn.execute("PRAGMA synchronous = FULL")
            for statement in schema:
                conn.execute(statement)
        except BaseException:
            conn.close()
            raise
    except sqlite3.DatabaseError as exc:
        raise StoreError(f"cannot open SQLite store at {path}: {exc}") from exc
    return conn


@contextmanager
def _transaction(conn: sqlite3.Connection, failure: str) -> Iterator[None]:
    """Run the block as one ``BEGIN IMMEDIATE`` … ``COMMIT`` transaction.

    IMMEDIATE takes the write lock up front, so contention with another
    process waits out the busy timeout instead of failing a deferred
    transaction's lock upgrade.  If anything raises, nothing of the block
    lands, and a ``sqlite3.DatabaseError`` becomes ``StoreError(failure)``.
    """
    try:
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                with suppress(sqlite3.DatabaseError):
                    conn.execute("ROLLBACK")
            raise
    except sqlite3.DatabaseError as exc:
        raise StoreError(f"{failure}: {exc}") from exc


def open_journal(cache_dir: str | Path) -> sqlite3.Connection:
    """A connection to ``cache_dir``'s store file with the journal tables.

    Run manifests and suite shard journals each hold their own, so they
    share the store's file without sharing its connection or its lock.
    """
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return _connect(directory / SQLITE_STORE_FILENAME, _JOURNAL_SCHEMA)


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

    The ``responses`` table (see the module docstring), primary-keyed on
    ``(prompt, params)``; writes use ``INSERT OR IGNORE`` so the store is
    append-only at the row level and concurrent writers racing on the same
    key keep the first-committed answer.  A single connection is shared
    across threads behind a lock (the workload is read-mostly and answers
    are small, so lock contention is negligible next to model-call latency).
    """

    kind = "sqlite"

    _INSERT = (
        "INSERT OR IGNORE INTO responses"
        " (prompt, params, response, created_at) VALUES (?, ?, ?, ?)"
    )

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        # guarded-by: _lock (one shared connection, not thread-safe alone)
        self._conn = _connect(self.path, _RESPONSES_SCHEMA)

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
        with self._lock:  # noqa: SIM117 - held before _conn is read
            with _transaction(self._conn, "response store write failed"):
                self._conn.executemany(self._INSERT, rows)

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
    """A fresh, sortable run identifier.

    Allowlisted nondeterminism: a run id must be *unique across runs*, which
    is the opposite of derivable-from-the-seed — two runs with identical
    configs still need distinct manifests.  Results are keyed by run id but
    never derived from it, so replay stays bit-identical; callers needing a
    stable id pass ``run_id=`` explicitly.
    """
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:8]  # repro-lint: disable=det-wallclock,det-unseeded-rng


class RunManifest:
    """Per-column predictions of one run: rows of the cache's store file.

    The run's ``runs`` row holds its id plus caller metadata (benchmark,
    method, seed, ...); each ``run_results`` row one column's finished
    :class:`~repro.core.plan.AnnotationResult`, keyed by global column
    index.  :meth:`record` commits a whole chunk in one transaction, so after
    a crash the manifest holds exactly the chunks whose commit completed.

    Recorded results deliberately persist only the fields evaluation needs
    (label, raw response, remap/rule flags, strategy) — prompts and sampled
    values are reproducible from the plan side and would bloat the journal.
    """

    _RECORD = (
        "INSERT INTO run_results"
        " (run_id, i, label, raw, remapped, rule, strategy)"
        " VALUES (?, ?, ?, ?, ?, ?, ?) ON CONFLICT (run_id, i) DO NOTHING"
    )

    def __init__(
        self,
        conn: sqlite3.Connection,
        run_id: str,
        metadata: Mapping[str, object],
    ) -> None:
        self.run_id = run_id
        self.metadata: dict[str, object] = dict(metadata)
        self._lock = threading.Lock()
        self._conn = conn  # guarded-by: _lock

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def create(
        cls,
        cache_dir: str | Path,
        run_id: str | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> "RunManifest":
        """Start a fresh manifest in ``cache_dir``'s store file."""
        run_id = run_id or generate_run_id()
        metadata = dict(metadata or {})
        conn = open_journal(cache_dir)
        try:
            with _transaction(conn, "run manifest write failed"):
                inserted = conn.execute(
                    "INSERT INTO runs (run_id, metadata, created_at)"
                    " VALUES (?, ?, ?) ON CONFLICT (run_id) DO NOTHING",
                    # Allowlisted wall-clock read: provenance only; the
                    # replay path never reads created_at back.
                    (run_id, json.dumps(metadata), time.time()),  # repro-lint: disable=det-wallclock
                ).rowcount
            if not inserted:
                raise ConfigurationError(
                    f"run {run_id!r} already exists under {cache_dir}; "
                    "pass it as the resume id instead of creating it again"
                )
        except BaseException:
            conn.close()
            raise
        return cls(conn, run_id, metadata)

    @classmethod
    def load(cls, cache_dir: str | Path, run_id: str) -> "RunManifest":
        """Reopen an existing manifest for resumption."""
        conn = open_journal(cache_dir)
        row = conn.execute(
            "SELECT metadata FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            conn.close()
            available = list_runs(cache_dir)
            raise ConfigurationError(
                f"no manifest for run {run_id!r} under {cache_dir}"
                + (f"; available runs: {available}" if available else "")
            )
        return cls(conn, run_id, json.loads(row[0]))

    # ------------------------------------------------------------- journal
    def record(self, results: Mapping[int, AnnotationResult]) -> None:
        """Commit one chunk's ``{index: result}`` in one transaction.

        First write wins per index.  If the commit fails, none of the chunk
        is recorded and :class:`StoreError` is raised.
        """
        rows = [
            (self.run_id, index, result.label, result.raw_response,
             result.remapped, result.rule_applied, result.strategy)
            for index, result in results.items()
        ]
        with self._lock:  # noqa: SIM117 - see put_many
            with _transaction(self._conn, "run manifest write failed"):
                self._conn.executemany(self._RECORD, rows)

    def get(self, index: int) -> AnnotationResult | None:
        """The recorded result for global column ``index``, if any."""
        with self._lock:
            row = self._conn.execute(
                "SELECT label, raw, remapped, rule, strategy FROM run_results"
                " WHERE run_id = ? AND i = ?",
                (self.run_id, index),
            ).fetchone()
        if row is None:
            return None
        label, raw, remapped, rule, strategy = row
        return AnnotationResult(
            label, raw, None, bool(remapped), bool(rule), strategy
        )

    def __contains__(self, index: int) -> bool:
        return self.get(index) is not None

    @property
    def n_completed(self) -> int:
        """Number of columns with a recorded result."""
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM run_results WHERE run_id = ?",
                (self.run_id,),
            ).fetchone()
        return int(count)

    def completed_indices(self) -> list[int]:
        """Sorted global column indices with recorded results."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT i FROM run_results WHERE run_id = ? ORDER BY i",
                (self.run_id,),
            ).fetchall()
        return [index for (index,) in rows]

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunManifest":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunManifest {self.run_id!r} completed={self.n_completed}>"


def list_runs(cache_dir: str | Path) -> list[str]:
    """Ids of the runs recorded in ``cache_dir``'s store file, sorted."""
    if not (Path(cache_dir) / SQLITE_STORE_FILENAME).exists():
        return []
    with closing(open_journal(cache_dir)) as conn:
        rows = conn.execute("SELECT run_id FROM runs ORDER BY run_id")
        return [run_id for (run_id,) in rows]
