"""Experiment-suite orchestrator: one command replays the whole paper.

Every table/figure module registers an :class:`ExperimentSpec` — its name,
paper artefact, parameter grid, quick-mode overrides, paper targets and a
``run(config) -> ExperimentArtifact`` entrypoint.  This module turns that
registry into a reproducible workload:

* :func:`discover` imports every ``repro.experiments`` module and collects the
  registered specs (registration happens at import time via :func:`register`).
* :func:`plan_shards` expands each selected spec into one or more shard tasks
  (benchmark-sharded experiments fan out per benchmark) and orders them as a
  DAG: a spec may declare ``after`` dependencies, and merge nodes implicitly
  depend on their shards.
* :func:`run_suite` executes the shard DAG across a ``ProcessPoolExecutor``
  (``jobs=1`` runs inline), streaming per-shard progress.  Every worker opens
  its own handle onto the shared persistent response store under
  ``cache_dir`` (see :mod:`repro.core.store`), so a warm re-run of the suite
  issues zero model queries.  Completed shards are journalled as
  ``suite_shards`` rows of the same store file; ``resume=`` replays the
  journal and re-executes only the missing shards (a killed worker's shard
  re-runs warm from the store).
* The orchestrator emits two artifacts: ``results.json`` (machine-readable
  per-experiment metrics, query/cache/store counters, wall times, git SHA,
  seed) and ``REPORT.md`` (measured-vs-paper table with per-target deltas and
  pass/fail against the tolerances declared in the registry).

The shared per-module CLI driver (:func:`experiment_main`) replaces the
argparse ``main()`` each experiment module used to copy-paste, so
``python -m repro.experiments.table4_zeroshot`` still works and new workloads
are one registry entry.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import subprocess
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.store import _transaction, generate_run_id, open_journal
from repro.eval.reporting import format_markdown_table
from repro.eval.runner import RUN_COUNTERS, ExperimentRunner, sum_totals
from repro.exceptions import ConfigurationError

#: Version of the ``results.json`` schema; bump on breaking layout changes.
RESULTS_SCHEMA_VERSION = 1

#: Machine-readable artifact file names.
RESULTS_FILENAME = "results.json"
REPORT_FILENAME = "REPORT.md"

#: Directory (next to ``results.json``) holding per-shard cProfile dumps
#: when the suite runs with ``--profile``.
PROFILES_DIRNAME = "profiles"

#: Evaluation-split size used by ``--quick`` (chosen inside the range the
#: shape tests exercise, so quick-mode numbers stay in tested territory).
QUICK_COLUMNS = 60


# --------------------------------------------------------------------- specs
@dataclass(frozen=True)
class PaperTarget:
    """One measured-vs-paper check reported in ``REPORT.md``.

    ``metric`` keys into the experiment's measured metrics.  When
    ``paper_value`` and ``tolerance`` are given the check passes iff
    ``|measured - paper_value| <= tolerance``; ``min_value``/``max_value``
    express one-sided shape bounds (e.g. "rules never hurt").  A target with
    no bounds at all is informational: it is printed with its paper value (if
    any) but can neither pass nor fail.
    """

    metric: str
    description: str
    paper_value: float | None = None
    tolerance: float | None = None
    min_value: float | None = None
    max_value: float | None = None

    def status(self, measured: float | None) -> str:
        """``"pass"`` / ``"fail"`` / ``"info"`` / ``"missing"`` for a value."""
        if measured is None:
            return "missing"
        checks: list[bool] = []
        if self.paper_value is not None and self.tolerance is not None:
            checks.append(abs(measured - self.paper_value) <= self.tolerance)
        if self.min_value is not None:
            checks.append(measured >= self.min_value)
        if self.max_value is not None:
            checks.append(measured <= self.max_value)
        if not checks:
            return "info"
        return "pass" if all(checks) else "fail"

    def delta(self, measured: float | None) -> float | None:
        if measured is None or self.paper_value is None:
            return None
        return measured - self.paper_value


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment's ``run`` entrypoint receives.

    ``params`` is the spec's parameter grid merged with quick-mode overrides
    and (for sharded experiments) the shard's slice of the shard parameter.
    ``runner`` is pre-configured with the suite's executor/persistence knobs
    and accumulates query totals across every evaluation the experiment
    performs.
    """

    n_columns: int
    seed: int = 0
    quick: bool = False
    params: Mapping[str, object] = field(default_factory=dict)
    runner: ExperimentRunner = field(default_factory=ExperimentRunner)

    def param(self, name: str, default: object = None) -> object:
        return self.params.get(name, default)


@dataclass(frozen=True)
class ExperimentArtifact:
    """What one experiment (or shard) produces.

    ``rows`` is the paper-style table (JSON-serializable dictionaries);
    ``metrics`` the flat machine-readable headline numbers that targets and
    ``results.json`` consume.
    """

    rows: list[dict[str, object]]
    metrics: dict[str, float]


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry for one paper artefact.

    ``shard_param`` names a ``params`` key holding a sequence; the planner
    fans the experiment out into one shard per element (each shard sees the
    singleton slice).  ``after`` lists experiment names whose shards must all
    finish before this experiment starts — a scheduling edge, not a data
    dependency (e.g. serializing the two fine-tuning experiments keeps at
    most one fine-tuned model resident per worker).
    """

    name: str
    artifact: str
    title: str
    run: Callable[[ExperimentConfig], ExperimentArtifact]
    module: str
    order: int
    description: str = ""
    n_columns: int | None = None  # None = the shared DEFAULT_COLUMNS
    quick_columns: int | None = None  # None = QUICK_COLUMNS
    params: Mapping[str, object] = field(default_factory=dict)
    quick_params: Mapping[str, object] = field(default_factory=dict)
    shard_param: str | None = None
    after: tuple[str, ...] = ()
    targets: tuple[PaperTarget, ...] = ()

    def columns_for(self, quick: bool) -> int:
        from repro.experiments.common import DEFAULT_COLUMNS

        if quick:
            return self.quick_columns or QUICK_COLUMNS
        return self.n_columns or DEFAULT_COLUMNS

    def merged_params(self, quick: bool) -> dict[str, object]:
        merged = dict(self.params)
        if quick:
            merged.update(self.quick_params)
        return merged

    def shard_values(self, quick: bool) -> tuple[object, ...]:
        if self.shard_param is None:
            return ()
        values = self.merged_params(quick).get(self.shard_param, ())
        return tuple(values)  # type: ignore[arg-type]


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register a spec (called at experiment-module import time).

    Re-registering the same name from the same module replaces the entry
    (``importlib.reload`` in tests); the same name from a different module is
    a collision and fails loudly.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.module != spec.module:
        raise ConfigurationError(
            f"experiment {spec.name!r} registered by both "
            f"{existing.module} and {spec.module}"
        )
    _REGISTRY[spec.name] = spec
    return spec


#: Modules under ``repro.experiments`` that are infrastructure, not artefacts.
_NON_EXPERIMENT_MODULES = frozenset({"common", "suite"})


def experiment_module_names() -> list[str]:
    """Basenames of every artefact module under ``repro.experiments``."""
    import repro.experiments as package

    return sorted(
        info.name
        for info in pkgutil.iter_modules(package.__path__)
        if info.name not in _NON_EXPERIMENT_MODULES
        and not info.name.startswith("_")
    )


def discover() -> dict[str, ExperimentSpec]:
    """Import every experiment module and return the full registry."""
    for name in experiment_module_names():
        importlib.import_module(f"repro.experiments.{name}")
    return dict(_REGISTRY)


def ordered_specs(specs: Mapping[str, ExperimentSpec]) -> list[ExperimentSpec]:
    """Specs in paper order (Table 1 … Tables 9-11)."""
    return sorted(specs.values(), key=lambda spec: (spec.order, spec.name))


def select_experiments(
    specs: Mapping[str, ExperimentSpec],
    only: Sequence[str] | None = None,
    skip: Sequence[str] | None = None,
) -> list[ExperimentSpec]:
    """Filter the registry by ``--only`` / ``--skip`` glob patterns.

    A pattern that matches nothing is a configuration error — a typo'd
    ``--only table4`` silently running zero experiments would look like a
    pass.
    """
    selected = ordered_specs(specs)
    for patterns, keep in ((only, True), (skip, False)):
        if not patterns:
            continue
        for pattern in patterns:
            if not any(fnmatch(spec.name, pattern) for spec in specs.values()):
                raise ConfigurationError(
                    f"pattern {pattern!r} matches no experiment; "
                    f"registered: {', '.join(sorted(specs))}"
                )
        selected = [
            spec
            for spec in selected
            if any(fnmatch(spec.name, p) for p in patterns) == keep
        ]
    return selected


# -------------------------------------------------------------------- shards
@dataclass(frozen=True)
class ShardTask:
    """One schedulable unit: an experiment, or one slice of a sharded one."""

    experiment: str
    shard: str
    params: Mapping[str, object]
    n_columns: int
    seed: int
    quick: bool
    after: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return f"{self.experiment}/{self.shard}"

    def fingerprint(self) -> str:
        """Identity of the work a shard performs, for journal reuse.

        A journalled shard result is only reused when its fingerprint
        matches, so resuming with different columns/seed/params re-runs the
        shard instead of splicing stale numbers into the suite.
        """
        return json.dumps(
            {
                "experiment": self.experiment,
                "shard": self.shard,
                "params": self.params,
                "n_columns": self.n_columns,
                "seed": self.seed,
                "quick": self.quick,
            },
            sort_keys=True,
            default=str,
            separators=(",", ":"),
        )


def plan_shards(
    specs: Sequence[ExperimentSpec],
    quick: bool = False,
    n_columns: int | None = None,
    seed: int = 0,
) -> list[ShardTask]:
    """Expand specs into shard tasks, validating the dependency DAG."""
    selected = {spec.name for spec in specs}
    tasks: list[ShardTask] = []
    for spec in specs:
        params = spec.merged_params(quick)
        columns = n_columns if n_columns is not None else spec.columns_for(quick)
        if columns <= 0:
            raise ConfigurationError(
                f"n_columns must be positive, got {columns}"
            )
        # Dependencies on experiments excluded from this run are dropped:
        # they gate scheduling, not correctness.
        after = tuple(dep for dep in spec.after if dep in selected)
        values = spec.shard_values(quick)
        if spec.shard_param is None or not values:
            tasks.append(
                ShardTask(spec.name, "all", params, columns, seed, quick, after)
            )
            continue
        for value in values:
            shard_params = dict(params)
            shard_params[spec.shard_param] = [value]
            tasks.append(
                ShardTask(
                    spec.name, str(value), shard_params, columns, seed, quick,
                    after,
                )
            )
    _check_dag(tasks)
    return tasks


def _check_dag(tasks: Sequence[ShardTask]) -> None:
    """Reject dependency cycles up front rather than deadlocking the pool."""
    deps = {
        name: set(task.after)
        for name, task in {t.experiment: t for t in tasks}.items()
    }
    resolved: set[str] = set()
    while deps:
        ready = [name for name, waiting in deps.items() if waiting <= resolved]
        if not ready:
            raise ConfigurationError(
                f"experiment dependency cycle among: {sorted(deps)}"
            )
        for name in ready:
            resolved.add(name)
            del deps[name]


# ------------------------------------------------------------------- workers
def _execute_shard(payload: dict) -> dict:
    """Run one shard in a worker process; always returns, never raises.

    The payload is plain JSON-able data (ProcessPoolExecutor pickles it); the
    worker re-discovers the registry in its own process, opens its own handle
    onto the shared response store via the runner, and returns a JSON-able
    result record — the same shape the shard journal stores.
    """
    started = time.perf_counter()
    record = {
        "experiment": payload["experiment"],
        "shard": payload["shard"],
        "fingerprint": payload["fingerprint"],
    }
    try:
        spec = discover()[payload["experiment"]]
        runner = ExperimentRunner(
            executor=payload.get("executor"),
            workers=payload.get("workers"),
            cache_dir=payload.get("cache_dir"),
            store=payload.get("store", "sqlite"),
            checkpoint=False,
        )
        config = ExperimentConfig(
            n_columns=payload["n_columns"],
            seed=payload["seed"],
            quick=payload["quick"],
            params=payload["params"],
            runner=runner,
        )
        profile_dir = payload.get("profile_dir")
        if profile_dir:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                artifact = spec.run(config)
            finally:
                profiler.disable()
                record["profile"] = _dump_shard_profile(
                    profiler, profile_dir, payload["experiment"], payload["shard"]
                )
        else:
            artifact = spec.run(config)
        record.update(
            status="ok",
            rows=artifact.rows,
            metrics=artifact.metrics,
            **runner.totals,
        )
    except Exception as exc:  # noqa: BLE001 - shard failures must not kill the suite
        record.update(
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )
    record["wall_time_s"] = round(time.perf_counter() - started, 3)
    return record


def _dump_shard_profile(
    profiler: "object", profile_dir: str, experiment: str, shard: str
) -> str:
    """Write one shard's cProfile stats; returns the artifact path."""
    directory = Path(profile_dir)
    directory.mkdir(parents=True, exist_ok=True)
    safe_shard = "".join(
        ch if ch.isalnum() or ch in "._-" else "-" for ch in str(shard)
    )
    path = directory / f"{experiment}__{safe_shard}.pstats"
    profiler.dump_stats(str(path))  # type: ignore[attr-defined]
    return str(path)


def suite_output_dir(options: "SuiteOptions") -> Path:
    """Where the suite's artifacts (results.json, REPORT.md, profiles) land."""
    return Path(
        options.output_dir
        if options.output_dir is not None
        else (options.cache_dir or ".")
    )


def _shard_payload(task: ShardTask, options: "SuiteOptions") -> dict:
    return {
        "experiment": task.experiment,
        "shard": task.shard,
        "fingerprint": task.fingerprint(),
        "params": dict(task.params),
        "n_columns": task.n_columns,
        "seed": task.seed,
        "quick": task.quick,
        "executor": options.executor,
        "workers": options.workers,
        "cache_dir": str(options.cache_dir) if options.cache_dir else None,
        "store": options.store,
        "profile_dir": (
            str(suite_output_dir(options) / PROFILES_DIRNAME)
            if options.profile
            else None
        ),
    }


# ------------------------------------------------------------------- journal
class ShardJournal:
    """Completed shards of one suite run: ``suite_shards`` rows of the store.

    Only kept when the suite has a ``cache_dir``.  Resuming loads every
    recorded ``ok`` shard whose fingerprint still matches the planned work;
    anything else (missing, failed, or stale) re-runs — warm, because the
    response store survived.
    """

    def __init__(self, cache_dir: str | Path, suite_run_id: str) -> None:
        self.cache_dir = cache_dir
        self.suite_run_id = suite_run_id
        self._conn = open_journal(cache_dir)

    def completed(self) -> dict[str, dict]:
        """Fingerprint-keyed ``ok`` records; the run must have recorded one."""
        rows = self._conn.execute(
            "SELECT record FROM suite_shards WHERE suite_run_id = ?",
            (self.suite_run_id,),
        ).fetchall()
        if not rows:
            raise ConfigurationError(
                f"no suite journal for run {self.suite_run_id!r} "
                f"under {self.cache_dir}"
            )
        records = [json.loads(record) for (record,) in rows]
        return {r["fingerprint"]: r for r in records if r["status"] == "ok"}

    def record(self, result: dict) -> None:
        with _transaction(self._conn, "suite journal write failed"):
            self._conn.execute(
                "INSERT INTO suite_shards (suite_run_id, fingerprint, record)"
                " VALUES (?, ?, ?) ON CONFLICT (suite_run_id, fingerprint)"
                " DO UPDATE SET record = excluded.record",
                (self.suite_run_id, result["fingerprint"], json.dumps(result)),
            )

    def close(self) -> None:
        self._conn.close()


# ----------------------------------------------------------------- suite run
@dataclass
class SuiteOptions:
    """Everything ``repro suite`` configures."""

    quick: bool = False
    jobs: int = 1
    only: tuple[str, ...] = ()
    skip: tuple[str, ...] = ()
    n_columns: int | None = None
    seed: int = 0
    executor: str | None = None
    workers: int | None = None
    cache_dir: str | Path | None = None
    store: str = "sqlite"
    resume: str | None = None
    output_dir: str | Path | None = None
    #: Wrap every shard's ``spec.run`` in cProfile and dump per-shard pstats
    #: under ``<output_dir>/profiles/`` (next to ``results.json``).
    profile: bool = False
    progress: Callable[[str], None] | None = print


@dataclass
class ExperimentResult:
    """Merged outcome of one experiment's shards."""

    name: str
    artifact: str
    title: str
    status: str  # "ok" | "error"
    wall_time_s: float
    #: ``n_evaluations`` plus every :data:`RUN_COUNTERS` name, summed over
    #: the experiment's shards.
    counters: dict[str, int]
    metrics: dict[str, float]
    rows: list[dict[str, object]]
    shards: list[dict[str, object]]
    errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "artifact": self.artifact,
            "title": self.title,
            "status": self.status,
            "wall_time_s": self.wall_time_s,
            **self.counters,
            "metrics": self.metrics,
            "rows": self.rows,
            "shards": self.shards,
            "errors": self.errors,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentResult":
        return cls(
            name=data["name"],  # type: ignore[arg-type]
            artifact=data["artifact"],  # type: ignore[arg-type]
            title=data["title"],  # type: ignore[arg-type]
            status=data["status"],  # type: ignore[arg-type]
            wall_time_s=data["wall_time_s"],  # type: ignore[arg-type]
            counters=sum_totals([data]),  # type: ignore[list-item]
            metrics=dict(data["metrics"]),  # type: ignore[arg-type]
            rows=list(data["rows"]),  # type: ignore[arg-type]
            shards=list(data["shards"]),  # type: ignore[arg-type]
            errors=list(data.get("errors", ())),  # type: ignore[arg-type]
        )


@dataclass
class SuiteResult:
    """The whole suite run: what ``results.json`` serializes."""

    suite_run_id: str
    git_sha: str
    seed: int
    quick: bool
    jobs: int
    store: str
    cache_dir: str | None
    started_at: float
    wall_time_s: float
    experiments: list[ExperimentResult]
    schema_version: int = RESULTS_SCHEMA_VERSION

    @property
    def totals(self) -> dict[str, int]:
        return sum_totals(e.counters for e in self.experiments)

    @property
    def ok(self) -> bool:
        return all(e.status == "ok" for e in self.experiments)

    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "suite_run_id": self.suite_run_id,
            "git_sha": self.git_sha,
            "seed": self.seed,
            "quick": self.quick,
            "jobs": self.jobs,
            "store": self.store,
            "cache_dir": self.cache_dir,
            "started_at": self.started_at,
            "wall_time_s": self.wall_time_s,
            "totals": self.totals,
            "experiments": [e.to_dict() for e in self.experiments],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SuiteResult":
        version = data.get("schema_version")
        if version != RESULTS_SCHEMA_VERSION:
            raise ConfigurationError(
                f"results.json schema version {version!r} is not "
                f"{RESULTS_SCHEMA_VERSION}; regenerate with this checkout"
            )
        return cls(
            suite_run_id=data["suite_run_id"],  # type: ignore[arg-type]
            git_sha=data["git_sha"],  # type: ignore[arg-type]
            seed=data["seed"],  # type: ignore[arg-type]
            quick=data["quick"],  # type: ignore[arg-type]
            jobs=data["jobs"],  # type: ignore[arg-type]
            store=data["store"],  # type: ignore[arg-type]
            cache_dir=data["cache_dir"],  # type: ignore[arg-type]
            started_at=data["started_at"],  # type: ignore[arg-type]
            wall_time_s=data["wall_time_s"],  # type: ignore[arg-type]
            experiments=[
                ExperimentResult.from_dict(entry)
                for entry in data["experiments"]  # type: ignore[union-attr]
            ],
        )

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )


def load_results(path: str | Path) -> SuiteResult:
    """Parse a ``results.json`` back into a :class:`SuiteResult`."""
    return SuiteResult.from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )


def git_sha() -> str:
    """The checkout's commit SHA, or ``"unknown"`` outside a git repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip()


def _merge_experiment(
    spec: ExperimentSpec, shard_results: list[dict]
) -> ExperimentResult:
    """Fold one experiment's shard records into a single result.

    Rows concatenate in shard order; metrics union (sharded experiments key
    their metrics by benchmark, so the union is collision-free — a collision
    means two shards measured "the same" number and is an error).
    """
    rows: list[dict[str, object]] = []
    metrics: dict[str, float] = {}
    errors: list[str] = []
    wall = 0.0
    shards: list[dict[str, object]] = []
    for record in shard_results:
        wall += record.get("wall_time_s", 0.0)
        shards.append(
            {
                "shard": record["shard"],
                "status": record["status"],
                "wall_time_s": record.get("wall_time_s", 0.0),
                "n_queries": record.get("n_queries", 0),
                "cached": bool(record.get("resumed_from_journal", False)),
            }
        )
        if record["status"] != "ok":
            errors.append(f"{record['shard']}: {record.get('error', 'failed')}")
            continue
        rows.extend(record["rows"])
        for key, value in record["metrics"].items():
            if key in metrics:
                raise ConfigurationError(
                    f"{spec.name}: metric {key!r} produced by two shards"
                )
            metrics[key] = value
    return ExperimentResult(
        name=spec.name,
        artifact=spec.artifact,
        title=spec.title,
        status="ok" if not errors else "error",
        wall_time_s=round(wall, 3),
        counters=sum_totals(r for r in shard_results if r["status"] == "ok"),
        metrics=metrics,
        rows=rows,
        shards=shards,
        errors=errors,
    )


def run_suite(options: SuiteOptions) -> SuiteResult:
    """Plan, execute and merge the experiment suite; write the artifacts."""
    emit = options.progress or (lambda line: None)
    # Allowlisted wall-clock read: results.json records when the suite ran
    # (provenance for the perf trajectory); no metric is derived from it.
    started_at = time.time()  # repro-lint: disable=det-wallclock
    started = time.perf_counter()
    specs = discover()
    selected = select_experiments(specs, options.only, options.skip)
    if not selected:
        raise ConfigurationError("the --only/--skip selection is empty")
    tasks = plan_shards(
        selected, quick=options.quick, n_columns=options.n_columns,
        seed=options.seed,
    )

    if options.resume is not None and options.cache_dir is None:
        raise ConfigurationError(
            "resume requires --cache-dir to locate the suite journal"
        )
    suite_run_id = options.resume or generate_run_id()
    journal: ShardJournal | None = None
    if options.cache_dir is not None:
        journal = ShardJournal(options.cache_dir, suite_run_id)
    try:
        completed_journal: dict[str, dict] = {}
        if journal is not None and options.resume is not None:
            completed_journal = journal.completed()
        emit(
            f"suite {suite_run_id}: {len(selected)} experiments, "
            f"{len(tasks)} shards, jobs={options.jobs}"
            + (f", resuming {len(completed_journal)} journalled" if completed_journal else "")
        )
        shard_results = _execute_dag(tasks, options, completed_journal, journal, emit)
    finally:
        if journal is not None:
            journal.close()

    experiments: list[ExperimentResult] = []
    for spec in selected:
        records = [r for r in shard_results if r["experiment"] == spec.name]
        experiments.append(_merge_experiment(spec, records))

    result = SuiteResult(
        suite_run_id=suite_run_id,
        git_sha=git_sha(),
        seed=options.seed,
        quick=options.quick,
        jobs=options.jobs,
        store=options.store,
        cache_dir=str(options.cache_dir) if options.cache_dir else None,
        started_at=started_at,
        wall_time_s=round(time.perf_counter() - started, 3),
        experiments=experiments,
    )

    output_dir = suite_output_dir(options)
    output_dir.mkdir(parents=True, exist_ok=True)
    result.write(output_dir / RESULTS_FILENAME)
    (output_dir / REPORT_FILENAME).write_text(
        render_report(result, {spec.name: spec for spec in selected}),
        encoding="utf-8",
    )
    totals = result.totals
    emit(
        f"suite {suite_run_id}: done in {result.wall_time_s:.1f}s — "
        f"{totals['n_evaluations']} evaluations, "
        f"{totals['n_queries']} model queries, "
        f"{totals['n_store_hits']} store hits; artifacts in {output_dir}"
    )
    return result


def _execute_dag(
    tasks: Sequence[ShardTask],
    options: SuiteOptions,
    completed_journal: Mapping[str, dict],
    journal: ShardJournal | None,
    emit: Callable[[str], None],
) -> list[dict]:
    """Run the shard DAG, replaying journalled shards and streaming progress."""
    pending: list[ShardTask] = []
    results: list[dict] = []
    done_experiments: dict[str, int] = {}
    remaining_per_experiment: dict[str, int] = {}
    for task in tasks:
        remaining_per_experiment[task.experiment] = (
            remaining_per_experiment.get(task.experiment, 0) + 1
        )

    def finish(task: ShardTask, record: dict) -> None:
        results.append(record)
        remaining_per_experiment[task.experiment] -= 1
        if remaining_per_experiment[task.experiment] == 0:
            done_experiments[task.experiment] = 1
        status = record["status"]
        note = " (journal)" if record.get("resumed_from_journal") else ""
        emit(
            f"  [{len(results)}/{len(tasks)}] {task.key}: {status}{note} "
            f"in {record.get('wall_time_s', 0.0):.1f}s, "
            f"queries={record.get('n_queries', 0)}, "
            f"store_hits={record.get('n_store_hits', 0)}"
        )
        if journal is not None and not record.get("resumed_from_journal"):
            journal.record(record)

    for task in tasks:
        replay = completed_journal.get(task.fingerprint())
        if replay is not None:
            replay = dict(replay)
            replay["resumed_from_journal"] = True
            # The journalled run counters describe what the *recorded* run
            # paid; replaying costs nothing now, and reporting its queries,
            # hits or batches would make a resumed run look like it touched
            # the model.  Its evaluations still count.
            replay.update(dict.fromkeys(RUN_COUNTERS, 0))
            finish(task, replay)
        else:
            pending.append(task)

    def ready(task: ShardTask) -> bool:
        return all(dep in done_experiments for dep in task.after)

    if options.jobs <= 1:
        # Inline execution: same planning/merging path, no process pool.
        while pending:
            runnable = [t for t in pending if ready(t)]
            for task in runnable:
                pending.remove(task)
                finish(task, _execute_shard(_shard_payload(task, options)))
        return results

    with ProcessPoolExecutor(max_workers=options.jobs) as pool:
        in_flight: dict = {}

        def launch_ready() -> None:
            for task in [t for t in pending if ready(t)]:
                pending.remove(task)
                future = pool.submit(
                    _execute_shard, _shard_payload(task, options)
                )
                in_flight[future] = task

        launch_ready()
        while in_flight:
            finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in finished:
                task = in_flight.pop(future)
                try:
                    record = future.result()
                except BaseException as exc:  # worker killed / unpicklable
                    record = {
                        "experiment": task.experiment,
                        "shard": task.shard,
                        "fingerprint": task.fingerprint(),
                        "status": "error",
                        "error": f"worker failed: {type(exc).__name__}: {exc}",
                        "wall_time_s": 0.0,
                    }
                finish(task, record)
            launch_ready()
        # Experiments are marked done even when their shards error, so in an
        # acyclic DAG (validated by plan_shards) every task's deps resolve
        # and the loop drains pending completely.
        assert not pending, f"scheduler left tasks unrun: {pending}"
    return results


# -------------------------------------------------------------------- report
def render_report(
    result: SuiteResult, specs: Mapping[str, ExperimentSpec]
) -> str:
    """Render ``REPORT.md``: run header, target table, per-experiment tables."""
    totals = result.totals
    lines = [
        "# Paper reproduction report",
        "",
        f"- suite run: `{result.suite_run_id}`"
        + (" (quick mode)" if result.quick else ""),
        f"- git SHA: `{result.git_sha}`",
        f"- seed: {result.seed}, jobs: {result.jobs}, store: {result.store}",
        f"- wall time: {result.wall_time_s:.1f}s across "
        f"{len(result.experiments)} experiments "
        f"({totals['n_evaluations']} evaluations)",
        f"- model queries: {totals['n_queries']} "
        f"(LRU hits: {totals['n_cache_hits']}, "
        f"store hits: {totals['n_store_hits']}, "
        f"in-flight hits: {totals['n_inflight_hits']})",
        f"- scheduler: {totals['n_batches']} batches drained, "
        f"{totals['n_coalesced']} requests coalesced, "
        f"{totals['n_cross_request_batches']} cross-request batches",
        "",
        "## Measured vs. paper targets",
        "",
    ]
    target_rows: list[dict[str, object]] = []
    for experiment in result.experiments:
        spec = specs.get(experiment.name)
        if spec is None:
            continue
        for target in spec.targets:
            measured = experiment.metrics.get(target.metric)
            delta = target.delta(measured)
            target_rows.append(
                {
                    "Experiment": f"{experiment.name} ({experiment.artifact})",
                    "Check": target.description,
                    "Paper": "—" if target.paper_value is None
                    else f"{target.paper_value:g}",
                    "Measured": "—" if measured is None else f"{measured:.2f}",
                    "Δ": "—" if delta is None else f"{delta:+.2f}",
                    "Status": target.status(measured),
                }
            )
    if target_rows:
        lines.append(format_markdown_table(
            target_rows,
            columns=["Experiment", "Check", "Paper", "Measured", "Δ", "Status"],
        ))
    else:
        lines.append("*(no targets declared for the selected experiments)*")
    lines.append("")
    lines.append("## Per-experiment results")
    for experiment in result.experiments:
        lines += [
            "",
            f"### {experiment.artifact}: {experiment.title}",
            "",
            f"- status: **{experiment.status}**, wall time "
            f"{experiment.wall_time_s:.1f}s, "
            f"{experiment.counters['n_evaluations']} evaluations, "
            f"{experiment.counters['n_queries']} model queries "
            f"({experiment.counters['n_store_hits']} store hits)",
        ]
        if experiment.errors:
            for error in experiment.errors:
                lines.append(f"- error: `{error}`")
        if experiment.rows:
            lines.append("")
            lines.append(format_markdown_table(experiment.rows))
    lines.append("")
    return "\n".join(lines)


def render_experiments_index(specs: Mapping[str, ExperimentSpec]) -> str:
    """The generated ``EXPERIMENTS.md``: one row per registered experiment."""
    rows = []
    for spec in ordered_specs(specs):
        rows.append(
            {
                "Experiment": f"`{spec.name}`",
                "Paper artefact": spec.artifact,
                "Module": f"`{spec.module}`",
                "Shards": len(spec.shard_values(False)) or 1,
                "Targets": len(spec.targets),
                "What it shows": spec.description or spec.title,
            }
        )
    lines = [
        "# Experiment index",
        "",
        "Generated from the suite registry "
        "(`python scripts/generate_experiments_md.py`). Do not edit by hand.",
        "",
        "Run everything: `python -m repro.cli suite --quick --jobs 2 "
        "--cache-dir suite-cache`; one experiment: "
        "`python -m repro.experiments.<module> --quick` or "
        "`repro suite --only <experiment>`.",
        "",
        format_markdown_table(
            rows,
            columns=["Experiment", "Paper artefact", "Module", "Shards",
                     "Targets", "What it shows"],
        ),
        "",
        "Artifacts of a suite run: `results.json` (machine-readable metrics, "
        "query/cache/store counters, wall times, git SHA, seed) and "
        "`REPORT.md` (measured-vs-paper targets with deltas and pass/fail).",
        "",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------- per-module CLIs
def _parse_param_overrides(pairs: Iterable[str]) -> dict[str, object]:
    """Parse repeated ``--param KEY=VALUE`` flags (JSON value, else string)."""
    overrides: dict[str, object] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ConfigurationError(
                f"--param expects KEY=VALUE, got {pair!r}"
            )
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def experiment_main(
    spec: ExperimentSpec, argv: Sequence[str] | None = None
) -> int:
    """Shared ``python -m repro.experiments.<module>`` driver.

    Replaces the per-module argparse ``main()``s: every experiment gets the
    same flags (``--columns --seed --quick --executor --workers --cache-dir
    --store`` plus free-form ``--param KEY=VALUE`` grid overrides) and prints
    its paper-style table plus headline metrics.
    """
    import argparse

    from repro.core.executor import EXECUTOR_NAMES
    from repro.core.store import STORE_KINDS
    from repro.eval.reporting import format_table

    parser = argparse.ArgumentParser(
        prog=f"python -m {spec.module}",
        description=f"{spec.artifact} — {spec.title}",
    )
    parser.add_argument("--columns", type=int, default=None,
                        help="evaluation columns per benchmark")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed")
    parser.add_argument("--quick", action="store_true",
                        help="use the registry's quick-mode grid")
    parser.add_argument("--executor", default=None,
                        choices=list(EXECUTOR_NAMES),
                        help="execution strategy for the query stage")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool width for --executor concurrent or process")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent response store directory")
    parser.add_argument("--store", default="sqlite",
                        choices=list(STORE_KINDS),
                        help="store backend under --cache-dir")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one registry grid parameter "
                             "(JSON value, repeatable)")
    args = parser.parse_args(argv)
    if args.columns is not None and args.columns <= 0:
        parser.error("--columns must be a positive integer")

    params = spec.merged_params(args.quick)
    params.update(_parse_param_overrides(args.param))
    runner = ExperimentRunner(
        executor=args.executor,
        workers=args.workers,
        cache_dir=args.cache_dir,
        store=args.store,
        checkpoint=False,
    )
    config = ExperimentConfig(
        n_columns=args.columns or spec.columns_for(args.quick),
        seed=args.seed,
        quick=args.quick,
        params=params,
        runner=runner,
    )
    artifact = spec.run(config)
    print(format_table(artifact.rows, title=f"{spec.artifact}: {spec.title}"))
    totals = runner.totals
    print(
        f"\n{totals['n_evaluations']} evaluations, {totals['n_queries']} model "
        f"queries (LRU hits: {totals['n_cache_hits']}, store hits: "
        f"{totals['n_store_hits']})"
    )
    if artifact.metrics:
        print("metrics:", json.dumps(artifact.metrics, sort_keys=True))
    return 0
