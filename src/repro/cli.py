"""Command-line interface for the ArcheType reproduction.

Five subcommands cover the common workflows:

``annotate``
    Annotate the columns of a CSV file against a user-supplied label set::

        python -m repro.cli annotate data.csv --labels state,person,url,number

``evaluate``
    Evaluate a zero-shot method over one of the built-in benchmarks::

        python -m repro.cli evaluate --benchmark d4-20 --method archetype --model gpt

``suite``
    Replay every registered paper experiment and write ``results.json`` +
    ``REPORT.md``::

        python -m repro.cli suite --quick --jobs 2 --cache-dir suite-cache

``serve``
    Expose the annotator as an HTTP service (shared scheduler, cross-request
    batching, per-tenant rate limits, graceful drain on SIGTERM)::

        python -m repro.cli serve --port 8080 --labels state,person,url

``lint``
    Run repro-lint, the project-specific static analysis.

All subcommands print plain text; ``--help`` lists every option.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis import runner as analysis_runner
from repro.baselines.llm_baselines import get_zero_shot_method
from repro.core.executor import EXECUTOR_NAMES
from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.core.serialization import PromptStyle
from repro.core.store import STORE_KINDS, open_store
from repro.core.table import Table
from repro.datasets.registry import BENCHMARK_NAMES, load_benchmark
from repro.eval.reporting import format_stage_stats, format_table
from repro.eval.runner import ExperimentRunner
from repro.exceptions import ConfigurationError, StoreError
from repro.llm.registry import list_models


def read_csv_table(path: Path, has_header: bool = True, max_rows: int | None = None) -> Table:
    """Load a CSV file into a :class:`Table` (all cells kept as strings)."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows:
        return Table(columns=[], name=path.name)
    header: Sequence[str] | None = None
    if has_header:
        header, rows = rows[0], rows[1:]
    if max_rows is not None:
        rows = rows[:max_rows]
    return Table.from_rows(rows, column_names=header, name=path.name)


@contextmanager
def _maybe_profile(enabled: bool, destination: Path) -> Iterator[None]:
    """Wrap a block in cProfile when ``--profile`` is set.

    The stats land as a ``pstats`` dump at ``destination`` — load them with
    ``python -m pstats`` (or ``snakeviz``) to hunt hot loops with
    measurements instead of guesses.
    """
    if not enabled:
        yield
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        destination.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(str(destination))
        print(f"profile written to {destination}", file=sys.stderr)


def _profile_destination(args: argparse.Namespace, name: str) -> Path:
    """Where a subcommand's profile dump lands (next to its other artifacts)."""
    base = Path(args.cache_dir) if getattr(args, "cache_dir", None) else Path(".")
    return base / "profiles" / f"{name}.pstats"


def _annotate_command(args: argparse.Namespace) -> int:
    path = Path(args.csv_file)
    if not path.exists():
        print(f"error: {path} does not exist", file=sys.stderr)
        return 2
    labels = [label.strip() for label in args.labels.split(",") if label.strip()]
    if not labels:
        print("error: --labels must list at least one label", file=sys.stderr)
        return 2
    table = read_csv_table(path, has_header=not args.no_header, max_rows=args.max_rows)
    if not table.columns:
        print(f"error: {path} contains no data rows", file=sys.stderr)
        return 2

    annotator = ArcheType(
        ArcheTypeConfig(
            model=args.model,
            label_set=labels,
            sample_size=args.samples,
            sampler=args.sampler,
            prompt_style=PromptStyle(args.prompt) if args.prompt else PromptStyle.S,
            remapper=args.remapper,
            seed=args.seed,
            max_batch_wait=args.max_batch_wait or 0.0,
            queue_depth=args.queue_depth,
        )
    )
    store = open_store(args.store, args.cache_dir) if args.cache_dir else None
    if store is not None:
        annotator.attach_store(store)
    try:
        with _maybe_profile(args.profile, _profile_destination(args, "annotate")):
            results = annotator.annotate_table(
                table,
                batch_size=args.batch_size,
                executor=args.executor,
                workers=args.workers,
            )
    finally:
        if store is not None:
            annotator.attach_store(None)
            store.close()
    rows = []
    for index, result in enumerate(results):
        column = table[index]
        rows.append(
            {
                "column": column.name or f"col{index}",
                "predicted type": result.label,
                "raw answer": result.raw_response,
                "remapped": "yes" if result.remapped else "",
            }
        )
    print(format_table(rows, title=f"{path.name}: {len(table)} columns, model={args.model}"))
    if args.stats:
        print()
        print(format_stage_stats(annotator.pipeline_stats.snapshot()))
    return 0


def _evaluate_command(args: argparse.Namespace) -> int:
    benchmark = load_benchmark(args.benchmark, n_columns=args.columns, seed=args.seed)
    annotator = get_zero_shot_method(
        args.method,
        benchmark,
        model=args.model,
        sample_size=args.samples,
        use_rules=args.rules,
        seed=args.seed,
    )
    runner = ExperimentRunner(
        batch_size=args.batch_size,
        executor=args.executor,
        workers=args.workers,
        max_batch_wait=args.max_batch_wait,
        queue_depth=args.queue_depth,
        cache_dir=args.cache_dir,
        store=args.store,
        run_id=args.run_id,
        resume=args.resume,
    )
    with _maybe_profile(args.profile, _profile_destination(args, "evaluate")):
        result = runner.evaluate(
            annotator, benchmark, f"{args.method}-{args.model}{'+' if args.rules else ''}"
        )
    print(format_table([result.summary_row()],
                       title=f"{args.benchmark}: {args.columns} columns"))
    if result.run_id is not None:
        print(f"\nrun checkpointed as {result.run_id}; resume an interrupted "
              f"run with --cache-dir {args.cache_dir} --resume {result.run_id}")
    if args.stats and result.pipeline_stats:
        print()
        print(format_stage_stats(result.pipeline_stats))
    if args.per_class:
        rows = [
            {"class": label, "accuracy": round(accuracy, 2)}
            for label, accuracy in sorted(result.report.per_class_accuracy.items())
        ]
        print()
        print(format_table(rows, title="per-class accuracy"))
    return 0


def _suite_command(args: argparse.Namespace) -> int:
    # Imported lazily: the suite registry imports every experiment module,
    # which the other subcommands never need.
    from repro.experiments import suite as suite_module

    if args.list:
        specs = suite_module.discover()
        selected = suite_module.select_experiments(
            specs, args.only or None, args.skip or None
        )
        rows = [
            {
                "experiment": spec.name,
                "artifact": spec.artifact,
                "shards": len(spec.shard_values(args.quick)) or 1,
                "columns": spec.columns_for(args.quick),
                "targets": len(spec.targets),
            }
            for spec in selected
        ]
        print(format_table(rows, title=f"{len(rows)} registered experiments"))
        return 0
    result = suite_module.run_suite(
        suite_module.SuiteOptions(
            quick=args.quick,
            jobs=args.jobs,
            only=tuple(args.only),
            skip=tuple(args.skip),
            n_columns=args.columns,
            seed=args.seed,
            executor=args.executor,
            workers=args.workers,
            cache_dir=args.cache_dir,
            store=args.store,
            resume=args.resume,
            output_dir=args.output_dir,
            profile=args.profile,
        )
    )
    if not result.ok:
        failed = [e.name for e in result.experiments if e.status != "ok"]
        print(f"error: experiments failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    # Imported lazily: the service package is only needed by this subcommand.
    from repro.service import ServiceConfig
    from repro.service.server import run as run_service

    labels: tuple[str, ...] = ()
    if args.labels:
        labels = tuple(
            label.strip() for label in args.labels.split(",") if label.strip()
        )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        model=args.model,
        label_set=labels,
        sample_size=args.samples,
        seed=args.seed,
        model_latency=args.model_latency,
        max_batch_size=args.max_batch_size,
        max_batch_wait=args.max_batch_wait,
        queue_depth=args.queue_depth,
        drainers=args.drainers,
        workers=args.workers,
        store=args.store,
        cache_dir=args.cache_dir,
        max_pending=args.max_pending,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        drain_timeout=args.drain_timeout,
    )
    return run_service(config)


def _batch_size(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("--batch-size must be >= 0")
    return parsed


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return parsed


def _nonnegative_float(value: str) -> float:
    parsed = float(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _add_execution_arguments(parser: argparse.ArgumentParser, default_note: str) -> None:
    """The shared execution knobs: --batch-size, --executor, --workers, --stats."""
    parser.add_argument("--batch-size", type=_batch_size, default=None,
                        help=f"columns per batched LLM query (default: "
                             f"{default_note}; 0 forces the sequential "
                             "per-column loop)")
    parser.add_argument("--executor", default=None, choices=list(EXECUTOR_NAMES),
                        help="execution strategy for the query stage (default: "
                             "batched, or sequential when --batch-size=0)")
    parser.add_argument("--workers", type=_positive_int, default=None,
                        help="thread count for --executor concurrent; "
                             "default 4")
    parser.add_argument("--profile", action="store_true",
                        help="wrap the run in cProfile and dump pstats under "
                             "<cache-dir>/profiles/ (or ./profiles/), so "
                             "hot-loop hunts are measured, not guessed")
    parser.add_argument("--max-batch-wait", type=_nonnegative_float, default=None,
                        help="seconds the request scheduler lingers for "
                             "stragglers before draining an under-full "
                             "microbatch (default 0: drain immediately)")
    parser.add_argument("--queue-depth", type=_positive_int, default=None,
                        help="bound on the scheduler's admission queue; a full "
                             "queue blocks submitters instead of dropping "
                             "requests (default: unbounded)")
    parser.add_argument("--stats", action="store_true",
                        help="print per-stage pipeline stats (wall time, calls, "
                             "cache hits)")


def _add_persistence_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared persistence knobs: --cache-dir, --store."""
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the persistent query store and run "
                             "manifests; responses are reused across processes "
                             "so a warm rerun issues ~0 model queries")
    parser.add_argument("--store", default="sqlite", choices=list(STORE_KINDS),
                        help="persistent store backend under --cache-dir "
                             "(default: sqlite; 'none' disables response "
                             "persistence — use for stateful backends)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    annotate = subparsers.add_parser(
        "annotate", help="annotate the columns of a CSV file"
    )
    annotate.add_argument("csv_file", help="path to the CSV file")
    annotate.add_argument("--labels", required=True,
                          help="comma-separated label set, e.g. 'state,person,url'")
    annotate.add_argument("--model", default="gpt",
                          help=f"model name or alias (built-ins: {', '.join(sorted(list_models()))})")
    annotate.add_argument("--samples", type=int, default=5, help="context samples per column")
    annotate.add_argument("--sampler", default="archetype",
                          choices=["archetype", "srs", "firstk"])
    annotate.add_argument("--prompt", default=None, choices=[s.value for s in PromptStyle.zero_shot_styles()])
    annotate.add_argument("--remapper", default="contains+resample",
                          choices=["none", "contains", "resample", "similarity",
                                   "contains+resample"])
    annotate.add_argument("--no-header", action="store_true",
                          help="the CSV file has no header row")
    annotate.add_argument("--max-rows", type=int, default=None)
    annotate.add_argument("--seed", type=int, default=0)
    _add_execution_arguments(annotate, default_note="the whole table at once")
    _add_persistence_arguments(annotate)
    annotate.set_defaults(func=_annotate_command)

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate a zero-shot method over a built-in benchmark"
    )
    evaluate.add_argument("--benchmark", default="sotab-27", choices=list(BENCHMARK_NAMES))
    evaluate.add_argument("--method", default="archetype",
                          choices=["archetype", "c-baseline", "k-baseline"])
    evaluate.add_argument("--model", default="t5",
                          help=f"model name or alias (built-ins: {', '.join(sorted(list_models()))})")
    evaluate.add_argument("--columns", type=int, default=200)
    evaluate.add_argument("--samples", type=int, default=5)
    evaluate.add_argument("--rules", action="store_true", help="enable rule-based remapping")
    evaluate.add_argument("--per-class", action="store_true")
    evaluate.add_argument("--seed", type=int, default=0)
    _add_execution_arguments(evaluate,
                             default_note="the split streams in 64-column chunks")
    _add_persistence_arguments(evaluate)
    evaluate.add_argument("--run-id", default=None,
                          help="explicit id for this run's checkpoint manifest "
                               "(default: generated timestamp-hex id)")
    evaluate.add_argument("--resume", metavar="RUN_ID", default=None,
                          help="resume an interrupted run: columns already in "
                               "RUN_ID's manifest are replayed bit-identically "
                               "from the journal (requires --cache-dir)")
    evaluate.set_defaults(func=_evaluate_command)

    suite = subparsers.add_parser(
        "suite",
        help="replay every registered paper experiment and write "
             "results.json + REPORT.md",
    )
    suite.add_argument("--quick", action="store_true",
                       help="small splits and trimmed grids (the CI "
                            "configuration); a quick pass finishes in well "
                            "under a minute")
    suite.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for the shard DAG (default 1 = "
                            "inline)")
    suite.add_argument("--only", action="append", default=[],
                       metavar="PATTERN",
                       help="run only experiments matching this glob "
                            "(repeatable, e.g. --only 'table4*')")
    suite.add_argument("--skip", action="append", default=[],
                       metavar="PATTERN",
                       help="skip experiments matching this glob (repeatable)")
    suite.add_argument("--columns", type=_positive_int, default=None,
                       help="override every experiment's evaluation-split "
                            "size")
    suite.add_argument("--seed", type=int, default=0, help="benchmark seed")
    suite.add_argument("--executor", default=None,
                       choices=list(EXECUTOR_NAMES),
                       help="execution strategy for the query stage inside "
                            "each shard")
    suite.add_argument("--workers", type=_positive_int, default=None,
                       help="thread count for --executor concurrent")
    suite.add_argument("--profile", action="store_true",
                       help="profile every shard with cProfile and dump "
                            "per-shard pstats next to results.json "
                            "(<output-dir>/profiles/)")
    _add_persistence_arguments(suite)
    suite.add_argument("--resume", metavar="SUITE_RUN_ID", default=None,
                       help="resume an interrupted suite run: shards already "
                            "in its journal are replayed, missing ones "
                            "re-run warm from the store (requires "
                            "--cache-dir)")
    suite.add_argument("--output-dir", default=None,
                       help="directory for results.json and REPORT.md "
                            "(default: --cache-dir, else the working "
                            "directory)")
    suite.add_argument("--list", action="store_true",
                       help="list the selected experiments and exit")
    suite.set_defaults(func=_suite_command)

    serve = subparsers.add_parser(
        "serve",
        help="expose the annotator as an HTTP service: one shared "
             "scheduler/cache across clients, cross-request microbatching, "
             "per-tenant rate limits, graceful drain on SIGTERM",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port; 0 picks an ephemeral port and prints "
                            "it in the 'listening on ...' line")
    serve.add_argument("--model", default="gpt",
                       help=f"model name or alias (built-ins: "
                            f"{', '.join(sorted(list_models()))})")
    serve.add_argument("--labels", default=None,
                       help="comma-separated default label set; requests "
                            "without their own 'label_set' use it (omit to "
                            "make 'label_set' mandatory per request)")
    serve.add_argument("--samples", type=_positive_int, default=5,
                       help="default context samples per column")
    serve.add_argument("--seed", type=int, default=0,
                       help="default annotation seed")
    serve.add_argument("--model-latency", type=_nonnegative_float, default=0.0,
                       help="simulated model round-trip latency in seconds "
                            "(simulated backends only; makes load tests "
                            "deployment-shaped)")
    serve.add_argument("--max-batch-size", type=_positive_int, default=16,
                       help="per-drain cap on scheduler microbatches "
                            "(default 16)")
    serve.add_argument("--max-batch-wait", type=_nonnegative_float,
                       default=0.005,
                       help="seconds a drain leader lingers for stragglers — "
                            "the knob that coalesces concurrent requests "
                            "into cross-request batches (default 0.005)")
    serve.add_argument("--queue-depth", type=_positive_int, default=1024,
                       help="bound on the scheduler's admission queue "
                            "(default 1024)")
    serve.add_argument("--workers", type=_positive_int, default=8,
                       help="annotation worker threads (default 8)")
    serve.add_argument("--drainers", type=_positive_int, default=1,
                       help="background scheduler drain threads (default 1)")
    serve.add_argument("--max-pending", type=_positive_int, default=64,
                       help="bound on concurrently admitted requests; "
                            "overflow is refused with 429 + Retry-After "
                            "(default 64)")
    serve.add_argument("--tenant-rate", type=_nonnegative_float, default=0.0,
                       help="sustained per-tenant requests/second (X-Tenant "
                            "header selects the bucket; default 0 = off)")
    serve.add_argument("--tenant-burst", type=_positive_int, default=8,
                       help="burst capacity of each tenant's token bucket "
                            "(default 8)")
    serve.add_argument("--drain-timeout", type=_nonnegative_float,
                       default=10.0,
                       help="seconds a SIGTERM drain waits for in-flight "
                            "requests before tearing down (default 10)")
    _add_persistence_arguments(serve)
    serve.set_defaults(func=_serve_command)

    lint = subparsers.add_parser(
        "lint",
        help="run repro-lint, the project-specific static analysis "
             "(lock discipline, determinism, picklability, resource "
             "hygiene; see src/repro/analysis/RULES.md)",
    )
    # The analysis runner owns its options so `repro lint`,
    # `python -m repro.analysis` and scripts/repro_lint.py stay identical.
    analysis_runner.add_arguments(lint)
    lint.set_defaults(func=analysis_runner.run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except (ConfigurationError, StoreError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
