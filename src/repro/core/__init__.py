"""The paper's primary contribution: the four-stage ArcheType pipeline.

Submodules map one-to-one onto the stages in Figure 1 of the paper:

* :mod:`repro.core.table` — the tabular substrate (``Column``, ``Table``).
* :mod:`repro.core.sampling` — context sampling (Algorithm 1).
* :mod:`repro.core.features` — extended-context feature selection (SS/TN/OC).
* :mod:`repro.core.serialization` — prompt serialization (six prompt styles).
* :mod:`repro.core.scheduler` — the request scheduler: the single
  lookup-and-fill pipeline (LRU → store → in-flight dedup → microbatched
  ``generate_batch`` drains) behind every query path.
* :mod:`repro.core.querying` — model querying (``QueryEngine``: the
  request scheduler under the stage's name).
* :mod:`repro.core.remapping` — label remapping (Algorithms 3 and 4).
* :mod:`repro.core.rules` — rule-based label remapping (the "+" variants).
* :mod:`repro.core.plan` — the logical half of annotation: per-column
  ``ColumnPlan`` building plus per-stage instrumentation.
* :mod:`repro.core.executor` — the physical half: batched (sequential is
  a batch of one) and concurrent plan executors.
* :mod:`repro.core.store` — the durability layer: the persistent SQLite
  ``(prompt, params) → response`` store and per-run checkpoint manifests.
* :mod:`repro.core.pipeline` — the end-to-end ``ArcheType`` annotator.
"""

from repro.core.executor import (
    BatchedExecutor,
    ConcurrentExecutor,
    Executor,
    get_executor,
)
from repro.core.pipeline import AnnotationResult, ArcheType, ArcheTypeConfig
from repro.core.plan import ColumnPlan, ColumnPlanner, PipelineStats
from repro.core.querying import QueryEngine
from repro.core.scheduler import QueryStats, RequestScheduler, SchedulerStats
from repro.core.sampling import (
    ArcheTypeSampler,
    FirstKSampler,
    SimpleRandomSampler,
    get_sampler,
)
from repro.core.serialization import PromptSerializer, PromptStyle
from repro.core.remapping import get_remapper
from repro.core.store import (
    ResponseStore,
    RunManifest,
    SQLiteResponseStore,
    open_store,
)
from repro.core.table import Column, Table

__all__ = [
    "AnnotationResult",
    "ArcheType",
    "ArcheTypeConfig",
    "ArcheTypeSampler",
    "BatchedExecutor",
    "Column",
    "ColumnPlan",
    "ColumnPlanner",
    "ConcurrentExecutor",
    "Executor",
    "FirstKSampler",
    "PipelineStats",
    "PromptSerializer",
    "PromptStyle",
    "QueryEngine",
    "QueryStats",
    "RequestScheduler",
    "ResponseStore",
    "RunManifest",
    "SQLiteResponseStore",
    "SchedulerStats",
    "SimpleRandomSampler",
    "Table",
    "get_executor",
    "get_remapper",
    "get_sampler",
    "open_store",
]
