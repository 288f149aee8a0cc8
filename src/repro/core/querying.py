"""Model querying: the third stage of the ArcheType pipeline.

The querying stage submits serialized prompts to the chosen language model and
returns the raw responses, while tracking how many model calls were issued
(remap-resample issues extra ones) and which generation parameters were used.
Keeping it separate from the pipeline makes the Section 5.4.3 model-querying
ablation a one-line model swap.

The stage is one class: ``QueryEngine`` is
:class:`repro.core.scheduler.RequestScheduler`, whose ``query_batch``,
``query_batch_fanout`` and ``requery`` send prompts through its LRU cache,
persistent store, in-flight dedup and microbatched ``generate_batch`` drains,
while :class:`QueryStats` accounts for every prompt by the tier that served it.
"""

from __future__ import annotations

from repro.core.scheduler import QueryStats, RequestScheduler

__all__ = ["QueryEngine", "QueryStats"]

QueryEngine = RequestScheduler
