"""Configuration for the annotation service.

One frozen dataclass carries every knob the server needs, split into four
groups that mirror the layers of the service:

* **network** — bind address (``port=0`` asks the OS for an ephemeral port;
  the resolved port is printed/reported after bind, which is how the tests
  and the load generator avoid port races);
* **annotator defaults** — the model and the per-request defaults a request
  body may override (``label_set``, ``sample_size``, ``seed``);
* **scheduler** — the shared :class:`repro.core.scheduler.RequestScheduler`
  knobs: microbatch cap, linger window, admission-queue depth, background
  drainers, and the worker threads that carry annotation jobs;
* **admission** — the service-level token buckets and pending bound that
  turn overload into 429 + ``Retry-After`` instead of collapse, plus the
  graceful-drain budget.

Validation happens at construction so ``repro serve`` fails fast with a
:class:`~repro.exceptions.ConfigurationError` instead of misbehaving later.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.exceptions import ConfigurationError

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of one annotation-service instance (see module docs)."""

    # ------------------------------------------------------------- network
    host: str = "127.0.0.1"
    #: TCP port to bind; ``0`` picks an ephemeral port at bind time.
    port: int = 8080
    #: Cap on request bodies; anything larger is refused with 413.
    max_body_bytes: int = 8 * 1024 * 1024

    # -------------------------------------------------- annotator defaults
    model: str = "gpt"
    #: Default label set for requests that do not carry their own; empty
    #: means every request must supply ``label_set``.
    label_set: Sequence[str] = field(default_factory=tuple)
    sample_size: int = 5
    seed: int = 0
    #: Simulated model round-trip latency in seconds (only honoured by the
    #: bundled simulated backends); makes load tests deployment-shaped.
    model_latency: float = 0.0

    # ----------------------------------------------------------- scheduler
    query_cache_size: int = 4096
    max_batch_size: int | None = 16
    #: Seconds a drain leader lingers for stragglers when another batch is
    #: already at the model — the knob that turns concurrent single-column
    #: requests into cross-request model batches under load.  On an idle
    #: model a partial batch leaves at once.
    max_batch_wait: float = 0.005
    queue_depth: int | None = 1024
    #: Background scheduler drain threads (see ``start_drainers``).
    drainers: int = 1
    #: Annotation worker threads bridging asyncio handlers onto the
    #: scheduler; each in-flight request occupies one while it runs.
    workers: int = 8
    #: Store kind under ``cache_dir``: ``"sqlite"`` (the shared warm tier)
    #: or ``"none"`` (see ``repro.core.store.STORE_KINDS``); ignored when
    #: ``cache_dir`` is unset.
    store: str = "sqlite"
    #: Directory for the shared persistent warm tier; ``None`` keeps the
    #: warm tier in-memory only (the scheduler LRU).
    cache_dir: str | None = None

    # ----------------------------------------------------------- admission
    #: Bound on concurrently admitted annotation requests; overflow is
    #: refused with 429 + Retry-After rather than queued without limit.
    max_pending: int = 64
    #: Sustained per-tenant request rate (requests/second); 0 disables
    #: rate limiting.
    tenant_rate: float = 0.0
    #: Burst capacity of each tenant's token bucket.
    tenant_burst: int = 8
    #: Seconds a graceful drain waits for in-flight requests to finish.
    drain_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ConfigurationError("port must be in [0, 65535]")
        if self.max_body_bytes <= 0:
            raise ConfigurationError("max_body_bytes must be > 0")
        if self.sample_size <= 0:
            raise ConfigurationError("sample_size must be positive")
        if self.model_latency < 0:
            raise ConfigurationError("model_latency must be >= 0")
        if self.max_batch_size is not None and self.max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be None or > 0")
        if self.max_batch_wait < 0:
            raise ConfigurationError("max_batch_wait must be >= 0")
        if self.queue_depth is not None and self.queue_depth <= 0:
            raise ConfigurationError("queue_depth must be None or > 0")
        if self.drainers <= 0:
            raise ConfigurationError("drainers must be > 0")
        if self.workers <= 0:
            raise ConfigurationError("workers must be > 0")
        if self.max_pending <= 0:
            raise ConfigurationError("max_pending must be > 0")
        if self.tenant_rate < 0:
            raise ConfigurationError("tenant_rate must be >= 0")
        if self.tenant_burst <= 0:
            raise ConfigurationError("tenant_burst must be > 0")
        if self.drain_timeout < 0:
            raise ConfigurationError("drain_timeout must be >= 0")

    def with_updates(self, **changes: object) -> "ServiceConfig":
        """Return a copy of the config with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def summary(self) -> dict[str, object]:
        """The config subset surfaced by ``/stats`` (JSON-serializable)."""
        return {
            "model": self.model,
            "default_label_set": list(self.label_set),
            "sample_size": self.sample_size,
            "seed": self.seed,
            "workers": self.workers,
            "drainers": self.drainers,
            "max_batch_size": self.max_batch_size,
            "max_batch_wait": self.max_batch_wait,
            "queue_depth": self.queue_depth,
            "max_pending": self.max_pending,
            "tenant_rate": self.tenant_rate,
            "tenant_burst": self.tenant_burst,
        }
