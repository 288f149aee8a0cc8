"""Language-model interface shared by every backend.

The ArcheType pipeline interacts with a model through two entry points:
:meth:`LanguageModel.generate` (one prompt in, one completion out) and
:meth:`LanguageModel.generate_batch`, the set-at-a-time variant used by the
batched annotation engine.  The base class provides a loop implementation of
the batch path so every backend is batch-capable; the simulated backends
override it with vectorized implementations that share parsing/embedding work
across the batch.  Generation hyperparameters (temperature, top-p, repetition
penalty) are carried in :class:`GenerationParams`; the remap-resample strategy
(Algorithm 3) permutes them between retries via :meth:`GenerationParams.permuted`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Sequence


@dataclass(frozen=True)
class GenerationParams:
    """Decoding hyperparameters passed along with every query.

    ``resample_index`` tracks how many remap-resample retries preceded this
    call; backends may use it (together with the other fields) to vary their
    output between retries, which is exactly what calling a stochastic LLM
    with permuted hyperparameters achieves.
    """

    temperature: float = 0.0
    top_p: float = 1.0
    repetition_penalty: float = 1.0
    seed: int = 0
    resample_index: int = 0

    def permuted(self, k: int, temperature_factor: float = 1.5,
                 top_p_step: float = -0.05,
                 repetition_step: float = 0.05) -> "GenerationParams":
        """Return the parameters for the ``k``-th resample attempt.

        Following Section 3.5, ``k`` acts multiplicatively on temperature and
        additively on top-p and repetition penalty.
        """
        if k <= 0:
            return self
        new_temperature = max(self.temperature, 0.2) * (temperature_factor ** k)
        new_top_p = min(1.0, max(0.1, self.top_p + top_p_step * k))
        new_rep = max(1.0, self.repetition_penalty + repetition_step * k)
        return replace(
            self,
            temperature=min(new_temperature, 2.0),
            top_p=new_top_p,
            repetition_penalty=new_rep,
            resample_index=k,
        )


#: ``params`` accepted by the batch entry points: one set of parameters shared
#: by the whole batch, one per prompt, or None for backend defaults.
BatchParams = GenerationParams | Sequence["GenerationParams | None"] | None


def broadcast_params(
    prompts: Sequence[str],
    params: GenerationParams | Sequence[GenerationParams | None] | None,
) -> list[GenerationParams | None]:
    """Expand a batch ``params`` argument to exactly one entry per prompt."""
    if params is None or isinstance(params, GenerationParams):
        return [params] * len(prompts)
    expanded = list(params)
    if len(expanded) != len(prompts):
        raise ValueError(
            f"got {len(expanded)} GenerationParams for {len(prompts)} prompts"
        )
    return expanded


class LanguageModel(ABC):
    """Abstract LLM backend.

    Concrete implementations in this package are simulators (see
    :mod:`repro.llm.simulated` and :mod:`repro.llm.finetune`); a user with API
    access could drop in a real backend by implementing this interface.
    """

    #: Human-readable model name, e.g. ``"archetype-zs-t5"``.
    name: str = "abstract"
    #: Maximum prompt length in (approximate) tokens.
    context_window: int = 2048
    #: Architecture family, e.g. ``"encoder-decoder"`` or ``"decoder-only"``.
    architecture: str = "unknown"
    #: Whether the model weights/pre-training data are open (Section 2.3).
    open_source: bool = True

    @abstractmethod
    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        """Produce a completion for ``prompt``."""

    def generate_batch(
        self,
        prompts: Sequence[str],
        params: BatchParams = None,
    ) -> list[str]:
        """Produce one completion per prompt (set-at-a-time entry point).

        ``params`` is either one :class:`GenerationParams` shared by every
        prompt, a per-prompt sequence of the same length as ``prompts``, or
        ``None`` (backend defaults).  The base implementation loops over
        :meth:`generate`; vectorized backends override it but must stay
        completion-for-completion identical to the loop, which is what keeps
        batched annotation bit-identical to the sequential path.
        """
        return [
            self.generate(prompt, prompt_params)
            for prompt, prompt_params in zip(prompts, broadcast_params(prompts, params))
        ]

    def clone_for_worker(self) -> "LanguageModel":
        """A model handle safe to call from one worker thread of a fan-out.

        The concurrent executor calls this once per worker before dispatching
        prompt chunks in parallel.  The base implementation returns ``self``,
        which is correct for backends whose :meth:`generate` is a pure
        function of ``(prompt, params)`` with no mutable inference-time state
        — true of every bundled backend (:class:`repro.llm.simulated.
        SimulatedLLM` builds a fresh RNG per call, and its only state is a
        memo of pure per-label-set and per-value scores; :class:`repro.llm.finetune.
        FineTunedLLM` only reads its prototypes after ``fit``).  A backend
        wrapping a stateful resource (an HTTP session, a local inference
        context) must override this to return an independent copy.
        """
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} ctx={self.context_window}>"
