"""Trial executors: where a batch of independent trials actually runs.

The runner hands an executor a scenario and the full list of derived
trial seeds; the executor returns one :class:`TrialResult` per seed *in
seed order*. Because every trial is a pure function of ``(scenario,
seed)``, the execution backend is interchangeable:

* :class:`SerialExecutor` — in-process loop; the default and the
  reference semantics.
* :class:`ParallelExecutor` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out across cores. Requires a *picklable* scenario — which is the
  point of :class:`~repro.api.spec.ScenarioSpec`: specs are plain data,
  while the legacy closure scenarios are not and raise a clear error.

Determinism: both executors produce identical results for identical
inputs — seeds fully determine trials and ``pool.map`` preserves input
order — so aggregated :class:`~repro.analysis.runner.TrialStats` are
bit-for-bit equal across backends.
"""

from __future__ import annotations

import abc
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence

from repro.analysis.runner import Scenario, TrialResult, run_prepared_trial
from repro.core.engine import canonical_engine, warn_engine_fallbacks
from repro.core.errors import SpecError

__all__ = ["TrialExecutor", "SerialExecutor", "ParallelExecutor"]


class TrialExecutor(abc.ABC):
    """Strategy for running a batch of independent trials."""

    @abc.abstractmethod
    def run_trials(self, scenario: Scenario, seeds: Sequence[int]) -> list[TrialResult]:
        """Run ``scenario(seed)`` for every seed, in order."""

    def shutdown(self, *, wait: bool = True) -> None:
        """Release any backend resources; a no-op for in-process backends."""

    def describe(self) -> str:
        return type(self).__name__


class SerialExecutor(TrialExecutor):
    """One process, one trial at a time — the reference backend.

    ``engine="bank"`` scenarios (and ``"bitset"`` ones, its deprecated
    alias) are the one structured deviation from the literal loop: the whole seed batch is handed to
    :func:`~repro.analysis.runner.run_bank_trials`, which runs it as
    lockstep lanes of one struct-of-arrays kernel — lanes may carry
    different round caps, retiring individually as they hit them.
    Results are seed-for-seed identical to the plain loop — the batch
    only changes where the numpy work happens.

    A scenario that degrades (adaptive adversary forcing the reference
    engine, or a component without the skip contract) warns exactly
    once per ``run_trials`` batch — the first trial carries the
    :class:`~repro.core.errors.EngineFallbackWarning`, every later
    trial runs silenced. ``warn_fallback=False`` silences the batch
    entirely (the parallel executor's workers use this; the parent has
    already warned).
    """

    #: Class-level default so subclasses that override ``__init__``
    #: without chaining up still get first-trial warning semantics.
    warn_fallback = True

    def __init__(self, *, warn_fallback: bool = True) -> None:
        self.warn_fallback = warn_fallback

    def run_trials(self, scenario: Scenario, seeds: Sequence[int]) -> list[TrialResult]:
        seeds = list(seeds)
        if not seeds:
            return []
        first = scenario(seeds[0])
        if canonical_engine(getattr(first, "engine", "reference")) == "bank":
            from repro.analysis.runner import run_bank_trials

            return run_bank_trials(
                scenario, seeds, first=first, warn_fallback=self.warn_fallback
            )
        results = [
            run_prepared_trial(first, seeds[0], warn_fallback=self.warn_fallback)
        ]
        results.extend(
            run_prepared_trial(scenario(seed), seed, warn_fallback=False)
            for seed in seeds[1:]
        )
        return results


def _run_chunk(item: tuple[Scenario, Sequence[int]]) -> list[TrialResult]:
    """Worker entry point: run one seed chunk (module-level for pickle).

    Chunks delegate to :class:`SerialExecutor`, so workers bank-batch
    their chunk when the scenario selects ``engine="bank"`` and results
    stay identical to a fully serial run by construction. Fallback
    warnings are silenced — the parent process probed the scenario and
    warned once before fanning out.
    """
    scenario, chunk = item
    return SerialExecutor(warn_fallback=False).run_trials(scenario, chunk)


class ParallelExecutor(TrialExecutor):
    """Fan trials out across worker processes.

    The worker pool is created lazily on first use and *reused* across
    ``run_trials`` calls — a sweep calls the executor once per point,
    and respawning workers each time (expensive under the spawn start
    method) would dominate small batches. The pool is released by
    :meth:`shutdown`, by using the executor as a context manager, or
    with the executor object itself.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    chunksize:
        Trials per task handed to a worker; defaults to spreading the
        batch ~4 tasks per worker (amortizes IPC without starving the
        pool on heavy-tailed trial times). Each chunk runs through a
        worker-side :class:`SerialExecutor`, so ``engine="bank"``
        scenarios bank-batch per chunk.
    """

    def __init__(self, max_workers: Optional[int] = None, *, chunksize: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be positive, got {chunksize}")
        self.max_workers = max_workers
        self.chunksize = chunksize
        self._pool: Optional[ProcessPoolExecutor] = None

    def _resolve_chunksize(self, batch: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, batch // (workers * 4))

    def run_trials(self, scenario: Scenario, seeds: Sequence[int]) -> list[TrialResult]:
        seeds = list(seeds)
        if not seeds:
            return []
        try:
            pickle.dumps(scenario)
        except Exception as exc:
            raise SpecError(
                "ParallelExecutor needs a picklable scenario; closure-based "
                "scenarios are not — describe the trial as a "
                "repro.api.ScenarioSpec instead"
            ) from exc
        # Probe the scenario's engine resolution once in the parent and
        # warn here; workers run fully silenced, so a degraded scenario
        # yields exactly one EngineFallbackWarning per batch regardless
        # of how many chunks or processes it fans out to.
        from repro.analysis.runner import probe_engine_fallbacks

        first = scenario(seeds[0])
        warn_engine_fallbacks(
            probe_engine_fallbacks(first, seeds[0]), first.label, stacklevel=2
        )
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        size = self._resolve_chunksize(len(seeds))
        chunks = [seeds[start : start + size] for start in range(0, len(seeds), size)]
        try:
            return [
                result
                for chunk_results in self._pool.map(
                    _run_chunk, [(scenario, chunk) for chunk in chunks]
                )
                for result in chunk_results
            ]
        except Exception:
            # A broken pool (crashed worker) cannot be reused; drop it
            # so the next call starts fresh, and surface the error.
            self.shutdown(wait=False)
            raise

    def shutdown(self, *, wait: bool = True) -> None:
        """Release the worker pool (idempotent).

        Safe on a half-constructed instance (``__init__`` validation
        raised before ``_pool`` existed) — ``__del__`` routes here.
        """
        pool = getattr(self, "_pool", None)
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self) -> None:  # best-effort; shutdown() is the real API
        import sys

        if sys.is_finalizing():  # pragma: no cover - teardown race
            # concurrent.futures' own atexit hooks already reap the
            # workers; touching the pool now hits closed descriptors.
            return
        self.shutdown(wait=False)

    def describe(self) -> str:
        workers = self.max_workers or os.cpu_count() or 1
        return f"ParallelExecutor(workers={workers})"
