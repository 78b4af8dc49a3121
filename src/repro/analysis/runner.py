"""Trial runner: one execution, many executions, aggregated statistics.

The paper's complexity measure is *rounds until the problem is solved*,
with high probability over the algorithm's coins. The runner mirrors
that: a :func:`run_broadcast_trial` executes one algorithm/adversary/
problem triple to completion (or a round cap) and
:func:`run_broadcast_trials` repeats it over independent seeds,
reporting the distribution (mean/median/percentiles) plus the success
rate under the cap.

Scenario factories (:class:`Scenario`) package the whole triple so
sweeps can rebuild fresh state per trial — adversaries and processes
are stateful and must never be reused across executions.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # executors live above this layer; type-only import
    from repro.api.executor import TrialExecutor

from repro.adversaries.base import LinkProcess
from repro.algorithms.base import AlgorithmSpec
from repro.core.engine import ExecutionResult, create_engine
from repro.core.rng import derive_seed
from repro.graphs.dual_graph import DualGraph
from repro.problems.base import Problem

__all__ = [
    "PreparedTrial",
    "Scenario",
    "TrialResult",
    "TrialStats",
    "run_broadcast_trial",
    "run_prepared_trial",
    "probe_engine_fallbacks",
    "run_bank_trials",
    "run_broadcast_trials",
]


@dataclass
class PreparedTrial:
    """Everything one execution needs, freshly constructed.

    ``engine`` selects the round-loop implementation
    (:data:`repro.core.engine.ENGINE_NAMES`): ``"reference"`` or the
    seed-for-seed identical ``"bank"`` engine, which is additionally
    batched *across trials* when a whole seed bank reaches
    :func:`run_bank_trials` (``"bitset"`` is a deprecated alias for
    ``"bank"``).

    ``mac`` (optional) is the trial's abstract MAC layer
    (:class:`repro.mac.base.AbstractMACLayer`). Engine-mode layers are
    already compiled into the algorithm's processes and change nothing
    here; an *oracle*-mode layer replaces the round loop entirely —
    :func:`run_prepared_trial` routes such trials to the event-driven
    simulation in :mod:`repro.mac.oracle`.

    ``skip`` controls event-driven round skipping (``None`` = the
    resolved engine's default: on for ``bank``, off for
    ``reference``); like the engine choice it cannot change results.
    ``label`` names the scenario in engine-fallback warnings.
    """

    network: DualGraph
    algorithm: AlgorithmSpec
    link_process: LinkProcess
    problem: Problem
    max_rounds: int
    validate_topologies: bool = False
    engine: str = "reference"
    mac: object = None
    skip: Optional[bool] = None
    label: Optional[str] = None


#: A scenario builds a fresh :class:`PreparedTrial` from a trial seed.
Scenario = Callable[[int], PreparedTrial]


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one execution."""

    solved: bool
    rounds: int
    seed: int

    def rounds_to_solve(self) -> int:
        if not self.solved:
            raise ValueError(f"trial (seed={self.seed}) did not solve within the cap")
        return self.rounds


@dataclass
class TrialStats:
    """Aggregate over independent trials of one scenario."""

    results: list[TrialResult] = field(default_factory=list)

    def add(self, result: TrialResult) -> None:
        self.results.append(result)

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def successes(self) -> int:
        return sum(1 for r in self.results if r.solved)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def solved_rounds(self) -> list[int]:
        """Round counts of successful trials (unsolved trials excluded)."""
        return [r.rounds for r in self.results if r.solved]

    def _all_rounds_censored(self) -> list[int]:
        """Round counts with unsolved trials censored at their cap."""
        return [r.rounds for r in self.results]

    @property
    def mean_rounds(self) -> float:
        """Mean rounds, censored at the cap for unsolved trials.

        Censoring biases the estimate *downward*, which is conservative
        for lower-bound experiments (measured growth only understates
        the true cost).
        """
        rounds = self._all_rounds_censored()
        return statistics.fmean(rounds) if rounds else math.nan

    @property
    def median_rounds(self) -> float:
        rounds = self._all_rounds_censored()
        return float(statistics.median(rounds)) if rounds else math.nan

    def percentile_rounds(self, q: float) -> float:
        """Inclusive percentile ``q ∈ [0, 100]`` of (censored) rounds."""
        rounds = sorted(self._all_rounds_censored())
        if not rounds:
            return math.nan
        if len(rounds) == 1:
            return float(rounds[0])
        position = (q / 100.0) * (len(rounds) - 1)
        low = math.floor(position)
        high = math.ceil(position)
        if low == high:
            return float(rounds[low])
        weight = position - low
        return rounds[low] * (1.0 - weight) + rounds[high] * weight

    @property
    def stdev_rounds(self) -> float:
        rounds = self._all_rounds_censored()
        return statistics.pstdev(rounds) if len(rounds) > 1 else 0.0

    def summary_row(self) -> dict:
        """Dict row for the table renderers."""
        return {
            "trials": self.trials,
            "success": f"{self.success_rate:.0%}",
            "median": self.median_rounds,
            "mean": round(self.mean_rounds, 1),
            "p90": round(self.percentile_rounds(90.0), 1),
        }

    def to_record(self) -> dict:
        """JSON-safe, seed-determined aggregate of the whole batch.

        The spec-run analogue of
        :meth:`~repro.experiments.registry.ExperimentResult.to_record`:
        a pure function of ``(scenario, master_seed, trials)`` with no
        timings or host details, so the serve layer can checkpoint it
        and assert byte-identity between a service run and a direct
        :class:`~repro.api.executor.TrialExecutor` run. Per-trial
        outcomes are included — they are the ground truth the summary
        statistics derive from.
        """
        return {
            "trials": self.trials,
            "successes": self.successes,
            "median_rounds": self.median_rounds,
            "mean_rounds": self.mean_rounds,
            "p90_rounds": self.percentile_rounds(90.0),
            "results": [
                {"seed": r.seed, "rounds": r.rounds, "solved": r.solved}
                for r in self.results
            ],
        }


def run_prepared_trial(
    trial: PreparedTrial, seed: int, *, observer=None, warn_fallback: bool = True
) -> TrialResult:
    """Execute one prepared trial to completion or its round cap.

    ``observer`` (optional) substitutes a caller-held problem observer
    for the freshly made one, so callers that need per-problem detail
    beyond the :class:`TrialResult` (e.g. per-message completion
    rounds) can read it off after the run instead of duplicating the
    engine-invocation sequence. Ignored on the oracle path, which has
    no engine rounds to observe.

    ``warn_fallback=False`` suppresses :class:`EngineFallbackWarning`
    emission — executors pass it for every trial after the first so a
    degraded scenario warns once per batch, not once per trial.
    """
    mac = trial.mac
    if mac is not None and getattr(mac, "mode", "engine") == "oracle":
        # Oracle-mode MAC layers skip the radio engine: delays are
        # sampled straight from the guarantee envelopes.
        from repro.mac.oracle import run_oracle_trial

        return run_oracle_trial(trial, seed)
    network = trial.network
    processes = trial.algorithm.build_processes(
        network.n, network.max_degree, seed=seed
    )
    if observer is None:
        observer = trial.problem.make_observer()
    engine = create_engine(
        network,
        processes,
        trial.link_process,
        engine=trial.engine,
        seed=seed,
        algorithm_info=trial.algorithm.info(),
        validate_topologies=trial.validate_topologies,
        observers=[observer],
        skip=trial.skip,
        label=trial.label,
        warn=warn_fallback,
    )
    result: ExecutionResult = engine.run(
        max_rounds=trial.max_rounds, stop=lambda: observer.solved
    )
    return TrialResult(solved=result.solved, rounds=result.rounds, seed=seed)


def probe_engine_fallbacks(trial: PreparedTrial, seed: int) -> list[str]:
    """The :class:`EngineFallbackWarning` notes this trial would emit.

    Builds the trial's processes (cheap relative to a run) and resolves
    the engine + skip choice exactly as :func:`run_prepared_trial`
    will, *without* emitting anything — executors call this once per
    scenario, warn once through
    :func:`~repro.core.engine.warn_engine_fallbacks` with the scenario
    label, and then run every trial with ``warn_fallback=False``.
    Oracle-mode MAC trials have no engine and therefore no fallbacks.
    """
    mac = trial.mac
    if mac is not None and getattr(mac, "mode", "engine") == "oracle":
        return []
    from repro.core.engine import resolve_engine_choice

    processes = trial.algorithm.build_processes(
        trial.network.n, trial.network.max_degree, seed=seed
    )
    _, _, notes = resolve_engine_choice(
        trial.engine, processes, trial.link_process, skip=trial.skip
    )
    return notes


def run_bank_trials(
    scenario: Scenario,
    seeds: Sequence[int],
    *,
    first: Optional[PreparedTrial] = None,
    warn_fallback: bool = True,
) -> list[TrialResult]:
    """Run a whole seed bank of one scenario through the bank engine.

    This is the cross-trial entry point ``engine="bank"`` exists for:
    every seed's trial becomes one lane of a shared struct-of-arrays
    kernel, and :func:`repro.core.bankpath.run_bank_batch` advances all
    lanes in lockstep rounds with batched coins and (where topologies
    coincide) batched reception. Results are identical to running each
    seed through :func:`run_prepared_trial` — only the batching axis
    changes.

    ``first`` optionally passes a pre-built (and still unused) trial
    for ``seeds[0]`` so executors that peeked at the scenario don't pay
    the build twice. Trials the batch cannot serve — oracle-mode MAC
    layers, adaptive adversaries (which fall back to the reference
    engine per trial, with the usual warning), or banks whose trials
    disagree on the node count — take the per-trial path instead.
    Heterogeneous ``max_rounds`` is fine: each lane carries its own cap
    and retires from the lockstep batch when it reaches it.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    trials = [
        first if index == 0 and first is not None else scenario(seed)
        for index, seed in enumerate(seeds)
    ]

    def _per_trial() -> list[TrialResult]:
        # The first trial carries the (once-per-batch) fallback warning.
        return [
            run_prepared_trial(t, s, warn_fallback=warn_fallback and i == 0)
            for i, (t, s) in enumerate(zip(trials, seeds))
        ]

    lead = trials[0]
    mac = lead.mac
    if mac is not None and getattr(mac, "mode", "engine") == "oracle":
        return _per_trial()
    from repro.adversaries.base import AdversaryClass

    if lead.link_process.adversary_class is not AdversaryClass.OBLIVIOUS:
        return _per_trial()
    if any(t.network.n != lead.network.n for t in trials):
        return _per_trial()

    from repro.core.bankpath import (
        BankLane,
        BankRadioNetworkEngine,
        build_bank_kernel,
        run_bank_batch,
    )

    banks = [
        trial.algorithm.build_processes(
            trial.network.n, trial.network.max_degree, seed=seed
        )
        for trial, seed in zip(trials, seeds)
    ]
    # Lanes bypass create_engine, so resolve the skip flag (and emit
    # any contract-gap warning, once for the whole bank) here.
    from repro.core.engine import resolve_engine_choice, warn_engine_fallbacks

    _, resolved_skip, notes = resolve_engine_choice(
        "bank", banks[0], lead.link_process, skip=lead.skip
    )
    if warn_fallback:
        warn_engine_fallbacks(notes, lead.label, stacklevel=2)
    kernel = build_bank_kernel(banks)
    lanes = []
    for lane_index, (trial, seed) in enumerate(zip(trials, seeds)):
        observer = trial.problem.make_observer()
        engine = BankRadioNetworkEngine(
            trial.network,
            banks[lane_index],
            trial.link_process,
            seed=seed,
            algorithm_info=trial.algorithm.info(),
            validate_topologies=trial.validate_topologies,
            observers=[observer],
            kernel=kernel,
            lane=lane_index,
            skip=resolved_skip,
        )
        lanes.append(
            BankLane(
                engine=engine,
                stop=(lambda obs=observer: obs.solved),
                max_rounds=trial.max_rounds,
            )
        )
    results = run_bank_batch(
        lanes, max_rounds=max(t.max_rounds for t in trials)
    )
    return [
        TrialResult(solved=res.solved, rounds=res.rounds, seed=seed)
        for res, seed in zip(results, seeds)
    ]


def run_broadcast_trial(
    *,
    network: DualGraph,
    algorithm: AlgorithmSpec,
    link_process: LinkProcess,
    problem: Optional[Problem] = None,
    seed: int,
    max_rounds: Optional[int] = None,
    validate_topologies: bool = False,
    engine: str = "reference",
    skip: Optional[bool] = None,
) -> TrialResult:
    """Convenience single-trial entry point (used by examples/tests).

    When ``problem`` is omitted it is inferred from the algorithm's
    metadata (``problem`` + ``source``/``broadcasters`` keys every
    factory in :mod:`repro.algorithms` fills in).
    """
    if problem is None:
        problem = infer_problem(network, algorithm)
    cap = max_rounds if max_rounds is not None else default_round_cap(network.n)
    trial = PreparedTrial(
        network=network,
        algorithm=algorithm,
        link_process=link_process,
        problem=problem,
        max_rounds=cap,
        validate_topologies=validate_topologies,
        engine=engine,
        skip=skip,
    )
    return run_prepared_trial(trial, seed)


def run_broadcast_trials(
    scenario: Scenario,
    *,
    trials: int,
    master_seed: int,
    label: object = "trial",
    executor: Optional["TrialExecutor"] = None,
) -> TrialStats:
    """Run ``trials`` independent executions of a scenario.

    Per-trial seeds derive from ``(master_seed, label, index)``, so the
    batch is reproducible from one seed and independent of *where* the
    trials run: pass an ``executor`` (see :mod:`repro.api.executor`) to
    fan the batch out — e.g. ``ParallelExecutor()`` across cores for a
    picklable scenario such as a :class:`~repro.api.spec.ScenarioSpec` —
    with results identical to the default in-process loop.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    seeds = [derive_seed(master_seed, label, index) for index in range(trials)]
    if executor is None:
        # Lazy import: the executors layer sits above this module.
        from repro.api.executor import SerialExecutor

        executor = SerialExecutor()
    stats = TrialStats()
    for result in executor.run_trials(scenario, seeds):
        stats.add(result)
    return stats


def default_round_cap(n: int) -> int:
    """A generous default cap: the paper's footnote-5 ``n²`` fallback,
    floored for small graphs."""
    return max(4 * n * n, 4096)


def infer_problem(network: DualGraph, algorithm: AlgorithmSpec) -> Problem:
    """Build the problem instance an algorithm's metadata declares."""
    from repro.problems.global_broadcast import GlobalBroadcastProblem
    from repro.problems.local_broadcast import LocalBroadcastProblem

    kind = algorithm.metadata.get("problem")
    if kind == "global-broadcast":
        return GlobalBroadcastProblem(network, int(algorithm.metadata["source"]))
    if kind == "local-broadcast":
        return LocalBroadcastProblem(
            network, frozenset(algorithm.metadata["broadcasters"])
        )
    raise ValueError(
        f"algorithm {algorithm.name!r} does not declare a problem; pass one explicitly"
    )
