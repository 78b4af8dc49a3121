"""The synchronous round engine for the dual graph radio model.

Implements the execution semantics of Section 2: executions proceed in
synchronous rounds; in each round every node either transmits or
listens; the communication topology is ``G`` plus the flaky edges the
link process selected for the round; and node ``u`` receives message
``m`` from ``v`` iff (1) ``u`` is receiving, (2) ``v`` transmits ``m``,
and (3) ``v`` is the *only* transmitter among ``u``'s neighbors in the
round's topology. Concurrent neighboring transmissions collide and are
indistinguishable from silence (no collision detection).

Round pipeline (see :mod:`repro.core.process` for why plans are
declarative)::

    1. plans[u]   = process_u.plan(r)                (deterministic in state)
    2. coins      = vectorized Bernoulli(plans.probability)
    3. topology   = link_process.choose_topology(view_for_class(r))
    4. deliveries = { u listens, popcount(X & mask_u) == 1 }
    5. process_u.on_feedback(r, sent, received)
    6. observers.on_round(record);  stop check

The engine exposes both :meth:`RadioNetworkEngine.run` (run to a stop
condition) and :meth:`RadioNetworkEngine.step` (single round), the
latter because the lower-bound reduction players of Theorems 3.1/4.3
interleave game guesses between simulated rounds.

:class:`RadioNetworkEngine` is the **reference** implementation — the
straight-line per-node loop that everything else is audited against.
The one fast engine, the seed-for-seed identical trial-batched
``bank`` engine, lives in :mod:`repro.core.bankpath` and reuses the
per-node plan and feedback stages below for algorithms without a
vectorized kernel. Select between them with :func:`create_engine` (or
the ``engine=`` field on :class:`~repro.api.spec.ScenarioSpec` and the
CLI's ``--engine``); ``"bitset"`` is a deprecated alias for ``"bank"``.
"""

from __future__ import annotations

import math
import random
import warnings
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Optional, Sequence

import numpy as np

from repro.adversaries.base import (
    AdversaryClass,
    AlgorithmInfo,
    HistoryEntry,
    LinkProcess,
    ObliviousView,
    OfflineAdaptiveView,
    OnlineAdaptiveView,
    RoundTopology,
)
from repro.core import rng as rng_mod
from repro.core.errors import EngineError, EngineFallbackWarning, PlanError
from repro.obs.recorder import inc as _obs_inc
from repro.obs.recorder import recorder as _obs_recorder
from repro.core.process import Process, RoundPlan
from repro.core.trace import Delivery, Observer, RoundRecord

__all__ = [
    "RadioNetworkEngine",
    "ExecutionResult",
    "StopCondition",
    "ENGINE_NAMES",
    "create_engine",
    "resolve_engine_choice",
    "canonical_engine",
    "warn_engine_fallbacks",
]

#: Engine names accepted by ``create_engine`` /
#: ``ScenarioSpec(engine=...)`` / ``repro ... --engine``. ``"bitset"``
#: stays valid for stored specs and campaigns but selects the bank
#: engine (see :func:`canonical_engine`).
ENGINE_NAMES = ("reference", "bitset", "bank")

#: Predicate deciding, after each round, whether the execution is done.
StopCondition = Callable[[], bool]

#: Cap on retained public history entries handed to adaptive views.
_HISTORY_WINDOW = 4096

#: Longest stretch of rounds a failed skip attempt backs off for. The
#: reference engine's skip probe polls every process, so attempting it
#: each round of a busy stretch would double the plan work; doubling
#: the retry gap caps that overhead at a constant factor while keeping
#: the probe responsive once the network goes quiet.
_SKIP_BACKOFF_MAX = 64


class _HistoryWindow(_SequenceABC):
    """O(1) frozen-length window over the engine's append-only history.

    Adaptive views used to receive ``tuple(history)`` — an O(window)
    copy every round, which dominated long executions. A window instead
    shares the engine's history list and pins the absolute entry range
    ``[start, stop)`` visible at view-construction time, so snapshot
    semantics are preserved (a view retained across rounds never grows)
    at O(1) construction cost. Entries themselves are immutable.

    The engine trims history beyond its retention window; accessing an
    entry that has since been trimmed raises :class:`LookupError` (such
    an access exceeds the entitlement the view modeled anyway).
    """

    __slots__ = ("_entries", "_trimmed", "_start", "_stop")

    def __init__(self, entries: list, trimmed: list, start: int, stop: int) -> None:
        self._entries = entries
        self._trimmed = trimmed  # shared one-cell trim counter
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(
                self[i] for i in range(*index.indices(len(self)))
            )
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"history index {index} outside window of {length}")
        position = self._start + index - self._trimmed[0]
        if position < 0:
            raise LookupError(
                "history entry has been trimmed out of the retention window"
            )
        return self._entries[position]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_HistoryWindow({len(self)} entries)"


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of an engine run.

    ``solved`` / ``solve_round`` are filled from the stop condition: if
    the run stopped because the condition fired, ``solve_round`` is the
    0-based round after which it first held. ``rounds`` counts executed
    rounds (equals ``solve_round + 1`` on success).

    A stop condition that already holds *before round 0* (a trivially
    solved instance, e.g. a broadcast set with no receivers) yields
    ``solved=True, rounds=0, solve_round=-1`` — the sentinel ``-1``
    means "solved at start, no round executed", keeping ``solve_round``
    unambiguous: ``None`` now always means *unsolved*.
    """

    rounds: int
    solved: bool
    solve_round: Optional[int]

    @property
    def solved_at_start(self) -> bool:
        """True iff the stop condition held before any round executed."""
        return self.solved and self.solve_round == -1

    def rounds_to_solve(self) -> int:
        """Rounds executed up to the solve; raises if unsolved (guards analysis code)."""
        if not self.solved:
            raise ValueError("execution did not solve the problem")
        return self.rounds


@dataclass
class _EngineStats:
    rounds_run: int = 0


class RadioNetworkEngine:
    """Drives one execution of an algorithm against a link process.

    Parameters
    ----------
    network:
        The dual graph topology.
    processes:
        One :class:`~repro.core.process.Process` per node, index-aligned
        with node ids.
    link_process:
        The adversary controlling flaky links.
    seed:
        Master seed; the transmission coins, and nothing else, are drawn
        from the engine's own child stream so that algorithm/adversary
        randomness never perturbs coin alignment between runs.
    algorithm_info:
        Description handed to the adversary's ``start`` (defaults to an
        anonymous entry).
    validate_topologies:
        When true (default), every round topology is checked against
        ``G ⊆ topology ⊆ G'``. Costs ~2x; experiment sweeps disable it
        after the adversary under test has unit coverage.
    observers:
        Initial observer list; more can be added with
        :meth:`add_observer`.
    skip:
        Enable event-driven round skipping in :meth:`run`: spans of
        provably inert rounds (all plans silent and stable, no
        adversary boundary, no reactive feedback) are fast-forwarded
        while the coin stream is advanced in lockstep, so the trace —
        records, history, RNG positions — stays bit-identical to a
        non-skipping run. Off by default here; :func:`create_engine`
        turns it on for the bank engine.
    """

    #: Name this implementation reports in trace records (one of
    #: :data:`ENGINE_NAMES`; subclasses override).
    engine_name = "reference"

    def __init__(
        self,
        network,
        processes: Sequence[Process],
        link_process: LinkProcess,
        *,
        seed: int,
        algorithm_info: Optional[AlgorithmInfo] = None,
        validate_topologies: bool = True,
        observers: Sequence[Observer] = (),
        skip: bool = False,
    ) -> None:
        if len(processes) != network.n:
            raise PlanError(
                f"need exactly one process per node: n={network.n}, got {len(processes)}"
            )
        self.network = network
        self.processes = list(processes)
        self.link_process = link_process
        self.seed = seed
        self.validate_topologies = validate_topologies
        self.skip = bool(skip)
        self.observers: list[Observer] = list(observers)
        self.algorithm_info = algorithm_info or AlgorithmInfo(name="anonymous", metadata={})

        self._coin_rng = rng_mod.spawn_numpy_rng(seed, "engine", "coins")
        self._adversary_rng = rng_mod.spawn_rng(seed, "engine", "adversary")
        self._history: list[HistoryEntry] = []
        self._history_trimmed = [0]  # shared with views handed out per round
        self._round = 0
        self._started = False
        self._stats = _EngineStats()
        # Tracing state: ``_trace`` holds the active recorder for the
        # duration of one :meth:`run` (``None`` otherwise, so every
        # instrumented site is a single pointer comparison when tracing
        # is off). Phase nanoseconds and semantic counters accumulate
        # locally and flush as one trial record at the end of the run.
        self._trace = None
        self._phase_ns: dict[str, int] = {}
        self._trace_counts: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """Index of the *next* round to execute."""
        return self._round

    def add_observer(self, observer: Observer) -> None:
        """Attach an observer; it sees all rounds executed after this call."""
        self.observers.append(observer)

    def _ensure_started(self) -> None:
        if self._started:
            return
        self.link_process.start(self.network, self.algorithm_info, self._adversary_rng)
        for process in self.processes:
            process.begin()
        self._started = True

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def step(self) -> RoundRecord:
        """Execute exactly one round and return its record."""
        self._ensure_started()
        r = self._round
        n = self.network.n
        # Phase spans are timed only while a recorder is active for the
        # surrounding run(); the disabled cost per phase is the pointer
        # comparison on ``ph``.
        ph = self._phase_ns if self._trace is not None else None
        if ph is not None:
            t0 = perf_counter_ns()

        # 1. Deterministic plans.
        plans, probabilities, expected = self._plan_stage(r)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["plan"] += t1 - t0
            t0 = t1

        # 2. Vectorized Bernoulli coins (shared with the bank engine).
        _, transmitter_mask = rng_mod.transmission_coins(
            self._coin_rng, np.asarray(probabilities, dtype=np.float64)
        )
        if ph is not None:
            t1 = perf_counter_ns()
            ph["coins"] += t1 - t0
            t0 = t1

        # 3. Adversary fixes the round topology through its typed view.
        view = self._build_view(r, probabilities, transmitter_mask)
        topology = self.link_process.choose_topology(view)
        if self.validate_topologies:
            topology.validate(self.network)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["adversary"] += t1 - t0
            t0 = t1

        # 4. Radio reception: exactly-one-transmitting-neighbor rule.
        deliveries = self._resolve_receptions(plans, transmitter_mask, topology)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["reception"] += t1 - t0
            t0 = t1

        # 5. Feedback to processes.
        self._feedback_stage(r, transmitter_mask, deliveries)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["feedback"] += t1 - t0
            t0 = t1

        # 6. Record keeping.
        record = self._record_stage(r, transmitter_mask, deliveries, expected)
        if ph is not None:
            ph["observers"] += perf_counter_ns() - t0
            counts = self._trace_counts
            counts["rounds.executed"] = counts.get("rounds.executed", 0) + 1
        return record

    # The per-node stages, shared with the bank engine
    # (:mod:`repro.core.bankpath`): its kernel-less lanes run the same
    # plan and feedback code, and every lane the same record keeping.
    def _plan_stage(self, r: int) -> tuple[list[RoundPlan], list[float], float]:
        """Stage 1: every node's plan, its probability, and their sum.

        The sum is ``math.fsum``, which is exactly rounded and hence
        order-independent: a kernel that finds the same probability
        multiset another way records bit-identical values.
        """
        plans = [process.plan(r) for process in self.processes]
        probabilities = [plan.probability for plan in plans]
        return plans, probabilities, math.fsum(probabilities)

    def _feedback_stage(
        self, r: int, transmitter_mask: int, deliveries: Sequence[Delivery]
    ) -> None:
        """Stage 5: one ``on_feedback`` call per node."""
        received_by: dict[int, Delivery] = {d.receiver: d for d in deliveries}
        for u, process in enumerate(self.processes):
            sent = bool((transmitter_mask >> u) & 1)
            delivery = received_by.get(u)
            process.on_feedback(r, sent, delivery.message if delivery else None)

    def _record_stage(
        self,
        r: int,
        transmitter_mask: int,
        deliveries: Sequence[Delivery],
        expected: float,
    ) -> RoundRecord:
        """Stage 6: the round's record, its history entry, observers."""
        record = RoundRecord(
            round_index=r,
            transmitter_mask=transmitter_mask,
            deliveries=tuple(deliveries),
            expected_transmitters=expected,
        )
        self._append_history(record)
        for observer in self.observers:
            observer.on_round(record)
        self._round += 1
        self._stats.rounds_run += 1
        return record

    def _history_snapshot(self) -> _HistoryWindow:
        """The retained history as an O(1) frozen-length window."""
        start = self._history_trimmed[0]
        return _HistoryWindow(
            self._history, self._history_trimmed, start, start + len(self._history)
        )

    def _build_view(
        self, r: int, probabilities: Sequence[float], transmitter_mask: int
    ) -> ObliviousView:
        klass = self.link_process.adversary_class
        if klass is AdversaryClass.OBLIVIOUS:
            return ObliviousView(round_index=r)
        if klass is AdversaryClass.ONLINE_ADAPTIVE:
            return OnlineAdaptiveView(
                round_index=r,
                transmit_probabilities=tuple(probabilities),
                history=self._history_snapshot(),
            )
        return OfflineAdaptiveView(
            round_index=r,
            transmit_probabilities=tuple(probabilities),
            history=self._history_snapshot(),
            transmitter_mask=transmitter_mask,
        )

    def _resolve_receptions(
        self,
        plans: Sequence[RoundPlan],
        transmitter_mask: int,
        topology: RoundTopology,
    ) -> list[Delivery]:
        deliveries: list[Delivery] = []
        if not transmitter_mask:
            return deliveries
        masks = topology.masks
        listener_mask = ((1 << self.network.n) - 1) & ~transmitter_mask
        mask = listener_mask
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            mask ^= low
            neighbors_transmitting = transmitter_mask & masks[u]
            if neighbors_transmitting and not (
                neighbors_transmitting & (neighbors_transmitting - 1)
            ):
                sender = neighbors_transmitting.bit_length() - 1
                message = plans[sender].message
                if message is None:  # pragma: no cover - PlanError guards this
                    raise PlanError(f"transmitter {sender} has no message")
                deliveries.append(Delivery(receiver=u, sender=sender, message=message))
        return deliveries

    def _append_history(self, record: RoundRecord) -> None:
        self._history.append(
            HistoryEntry(
                round_index=record.round_index,
                transmitter_mask=record.transmitter_mask,
                delivery_count=len(record.deliveries),
            )
        )
        if len(self._history) > _HISTORY_WINDOW:
            trim = len(self._history) - _HISTORY_WINDOW
            del self._history[:trim]
            self._history_trimmed[0] += trim

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, *, max_rounds: int, stop: Optional[StopCondition] = None) -> ExecutionResult:
        """Execute rounds until ``stop()`` fires or ``max_rounds`` elapse.

        The stop condition is evaluated once before round 0 (a problem
        can be trivially solved at start — e.g. a broadcast set whose
        receivers are empty) and after every round.
        """
        if max_rounds < 0:
            raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
        rec = _obs_recorder()
        if rec is None:
            return self._run_impl(max_rounds, stop)
        self._trace_begin(rec)
        try:
            result = self._run_impl(max_rounds, stop)
        finally:
            self._trace = None
        self._trace_end(rec, result)
        return result

    def _run_impl(
        self, max_rounds: int, stop: Optional[StopCondition]
    ) -> ExecutionResult:
        """The run loop (reference implementation).

        Rounds execute through the ordinary :meth:`step`. With ``skip``
        on, after each *all-silent* round (``expected == 0.0`` — exact,
        since fsum of non-negative terms is zero iff every term is) the
        engine fast-forwards to the quiet horizon. The span's elisions
        are licensed contract by contract: per-node ``on_feedback``
        calls by :meth:`_skip_ok` (checked across all classes up
        front), ``plan`` calls by ``next_state_change``, and
        ``choose_topology`` calls by ``next_boundary`` — round ``r``
        itself always ran normally, so stateful adversaries stay in
        sync. With ``skip`` off the loop never probes.
        """
        self._ensure_started()
        if stop is not None and stop():
            return ExecutionResult(rounds=0, solved=True, solve_round=-1)
        skip_ok = self.skip and self._skip_ok()
        executed = 0
        backoff = 1
        next_attempt = self._round
        while executed < max_rounds:
            record = self.step()
            executed += 1
            if stop is not None and stop():
                return ExecutionResult(
                    rounds=executed, solved=True, solve_round=record.round_index
                )
            if executed >= max_rounds:
                break
            if not (
                skip_ok
                and record.transmitter_mask == 0
                and record.expected_transmitters == 0.0
                and self._round >= next_attempt
            ):
                continue
            ph = self._phase_ns if self._trace is not None else None
            if ph is not None:
                ts = perf_counter_ns()
            start = self._round
            h = self._quiet_horizon(record.round_index, start + (max_rounds - executed))
            if h <= start:
                if ph is not None:
                    ph["skip"] += perf_counter_ns() - ts
                next_attempt = start + backoff
                backoff = min(backoff * 2, _SKIP_BACKOFF_MAX)
                continue
            backoff = 1
            if ph is not None:
                counts = self._trace_counts
                counts["skip.spans"] = counts.get("skip.spans", 0) + 1
                self._trace.observe("skip.span_rounds", h - start)
            try:
                for i in range(start, h):
                    quiet = self._emit_quiet_round(i)
                    executed += 1
                    if stop is not None and stop():
                        return ExecutionResult(
                            rounds=executed, solved=True, solve_round=quiet.round_index
                        )
            finally:
                if ph is not None:
                    ph["skip"] += perf_counter_ns() - ts
        return ExecutionResult(rounds=executed, solved=False, solve_round=None)

    # ------------------------------------------------------------------
    # Tracing (see repro.obs: timing only, never semantics)
    # ------------------------------------------------------------------
    def _trace_begin(self, rec) -> None:
        """Arm per-phase timing for one :meth:`run`."""
        self._trace = rec
        self._phase_ns = {
            "plan": 0,
            "coins": 0,
            "adversary": 0,
            "reception": 0,
            "feedback": 0,
            "observers": 0,
            "skip": 0,
        }
        self._trace_counts = {}

    def _trace_end(self, rec, result: ExecutionResult) -> None:
        """Flush the accumulated phases/counters as one trial record.

        Phase nanoseconds are also folded into the recorder's counters
        under ``phase.<name>``, so consumers that only see the counter
        surface (shard rollups, serve workers diffing
        :meth:`~repro.obs.recorder.Recorder.checkpoint`) still get the
        per-phase breakdown without parsing the JSONL stream.
        """
        counts = self._trace_counts
        if counts:
            rec.merge_counters(counts)
        rec.merge_counters(
            {f"phase.{name}": ns for name, ns in self._phase_ns.items() if ns}
        )
        rec.emit(
            {
                "kind": "trial",
                "engine": self.engine_name,
                "seed": self.seed,
                "n": self.network.n,
                "rounds": result.rounds,
                "solved": result.solved,
                "phases": {k: v for k, v in self._phase_ns.items() if v},
                "counters": {k: v for k, v in counts.items() if v},
            }
        )

    # ------------------------------------------------------------------
    # Round skipping
    # ------------------------------------------------------------------
    def _emit_quiet_round(self, i: int) -> RoundRecord:
        """Materialize one skipped all-silent round.

        Exactly what a full execution of the round would have produced:
        the coin stream advances by the ``n`` uniforms the Bernoulli
        stage would have drawn (one :meth:`advance` per round on this
        per-round path, so a mid-span stop leaves the stream at
        precisely the position a non-skipping run would), and the
        record/history/observer plumbing runs unchanged. The bank
        scheduler's batched alternative is :meth:`_emit_quiet_span`.
        """
        self._coin_rng.bit_generator.advance(self.network.n)
        record = RoundRecord(
            round_index=i,
            transmitter_mask=0,
            deliveries=(),
            expected_transmitters=0.0,
        )
        self._append_history(record)
        for observer in self.observers:
            observer.on_round(record)
        self._round += 1
        self._stats.rounds_run += 1
        if self._trace is not None:
            counts = self._trace_counts
            counts["rounds.skipped"] = counts.get("rounds.skipped", 0) + 1
        return record

    def _emit_quiet_span(self, start: int, stop: int) -> None:
        """Emit all-silent rounds ``start .. stop-1`` as one batch.

        Observable-equivalent to calling :meth:`_emit_quiet_round` for
        each round of the span: the coin stream advances by exactly
        ``n · span`` uniforms (one :meth:`advance` call — the PCG64
        jump-ahead is O(log span), and the final stream position is
        identical), observers get one ``on_round_batch(start, stop)``
        instead of ``span`` materialized records, and the round/stat
        counters land on the same values. Callers must ensure every
        attached observer implements the batch hook (see
        :class:`~repro.core.trace.Observer`) and that no mid-span stop
        check is needed — batch-capable observers are span-invariant
        over all-silent rounds, so a stop condition that is false at
        ``start`` stays false through ``stop``. History entries are
        *not* appended: retained history feeds adaptive adversary
        views, and every caller of this path serves oblivious link
        processes only.
        """
        self._coin_rng.bit_generator.advance(self.network.n * (stop - start))
        for observer in self.observers:
            observer.on_round_batch(start, stop)
        self._round = stop
        self._stats.rounds_run += stop - start
        if self._trace is not None:
            counts = self._trace_counts
            counts["rounds.skipped"] = counts.get("rounds.skipped", 0) + (stop - start)
            counts["skip.spans"] = counts.get("skip.spans", 0) + 1
            self._trace.observe("skip.span_rounds", stop - start)

    def _skip_ok(self) -> bool:
        """Whether silent rounds may elide this engine's feedback calls.

        Licensed per process class by ``idle_feedback_noop``, or by not
        overriding ``on_feedback`` at all.
        """
        return all(
            type(p).idle_feedback_noop
            or type(p).on_feedback is Process.on_feedback
            for p in self.processes
        )

    def _quiet_horizon(self, r: int, limit: int) -> int:
        """First round in ``(r, limit]`` at which anything may change.

        Called right after an all-silent round ``r``: within
        ``[r + 1, horizon)`` every plan provably stays silent
        (:meth:`~repro.core.process.Process.next_state_change`) and the
        adversary's masks stay put
        (:meth:`~repro.adversaries.base.LinkProcess.next_boundary`), so
        those rounds can be emitted without executing them. Returns
        ``r + 1`` when nothing is skippable.
        """
        h = limit
        boundary = self.link_process.next_boundary(r)
        if boundary is not None and boundary < h:
            h = boundary
        if h <= r + 1:
            return r + 1
        for process in self.processes:
            nxt = process.next_state_change(r)
            if nxt is not None and nxt < h:
                h = nxt
                if h <= r + 1:
                    return r + 1
        return max(h, r + 1)


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def _skip_contract_gaps(
    processes: Sequence[Process], link_process: LinkProcess
) -> list[str]:
    """Component types lacking the skip contract (empty = all fine).

    A component "has the contract" when it *overrides* the base-class
    method: every registered algorithm and adversary carries an
    explicit override (even a trivial ``r + 1`` one), so a hit here
    means a third-party component the skip machinery knows nothing
    about. The base defaults are semantically safe (never skip), but a
    requested-and-useless skip deserves the fallback warning rather
    than silent non-acceleration.
    """
    gaps: list[str] = []
    seen: set = set()
    for process in processes:
        klass = type(process)
        if klass in seen:
            continue
        seen.add(klass)
        if klass.next_state_change is Process.next_state_change:
            gaps.append(f"{klass.__name__}.next_state_change")
    if type(link_process).next_boundary is LinkProcess.next_boundary:
        gaps.append(f"{type(link_process).__name__}.next_boundary")
    return gaps


def canonical_engine(name: str) -> str:
    """The implementation an engine name selects.

    ``"bitset"`` is a deprecated alias for ``"bank"``: stored specs and
    campaigns keep the name as written (it is part of their hash and
    labels), but no code of its own runs for it.
    """
    return "bank" if name == "bitset" else name


def resolve_engine_choice(
    engine: str,
    processes: Sequence[Process],
    link_process: LinkProcess,
    *,
    skip: Optional[bool] = None,
) -> tuple[str, bool, list[str]]:
    """Resolve the engine name and skip flag for one execution.

    Returns ``(engine_name, skip, fallback_messages)`` — the messages
    are the :class:`EngineFallbackWarning` texts :func:`create_engine`
    would emit, exposed separately so executors can probe the outcome
    once per scenario (and warn once) instead of once per trial.

    The returned name is the implementation that runs: ``"bitset"``
    resolves to ``"bank"`` (:func:`canonical_engine`).

    ``skip=None`` resolves to the engine's default: on for the bank
    engine, off for the reference engine. Two fallbacks apply, in
    order: adaptive link processes force the reference engine (their
    views are entitled to per-node plan introspection), and a component
    lacking the skip contract forces ``skip=False``.
    """
    if engine not in ENGINE_NAMES:
        raise EngineError(
            f"unknown engine {engine!r}; choose from {ENGINE_NAMES}"
        )
    notes: list[str] = []
    resolved = canonical_engine(engine)
    if resolved == "bank" and (
        link_process.adversary_class is not AdversaryClass.OBLIVIOUS
    ):
        notes.append(
            f"{engine} engine requested but {link_process.describe()} is "
            f"{link_process.adversary_class.value}: adaptive link processes "
            "need per-node plan introspection, using the reference engine"
        )
        resolved = "reference"
    resolved_skip = resolved == "bank" if skip is None else bool(skip)
    if resolved_skip:
        gaps = _skip_contract_gaps(processes, link_process)
        if gaps:
            notes.append(
                "round skipping disabled: "
                + ", ".join(sorted(gaps))
                + " lacks the skip contract (override it to opt back in)"
            )
            resolved_skip = False
    if notes:
        # Counted per resolution (executor probes and per-trial
        # create_engine calls alike), mirroring the deduped
        # EngineFallbackWarning surface as a measurable quantity.
        _obs_inc("engine.fallback", len(notes))
    return resolved, resolved_skip, notes


def warn_engine_fallbacks(
    notes: Sequence[str], label: Optional[str] = None, *, stacklevel: int
) -> None:
    """Emit each fallback note as an :class:`EngineFallbackWarning`.

    ``label`` names the scenario in every message; each warning counts
    once as ``engine.fallback.warned``. ``stacklevel`` means what it
    means to :func:`warnings.warn` called from this function's caller,
    so the warning reports the same source location it would there.
    """
    for note in notes:
        if label:
            note = f"{note} [scenario: {label}]"
        _obs_inc("engine.fallback.warned")
        warnings.warn(note, EngineFallbackWarning, stacklevel=stacklevel + 1)


def create_engine(
    network,
    processes: Sequence[Process],
    link_process: LinkProcess,
    *,
    engine: str = "reference",
    seed: int,
    algorithm_info: Optional[AlgorithmInfo] = None,
    validate_topologies: bool = True,
    observers: Sequence[Observer] = (),
    skip: Optional[bool] = None,
    label: Optional[str] = None,
    warn: bool = True,
) -> RadioNetworkEngine:
    """Build the requested engine implementation for one execution.

    ``engine="reference"`` is the straight-line round loop above;
    ``engine="bank"`` is the trial-batched struct-of-arrays engine of
    :mod:`repro.core.bankpath` — for the single execution built here
    it runs as a bank of one lane; the cross-trial batching engages
    when an executor hands a whole seed bank to
    :func:`repro.core.bankpath.run_bank_batch`. ``engine="bitset"`` is
    a deprecated alias for ``"bank"``. The bank engine is seed-for-seed
    identical to the reference engine (same coin stream, same records,
    same results) but only serves *oblivious* link processes.
    Requesting it against an online/offline adaptive adversary falls
    back to the reference engine with an
    :class:`EngineFallbackWarning` — adaptive views are entitled to
    per-node plan introspection every round, which is precisely the
    per-node work the kernels elide.

    ``skip`` controls event-driven round skipping (``None`` = the
    engine's default: on for ``bank``, off for ``reference``); a
    component lacking the skip contract downgrades it to ``False``
    with an :class:`EngineFallbackWarning`. ``label`` names the
    scenario in those warnings, and ``warn=False`` suppresses them
    entirely (executors probe the outcome once per scenario via
    :func:`resolve_engine_choice` and warn there instead).
    """
    resolved, resolved_skip, notes = resolve_engine_choice(
        engine, processes, link_process, skip=skip
    )
    if warn:
        warn_engine_fallbacks(notes, label, stacklevel=2)
    if resolved == "bank":
        from repro.core.bankpath import BankRadioNetworkEngine

        engine_cls: type = BankRadioNetworkEngine
    else:
        engine_cls = RadioNetworkEngine
    return engine_cls(
        network,
        processes,
        link_process,
        seed=seed,
        algorithm_info=algorithm_info,
        validate_topologies=validate_topologies,
        observers=observers,
        skip=resolved_skip,
    )
