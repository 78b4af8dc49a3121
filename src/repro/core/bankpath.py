"""The bank engine: a trial-batched numpy struct-of-arrays kernel.

:class:`BankRadioNetworkEngine` is the fast engine (``engine="bank"``;
``"bitset"`` is a deprecated alias for it). It batches *across
trials*: an entire seed bank of independent executions advances in
lockstep rounds, and the per-round numpy work — Bernoulli comparisons,
transmit-mask packing, and the dense reception matvec — runs once for
the whole bank instead of once per trial.

Three layers cooperate:

1. **Per-trial lanes.** Each trial owns a
   :class:`BankRadioNetworkEngine` — a
   :class:`~repro.core.engine.RadioNetworkEngine` subclass that keeps
   the reference record keeping and replaces topology lookup and
   reception with cached matvec/bitset resolution. A standalone
   ``engine.run()`` (what :func:`~repro.core.engine.create_engine`
   returns for a single trial) is a bank of one lane, and so is a
   public ``engine.step()``; the cross-trial wins need a whole seed
   bank.
2. **Vectorized protocol kernels.** A kernel replaces a protocol's
   per-node Python state machines with (trials × nodes) arrays. It is
   not written here: each of the nine kernels lives in its algorithm's
   module, beside the :class:`~repro.core.process.Process` it mirrors,
   on the bases in :mod:`repro.core.kernels` (the multi-message MAC
   family, and the single-message family split into local and global
   broadcast). Each protocol's rule — join or adopt, rung or slot,
   next active round, ack-window fold, back-off rate — is written once,
   as a module-level function of plain arithmetic: the process, which
   is what the ``reference`` engine runs, calls it on Python ints, and
   the kernel calls it on its grids. A kernel's ``next_active_round``
   is the lane minimum of the per-node rule the process's
   ``next_state_change`` uses. Each kernel declares the exact process
   class it mirrors and registers itself in ``_KERNELS`` when its
   module is imported; :func:`build_bank_kernel` selects from that one
   table.

   The kernels reproduce the reference engine's plans bit-for-bit
   (probabilities are exact powers of two; message identity is
   canonical), which ``tests/test_engine_equivalence.py`` holds to
   full-trace identity. Algorithms without a kernel run the reference
   engine's own per-node plan and feedback stages in each lane — still
   batched at the coins/reception layer.
3. **One round and one lockstep scheduler.** :func:`_bank_round` is
   the bank's only round: transmission coins are drawn as a (trials ×
   nodes) batch — one ``Generator.random(out=row)`` per lane against
   the same per-trial ``("engine", "coins")`` stream the reference
   engine consumes, so per-trial draw order is untouched — then
   compared and bit-packed in one shot, and one reception selector
   (driven by ``n`` and the caches only) resolves every lane.
   :func:`run_bank_batch` drives it round by round. Lanes whose stop
   condition fires (or whose per-lane ``max_rounds`` cap elapses —
   caps may differ across lanes) retire from the bank: their RNGs stop
   drawing, exactly like a serial run ending. Event-driven round
   skipping stays *on*: one probe per lane
   (:meth:`BankRadioNetworkEngine._skip_horizon`; a kernel's one
   licence is its ``next_active_round``) bounds the span, and provably
   silent spans fast-forward through
   :meth:`~repro.core.engine.RadioNetworkEngine._emit_quiet_span` when
   every observer on a lane accepts the batched quiet-span hook, and
   degrade to per-round records otherwise.

Scope: oblivious link processes only.
:func:`~repro.core.engine.create_engine` falls back to the reference
engine (with :class:`~repro.core.errors.EngineFallbackWarning`) for
adaptive adversaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Optional, Sequence

import numpy as np

from repro.adversaries.base import (
    PACKED_ROWS_MAX_N,
    AdversaryClass,
    AlgorithmInfo,
    LinkProcess,
    ObliviousView,
)
from repro.core.engine import (
    _SKIP_BACKOFF_MAX,
    ExecutionResult,
    RadioNetworkEngine,
    StopCondition,
)
from repro.core.errors import EngineError, PlanError
from repro.core.kernels import _KERNELS
from repro.core.messages import Message
from repro.core.process import Process, RoundPlan
from repro.core.trace import Delivery, Observer, RoundRecord
from repro.graphs.dual_graph import masks_to_neighbor_matrix
from repro.obs.recorder import inc as _obs_inc
from repro.obs.recorder import recorder as _obs_recorder

__all__ = [
    "BankRadioNetworkEngine",
    "BankLane",
    "build_bank_kernel",
    "run_bank_batch",
]

#: Sentinel: "build a single-lane kernel from my own processes".
_AUTO_KERNEL = object()

#: Above this node count the dense reception matrices stop paying for
#: their O(n²) memory; the bigint candidate scan stays O(n²/64) per
#: round with no footprint.
_MATRIX_MAX_N = 2048

#: Distinct round topologies worth a cached matrix. Static and
#: pattern-cycling adversaries reuse a couple of mask tuples forever;
#: stochastic adversaries mint a fresh tuple every round and overflow
#: this budget immediately, which routes them to the batched dense or
#: bigint path.
_MATRIX_CACHE_SIZE = 8

#: Above this node count the packed uint64 solo-cover matrices stop
#: paying for their O(n²/8) memory (32 MiB per topology at the cap).
#: Shared with the adversaries' eager publication cap so a published
#: schedule is exactly what this engine consumes.
_PACKED_MAX_N = PACKED_ROWS_MAX_N

#: Ceiling for the bank round's dense reception batch: when a lane's
#: round topology misses the matrix cache (fading adversaries mint
#: fresh mask tuples every round, so the id-keyed cache fills and stays
#: cold), :func:`_bank_round` builds the dense neighbor matrices for
#: all such lanes in one ``unpackbits`` and resolves them with one
#: batched matvec. The build is Θ(lanes · n²); past this size packed
#: rows or the bigint candidate scan (Θ(transmitters + listeners)
#: words) win.
_DENSE_BATCH_MAX_N = 512


def build_bank_kernel(banks: Sequence[Sequence]):
    """A vectorized protocol kernel for these process banks, or ``None``.

    ``banks[t]`` is trial ``t``'s per-node process list. The first
    node's exact class selects the one candidate kernel, which is built
    only when *every* process of every lane fits its declaration
    (:meth:`~repro.core.kernels._KernelBase.eligible`); anything else
    returns ``None`` and the lanes run the reference engine's per-node
    plan and feedback stages (still coin/reception-batched by the
    scheduler — this is a capability probe, not a fallback to a slower
    engine).
    """
    if not banks or not banks[0]:
        return None
    if any(len(bank) != len(banks[0]) for bank in banks):
        return None
    kernel_cls = _KERNELS.get(type(banks[0][0]))
    if kernel_cls is not None and kernel_cls.eligible(banks):
        _obs_inc("bank.kernel.hit")
        return kernel_cls(banks)
    # Not a slower path (the lanes stay coin/reception-batched), but a
    # measurable one: per-trial plan stages instead of one kernel.
    _obs_inc("bank.kernel.fallback")
    return None


# ----------------------------------------------------------------------
# Per-trial lane engine
# ----------------------------------------------------------------------
class BankRadioNetworkEngine(RadioNetworkEngine):
    """One lane of a trial bank (also a standalone single-trial engine).

    Construction signature matches the reference engine, plus the
    private ``kernel``/``lane`` pair the batch runner uses to share one
    struct-of-arrays kernel across lanes. Built standalone (via
    :func:`~repro.core.engine.create_engine`), the engine probes its
    own processes for a kernel; :meth:`run` drives it as a bank of one
    lane through :func:`run_bank_batch`, and :meth:`step` executes one
    :func:`_bank_round` of that bank. Without a kernel the lane
    plans and feeds back through the reference engine's own per-node
    stages; coins, topology, reception and records are this module's.
    """

    engine_name = "bank"

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
        kernel=_AUTO_KERNEL,
        lane: int = 0,
    ) -> None:
        if link_process.adversary_class is not AdversaryClass.OBLIVIOUS:
            raise EngineError(
                "BankRadioNetworkEngine serves oblivious link processes only; "
                f"{link_process.describe()} is {link_process.adversary_class.value} "
                "(use create_engine, which falls back to the reference engine)"
            )
        super().__init__(
            network,
            processes,
            link_process,
            seed=seed,
            algorithm_info=algorithm_info,
            validate_topologies=validate_topologies,
            observers=observers,
            skip=skip,
        )
        if kernel is _AUTO_KERNEL:
            kernel = build_bank_kernel([self.processes])
            lane = 0
        self._kernel = kernel
        self._lane = lane
        if kernel is not None and not kernel.supports_skip:
            # The multi-message kernels are never provably silent (a
            # node that knows anything keeps a nonzero duty cycle), so
            # their lanes run with skipping off. The single-message
            # kernels answer the skip probe themselves.
            self.skip = False
        # Kernel-less lanes: this round's plans and their exact sum
        # (from the reference plan stage), the reference skip licence,
        # and the reference loop's back-off for failed O(n) probes.
        self._plans: list[RoundPlan] = []
        self._expected = 0.0
        self._feedback_skip_ok = kernel is None and self._skip_ok()
        self._next_probe = 0
        self._probe_backoff = 1
        # Reception state. Transmitter j is encoded as 1 + (j+1)(n+1),
        # so one matvec yields, per listener, both the transmitting-
        # neighbor count (mod n+1) and — when that count is 1 — the
        # sender id (div n+1). Totals stay integral and far below 2⁵³,
        # hence exact in float64.
        n = network.n
        self._sender_encoding = 1.0 + np.arange(1, n + 1, dtype=np.float64) * (n + 1)
        self._matrix_cache: dict[int, tuple] = {}
        self._validated_topologies: dict[int, object] = {}
        # Packed uint64 neighborhood matrices for the solo-cover
        # reception (n beyond the dense-batch cap).
        self._packed_cache: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Runs go through the lockstep scheduler
    # ------------------------------------------------------------------
    def run(self, *, max_rounds: int, stop: Optional[StopCondition] = None) -> ExecutionResult:
        """Execute rounds until ``stop()`` fires or ``max_rounds`` elapse.

        A bank of one: the same loop :func:`run_bank_batch` drives for
        a whole seed bank, so there is one fast round and skip loop.
        """
        return run_bank_batch([BankLane(engine=self, stop=stop)], max_rounds=max_rounds)[0]

    def step(self) -> RoundRecord:
        """Execute exactly one round and return its record.

        A bank round of one lane: the same round :func:`run_bank_batch`
        executes for every lane of a seed bank.
        """
        self._ensure_started()
        return _bank_round([self], self._round, self._trace is not None)[0]

    # ------------------------------------------------------------------
    # Plan and feedback: the kernel, or the reference per-node stages
    # ------------------------------------------------------------------
    def _plan_probs(self, r: int) -> np.ndarray:
        """Stage 1: the round's per-node transmission probabilities."""
        if self._kernel is not None:
            return self._kernel.probabilities(r)[self._lane]
        self._plans, probabilities, self._expected = self._plan_stage(r)
        return np.asarray(probabilities, dtype=np.float64)

    def _expected_sum(self, probs: np.ndarray) -> float:
        """The round's expected transmitter count, bit-identical to fsum."""
        kernel = self._kernel
        if kernel is None:
            return self._expected
        if kernel.supports_skip:
            return kernel.expected_exact(self._lane, kernel._r)
        return math.fsum(probs.tolist())

    def _message_for(self, u: int) -> Message:
        """The message transmitter ``u`` put on the air this round."""
        if self._kernel is not None:
            return self._kernel.message_for(self._lane, u)
        message = self._plans[u].message
        if message is None:  # pragma: no cover - PlanError guards this
            raise PlanError(f"transmitter {u} has no message")
        return message

    def _apply_feedback(
        self, r: int, transmitter_mask: int, deliveries: Sequence[Delivery]
    ) -> None:
        """Stage 5: kernel lanes see receptions only (their eligibility
        pins process types whose idle/transmit feedback are no-ops);
        kernel-less lanes run the reference feedback stage."""
        if self._kernel is None:
            self._feedback_stage(r, transmitter_mask, deliveries)
        elif deliveries:
            self._kernel.apply_feedback(self._lane, r, deliveries)

    # ------------------------------------------------------------------
    # The skip probe
    # ------------------------------------------------------------------
    def _skip_horizon(self, r: int, limit: int, silent: bool) -> int:
        """First round in ``(r, limit]`` at which anything may change,
        probed right after round ``r``; ``r + 1`` when nothing is
        skippable.

        Kernel lanes answer from schedule state alone with the kernel's
        ``next_active_round``, a licence that holds whatever round ``r``
        did, clamped by the adversary's purity boundary (which gates
        eliding its ``choose_topology`` calls). Kernel-less lanes infer
        silence from an executed silent round, so they answer only when
        ``silent`` (every surviving lane of the bank was provably silent
        in round ``r``) and their idle feedback is a no-op; the
        reference probe then polls every process, and failed attempts
        back off exactly as the reference loop does.
        """
        kernel = self._kernel
        if kernel is None:
            if not (silent and self._feedback_skip_ok) or r + 1 < self._next_probe:
                return r + 1
            h = self._quiet_horizon(r, limit)
            if h <= r + 1:
                self._next_probe = r + 1 + self._probe_backoff
                self._probe_backoff = min(self._probe_backoff * 2, _SKIP_BACKOFF_MAX)
            else:
                self._probe_backoff = 1
            return h
        nxt = kernel.next_active_round(self._lane, r)
        h = limit if nxt is None else min(nxt, limit)
        boundary = self.link_process.next_boundary(r)
        if boundary is not None and boundary < h:
            h = boundary
        return max(h, r + 1)

    # ------------------------------------------------------------------
    # Topology, reception, record keeping
    # ------------------------------------------------------------------
    def _choose_topology(self, r: int):
        """Stage 3: oblivious adversaries see the clock only."""
        topology = self.link_process.choose_topology(ObliviousView(round_index=r))
        if self.validate_topologies:
            key = id(topology.masks)
            if key not in self._validated_topologies:
                topology.validate(self.network)
                # Remember only a bounded set of validated mask tuples
                # (they are pinned to keep ids unique): pattern-reusing
                # adversaries hit the cache forever, while churning
                # ones simply revalidate per round — exactly the
                # reference engine's behavior — instead of pinning one
                # tuple per round for the whole execution.
                if len(self._validated_topologies) < _MATRIX_CACHE_SIZE:
                    self._validated_topologies[key] = topology.masks
        return topology

    def _finish_round(
        self,
        r: int,
        transmitter_mask: int,
        deliveries: list[Delivery],
        expected: float,
    ) -> RoundRecord:
        """Stages 5–6: feedback and record keeping."""
        ph = self._phase_ns if self._trace is not None else None
        if ph is not None:
            t0 = perf_counter_ns()
        self._apply_feedback(r, transmitter_mask, deliveries)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["feedback"] += t1 - t0
            t0 = t1
        record = self._record_stage(r, transmitter_mask, deliveries, expected)
        if ph is not None:
            ph["observers"] += perf_counter_ns() - t0
            counts = self._trace_counts
            counts["rounds.executed"] = counts.get("rounds.executed", 0) + 1
        return record

    def _topology_cached(
        self, cache: dict, kind: str, max_n: int, masks: tuple[int, ...], build
    ) -> Optional[np.ndarray]:
        """The id-keyed per-topology cache behind the dense and packed paths.

        ``None`` past ``max_n`` nodes, or on a miss once the cache holds
        ``_MATRIX_CACHE_SIZE`` topologies (topology churn: the bigint
        scan is cheaper); otherwise the cached or freshly ``build()``-ed
        value. Entries store ``(masks, value)`` so the keyed tuple stays
        alive and its id unique. Lookups count as ``cache.<kind>.hit``
        and ``cache.<kind>.miss`` when traced.
        """
        if self.network.n > max_n:
            return None
        counts = self._trace_counts if self._trace is not None else None
        key = id(masks)
        entry = cache.get(key)
        if entry is not None:
            if counts is not None:
                name = f"cache.{kind}.hit"
                counts[name] = counts.get(name, 0) + 1
            return entry[1]
        if counts is not None:
            name = f"cache.{kind}.miss"
            counts[name] = counts.get(name, 0) + 1
        if len(cache) >= _MATRIX_CACHE_SIZE:
            return None
        value = build()
        cache[key] = (masks, value)
        return value

    def _matrix_for(self, masks: tuple[int, ...]) -> Optional[np.ndarray]:
        """Dense neighbor matrix for a round topology, if worth caching."""
        network = self.network
        if network.n <= _MATRIX_MAX_N and (
            masks is network.g_masks or masks is network.gp_masks
        ):
            # The network keeps its own G and G' matrices: a hit that
            # takes no cache slot.
            if self._trace is not None:
                counts = self._trace_counts
                counts["cache.matrix.hit"] = counts.get("cache.matrix.hit", 0) + 1
            return network.neighbor_matrix(use_gp=masks is network.gp_masks)
        return self._topology_cached(
            self._matrix_cache,
            "matrix",
            _MATRIX_MAX_N,
            masks,
            lambda: masks_to_neighbor_matrix(masks, network.n),
        )

    def _resolve_candidates(
        self, transmitter_mask: int, masks: Sequence[int]
    ) -> list[Delivery]:
        """The paper's bitset rule over candidate listeners only.

        A listener can receive only if some transmitter neighbors it,
        so the scan covers the union of the transmitters' neighborhoods
        instead of all ``n`` nodes — the word-parallel
        ``popcount(X & mask[u]) == 1`` test then picks out solo
        receptions exactly as the reference loop does.
        """
        reach = 0
        t = transmitter_mask
        while t:
            low = t & -t
            reach |= masks[low.bit_length() - 1]
            t ^= low
        candidates = reach & ~transmitter_mask
        deliveries: list[Delivery] = []
        message_for = self._message_for
        while candidates:
            low = candidates & -candidates
            u = low.bit_length() - 1
            candidates ^= low
            neighbors_transmitting = transmitter_mask & masks[u]
            if neighbors_transmitting and not (
                neighbors_transmitting & (neighbors_transmitting - 1)
            ):
                sender = neighbors_transmitting.bit_length() - 1
                deliveries.append(
                    Delivery(receiver=u, sender=sender, message=message_for(sender))
                )
        return deliveries

    def _packed_for(self, topology) -> Optional[np.ndarray]:
        """Word-packed ``(n, n//64)`` neighborhood matrix, if cached.

        Past the dense-batch cap, a lane without a cached dense matrix
        (beyond ``_MATRIX_MAX_N``, or once topology churn fills the
        matrix cache) resolves here: up to ``_PACKED_MAX_N`` the
        uint64-packed rows keep reception word-parallel (64 listeners per machine
        word) with a footprint of ``n²/8`` bytes instead of ``8n²``.
        The rows come from :meth:`RoundTopology.packed_rows`, so a
        schedule an adversary published in ``start()`` is shared across
        every engine lane rather than re-packed per engine.
        """
        return self._topology_cached(
            self._packed_cache, "packed", _PACKED_MAX_N, topology.masks, topology.packed_rows
        )

    def _resolve_packed(
        self, transmitter_mask: int, masks: Sequence[int], packed: np.ndarray
    ) -> list[Delivery]:
        """Reception via a saturating popcount over packed rows.

        By topology symmetry, listener ``v`` hears solo transmitter
        ``u`` iff bit ``v`` is set in row ``u``; a tree reduction over
        the transmitters' rows carries (covered-once, covered-twice)
        word pairs — combine is ``(a1|b1, a2|b2|(a1&b1))`` — so
        ``cover & ~twice`` marks exactly the listeners with one
        transmitting neighbor.
        """
        if not (transmitter_mask & (transmitter_mask - 1)):
            # Single transmitter: its neighborhood row is the solo set.
            u = transmitter_mask.bit_length() - 1
            message = self._message_for(u)
            receivers = masks[u] & ~transmitter_mask
            deliveries: list[Delivery] = []
            while receivers:
                low = receivers & -receivers
                receivers ^= low
                deliveries.append(
                    Delivery(
                        receiver=low.bit_length() - 1, sender=u, message=message
                    )
                )
            return deliveries
        t_ids = []
        t = transmitter_mask
        while t:
            low = t & -t
            t_ids.append(low.bit_length() - 1)
            t ^= low
        cover = packed[t_ids]
        twice = np.zeros_like(cover)
        while cover.shape[0] > 1:
            half = cover.shape[0] // 2
            a1, b1 = cover[:half], cover[half : 2 * half]
            a2, b2 = twice[:half], twice[half : 2 * half]
            new_cover = a1 | b1
            new_twice = a2 | b2 | (a1 & b1)
            if cover.shape[0] & 1:
                new_cover = np.concatenate([new_cover, cover[-1:]])
                new_twice = np.concatenate([new_twice, twice[-1:]])
            cover, twice = new_cover, new_twice
        solo = int.from_bytes((cover[0] & ~twice[0]).tobytes(), "little")
        solo &= ~transmitter_mask
        deliveries = []
        message_for = self._message_for
        while solo:
            low = solo & -solo
            u = low.bit_length() - 1
            solo ^= low
            sender = (masks[u] & transmitter_mask).bit_length() - 1
            deliveries.append(
                Delivery(receiver=u, sender=sender, message=message_for(sender))
            )
        return deliveries


# ----------------------------------------------------------------------
# The lockstep bank scheduler
# ----------------------------------------------------------------------
@dataclass
class BankLane:
    """One trial riding the bank: engine, stop condition, round cap.

    ``max_rounds`` (``None`` = the batch-wide cap) lets trials with
    heterogeneous round budgets share one bank: a lane retires at its
    own cap while the rest keep running.
    """

    engine: BankRadioNetworkEngine
    stop: Optional[StopCondition] = None
    max_rounds: Optional[int] = None


def _credit(engines: Sequence[BankRadioNetworkEngine], phase: str, ns: int) -> None:
    """Split one batched stage's time evenly across the lanes it served."""
    share = ns // len(engines)
    for engine in engines:
        engine._phase_ns[phase] += share


def _decode(
    engines: Sequence[BankRadioNetworkEngine],
    totals: np.ndarray,
    transmit: np.ndarray,
) -> list[list[Delivery]]:
    """Per-lane deliveries from (lanes × n) count/sender matvec totals.

    With transmitter ``j`` encoded as ``1 + (j+1)(n+1)``, a listener's
    total is 1 mod ``n + 1`` iff exactly one neighbor transmits, and
    the quotient then names that sender.
    """
    modulus = totals.shape[1] + 1
    solo = (totals % modulus == 1) & ~transmit
    decoded: list[list[Delivery]] = []
    for engine, lane_totals, lane_solo in zip(engines, totals, solo):
        deliveries: list[Delivery] = []
        receivers = np.nonzero(lane_solo)[0]
        if receivers.size:
            senders = lane_totals[receivers] // modulus - 1
            message_for = engine._message_for
            for u, sender in zip(receivers.tolist(), senders.tolist()):
                deliveries.append(
                    Delivery(receiver=u, sender=sender, message=message_for(sender))
                )
        decoded.append(deliveries)
    return decoded


def _bank_round(
    engines: Sequence[BankRadioNetworkEngine], r: int, traced: bool
) -> list[RoundRecord]:
    """Execute round ``r`` on every lane, in lockstep; one record each.

    The bank engine's one round: :meth:`BankRadioNetworkEngine.step`
    runs it for a single lane and :func:`run_bank_batch` wraps it with
    retirement, stop checks and skipping. Each lane's record is the
    reference engine's record for the same round:

    * stages 1–2: per-lane plans and per-trial coin rows (one
      ``Generator.random(out=row)`` per lane against its own
      ``("engine", "coins")`` stream — the reference engine's exact
      draw), then one comparison + ``packbits`` for the whole bank;
    * stage 3: each lane's oblivious adversary fixes its topology;
    * stage 4: one reception selector, driven by ``n`` and the caches
      only. A matrix-cache hit resolves by the cached count/sender
      matvec; a miss at ``n <= _DENSE_BATCH_MAX_N`` joins one dense
      (lanes × n × n) batch built straight from the masks; larger
      networks scan packed neighborhood rows when cached, the bigint
      candidate set otherwise;
    * stages 5–6: per-lane feedback and record keeping.

    When ``traced``, every lane accumulates its own phase spans;
    batched stages are timed once and credited evenly across the lanes
    they served.
    """
    m = len(engines)
    n = engines[0].network.n
    nbytes = (n + 7) // 8
    coins = np.empty((m, n), dtype=np.float64)
    probs = np.empty((m, n), dtype=np.float64)

    # Stages 1–2, batched: per-lane plans and per-trial coin rows, one
    # comparison + packbits for the whole bank.
    for j, engine in enumerate(engines):
        if traced:
            ta = perf_counter_ns()
        np.copyto(probs[j], engine._plan_probs(r))
        if traced:
            tb = perf_counter_ns()
        engine._coin_rng.random(out=coins[j])
        if traced:
            ph = engine._phase_ns
            ph["plan"] += tb - ta
            ph["coins"] += perf_counter_ns() - tb
    if traced:
        t0 = perf_counter_ns()
    transmit = coins < probs
    packed = np.packbits(transmit, axis=1, bitorder="little").tobytes()
    masks = [
        int.from_bytes(packed[j * nbytes : (j + 1) * nbytes], "little")
        for j in range(m)
    ]
    if traced:
        _credit(engines, "coins", perf_counter_ns() - t0)

    # Stage 3 per lane.
    topologies = []
    for engine in engines:
        if traced:
            ta = perf_counter_ns()
        topologies.append(engine._choose_topology(r))
        if traced:
            engine._phase_ns["adversary"] += perf_counter_ns() - ta

    # Stage 4: the reception selector. Fading adversaries mint fresh
    # mask tuples every round, so the id-keyed matrix cache fills and
    # stays cold; up to the dense-batch cap their lanes are folded into
    # ONE neighbor batch — one ``unpackbits`` plus one batched matvec
    # for the whole bank instead of per-lane scans.
    deliveries: list[Optional[list[Delivery]]] = [None] * m
    fresh: list[int] = []
    for j, (engine, topology) in enumerate(zip(engines, topologies)):
        if not masks[j]:
            deliveries[j] = []  # silent round: nothing to hear
            continue
        if traced:
            ta = perf_counter_ns()
        matrix = engine._matrix_for(topology.masks)
        if matrix is not None:
            row = transmit[j : j + 1]
            totals = (matrix @ (row[0] * engine._sender_encoding)).astype(np.int64)
            deliveries[j] = _decode([engine], totals[None], row)[0]
        elif n <= _DENSE_BATCH_MAX_N:
            fresh.append(j)
            continue
        else:
            packed_rows = engine._packed_for(topology)
            if packed_rows is not None:
                deliveries[j] = engine._resolve_packed(
                    masks[j], topology.masks, packed_rows
                )
            else:
                deliveries[j] = engine._resolve_candidates(masks[j], topology.masks)
        if traced:
            engine._phase_ns["reception"] += perf_counter_ns() - ta
    if fresh:
        if traced:
            t0 = perf_counter_ns()
        if n <= 64:
            # Single-word masks: one C-loop conversion + byte view.
            packed_masks = np.array(
                [topologies[j].masks for j in fresh], dtype="<u8"
            ).view(np.uint8).reshape(len(fresh), n, 8)
        else:
            packed_masks = np.frombuffer(
                b"".join(
                    mask.to_bytes(nbytes, "little")
                    for j in fresh
                    for mask in topologies[j].masks
                ),
                dtype=np.uint8,
            ).reshape(len(fresh), n, nbytes)
        neighbors = np.unpackbits(
            packed_masks, axis=2, bitorder="little", count=n
        ).astype(np.float64)
        batch = [engines[j] for j in fresh]
        rows = transmit[fresh]
        weighted = rows * batch[0]._sender_encoding
        totals = (neighbors @ weighted[:, :, None])[..., 0].astype(np.int64)
        for j, lane_deliveries in zip(fresh, _decode(batch, totals, rows)):
            deliveries[j] = lane_deliveries
        if traced:
            _credit(batch, "reception", perf_counter_ns() - t0)

    # Stages 5–6 per lane. The expected-transmitter sum is each lane's
    # fsum (from the plan stage on kernel-less lanes) or its kernel's
    # exact reduction — O(1) for the single-message kernels.
    if traced:
        t0 = perf_counter_ns()
    expecteds = [engine._expected_sum(probs[j]) for j, engine in enumerate(engines)]
    if traced:
        _credit(engines, "plan", perf_counter_ns() - t0)
    return [
        engine._finish_round(r, masks[j], deliveries[j], expecteds[j])
        for j, engine in enumerate(engines)
    ]


def run_bank_batch(
    lanes: Sequence[BankLane], *, max_rounds: int
) -> list[ExecutionResult]:
    """Run a bank of single-trial lanes in lockstep rounds.

    Per-lane results are identical to running each engine's ``run()``
    separately — the batch changes *where* the numpy work happens, not
    what any trial observes. Every executed round is one
    :func:`_bank_round` over the surviving lanes (batched coins, plans
    and dense reception); this loop adds retirement, stop checks and
    skipping.

    Lanes whose stop condition fires — or whose per-lane ``max_rounds``
    cap elapses — retire immediately: they stop drawing coins and stop
    observing rounds, exactly like a serial execution that ended, while
    the surviving lanes keep the lockstep going.

    When every lane was built with ``skip=True`` the bank fast-forwards
    the spans in which *all surviving* lanes are provably silent: the
    lockstep schedule means a skip is licensed only up to the earliest
    horizon across lanes (``min`` of the per-lane
    :meth:`BankRadioNetworkEngine._skip_horizon` probes, each clamped
    to its own cap). A lane whose observers all
    accept the batched quiet-span hook emits the span through one
    :meth:`~repro.core.engine.RadioNetworkEngine._emit_quiet_span`
    (one RNG jump-ahead, one observer call); any other lane emits round
    by round through the solo ``_emit_quiet_round``, so its records and
    coin stream stay bit-identical to its standalone run.
    """
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    # Lanes run in lockstep from a shared round index (0 for fresh
    # engines; a standalone engine may have stepped before its run()).
    origin = lanes[0].engine.round_index if lanes else 0
    if any(lane.engine.round_index != origin for lane in lanes):
        raise ValueError("bank lanes must all be at the same round index")
    results: list[Optional[ExecutionResult]] = [None] * len(lanes)
    active: list[int] = []
    caps: list[int] = []
    for i, lane in enumerate(lanes):
        lane.engine._ensure_started()
        caps.append(
            max_rounds if lane.max_rounds is None else min(lane.max_rounds, max_rounds)
        )
        if lane.stop is not None and lane.stop():
            results[i] = ExecutionResult(rounds=0, solved=True, solve_round=-1)
        else:
            active.append(i)
    if not lanes:
        return []
    # Tracing: each lane accumulates its own phase spans/counters and
    # emits its own trial record on retirement, exactly as a standalone
    # run() would.
    rec = _obs_recorder()
    traced = rec is not None
    if traced:
        for lane in lanes:
            lane.engine._trace_begin(rec)
    bank_skip = all(lane.engine.skip for lane in lanes)
    # Batched quiet-span emission is engaged per lane, and only when
    # every observer on that lane accepts the span hook; lanes carrying
    # a per-round consumer (e.g. a TraceCollector) keep materializing
    # each quiet round's record.
    span_ok = [
        all(
            callable(getattr(observer, "on_round_batch", None))
            for observer in lane.engine.observers
        )
        for lane in lanes
    ]
    executed = 0
    while active:
        # Retire lanes whose own round budget has elapsed (the lockstep
        # clock equals every active lane's rounds-run count, so a lane
        # at its cap has run exactly caps[i] rounds).
        if any(caps[i] <= executed for i in active):
            for i in active:
                if caps[i] <= executed:
                    results[i] = ExecutionResult(
                        rounds=caps[i], solved=False, solve_round=None
                    )
            active = [i for i in active if caps[i] > executed]
            if not active:
                break
        r = origin + executed
        records = _bank_round([lanes[i].engine for i in active], r, traced)
        survivors: list[int] = []
        silent = True
        for i, record in zip(active, records):
            stop = lanes[i].stop
            if stop is not None and stop():
                results[i] = ExecutionResult(
                    rounds=executed + 1, solved=True, solve_round=record.round_index
                )
                continue
            survivors.append(i)
            # The exact expected sum of non-negative probabilities is
            # 0.0 iff every term is: the lane was provably silent.
            silent = silent and (
                record.transmitter_mask == 0 and record.expected_transmitters == 0.0
            )
        active = survivors
        executed += 1

        # Lockstep round skipping, up to the earliest per-lane horizon.
        # A lane that just retired no longer constrains the probes.
        if not (bank_skip and active):
            continue
        if traced:
            ts = perf_counter_ns()
            probed = [lanes[i].engine for i in active]
        start = r + 1  # every lane's next round, lockstep
        h = min(
            lanes[i].engine._skip_horizon(r, origin + caps[i], silent) for i in active
        )
        if h <= start:
            if traced:
                _credit(probed, "skip", perf_counter_ns() - ts)
            continue
        still_active: list[int] = []
        for i in active:
            lane = lanes[i]
            engine = lane.engine
            if span_ok[i]:
                # Batch-capable observers are span-invariant over
                # all-silent rounds, so the stop condition (a function
                # of observer state) cannot fire mid-span: one call
                # covers the whole span.
                engine._emit_quiet_span(start, h)
                still_active.append(i)
                continue
            retired = False
            for quiet_round in range(start, h):
                record = engine._emit_quiet_round(quiet_round)
                if lane.stop is not None and lane.stop():
                    results[i] = ExecutionResult(
                        rounds=quiet_round - origin + 1,
                        solved=True,
                        solve_round=record.round_index,
                    )
                    retired = True
                    break
            if not retired:
                still_active.append(i)
        active = still_active
        executed = h - origin
        if traced:
            _credit(probed, "skip", perf_counter_ns() - ts)
    if traced:
        for lane, result in zip(lanes, results):
            lane.engine._trace = None
            if result is not None:
                lane.engine._trace_end(rec, result)
    return results
