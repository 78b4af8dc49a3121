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
2. **Vectorized protocol kernels.** Two families replace the per-node
   Python state machines with struct-of-arrays state:

   * the **multi-message MAC protocols**
     (:class:`~repro.algorithms.multi_message.GklnMultiMessageProcess`,
     :class:`~repro.algorithms.multi_message.BackoffMultiMessageProcess`)
     keep knowledge as a (trials × nodes × words) uint64 bitmap —
     any message count, 64 per word — with append-order message logs,
     ack windows and back-off epochs folded by vectorized index
     arithmetic;
   * the **single-message decay family** (plain decay, permuted decay,
     static local decay, round robin, uniform) keeps (trials × nodes)
     informed/participation state and shares one ``np.ldexp``
     probability ladder (or schedule rung) across every lane per
     round — one scalar probability per lane per round covers the
     whole active set, which also makes the expected-transmitter sum
     exact in O(1). They follow the paper's split: local broadcast
     (a fixed broadcaster set, each node its own message) and global
     broadcast (one source's message, relayed on first reception)
     each have one base class.

   Each kernel is a declaration over :class:`_KernelBase`: the process
   class it mirrors (the key of ``_KERNELS``), the ``lane_params`` a
   lane shares, the ``unbounded`` budgets that must be ``None`` and a
   role rule — one eligibility check reads all four — plus one
   ``_plan(r)`` behind one per-round plan cache.

   The kernels reproduce the reference engine's plans bit-for-bit
   (probabilities are exact powers of two via ``ldexp``; message
   identity is canonical), which ``tests/test_engine_equivalence.py``
   holds to full-trace identity. Algorithms without a kernel run the
   reference engine's own per-node plan and feedback stages in each
   lane — still batched at the coins/reception layer.
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
from operator import attrgetter
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
from repro.algorithms.decay import PlainDecayGlobalProcess, decay_ladder
from repro.algorithms.global_broadcast import ObliviousGlobalBroadcastProcess
from repro.algorithms.local_static import StaticLocalDecayProcess
from repro.algorithms.multi_message import (
    BackoffMultiMessageProcess,
    GklnMultiMessageProcess,
)
from repro.algorithms.round_robin import RoundRobinGlobalProcess, RoundRobinLocalProcess
from repro.algorithms.uniform import UniformGlobalProcess, UniformLocalProcess
from repro.core.engine import (
    _SKIP_BACKOFF_MAX,
    ExecutionResult,
    RadioNetworkEngine,
    StopCondition,
)
from repro.core.errors import EngineError, PlanError
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

#: Sentinel round index for per-node state that is not scheduled to
#: change ("uninformed", "never joins"): far beyond any execution while
#: comfortably inside int64 arithmetic.
_NEVER = 1 << 62

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


# ----------------------------------------------------------------------
# Vectorized protocol kernels
# ----------------------------------------------------------------------
def _lane_column(banks: Sequence[Sequence], attr: str, dtype=None) -> np.ndarray:
    """(T, 1) column of a lane parameter, read off each lane's first node."""
    return np.array([[getattr(bank[0], attr)] for bank in banks], dtype=dtype)


def _node_grid(banks: Sequence[Sequence], attr: str, dtype=None) -> np.ndarray:
    """(T, n) grid of a per-node attribute."""
    return np.array(
        [[getattr(process, attr) for process in bank] for bank in banks], dtype=dtype
    )


class _KernelBase:
    """What every bank kernel shares: one eligibility rule, one plan cache.

    A kernel mirrors exactly one process class (``_KERNELS`` maps the
    class to its kernel) and declares what it reads from those
    processes:

    * ``lane_params`` — attributes every node shares with its lane's
      first node, because the kernel keeps them once per lane;
    * ``unbounded`` — attributes that must be ``None``: a finite budget
      re-ties the plan to each node's join round, which the generic
      lanes handle;
    * :meth:`_role_ok` — the per-node role rule the kernel's initial
      state assumes.

    A subclass of a process class opts out, falling back to the
    per-node stages with identical results. Each kernel writes only
    :meth:`_plan`; :meth:`probabilities` runs it once per round, which
    matters for kernels whose plan also advances state.
    """

    lane_params: tuple[str, ...] = ()
    unbounded: tuple[str, ...] = ()

    @classmethod
    def eligible(cls, banks: Sequence[Sequence]) -> bool:
        """Whether every node of every lane fits this kernel's declaration."""
        process_cls = type(banks[0][0])
        fields = cls.lane_params + cls.unbounded
        read = attrgetter(*fields) if fields else None
        role_ok = cls._role_ok
        for bank in banks:
            first = bank[0]
            if type(first) is not process_cls:
                return False
            if read is not None:
                shared = read(first)
                # Every node must match the first on ``unbounded`` too.
                if any(getattr(first, name) is not None for name in cls.unbounded):
                    return False
            for u, process in enumerate(bank):
                if type(process) is not process_cls:
                    return False
                if read is not None and read(process) != shared:
                    return False
                if not role_ok(process, u):
                    return False
        return True

    @staticmethod
    def _role_ok(process: Process, u: int) -> bool:
        return True

    def __init__(self, banks: Sequence[Sequence]) -> None:
        self.trials = len(banks)
        self.n = len(banks[0])
        self._r = -1
        self._probs: Optional[np.ndarray] = None

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r != self._r:
            self._probs = self._plan(r)
            self._r = r
        return self._probs


# ----------------------------------------------------------------------
# Multi-message MAC family
# ----------------------------------------------------------------------
class _MultiMessageKernelBase(_KernelBase):
    """Shared struct-of-arrays state for the multi-message kernels.

    Layout (``T`` trials × ``n`` nodes × ``k`` messages):

    * ``known``  — (T, n, ⌈k/64⌉) uint64 bitmap: bit ``i`` of the row
      set iff the node holds message ``i`` (bit-packed 64 per word, so
      any ``k`` fits).
    * ``order``  — (T, n, k) int64 append-order log of message indices;
      both protocols rotate/queue over their knowledge in append order.
    * ``klen``   — (T, n) int64 length of that log.
    * ``messages[t][i]`` — the canonical :class:`Message` object for
      message ``i`` of trial ``t`` (minted by its source process, so
      deliveries compare equal to the reference engine's).
    """

    #: The MAC protocols are never provably silent (a node that knows
    #: anything keeps a nonzero duty cycle), and the kernels do not
    #: track the class state the skip probe reads — lanes run with
    #: round skipping disabled.
    supports_skip = False

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        first = banks[0][0]
        self.k = first.assignment.k
        self.assignments = [bank[0].assignment for bank in banks]
        shape = (self.trials, self.n)
        words = (self.k + 63) // 64 or 1
        self.known = np.zeros((*shape, words), dtype=np.uint64)
        self.order = np.zeros((*shape, self.k), dtype=np.int64)
        self.klen = np.zeros(shape, dtype=np.int64)
        self.messages: list[list[Optional[Message]]] = [
            [None] * self.k for _ in range(self.trials)
        ]
        # Canonical objects let feedback resolve a delivery's message
        # index by identity instead of payload inspection; the
        # ``messages`` lists pin the objects, so ids stay unique.
        self._index_by_id: dict[int, int] = {}

    def _ingest_knowledge(self, t: int, u: int, messages: Sequence[Message]) -> None:
        """Seed node (t, u)'s knowledge log from its initial messages."""
        assignment = self.assignments[t]
        for position, message in enumerate(messages):
            index = assignment.index_of(message.payload)
            self.order[t, u, position] = index
            word, bit = divmod(index, 64)
            self.known[t, u, word] |= np.uint64(1 << bit)
            # Initial messages exist only at their sources, so this is
            # the canonical (source-minted) object for the index.
            self.messages[t][index] = message
            self._index_by_id[id(message)] = index
        self.klen[t, u] = len(messages)

    def _learn(self, t: int, u: int, index: int) -> bool:
        """Append message ``index`` to (t, u)'s log; False if known."""
        word, bit = divmod(index, 64)
        flag = np.uint64(1 << bit)
        if self.known[t, u, word] & flag:
            return False
        self.known[t, u, word] |= flag
        length = int(self.klen[t, u])
        self.order[t, u, length] = index
        self.klen[t, u] = length + 1
        return True

    def message_for(self, t: int, u: int) -> Message:
        """The log entry node ``u`` rotates to this round (offset by id)."""
        index = self.order[t, u, (self._r + u) % int(self.klen[t, u])]
        return self.messages[t][int(index)]

    def _learners(self, t: int, deliveries: Sequence[Delivery]) -> list[int]:
        """Log each delivered message; the receivers that learned one.

        Kernel lanes mint every transmitted message through
        :meth:`message_for`, so deliveries carry the canonical objects
        and resolve by identity; payload inspection keeps parity for
        any non-canonical (but valid) message object.
        """
        learners = []
        for delivery in deliveries:
            message = delivery.message
            index = self._index_by_id.get(id(message))
            if index is None and message.is_data():
                index = self.assignments[t].index_of(message.payload)
            if index is not None and self._learn(t, delivery.receiver, index):
                learners.append(delivery.receiver)
        return learners


class _GklnBankKernel(_MultiMessageKernelBase):
    """All trials of a GKLN queued-discipline bank, as arrays.

    Mirrors :class:`~repro.algorithms.multi_message.GklnMultiMessageProcess`
    exactly: the pending FIFO is the suffix ``order[qhead:klen]`` of the
    append-order log (relay-once means every learned message is queued
    exactly once, in learn order), ``head_start`` is the round the
    head's ack window opened (−1 = idle), and elapsed windows are folded
    by one vectorized division instead of a per-node ``while`` loop.
    """

    lane_params = ("assignment", "window", "rungs", "persist_probability")

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.window = _lane_column(banks, "window", np.int64)
        self.rungs = _lane_column(banks, "rungs", np.int64)
        self.persist = _lane_column(banks, "persist_probability", np.float64)
        self.qhead = np.zeros((self.trials, self.n), dtype=np.int64)
        self.head_start = np.full((self.trials, self.n), -1, dtype=np.int64)
        for t, bank in enumerate(banks):
            for u, process in enumerate(bank):
                self._ingest_knowledge(t, u, list(process._all_known))
                self.qhead[t, u] = self.klen[t, u] - len(process._queue)
                if process._head_start is not None:
                    self.head_start[t, u] = process._head_start

    def _plan(self, r: int) -> np.ndarray:
        head_start, qhead, klen = self.head_start, self.qhead, self.klen
        # Fold elapsed ack windows: every full window pops one head.
        started = head_start >= 0
        pops = np.where(
            started,
            np.minimum((r - head_start) // self.window, klen - qhead),
            0,
        )
        np.maximum(pops, 0, out=pops)
        qhead += pops
        head_start += pops * self.window
        head_start[started & (qhead >= klen)] = -1
        serving = head_start >= 0
        # Serving nodes climb the decay ladder (exact powers of two, so
        # ldexp matches the process's ``2.0 ** (-slot % rungs - 1)``
        # bit-for-bit); idle nodes with knowledge persist at the
        # background duty cycle; everyone else is silent.
        ladder = decay_ladder(r - head_start, self.rungs)
        background = np.where((klen > 0) & (self.persist > 0.0), self.persist, 0.0)
        return np.where(serving, ladder, background)

    def message_for(self, t: int, u: int) -> Message:
        """The queue head while serving, the rotation while idle."""
        if self.head_start[t, u] >= 0:
            return self.messages[t][int(self.order[t, u, self.qhead[t, u]])]
        return super().message_for(t, u)

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """Sparse reception feedback (idle/transmit feedback are no-ops)."""
        for u in self._learners(t, deliveries):
            if self.head_start[t, u] < 0:
                # The queue was idle: the window opens next round.
                self.head_start[t, u] = r + 1


class _BackoffBankKernel(_MultiMessageKernelBase):
    """All trials of a simple back-off bank, as arrays.

    Mirrors :class:`~repro.algorithms.multi_message.BackoffMultiMessageProcess`:
    nodes holding messages transmit at the regime's rate (fixed, or
    halving per quiet ``backoff_window`` — again exact powers of two via
    ``ldexp``) and rotate through their knowledge log offset by node id.
    """

    lane_params = (
        "assignment",
        "regime",
        "backoff_window",
        "base_probability",
        "min_probability",
    )

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.exponential = _lane_column(banks, "regime") == "exponential"
        self.backoff_window = _lane_column(banks, "backoff_window", np.int64)
        self.base = _lane_column(banks, "base_probability", np.float64)
        self.floor = _lane_column(banks, "min_probability", np.float64)
        self.last_new = np.zeros((self.trials, self.n), dtype=np.int64)
        for t, bank in enumerate(banks):
            for u, process in enumerate(bank):
                self._ingest_knowledge(t, u, list(process._known))

    def _plan(self, r: int) -> np.ndarray:
        epoch = np.maximum(0, r - self.last_new) // self.backoff_window
        backed = np.maximum(self.floor, self.base * np.ldexp(1.0, -epoch))
        rate = np.where(self.exponential, backed, self.base)
        return np.where(self.klen > 0, rate, 0.0)

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """Sparse reception feedback (idle/transmit feedback are no-ops)."""
        for u in self._learners(t, deliveries):
            # New knowledge resets the back-off clock from next round.
            self.last_new[t, u] = r + 1


# ----------------------------------------------------------------------
# Single-message family: local and global broadcast
# ----------------------------------------------------------------------
class _SingleMessageKernelBase(_KernelBase):
    """Shared scaffolding for the single-message kernels.

    These protocols share one structural property the kernels exploit:
    in any given round, every transmitting node of a lane declares the
    *same* probability (a ladder rung, a schedule rung, a constant
    rate, or the certain 1.0 of a slot/announcement). Each kernel's
    :meth:`_plan` therefore goes through :meth:`_shared_rung`, which
    fills, per lane:

    * ``_counts[t]`` — how many nodes hold the live probability;
    * ``_rungs[t]``  — that probability.

    which makes :meth:`expected_exact` O(1): ``count × p`` is the
    *correctly rounded* value of the real sum of ``count`` copies of
    ``p`` (``count`` is exactly representable, and ``fsum`` rounds the
    same real number once), so it is bit-identical to the reference
    engine's fsum — the licence round skipping needs.

    ``has_message`` is the (T, n) grid of nodes that hold a message:
    the broadcasters of a local broadcast, the informed nodes of a
    global one. State changes ride deliveries only (eligibility pins
    the exact process types, whose idle/transmit feedback are no-ops),
    so each kernel's schedule state can prove the coming rounds silent:
    its :meth:`next_active_round` is the kernel's one skip licence.
    ``supports_skip`` stays True and bank lanes keep event-driven
    skipping, compounding with the struct-of-arrays plan stage.
    """

    supports_skip = True

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self._ones = np.ones((self.trials, 1))
        self._counts: Optional[np.ndarray] = None
        self._rungs: Optional[np.ndarray] = None

    def _shared_rung(
        self, active: np.ndarray, rung: np.ndarray, counts: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Probabilities where lane ``t``'s active nodes all hold ``rung[t]``.

        ``rung`` is a (T, 1) column; ``counts`` may pass a precomputed
        ``active.sum(axis=1)``. Rungs are finite and non-negative, so
        the product is exactly the rung or ``+0.0``.
        """
        self._counts = active.sum(axis=1) if counts is None else counts
        self._rungs = rung[:, 0]
        return active * rung

    def expected_exact(self, t: int, r: int) -> float:
        """The round's expected transmitter count, bit-identical to fsum."""
        self.probabilities(r)
        return int(self._counts[t]) * float(self._rungs[t])

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """Reception feedback; the static schedules have none."""

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        """First round > ``r`` on which lane ``t`` could transmit.

        The kernel's skip licence: every round in ``(r, result)`` has
        zero transmission probability for every node of the lane,
        assuming no deliveries land in between (which is vacuous —
        all-silent rounds deliver nothing). ``None`` means the lane
        never transmits again without a delivery. The promise holds
        regardless of what round ``r`` itself did, so the scheduler
        may skip from a silent round and straight from one slot round
        to the next alike.
        """
        raise NotImplementedError


class _LocalKernelBase(_SingleMessageKernelBase):
    """Local broadcast: a fixed broadcaster set, each node its own message.

    Role rule: a node is a broadcaster iff it has a message. Roles
    never change, so ``has_message`` is the broadcaster grid and
    ``_bcount`` its per-lane size.
    """

    @staticmethod
    def _role_ok(process: Process, u: int) -> bool:
        return process.is_broadcaster == (process.message is not None)

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.has_message = _node_grid(banks, "is_broadcaster", bool)
        self.messages = [[process.message for process in bank] for bank in banks]
        self._bcount = self.has_message.sum(axis=1)

    def message_for(self, t: int, u: int) -> Message:
        """Broadcasters carry per-node messages (origin = own id)."""
        return self.messages[t][u]


class _GlobalKernelBase(_SingleMessageKernelBase):
    """Global broadcast: one source's message, relayed once received.

    Role rule: a node has a message iff it is the lane's source.
    ``has_message`` starts at the source and grows by :meth:`_adopt` —
    the first data reception — and every transmitter relays the lane's
    canonical message.
    """

    lane_params: tuple[str, ...] = ("source",)

    @staticmethod
    def _role_ok(process: Process, u: int) -> bool:
        return (process.message is not None) == (u == process.source)

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.source = _lane_column(banks, "source", np.int64)
        self.message = [
            bank[int(source)].message for bank, source in zip(banks, self.source[:, 0])
        ]
        self.has_message = np.arange(self.n) == self.source

    def message_for(self, t: int, u: int) -> Message:
        """Every transmitter relays the trial's canonical message."""
        return self.message[t]

    def _announcement(self) -> np.ndarray:
        """Round-0 probabilities: the certain source announcement."""
        return self._shared_rung(np.arange(self.n) == self.source, self._ones)

    @staticmethod
    def _adoptable(message: Message) -> bool:
        return message.is_data()

    def _adopt(self, t: int, deliveries: Sequence[Delivery]) -> list[int]:
        """Mark first receptions of the message; the adopting receivers."""
        has_message = self.has_message
        adopted = []
        for delivery in deliveries:
            u = delivery.receiver
            if not has_message[t, u] and self._adoptable(delivery.message):
                has_message[t, u] = True
                adopted.append(u)
        return adopted

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """First data reception adopts the message."""
        self._adopt(t, deliveries)


class _PlainDecayBankKernel(_GlobalKernelBase):
    """All trials of a BGI plain-decay bank, as arrays.

    Mirrors :class:`~repro.algorithms.decay.PlainDecayGlobalProcess`:
    ``start[t, u]`` is the node's ``participate_from`` (every join lies
    on a phase boundary — ``start ≡ 1 mod L`` — so one ladder rung
    ``2^{-((r-1) mod L)-1}`` serves the whole informed set of a lane),
    ``_NEVER`` marks uninformed nodes, and adoption computes the next
    boundary exactly like ``on_feedback``.
    """

    lane_params = _GlobalKernelBase.lane_params + ("phase_length",)
    unbounded = ("active_phases",)

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.phase = _lane_column(banks, "phase_length", np.int64)
        self.start = np.full((self.trials, self.n), _NEVER, dtype=np.int64)
        for t, bank in enumerate(banks):
            for u, process in enumerate(bank):
                if process.participate_from is not None:
                    self.start[t, u] = process.participate_from

    def _plan(self, r: int) -> np.ndarray:
        if r == 0:
            return self._announcement()
        return self._shared_rung(self.start <= r, decay_ladder(r - 1, self.phase))

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """First data reception adopts; join at the next phase boundary."""
        adopted = self._adopt(t, deliveries)
        if adopted:
            # Same arithmetic as on_feedback: the next round r+1, pushed
            # to the boundary of the global phase clock (epoch offset 1).
            phase = int(self.phase[t, 0])
            remainder = r % phase
            wait = 0 if remainder == 0 else phase - remainder
            self.start[t, adopted] = r + 1 + wait

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        start = self.start[t]
        informed = start[start != _NEVER]
        if informed.size == 0:
            return None  # only a delivery can wake the lane
        # An already-active participant rides the ladder every round;
        # otherwise the earliest pending phase boundary is next.
        return max(r + 1, int(informed.min()))


class _PermutedDecayBankKernel(_GlobalKernelBase):
    """All trials of a Section-4.1 permuted-decay bank, as arrays.

    Mirrors :class:`~repro.algorithms.global_broadcast.ObliviousGlobalBroadcastProcess`:
    ``join_epoch[t, u]`` is the first epoch node ``u`` participates in
    (``_NEVER`` = uninformed; the source never joins — its role ends
    with the announcement). Lemma 4.2's sharing structure does the rest:
    all active nodes of a lane read the same chunk of ``S`` for the same
    epoch, so the round's rung is one schedule lookup per lane.
    """

    lane_params = _GlobalKernelBase.lane_params + ("schedule", "num_chunks")
    unbounded = ("epochs_per_node",)

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.schedule = [bank[0].schedule for bank in banks]
        self.num_chunks = [bank[0].num_chunks for bank in banks]
        self.epoch_len = [bank[0].epoch_length for bank in banks]
        self.shared = [message.shared_bits for message in self.message]
        self.join_epoch = np.full((self.trials, self.n), _NEVER, dtype=np.int64)

    def _plan(self, r: int) -> np.ndarray:
        if r == 0:
            return self._announcement()
        epochs = np.empty((self.trials, 1), dtype=np.int64)
        rungs = np.empty((self.trials, 1))
        for t in range(self.trials):
            epoch, round_in_epoch = divmod(r, self.epoch_len[t])
            schedule = self.schedule[t]
            chunk_offset = (epoch % self.num_chunks[t]) * schedule.bits_per_call
            # One schedule lookup serves the lane's whole active set —
            # the same call plan() makes, so the float is identical.
            epochs[t] = epoch
            rungs[t] = schedule.probability(self.shared[t], chunk_offset, round_in_epoch)
        return self._shared_rung(self.join_epoch <= epochs, rungs)

    @staticmethod
    def _adoptable(message: Message) -> bool:
        return message.is_data() and message.shared_bits is not None

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """First ⟨m', S⟩ reception adopts; join at the next epoch boundary."""
        adopted = self._adopt(t, deliveries)
        if adopted:
            # First epoch boundary strictly after this round.
            epoch_len = self.epoch_len[t]
            self.join_epoch[t, adopted] = (r + 1 + epoch_len - 1) // epoch_len

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        joins = self.join_epoch[t]
        joined = joins[joins != _NEVER]
        if joined.size == 0:
            # The source's role ends with the round-0 announcement;
            # only a delivery can create a relay.
            return None
        return max(r + 1, int(joined.min()) * self.epoch_len[t])


class _StaticDecayBankKernel(_LocalKernelBase):
    """All trials of an [8]-style static local decay bank, as arrays.

    Mirrors :class:`~repro.algorithms.local_static.StaticLocalDecayProcess`:
    broadcasters ride the public ladder ``2^{-(r mod L)-1}`` from round
    0 forever; there is no feedback at all, so the whole kernel is one
    masked ladder broadcast per round.
    """

    lane_params = ("phase_length",)

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.phase = _lane_column(banks, "phase_length", np.int64)

    def _plan(self, r: int) -> np.ndarray:
        return self._shared_rung(
            self.has_message, decay_ladder(r, self.phase), self._bcount
        )

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        # Broadcasters ride the public ladder every round, forever.
        return r + 1 if int(self._bcount[t]) else None


class _SlotPlan:
    """Footnotes 4–5: a node with a message transmits (certainly) iff
    ``r ≡ slots[u] (mod n)``, so the plan is one equality compare.

    Mixed into a local or global kernel base, which supplies
    ``has_message``.
    """

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.slots = _node_grid(banks, "slot", np.int64)

    def _plan(self, r: int) -> np.ndarray:
        return self._shared_rung(self.has_message & (self.slots == r % self.n), self._ones)

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        """First round *strictly* after ``r`` on which any held slot fires.

        A slot firing at ``r`` itself maps a full cycle forward: the
        skip licence asks "when does the *next* slot land?", possibly
        while standing on one.
        """
        slots = self.slots[t][self.has_message[t]]
        if slots.size == 0:
            return None
        if self.n == 1:
            return r + 1
        return r + 1 + int(((slots - (r + 1)) % self.n).min())


class _RoundRobinLocalBankKernel(_SlotPlan, _LocalKernelBase):
    """All trials of a footnote-4 round-robin local bank, as arrays.

    Mirrors :class:`~repro.algorithms.round_robin.RoundRobinLocalProcess`:
    broadcaster ``u`` transmits in its slot; roles and slots never
    change.
    """


class _RoundRobinGlobalBankKernel(_SlotPlan, _GlobalKernelBase):
    """All trials of a footnote-5 round-robin global bank, as arrays.

    Mirrors :class:`~repro.algorithms.round_robin.RoundRobinGlobalProcess`:
    informed nodes transmit in their slot and adopt the message on
    first data reception.
    """


class _UniformLocalBankKernel(_LocalKernelBase):
    """All trials of a constant-rate local bank, as arrays.

    Mirrors :class:`~repro.algorithms.uniform.UniformLocalProcess`:
    broadcasters transmit at the fixed rate forever; no feedback.
    """

    lane_params = ("probability",)

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.rate = _lane_column(banks, "probability", np.float64)

    def _plan(self, r: int) -> np.ndarray:
        return self._shared_rung(self.has_message, self.rate, self._bcount)

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        if int(self._bcount[t]) and float(self.rate[t, 0]) > 0.0:
            return r + 1  # a live rate is a coin flip every round
        return None


class _UniformGlobalBankKernel(_GlobalKernelBase):
    """All trials of a constant-rate global bank, as arrays.

    Mirrors :class:`~repro.algorithms.uniform.UniformGlobalProcess`:
    the source announces in round 0; informed nodes then relay at the
    fixed rate, adopting on first data reception.
    """

    lane_params = _GlobalKernelBase.lane_params + ("probability",)

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.rate = _lane_column(banks, "probability", np.float64)

    def _plan(self, r: int) -> np.ndarray:
        if r == 0:
            return self._announcement()
        return self._shared_rung(self.has_message, self.rate)

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        if r == 0 or float(self.rate[t, 0]) > 0.0:
            # The round-1 case is conservative for a zero rate, but a
            # zero-rate global relay is a degenerate config not worth a
            # special case here.
            return r + 1
        return None


#: The kernel for each exact process class it mirrors.
_KERNELS: dict[type, type[_KernelBase]] = {
    GklnMultiMessageProcess: _GklnBankKernel,
    BackoffMultiMessageProcess: _BackoffBankKernel,
    PlainDecayGlobalProcess: _PlainDecayBankKernel,
    ObliviousGlobalBroadcastProcess: _PermutedDecayBankKernel,
    StaticLocalDecayProcess: _StaticDecayBankKernel,
    RoundRobinLocalProcess: _RoundRobinLocalBankKernel,
    RoundRobinGlobalProcess: _RoundRobinGlobalBankKernel,
    UniformLocalProcess: _UniformLocalBankKernel,
    UniformGlobalProcess: _UniformGlobalBankKernel,
}


def build_bank_kernel(banks: Sequence[Sequence]):
    """A vectorized protocol kernel for these process banks, or ``None``.

    ``banks[t]`` is trial ``t``'s per-node process list. The first
    node's exact class selects the one candidate kernel, which is built
    only when *every* process of every lane fits its declaration
    (:meth:`_KernelBase.eligible`); anything else returns ``None`` and
    the lanes run the reference engine's per-node plan and feedback
    stages (still coin/reception-batched by the scheduler — this is a
    capability probe, not a fallback to a slower engine).
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

        Kernel lanes answer from schedule state alone with
        :meth:`_SingleMessageKernelBase.next_active_round`, a licence
        that holds whatever round ``r`` did, clamped by the adversary's
        purity boundary (which gates eliding its ``choose_topology``
        calls). Kernel-less lanes infer silence from an executed silent
        round, so they answer only when ``silent`` (every surviving
        lane of the bank was provably silent in round ``r``) and their
        idle feedback is a no-op; the reference probe then polls every
        process, and failed attempts back off exactly as the reference
        loop does.
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
