"""The bank kernels' bases: what every struct-of-arrays protocol shares.

A bank kernel runs all trials of one protocol as (trials × nodes)
arrays for :mod:`repro.core.bankpath`. Each kernel lives in its
algorithm's module, beside the process it mirrors, and calls the same
protocol rules the process calls: the process on Python ints, the
kernel on grids. The scalar-or-grid primitives :func:`pow2` and
:func:`at_least` keep the per-node path off numpy. This module imports
no algorithm module: the algorithms import it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import ClassVar, Optional, Sequence

import numpy as np

from repro.core.messages import Message
from repro.core.process import Process
from repro.core.trace import Delivery

#: Sentinel round index for per-node state that is not scheduled to
#: change ("uninformed", "never joins"): far beyond any execution while
#: comfortably inside int64 arithmetic.
_NEVER = 1 << 62

#: The kernel for each exact process class it mirrors; filled by
#: :meth:`_KernelBase.__init_subclass__`.
_KERNELS: dict[type, type[_KernelBase]] = {}


# ----------------------------------------------------------------------
# Scalar-or-grid primitives
# ----------------------------------------------------------------------
def pow2(exponent):
    """``2 ** exponent`` exactly: a float for an int, a float grid for an
    int grid (``np.ldexp``, so both forms are exact powers of two)."""
    if isinstance(exponent, int):
        return 2.0**exponent
    return np.ldexp(1.0, exponent)


def at_least(value, floor):
    """``max(value, floor)``: the builtin on numbers, elementwise on grids."""
    if isinstance(value, np.ndarray) or isinstance(floor, np.ndarray):
        return np.maximum(value, floor)
    return max(value, floor)


def _soonest(rounds: np.ndarray) -> Optional[int]:
    """The lane minimum of a per-node next-round row; ``None`` if empty."""
    return int(rounds.min()) if rounds.size else None


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

    A kernel mirrors exactly one process class, ``mirrors`` (defining
    the subclass registers it in ``_KERNELS``; a subclass of that
    process opts out), and declares what it reads from its processes:
    ``lane_params``, which every node shares with its lane's first
    node; ``unbounded`` budgets, which must be ``None`` (a finite one
    re-ties the plan to each node's join round); and the role rule
    :meth:`_role_ok`. Each kernel writes only :meth:`_plan`, which
    :meth:`probabilities` runs once per round.
    """

    mirrors: ClassVar[Optional[type]] = None
    lane_params: tuple[str, ...] = ()
    unbounded: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        mirrors = cls.__dict__.get("mirrors")
        if mirrors is not None:
            _KERNELS[mirrors] = cls

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
        self.k = banks[0][0].assignment.k
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


# ----------------------------------------------------------------------
# Single-message family: local and global broadcast
# ----------------------------------------------------------------------
class _SingleMessageKernelBase(_KernelBase):
    """Shared scaffolding for the single-message kernels.

    In any round, every transmitting node of a lane declares the *same*
    probability (a ladder rung, a schedule rung, a constant rate, or the
    certain 1.0 of a slot/announcement), so each :meth:`_plan` goes
    through :meth:`_shared_rung`, which keeps per lane how many nodes
    hold that probability (``_counts``) and the probability
    (``_rungs``). Then :meth:`expected_exact` is O(1): ``count × p`` is
    the correctly rounded real sum, bit-identical to the reference
    engine's fsum — the licence round skipping needs.

    ``has_message`` is the (T, n) grid of broadcasters (local) or
    informed nodes (global). State changes ride deliveries only, so
    :meth:`next_active_round` is the kernel's one skip licence and bank
    lanes keep event-driven skipping.
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
        """First round > ``r`` on which lane ``t`` could transmit, or
        ``None`` if only a delivery can wake it: the lane minimum of the
        per-node rule behind the process's ``next_state_change``.

        The promise holds whatever round ``r`` itself did (all-silent
        rounds deliver nothing), so the scheduler may skip from a silent
        round and straight from one slot round to the next alike.
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
    the first reception :meth:`_adoptable` accepts — and every
    transmitter relays the lane's canonical message.
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
