"""Classic decay and the Bar-Yehuda–Goldreich–Itai global broadcast [2].

The decay subroutine has every participating node cycle — in lockstep —
through the probability ladder ``1/2, 1/4, …, 2/n, 1/n`` (``log n``
rounds per phase). For any receiver, one rung of the ladder matches the
number of transmitting neighbors, and in that round the receiver gets a
message with constant probability. Repeating phases yields the classic
``O(D log n + log² n)`` global broadcast in the static protocol model.

The schedule is *public and deterministic*: round ``r`` of a phase uses
probability ``2^{-(r mod log n) - 1}`` no matter what. That is its
fatal weakness in the dual graph model — an oblivious adversary can
compute the expected transmitter count of every future round from the
algorithm description alone (see
:mod:`repro.adversaries.schedule_attack`) — and the reason Section 4.1
replaces it with *permuted* decay.

Here:

* :class:`PlainDecayGlobalProcess` — BGI global broadcast: the source
  announces in round 0; every informed node joins the ladder at the
  next phase boundary (``_PlainDecayBankKernel`` is its bank form);
* :func:`decay_ladder`, :func:`decay_join_round`,
  :func:`next_ladder_round` — the ladder, the join and the next active
  round, on a node's ints or a bank's grids alike.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.algorithms.base import AlgorithmSpec, log2_ceil, spec_source
from repro.core.kernels import _NEVER, _GlobalKernelBase, _lane_column, _soonest, at_least, pow2
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan
from repro.core.trace import Delivery
from repro.registry import register_algorithm

__all__ = [
    "decay_probability",
    "decay_ladder",
    "decay_join_round",
    "next_ladder_round",
    "PlainDecayGlobalProcess",
    "make_plain_decay_global_broadcast",
]


def decay_probability(round_in_phase: int, phase_length: int) -> float:
    """The decay ladder: probability ``2^{-(j+1)}`` at phase round ``j``.

    ``j = 0`` gives ``1/2``; ``j = phase_length - 1`` gives
    ``2^{-phase_length}`` (``= 1/n`` when ``phase_length = log n``).
    """
    if not 0 <= round_in_phase < phase_length:
        raise ValueError(
            f"round_in_phase {round_in_phase} outside [0, {phase_length})"
        )
    return decay_ladder(round_in_phase, phase_length)


def decay_ladder(round_index, phase_length):
    """The ladder at any round offset: ``2^{-(r mod L)-1}``, an exact
    power of two on ints and grids alike (``%`` keeps negative offsets
    on the ladder)."""
    return pow2(-(round_index % phase_length) - 1)


def decay_join_round(round_index, phase_length):
    """Where a node that adopts in round ``r`` joins the ladder: the next
    round, pushed to the global phase clock's boundary (offset 1, where
    the source joins), so every informed node sits on the same rung."""
    return round_index + 1 + (-round_index) % phase_length


def next_ladder_round(round_index, start):
    """First round after ``r`` on which a node joined at ``start``
    transmits: it rides the ladder every round once it has joined."""
    return at_least(round_index + 1, start)


class PlainDecayGlobalProcess(Process):
    """One node of the BGI broadcast algorithm.

    Lifecycle: the source transmits the payload in round 0 with
    probability 1 and then behaves like any informed node. A node that
    first receives the message in round ``r`` waits for the next phase
    boundary (``r' ≡ 0 mod phase_length``) and from then on transmits
    with the ladder probability every round, for ``active_phases``
    phases (``None`` = until the engine stops it; the classic analysis
    needs ``Θ(log n)`` phases per node, and running longer never hurts
    progress — it only spends energy).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        source: int,
        payload: object = "m",
        phase_length: Optional[int] = None,
        active_phases: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        self.source = source
        self.phase_length = phase_length or log2_ceil(ctx.n)
        self.active_phases = active_phases
        self.message: Optional[Message] = None
        self.participate_from: Optional[int] = None
        if ctx.node_id == source:
            self.message = Message(MessageKind.DATA, origin=source, payload=payload)
            self.participate_from = 1  # decays start after the announcement

    #: The state machine reacts only to data receptions, so idle-listen
    #: feedback is skippable.
    idle_feedback_noop = True

    @property
    def informed(self) -> bool:
        """Whether this node holds the broadcast message."""
        return self.message is not None

    def next_state_change(self, round_index: int):
        # Only the silent stretches (uninformed / waiting / window
        # ended) are stable; the source's ladder starts at round 1.
        start = self.participate_from
        if start is None:
            return None  # adoption arrives via feedback
        if self.active_phases is not None and (
            round_index >= start + self.active_phases * self.phase_length
        ):
            return None  # the window ended; silent for good
        return next_ladder_round(round_index, start)

    def plan(self, round_index: int) -> RoundPlan:
        start = self.participate_from  # set exactly when the message is
        if start is None:
            return RoundPlan.silence()
        if round_index == 0 and self.node_id == self.source:
            return RoundPlan.certain(self.message)
        if round_index < start or self.active_phases is not None and (
            round_index >= start + self.active_phases * self.phase_length
        ):
            return RoundPlan.silence()
        return RoundPlan(
            probability=decay_ladder(round_index - start, self.phase_length),
            message=self.message,
        )

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        if self.message is None and received is not None and received.is_data():
            self.message = received
            self.participate_from = decay_join_round(round_index, self.phase_length)


class _PlainDecayBankKernel(_GlobalKernelBase):
    """All trials of a plain-decay bank: ``start[t, u]`` is the node's
    ``participate_from`` (``_NEVER`` = uninformed). Every join lies on a
    phase boundary, so rung ``r - 1`` serves a lane's informed set."""

    mirrors = PlainDecayGlobalProcess
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
            self.start[t, adopted] = decay_join_round(r, int(self.phase[t, 0]))

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        start = self.start[t]
        return _soonest(next_ladder_round(r, start[start != _NEVER]))


def make_plain_decay_global_broadcast(
    n: int,
    source: int,
    *,
    payload: object = "m",
    phase_length: Optional[int] = None,
    active_phases: Optional[int] = None,
) -> AlgorithmSpec:
    """Spec for BGI plain-decay global broadcast from ``source``.

    ``phase_length`` defaults to ``log2_ceil(n)``; all nodes share the
    same global phase clock (offset by the round-0 announcement), which
    is what makes the ladder position a pure function of the round
    index — the predictability the oblivious schedule attack exploits.
    """
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    resolved_phase = phase_length or log2_ceil(n)

    def factory(ctx):
        return PlainDecayGlobalProcess(
            ctx,
            source=source,
            payload=payload,
            phase_length=resolved_phase,
            active_phases=active_phases,
        )

    return AlgorithmSpec(
        name=f"plain-decay-global(n={n})",
        factory=factory,
        metadata={
            "family": "decay",
            "problem": "global-broadcast",
            "source": source,
            "phase_length": resolved_phase,
            "schedule": "public",
        },
    )


@register_algorithm("plain-decay")
def _spec_plain_decay(
    ctx,
    *,
    source: Optional[int] = None,
    payload: object = "m",
    phase_length: Optional[int] = None,
    active_phases: Optional[int] = None,
) -> AlgorithmSpec:
    return make_plain_decay_global_broadcast(
        ctx.graph.n,
        spec_source(ctx, source),
        payload=payload,
        phase_length=phase_length,
        active_phases=active_phases,
    )
