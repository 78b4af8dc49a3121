"""Round robin broadcasting: the adversary-proof baselines.

The paper's footnotes give the robust upper bounds that bracket the
adversarial rows of Figure 1:

* footnote 4: "Local broadcast can always be solved in O(n) rounds
  using round robin broadcasting on the n node ids."
* footnote 5: "We can always solve broadcast among 2β nodes in (2β)²
  rounds by doing round robin broadcast 2β times."

Round robin is immune to *every* link process: when node ``u`` is the
only transmitter in the whole network, no adversarial edge choice can
create a collision at any listener, so ``u``'s reliable neighbors all
receive. The price is paying ``n`` rounds per progress step — which on
the constant-diameter dual clique exactly meets the ``Ω(n)`` offline
adaptive lower bound, closing that Figure-1 cell from above.

Slot permutations: by default node ``u`` owns slot ``u``, but on
topologies where node ids happen to be sorted along the broadcast
direction (lines, lines of cliques) the identity schedule luckily
rides the id order and finishes global broadcast in a single sweep.
The worst case the ``O(nD)`` bound describes needs ids decorrelated
from the topology, so experiment scenarios pass ``slot_seed`` to draw
a uniform slot permutation per trial (the guarantee "one solo slot per
sweep per node" is permutation-invariant).
"""

from __future__ import annotations

import random
from functools import partial
from typing import AbstractSet, Optional, Sequence

import numpy as np

from repro.algorithms.base import AlgorithmSpec, spec_broadcasters, spec_source
from repro.core.kernels import _GlobalKernelBase, _LocalKernelBase, _node_grid, _soonest
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan
from repro.registry import register_algorithm

__all__ = [
    "RoundRobinLocalProcess",
    "RoundRobinGlobalProcess",
    "on_slot",
    "slot_gap",
    "make_round_robin_local_broadcast",
    "make_round_robin_global_broadcast",
]


def on_slot(round_index, slot, n):
    """Footnotes 4–5: a node holding a message transmits (certainly) iff
    ``r ≡ slot (mod n)``. On Python ints or integer slot grids."""
    return round_index % n == slot


def slot_gap(round_index, slot, n):
    """Rounds from ``r`` until ``slot`` fires, 0 on the slot round itself
    (on Python ints or integer grids)."""
    return (slot - round_index) % n


def _slot_table(n: int, slot_seed: Optional[int]) -> Optional[Sequence[int]]:
    """Slot assignment: ``slots[u]`` is node ``u``'s slot. None = identity."""
    if slot_seed is None:
        return None
    slots = list(range(n))
    random.Random(slot_seed).shuffle(slots)
    return slots


class _SlotProcess(Process):
    """A node that transmits the message it holds, if any, on its slot."""

    def next_state_change(self, round_index: int):
        # The plan is a pure function of ``r mod n``: silence until the
        # slot round, one certain transmission, silence again.
        if self.message is None or self.ctx.n == 1:
            return None  # only adoption, or every round is the slot round
        # Standing on the slot, the plan falls silent next round.
        return round_index + (slot_gap(round_index, self.slot, self.ctx.n) or 1)

    def plan(self, round_index: int) -> RoundPlan:
        if self.message is not None and on_slot(round_index, self.slot, self.ctx.n):
            return RoundPlan.certain(self.message)
        return RoundPlan.silence()


class RoundRobinLocalProcess(_SlotProcess):
    """Local broadcast by id schedule: node ``u`` transmits iff ``r ≡ u (mod n)``.

    Every broadcaster gets one guaranteed-solo round per ``n``-round
    sweep, so the problem is solved within ``n`` rounds under any link
    process — deterministically, not just w.h.p.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        broadcasters: AbstractSet[int],
        payload: object = "m",
        slots: Optional[Sequence[int]] = None,
    ) -> None:
        self.ctx = ctx  # inlined Process.__init__: built 10⁴ times per bench trial
        self.is_broadcaster = ctx.node_id in broadcasters
        self.slot = slots[ctx.node_id] if slots is not None else ctx.node_id
        self.message: Optional[Message] = None
        if self.is_broadcaster:
            self.message = Message(
                MessageKind.DATA, origin=ctx.node_id, payload=payload
            )


class RoundRobinGlobalProcess(_SlotProcess):
    """Global broadcast by repeated round robin sweeps: ``O(n · D)`` rounds.

    Informed nodes transmit in their id slot; each ``n``-round sweep
    advances the informed frontier by at least one ``G`` hop under any
    link process, so ``D`` sweeps complete the broadcast.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        source: int,
        payload: object = "m",
        slots: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(ctx)
        self.source = source
        self.slot = slots[ctx.node_id] if slots is not None else ctx.node_id
        self.message: Optional[Message] = None
        if ctx.node_id == source:
            self.message = Message(MessageKind.DATA, origin=source, payload=payload)

    #: The only transition is message adoption on reception; idle
    #: feedback is skippable.
    idle_feedback_noop = True

    @property
    def informed(self) -> bool:
        return self.message is not None

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        if self.message is None and received is not None and received.is_data():
            self.message = received


class _SlotPlan:
    """The round-robin plan over a lane grid: nodes with a message fire
    on their slot, so the plan is one :func:`on_slot` compare.

    Mixed into a local or global kernel base, which supplies
    ``has_message``.
    """

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.slots = _node_grid(banks, "slot", np.int64)

    def _plan(self, r: int) -> np.ndarray:
        firing = self.has_message & on_slot(r, self.slots, self.n)
        return self._shared_rung(firing, self._ones)

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        """First round *strictly* after ``r`` on which any held slot fires
        (standing on a slot maps a full cycle forward)."""
        held = self.slots[t][self.has_message[t]]
        return _soonest(r + 1 + slot_gap(r + 1, held, self.n))


class _RoundRobinLocalBankKernel(_SlotPlan, _LocalKernelBase):
    """All trials of a footnote-4 round-robin local bank."""

    mirrors = RoundRobinLocalProcess


class _RoundRobinGlobalBankKernel(_SlotPlan, _GlobalKernelBase):
    """All trials of a footnote-5 round-robin global bank."""

    mirrors = RoundRobinGlobalProcess


def make_round_robin_local_broadcast(
    n: int,
    broadcasters: AbstractSet[int],
    *,
    payload: object = "m",
    slot_seed: Optional[int] = None,
) -> AlgorithmSpec:
    """Spec for the footnote-4 ``O(n)`` local broadcast baseline."""
    broadcaster_set = frozenset(broadcasters)
    for b in broadcaster_set:
        if not 0 <= b < n:
            raise ValueError(f"broadcaster {b} outside [0, {n})")
    slots = _slot_table(n, slot_seed)

    # ``partial`` instead of a closure: one C-level call per node.
    factory = partial(
        RoundRobinLocalProcess,
        broadcasters=broadcaster_set,
        payload=payload,
        slots=slots,
    )

    return AlgorithmSpec(
        name=f"round-robin-local(|B|={len(broadcaster_set)})",
        factory=factory,
        metadata={
            "family": "round-robin",
            "problem": "local-broadcast",
            "broadcasters": sorted(broadcaster_set),
            "deterministic": True,
        },
    )


def make_round_robin_global_broadcast(
    n: int,
    source: int,
    *,
    payload: object = "m",
    slot_seed: Optional[int] = None,
) -> AlgorithmSpec:
    """Spec for the footnote-5 ``O(nD)`` global broadcast baseline."""
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    slots = _slot_table(n, slot_seed)

    def factory(ctx):
        return RoundRobinGlobalProcess(
            ctx, source=source, payload=payload, slots=slots
        )

    return AlgorithmSpec(
        name=f"round-robin-global(n={n})",
        factory=factory,
        metadata={
            "family": "round-robin",
            "problem": "global-broadcast",
            "source": source,
            "deterministic": True,
        },
    )


@register_algorithm("round-robin-global")
def _spec_round_robin_global(
    ctx,
    *,
    source: Optional[int] = None,
    payload: object = "m",
    random_slots: bool = False,
    slot_seed: Optional[int] = None,
) -> AlgorithmSpec:
    """Footnote-5 baseline; ``random_slots`` draws a per-trial slot
    permutation from the ``"slots"`` stream (the label the chain-graph
    scenarios use so the identity schedule never luckily matches)."""
    if slot_seed is None and random_slots:
        slot_seed = ctx.derive("slots")
    return make_round_robin_global_broadcast(
        ctx.graph.n, spec_source(ctx, source), payload=payload, slot_seed=slot_seed
    )


@register_algorithm("round-robin-local")
def _spec_round_robin_local(
    ctx,
    *,
    broadcasters=None,
    payload: object = "m",
    random_slots: bool = False,
    slot_seed: Optional[int] = None,
) -> AlgorithmSpec:
    if slot_seed is None and random_slots:
        slot_seed = ctx.derive("slots")
    return make_round_robin_local_broadcast(
        ctx.graph.n,
        spec_broadcasters(ctx, broadcasters),
        payload=payload,
        slot_seed=slot_seed,
    )
