"""Section 4.1: global broadcast against an oblivious adversary.

The algorithm is [2] with decay swapped for *permuted* decay:

    "The source, provided message m', creates a new message
    m = ⟨m', S⟩, where S is a collection of 32 log² n log log n bits
    generated with uniform and independent randomness after the
    execution begins. In the first round, the source broadcasts m to
    its neighbors. At this point, the source's role in the broadcast is
    finished. For every other node u, on first receiving a message
    ⟨m', S⟩ in round r, it waits until the first round r' ≥ r, where
    r' mod 16 log n = 0, and then calls permuted-decay(m, 16, s),
    2 log n times in a row, where each time s includes
    16 log n log log n new bits from S."

Implementation notes (see DESIGN.md §5.4): epochs are aligned to the
global clock (``epoch = round // (γ log n)``), and the bit chunk for
epoch ``e`` is chunk ``e mod 2 log n`` of ``S``. This keeps every
simultaneous caller on the *same* bits — the precondition of
Lemma 4.2 — regardless of when each node joined, and reuses chunks
cyclically for executions longer than ``2 log n`` epochs (harmless
against an oblivious adversary whose schedule was fixed before ``S``
was drawn).

Also provided: :class:`UncoordinatedDecayGlobalProcess`, the A2
ablation — identical shape, but every node draws its rung *privately*
each round. Without the shared bits, a receiver's neighbors spread
across rungs and the per-round solo probability collapses for large
neighborhoods; the bench shows the coordination is what buys the
``O(D log n + log² n)`` bound.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.algorithms.base import AlgorithmSpec, log2_ceil, spec_source
from repro.algorithms.decay import next_ladder_round
from repro.algorithms.permuted_decay import PermutedDecaySchedule
from repro.core.bits import BitStream
from repro.core.kernels import _NEVER, _GlobalKernelBase, _lane_column, _soonest
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan
from repro.core.trace import Delivery
from repro.registry import register_algorithm

__all__ = [
    "ObliviousGlobalBroadcastProcess",
    "UncoordinatedDecayGlobalProcess",
    "make_oblivious_global_broadcast",
    "make_uncoordinated_decay_global_broadcast",
    "adopts_shared_bits",
    "permuted_join_epoch",
    "permuted_position",
]


def adopts_shared_bits(message: Message) -> bool:
    """Section 4.1's adoption rule: only a data message ⟨m', S⟩ is relayed."""
    return message.is_data() and message.shared_bits is not None


def permuted_join_epoch(round_index, epoch_length):
    """The epoch a node that adopts in round ``r`` joins: the first epoch
    boundary strictly after ``r``."""
    return round_index // epoch_length + 1


def permuted_position(round_index, epoch_length, num_chunks, bits_per_call):
    """``(epoch, chunk_offset, round_in_epoch)`` of round ``r``: epoch
    ``e`` reads chunk ``e mod num_chunks`` of ``S``, so every caller
    active in an epoch reads the same bits (Lemma 4.2's precondition)."""
    epoch, round_in_epoch = divmod(round_index, epoch_length)
    return epoch, (epoch % num_chunks) * bits_per_call, round_in_epoch


class ObliviousGlobalBroadcastProcess(Process):
    """One node of the Section 4.1 global broadcast algorithm.

    Parameters
    ----------
    ctx:
        Node context.
    source:
        The designated source node id.
    payload:
        The application payload ``m'``.
    gamma:
        The ``γ`` of permuted decay (paper: 16).
    epochs_per_node:
        How many permuted-decay calls an informed node makes (paper:
        ``2 log n``); ``None`` keeps calling until the engine stops,
        which only helps completion and is the default for experiment
        runs that measure rounds-to-solve.
    num_chunks:
        Number of distinct bit chunks in ``S`` (paper: ``2 log n``).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        source: int,
        payload: object = "m",
        gamma: int = 16,
        epochs_per_node: Optional[int] = None,
        num_chunks: Optional[int] = None,
        schedule: Optional[PermutedDecaySchedule] = None,
    ) -> None:
        super().__init__(ctx)
        self.source = source
        # An immutable schedule can be shared by all n processes of a
        # run (the factory passes one); building it per node is only
        # the fallback for direct construction.
        self.schedule = schedule or PermutedDecaySchedule(
            num_probabilities=log2_ceil(ctx.n), gamma=gamma
        )
        self.num_chunks = num_chunks or 2 * log2_ceil(ctx.n)
        self.epochs_per_node = epochs_per_node
        # Constructor-derived skip-probe inputs, precomputed once: the
        # probe polls next_state_change node by node, so it must not
        # re-walk property chains.
        self._epoch_len = self.schedule.rounds_per_call
        self._is_source = ctx.node_id == source
        self.message: Optional[Message] = None
        self.join_epoch: Optional[int] = None
        if ctx.node_id == source:
            total_bits = self.schedule.bits_per_call * self.num_chunks
            shared = BitStream.random(ctx.rng, total_bits)
            self.message = Message(
                MessageKind.DATA, origin=source, payload=payload, shared_bits=shared
            )

    #: State only changes on first reception of ⟨m', S⟩; idle feedback
    #: is safe to skip.
    idle_feedback_noop = True

    @property
    def informed(self) -> bool:
        return self.message is not None

    @property
    def epoch_length(self) -> int:
        """Rounds per epoch: the paper's ``16 log n``."""
        return self.schedule.rounds_per_call

    def next_state_change(self, round_index: int):
        # The rung changes every round of an active epoch; only the
        # silent stretches are flat.
        if self._is_source:
            return 1 if round_index == 0 else None
        join = self.join_epoch
        if join is None:
            return None  # adoption arrives via feedback
        if self.epochs_per_node is not None:
            end = (join + self.epochs_per_node) * self._epoch_len
            if round_index >= end:
                return None  # budget exhausted; silent for good
        # Active permuted decay draws a new rung each round.
        return next_ladder_round(round_index, join * self._epoch_len)

    def plan(self, round_index: int) -> RoundPlan:
        if self.node_id == self.source:
            if round_index == 0:
                return RoundPlan.certain(self.message)
            return RoundPlan.silence()  # "the source's role ... is finished"
        if self.message is None or self.join_epoch is None:
            return RoundPlan.silence()
        schedule = self.schedule
        epoch, chunk_offset, round_in_epoch = permuted_position(
            round_index, self._epoch_len, self.num_chunks, schedule.bits_per_call
        )
        if epoch < self.join_epoch:
            return RoundPlan.silence()
        if self.epochs_per_node is not None and epoch >= self.join_epoch + self.epochs_per_node:
            return RoundPlan.silence()
        probability = schedule.probability(
            self.message.shared_bits, chunk_offset, round_in_epoch
        )
        return RoundPlan(probability=probability, message=self.message)

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        if self.message is None and received is not None and adopts_shared_bits(received):
            self.message = received
            self.join_epoch = permuted_join_epoch(round_index, self._epoch_len)


class _PermutedDecayBankKernel(_GlobalKernelBase):
    """All trials of a permuted-decay bank: ``start[t, u]`` is the first
    round of node ``u``'s join epoch (``_NEVER`` = not joined; the
    source never joins). All active nodes of a lane read the same chunk
    of ``S``, so the round's rung is one schedule lookup per lane."""

    mirrors = ObliviousGlobalBroadcastProcess
    lane_params = _GlobalKernelBase.lane_params + ("schedule", "num_chunks")
    unbounded = ("epochs_per_node",)
    _adoptable = staticmethod(adopts_shared_bits)

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.schedule = [bank[0].schedule for bank in banks]
        self.num_chunks = _lane_column(banks, "num_chunks", np.int64)
        self.epoch_len = _lane_column(banks, "epoch_length", np.int64)
        self.bits = np.array([[s.bits_per_call] for s in self.schedule], dtype=np.int64)
        self.shared = [message.shared_bits for message in self.message]
        self.start = np.full((self.trials, self.n), _NEVER, dtype=np.int64)

    def _plan(self, r: int) -> np.ndarray:
        if r == 0:
            return self._announcement()
        _, offsets, positions = permuted_position(
            r, self.epoch_len, self.num_chunks, self.bits
        )
        # The same schedule call plan() makes, so the float is identical.
        lanes = zip(self.schedule, self.shared, offsets.tolist(), positions.tolist())
        rungs = [[s.probability(bits, o, p)] for s, bits, (o,), (p,) in lanes]
        return self._shared_rung(self.start <= r, np.array(rungs))

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """First ⟨m', S⟩ reception adopts; join at the next epoch boundary."""
        adopted = self._adopt(t, deliveries)
        if adopted:
            epoch_len = int(self.epoch_len[t, 0])
            self.start[t, adopted] = permuted_join_epoch(r, epoch_len) * epoch_len

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        start = self.start[t]
        return _soonest(next_ladder_round(r, start[start != _NEVER]))


class UncoordinatedDecayGlobalProcess(Process):
    """Ablation: permuted decay without the shared bits.

    Identical ladder and epoch structure, but each node draws its rung
    privately per round. The declared plan probability is the node's
    realized ``2^{-i}`` for the round (drawn in the previous feedback,
    i.e. start-of-round state — keeping the plan contract honest).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        source: int,
        payload: object = "m",
        gamma: int = 16,
    ) -> None:
        super().__init__(ctx)
        self.source = source
        self.num_probabilities = log2_ceil(ctx.n)
        self.gamma = gamma
        self._is_source = ctx.node_id == source
        self.message: Optional[Message] = None
        self.joined = False
        self._next_rung = 1 + ctx.rng.randrange(self.num_probabilities)
        if ctx.node_id == source:
            self.message = Message(MessageKind.DATA, origin=source, payload=payload)

    @property
    def informed(self) -> bool:
        return self.message is not None

    def next_state_change(self, round_index: int):
        # Absent feedback the committed rung stays put, so the plan is
        # clock-stable — but idle_feedback_noop is False, so the engine
        # never actually elides a round for this class.
        if self._is_source:
            return 1 if round_index == 0 else None
        return None

    def plan(self, round_index: int) -> RoundPlan:
        if self.node_id == self.source:
            if round_index == 0:
                return RoundPlan.certain(self.message)
            return RoundPlan.silence()
        if self.message is None or not self.joined:
            return RoundPlan.silence()
        return RoundPlan(
            probability=2.0 ** (-self._next_rung), message=self.message
        )

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        self._next_rung = 1 + self.ctx.rng.randrange(self.num_probabilities)
        if self.message is None and received is not None and received.is_data():
            self.message = received
            self.joined = True
        elif self.message is not None and self.node_id != self.source:
            self.joined = True


def make_oblivious_global_broadcast(
    n: int,
    source: int,
    *,
    payload: object = "m",
    gamma: int = 4,
    epochs_per_node: Optional[int] = None,
    paper_constants: bool = False,
) -> AlgorithmSpec:
    """Spec for the Section 4.1 algorithm.

    ``gamma`` defaults to 4 for laptop-scale sweeps; pass
    ``paper_constants=True`` for the paper's ``γ = 16`` and
    ``2 log n`` epochs per node (see DESIGN.md §5.7).
    """
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    if paper_constants:
        gamma = 16
        epochs_per_node = 2 * log2_ceil(n)
    shared_schedule = PermutedDecaySchedule(
        num_probabilities=log2_ceil(n), gamma=gamma
    )

    def factory(ctx):
        return ObliviousGlobalBroadcastProcess(
            ctx,
            source=source,
            payload=payload,
            gamma=gamma,
            epochs_per_node=epochs_per_node,
            schedule=shared_schedule,
        )

    return AlgorithmSpec(
        name=f"permuted-decay-global(n={n},γ={gamma})",
        factory=factory,
        metadata={
            "family": "permuted-decay",
            "problem": "global-broadcast",
            "source": source,
            "gamma": gamma,
            "epochs_per_node": epochs_per_node,
            "schedule": "hidden (post-start shared bits)",
        },
    )


def make_uncoordinated_decay_global_broadcast(
    n: int,
    source: int,
    *,
    payload: object = "m",
    gamma: int = 4,
) -> AlgorithmSpec:
    """Spec for the uncoordinated ablation variant (A2)."""
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")

    def factory(ctx):
        return UncoordinatedDecayGlobalProcess(
            ctx, source=source, payload=payload, gamma=gamma
        )

    return AlgorithmSpec(
        name=f"uncoordinated-decay-global(n={n})",
        factory=factory,
        metadata={
            "family": "uncoordinated-decay",
            "problem": "global-broadcast",
            "source": source,
            "schedule": "private per-node rungs",
        },
    )


@register_algorithm("permuted-decay")
def _spec_permuted_decay(
    ctx,
    *,
    source: Optional[int] = None,
    payload: object = "m",
    gamma: int = 4,
    epochs_per_node: Optional[int] = None,
    paper_constants: bool = False,
) -> AlgorithmSpec:
    return make_oblivious_global_broadcast(
        ctx.graph.n,
        spec_source(ctx, source),
        payload=payload,
        gamma=int(gamma),
        epochs_per_node=epochs_per_node,
        paper_constants=bool(paper_constants),
    )


@register_algorithm("uncoordinated-decay")
def _spec_uncoordinated_decay(
    ctx,
    *,
    source: Optional[int] = None,
    payload: object = "m",
    gamma: int = 4,
) -> AlgorithmSpec:
    return make_uncoordinated_decay_global_broadcast(
        ctx.graph.n, spec_source(ctx, source), payload=payload, gamma=int(gamma)
    )
