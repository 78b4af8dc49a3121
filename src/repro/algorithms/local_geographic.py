"""Section 4.3: local broadcast in geographic graphs, oblivious model.

The algorithm runs two stages.

**Initialization** ("locally disseminates shared randomness to
coordinate nearby nodes"): rounds are divided into ``log Δ`` phases of
``O(log² n)`` rounds. All nodes start *active*. In the first round of
phase ``i`` each active node elects itself leader with probability
``2^{-(log Δ − i + 1)}`` (the ladder ``1/Δ, 2/Δ, …, 1/4, 1/2`` as the
phases advance). A leader draws a *seed* — a fresh random bit string —
commits to it, and for the rest of the phase broadcasts it with
probability ``1/log n`` per round. At the end of the phase leaders go
inactive; every active non-leader that received at least one seed
commits to the first seed it received and goes inactive too. Nodes
still active after the last phase commit to a self-generated seed.

The doubling ladder is what keeps seed contention bounded: before a
region's election probability mass can grow past ``Θ(log n)`` expected
leaders, the region passes through a phase with ``Θ(log n)`` leaders
whose seeds — facing only ``O(log n)`` competing leaders in ``G'``
range (the region decomposition's constant ``γ_r``) — reach everyone in
the region w.h.p. and deactivate it (Lemmas 4.7–4.9).

**Broadcast**: each node of ``B`` runs permuted-decay iterations. Per
iteration it *participates* with probability ``1/log n``, deciding with
bits from its seed, and participating nodes run the whole call with
permutation bits also from the seed — so all same-seed nodes move in
lockstep, recreating Lemma 4.2's precondition locally. A receiver
neighbors ``O(log n)`` distinct seeds w.h.p., one of which goes solo
with probability ``Ω(1/log n)`` per iteration, and then delivers with
probability > 1/2 — hence ``O(log² n)`` iterations overall.

Ladder width: rungs span ``[1, log Δ]`` (not ``log n``) — neighborhood
sizes are capped by ``Δ`` — which is what makes the total
``O(log² n · log Δ)`` (DESIGN.md §5.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Optional

from repro.algorithms.base import AlgorithmSpec, log2_ceil, spec_broadcasters
from repro.algorithms.permuted_decay import PermutedDecaySchedule
from repro.core.bits import BitStream, bits_for_uniform
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan
from repro.registry import register_algorithm

__all__ = [
    "GeoLocalBroadcastParams",
    "GeoLocalBroadcastProcess",
    "make_geographic_local_broadcast",
]


@dataclass(frozen=True)
class GeoLocalBroadcastParams:
    """Resolved constants for one instantiation of the algorithm.

    Derived via :meth:`resolve`; every process of a run shares one
    instance so stage boundaries and bit layouts agree network-wide.
    """

    n: int
    max_degree: int
    log_n: int
    num_phases: int          # log Δ initialization phases
    phase_rounds: int        # rounds per initialization phase, O(log² n)
    num_iterations: int      # broadcast-stage decay iterations, O(log² n)
    schedule: PermutedDecaySchedule
    seed_iteration_bits: int  # bits one iteration consumes from a seed
    seed_total_bits: int      # full seed length
    #: ``(round_index, locate(round_index))`` of the last call: every
    #: node asks for the same round's position twice (plan and
    #: feedback), so one computation per round serves them all.
    _last_located: tuple = field(
        default=(-1, None), init=False, repr=False, compare=False
    )

    @classmethod
    def resolve(
        cls,
        n: int,
        max_degree: int,
        *,
        gamma: int = 4,
        init_rounds_factor: float = 3.0,
        iterations_factor: float = 3.0,
        paper_constants: bool = False,
    ) -> "GeoLocalBroadcastParams":
        """Compute the constants for network size ``n`` and degree ``Δ``.

        ``paper_constants=True`` selects ``γ = 16`` and larger stage
        factors matching the proof's comfort margins; the defaults are
        tuned so laptop-scale sweeps finish while preserving the
        ``log² n log Δ`` shape.
        """
        if paper_constants:
            gamma = 16
            init_rounds_factor = 8.0
            iterations_factor = 8.0
        log_n = log2_ceil(n)
        num_phases = log2_ceil(max_degree + 1)
        phase_rounds = max(2, round(init_rounds_factor * log_n * log_n) + 1)
        num_iterations = max(1, round(iterations_factor * log_n * log_n))
        schedule = PermutedDecaySchedule(
            num_probabilities=log2_ceil(max_degree + 1), gamma=gamma
        )
        participate_bits = bits_for_uniform(log_n)
        seed_iteration_bits = participate_bits + schedule.bits_per_call
        return cls(
            n=n,
            max_degree=max_degree,
            log_n=log_n,
            num_phases=num_phases,
            phase_rounds=phase_rounds,
            num_iterations=num_iterations,
            schedule=schedule,
            seed_iteration_bits=seed_iteration_bits,
            seed_total_bits=seed_iteration_bits * num_iterations,
        )

    @property
    def init_stage_rounds(self) -> int:
        """Total initialization rounds: ``log Δ`` phases × ``O(log² n)``."""
        return self.num_phases * self.phase_rounds

    @property
    def broadcast_stage_rounds(self) -> int:
        """Total broadcast rounds: ``O(log² n)`` iterations × ``γ log Δ``."""
        return self.num_iterations * self.schedule.rounds_per_call

    @property
    def total_rounds(self) -> int:
        """One full pass of the algorithm (it cycles afterwards)."""
        return self.init_stage_rounds + self.broadcast_stage_rounds

    def leader_probability(self, phase: int) -> float:
        """Election probability for 0-indexed phase ``i``: ``2^{-(P - i)}``.

        Phase 0 uses ``2^{-num_phases}`` (≈ ``1/Δ``), the last phase
        uses ``1/2`` — the paper's doubling ladder.
        """
        if not 0 <= phase < self.num_phases:
            raise ValueError(f"phase {phase} outside [0, {self.num_phases})")
        return 2.0 ** (-(self.num_phases - phase))

    def locate(self, round_index: int) -> tuple[str, int, int]:
        """Map an absolute round to ``(stage, block, offset)``.

        ``("init", phase, round_in_phase)`` during initialization, else
        ``("broadcast", iteration, round_in_iteration)``; the broadcast
        stage cycles modulo its iteration budget so executions longer
        than one pass keep a consistent bit layout.
        """
        last_round, located = self._last_located
        if last_round == round_index:
            return located
        if round_index < self.init_stage_rounds:
            phase, offset = divmod(round_index, self.phase_rounds)
            located = ("init", phase, offset)
        else:
            rounds_in = (round_index - self.init_stage_rounds) % self.broadcast_stage_rounds
            iteration, offset = divmod(rounds_in, self.schedule.rounds_per_call)
            located = ("broadcast", iteration, offset)
        object.__setattr__(self, "_last_located", (round_index, located))
        return located


class GeoLocalBroadcastProcess(Process):
    """One node of the Section 4.3 algorithm."""

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        params: GeoLocalBroadcastParams,
        broadcasters: AbstractSet[int],
        payload: object = "m",
        share_seeds: bool = True,
        always_participate: bool = False,
    ) -> None:
        super().__init__(ctx)
        self.params = params
        self.is_broadcaster = ctx.node_id in broadcasters
        self.share_seeds = share_seeds
        self.always_participate = always_participate
        self.active = True
        self.is_leader = False
        self.seed: Optional[BitStream] = None
        self.seed_is_own = False
        self._received_seed_this_phase: Optional[BitStream] = None
        self._seed_message: Optional[Message] = None
        self.data_message: Optional[Message] = None
        if self.is_broadcaster:
            self.data_message = Message(
                MessageKind.DATA, origin=ctx.node_id, payload=payload
            )

    # ------------------------------------------------------------------
    # Seed helpers
    # ------------------------------------------------------------------
    def _generate_own_seed(self) -> None:
        self.seed = BitStream.random(
            self.ctx.rng, self.params.seed_total_bits, cyclic=True
        )
        self.seed_is_own = True

    def _commit(self, seed: BitStream) -> None:
        self.seed = seed
        self.active = False

    # ------------------------------------------------------------------
    # Round behavior
    # ------------------------------------------------------------------
    def next_state_change(self, round_index: int):
        # The plan walks stage/phase/iteration structure every round
        # and feedback draws election coins — never claim stability.
        return round_index + 1

    def plan(self, round_index: int) -> RoundPlan:
        stage, block, offset = self.params.locate(round_index)
        if stage == "init":
            return self._plan_init(block, offset)
        return self._plan_broadcast(block, offset)

    def _plan_init(self, phase: int, offset: int) -> RoundPlan:
        if not self.share_seeds:
            return RoundPlan.silence()  # ablation: stage disabled entirely
        if not (self.is_leader and self.active):
            return RoundPlan.silence()
        if offset == 0:
            return RoundPlan.silence()  # election round: nobody transmits
        return RoundPlan(
            probability=1.0 / self.params.log_n, message=self._seed_message
        )

    def _plan_broadcast(self, iteration: int, offset: int) -> RoundPlan:
        if not self.is_broadcaster or self.seed is None:
            return RoundPlan.silence()
        base = iteration * self.params.seed_iteration_bits
        participates = (
            self.always_participate
            or self.seed.uniform_at(base, self.params.log_n) == 0
        )
        if not participates:
            return RoundPlan.silence()
        chunk_offset = base + bits_for_uniform(self.params.log_n)
        probability = self.params.schedule.probability(self.seed, chunk_offset, offset)
        return RoundPlan(probability=probability, message=self.data_message)

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        stage, phase, offset = self.params.locate(round_index)
        if stage != "init" or not self.share_seeds:
            return
        if offset == 0 and self.active:
            # Election round just ran (silently): flip the leader coin.
            if self.ctx.rng.random() < self.params.leader_probability(phase):
                self.is_leader = True
                self._generate_own_seed()
                self._seed_message = Message(
                    MessageKind.SEED,
                    origin=self.node_id,
                    payload=None,
                    shared_bits=self.seed,
                    tag=phase,
                )
        if (
            self.active
            and not self.is_leader
            and self._received_seed_this_phase is None
            and received is not None
            and received.is_seed()
            and received.shared_bits is not None
        ):
            self._received_seed_this_phase = received.shared_bits
        if offset == self.params.phase_rounds - 1:
            self._end_phase(phase)

    def _end_phase(self, phase: int) -> None:
        if self.is_leader:
            self.active = False
            self.is_leader = False
        elif self.active and self._received_seed_this_phase is not None:
            self._commit(self._received_seed_this_phase)
        self._received_seed_this_phase = None
        if phase == self.params.num_phases - 1 and (self.active or self.seed is None):
            # End of the stage: uncommitted nodes self-seed.
            self._generate_own_seed()
            self.active = False

    def describe_state(self) -> str:
        seed = "own" if self.seed_is_own else ("adopted" if self.seed else "none")
        return (
            f"GeoLocal(node={self.node_id}, B={self.is_broadcaster}, "
            f"active={self.active}, seed={seed})"
        )


def make_geographic_local_broadcast(
    n: int,
    broadcasters: AbstractSet[int],
    max_degree: int,
    *,
    payload: object = "m",
    gamma: int = 4,
    init_rounds_factor: float = 3.0,
    iterations_factor: float = 3.0,
    paper_constants: bool = False,
    share_seeds: bool = True,
    always_participate: bool = False,
) -> AlgorithmSpec:
    """Spec for the Section 4.3 algorithm.

    Ablation knobs (A3):

    * ``share_seeds=False`` skips the initialization stage — every
      broadcaster self-seeds and becomes its own singleton "seed
      class". Per-round rung randomness still thins traffic, so this
      alone degrades gracefully at moderate ``Δ``.
    * ``always_participate=True`` additionally removes the per-iteration
      participation lottery. Combined with ``share_seeds=False`` this is
      the *naive* variant — every broadcaster independently runs the
      Section 4.1 permuted-decay subroutine with private bits, i.e. the
      global-broadcast strategy applied verbatim to local broadcast,
      which Section 4.2 explains cannot work: with ``Θ(Δ)``
      uncoordinated senders in range, the solo-transmission probability
      collapses exponentially in ``Δ / (log n log Δ)``.
    """
    broadcaster_set = frozenset(broadcasters)
    for b in broadcaster_set:
        if not 0 <= b < n:
            raise ValueError(f"broadcaster {b} outside [0, {n})")
    params = GeoLocalBroadcastParams.resolve(
        n,
        max_degree,
        gamma=gamma,
        init_rounds_factor=init_rounds_factor,
        iterations_factor=iterations_factor,
        paper_constants=paper_constants,
    )

    def factory(ctx):
        process = GeoLocalBroadcastProcess(
            ctx,
            params=params,
            broadcasters=broadcaster_set,
            payload=payload,
            share_seeds=share_seeds,
            always_participate=always_participate,
        )
        if not share_seeds:
            # Ablation: self-seed immediately; broadcast stage timing
            # is unchanged so round counts stay comparable.
            process._generate_own_seed()
            process.active = False
        return process

    variant = "shared" if share_seeds else "unshared"
    if always_participate:
        variant += "+always"
    return AlgorithmSpec(
        name=f"geo-local-broadcast(|B|={len(broadcaster_set)},{variant})",
        factory=factory,
        metadata={
            "family": "permuted-decay",
            "problem": "local-broadcast",
            "broadcasters": sorted(broadcaster_set),
            "num_phases": params.num_phases,
            "phase_rounds": params.phase_rounds,
            "num_iterations": params.num_iterations,
            "gamma": params.schedule.gamma,
            "share_seeds": share_seeds,
            "init_stage_rounds": params.init_stage_rounds,
        },
    )


@register_algorithm("geo-local")
def _spec_geo_local(
    ctx,
    *,
    broadcasters=None,
    payload: object = "m",
    gamma: int = 4,
    init_rounds_factor: float = 3.0,
    iterations_factor: float = 3.0,
    paper_constants: bool = False,
    share_seeds: bool = True,
    always_participate: bool = False,
) -> AlgorithmSpec:
    return make_geographic_local_broadcast(
        ctx.graph.n,
        spec_broadcasters(ctx, broadcasters),
        ctx.graph.max_degree,
        payload=payload,
        gamma=int(gamma),
        init_rounds_factor=float(init_rounds_factor),
        iterations_factor=float(iterations_factor),
        paper_constants=bool(paper_constants),
        share_seeds=bool(share_seeds),
        always_participate=bool(always_participate),
    )
