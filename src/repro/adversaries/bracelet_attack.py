"""The oblivious bracelet attacker of Theorem 4.3.

An oblivious link process cannot watch the execution — but on the
bracelet network it does not need to. Before round 0 it:

1. builds the isolated broadcast function of every band (Lemma 4.4),
2. evaluates each on a fresh support sequence, yielding a *predicted*
   per-round count of broadcasting heads for the first ``L`` rounds,
3. labels each round **dense** (predicted count > ``c·ln n``) or
   **sparse**, and
4. commits to the schedule: dense rounds turn *all* head-to-head ``G'``
   edges on (two or more broadcasting heads collide at every head);
   sparse rounds turn them all off (a message can cross sides only
   over the secret clasp, whose head broadcasts in that round with the
   small per-round probability a sparse label certifies).

Lemma 4.5 supplies the punchline: because bands evolve independently
until information can cross (at least ``L`` rounds), the *real*
execution's head counts track the predicted ones w.h.p. — dense-labeled
rounds really do have ≥ 2 broadcasters, sparse-labeled rounds really do
have ``O(log n)``. The schedule built from a simulation therefore
classifies the actual run correctly, and receptions across the clasp
stay as rare as β-hitting wins: ``Ω(√n / log n)`` rounds.

Beyond the prediction horizon ``L`` the attacker defaults to dense
(all-on) — the lower bound only needs the first ``L`` rounds, and the
measured quantity (rounds until the clasp receiver is served) is
reported against ``min(measured, L)`` by the harness.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.adversaries.base import (
    AdversaryClass,
    AlgorithmInfo,
    LinkProcess,
    ObliviousView,
    RoundTopology,
)
from repro.core.errors import AdversaryUsageError
from repro.core.rng import derive_seed
from repro.games.isolated import IsolatedBroadcastFunction, head_broadcast_counts
from repro.graphs.bracelet import BraceletNetwork
from repro.graphs.dual_graph import DualGraph

__all__ = ["BraceletObliviousAttacker"]


class BraceletObliviousAttacker(LinkProcess):
    """Precomputed dense/sparse schedule from isolated band simulations.

    Parameters
    ----------
    bracelet_network:
        The bracelet structure (bands and heads). Only the *public*
        structure is used — never the secret clasp index, which an
        honest adversary of the reduction does not know either (it is
        the hitting-game target).
    threshold_factor:
        The ``c`` of the ``c·ln n`` dense threshold (default 1.0; the
        paper leaves the constant free and fixes it inside union
        bounds).
    horizon:
        Prediction horizon; defaults to the band length ``L``, the
        validity limit of Lemma 4.4.
    """

    adversary_class = AdversaryClass.OBLIVIOUS

    def __init__(
        self,
        bracelet_network: BraceletNetwork,
        *,
        threshold_factor: float = 1.0,
        horizon: Optional[int] = None,
    ) -> None:
        self.bracelet = bracelet_network
        self.threshold_factor = threshold_factor
        self.horizon = horizon or bracelet_network.band_length
        self.labels: list[bool] = []
        self.predicted_counts: list[int] = []

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng: random.Random) -> None:
        super().start(network, algorithm, rng)
        if algorithm.blueprint is None:
            raise AdversaryUsageError(
                "BraceletObliviousAttacker needs the algorithm blueprint "
                "(AlgorithmSpec.info() provides it) to pre-simulate bands"
            )
        from repro.algorithms.base import AlgorithmSpec  # local: avoid cycle

        spec = AlgorithmSpec(
            name=algorithm.name, factory=algorithm.blueprint, metadata=algorithm.metadata
        )
        length = self.bracelet.band_length
        functions = []
        for i in range(length):
            functions.append(
                IsolatedBroadcastFunction(
                    spec=spec,
                    band_nodes=tuple(self.bracelet.band_a(i)),
                    n=network.n,
                    max_degree=network.max_degree,
                    horizon=self.horizon,
                )
            )
        for i in range(length):
            functions.append(
                IsolatedBroadcastFunction(
                    spec=spec,
                    band_nodes=tuple(self.bracelet.band_b(i)),
                    n=network.n,
                    max_degree=network.max_degree,
                    horizon=self.horizon,
                )
            )
        seeds = [
            derive_seed(rng.getrandbits(63), "support", index)
            for index in range(len(functions))
        ]
        self.predicted_counts = head_broadcast_counts(functions, seeds, self.horizon)
        threshold = self.threshold_factor * math.log(max(network.n, 3))
        self.labels = [count > threshold for count in self.predicted_counts]
        self._dense = RoundTopology.all_links(network)
        side_a_mask = 0
        for head in self.bracelet.heads_a():
            side_a_mask |= 1 << head
        # Flaky edges exist only between heads, so severing the A-head
        # side removes every cross link.
        self._sparse = RoundTopology.without_cut(
            network, side_a_mask, label="bracelet-sparse"
        )

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        r = view.round_index
        dense = self.labels[r] if r < len(self.labels) else True
        return self._dense if dense else self._sparse

    def next_boundary(self, round_index: int) -> Optional[int]:
        # The schedule is committed at start (obliviousness) and
        # choose_topology is a pure lookup, so the masks next change at
        # the end of the current label run — dense forever past the
        # prediction horizon.
        from repro.adversaries.schedule_attack import _label_run_boundary

        return _label_run_boundary(self.labels, True, round_index)

    def dense_round_fraction(self) -> float:
        """Share of scheduled rounds labelled dense (diagnostics)."""
        if not self.labels:
            return 0.0
        return sum(self.labels) / len(self.labels)


# ----------------------------------------------------------------------
# Declarative ScenarioSpec registrations
# ----------------------------------------------------------------------
from repro.core.errors import SpecError  # noqa: E402
from repro.registry import register_adversary  # noqa: E402


@register_adversary("bracelet-attacker")
def _spec_bracelet_attacker(
    ctx, *, threshold_factor: float = 1.0, horizon: Optional[int] = None
) -> BraceletObliviousAttacker:
    if not isinstance(ctx.network, BraceletNetwork):
        raise SpecError(
            "bracelet-attacker needs the 'bracelet' graph family "
            f"(got {type(ctx.network).__name__})"
        )
    return BraceletObliviousAttacker(
        ctx.network,
        threshold_factor=float(threshold_factor),
        horizon=None if horizon is None else int(horizon),
    )
