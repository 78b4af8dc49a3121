"""The online adaptive dense/sparse attacker of Theorem 3.1.

The proof of Theorem 3.1 has the adversary label each round by the
*conditional expectation* of the transmitter count given start-of-round
state: with ``E[|X| | S] > c·log β`` the round is **dense** and the
adversary includes *all* ``G'`` edges (any two concurrent transmitters
then collide everywhere — and with high probability a dense round has
at least two); otherwise the round is **sparse** and the adversary
includes *no* ``G'`` edges across the ``A``/``B`` cut, so a message can
cross only over the single secret reliable bridge, which requires the
(unknown) bridge endpoint to transmit while its ``G``-side neighborhood
stays silent.

This is exactly the information an online adaptive link process owns:
the threshold uses the declared transmit probabilities (state-derived,
coin-free); the realized coins are never consulted.

:class:`OnlineDenseSparseAttacker` generalizes the construction to any
cut. Instantiated on the dual clique with ``side_mask = A`` it *is* the
paper's adversary; the experiment harness also points it at the head
cut of bracelet networks and at bridge cuts of line-of-cliques graphs.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.adversaries.base import (
    AdversaryClass,
    AlgorithmInfo,
    LinkProcess,
    ObliviousView,
    OnlineAdaptiveView,
    RoundTopology,
)
from repro.core.errors import AdversaryUsageError
from repro.graphs.dual_graph import DualGraph

__all__ = ["OnlineDenseSparseAttacker", "default_dense_threshold"]


def default_dense_threshold(n: int, *, c: float = 2.0) -> float:
    """The paper's ``c·log`` threshold, base-2, with tunable constant."""
    return c * math.log2(max(n, 2))


class OnlineDenseSparseAttacker(LinkProcess):
    """Threshold the expected transmitter count; flood or sever accordingly.

    Parameters
    ----------
    side_mask:
        Bitmask of one side of the cut to sever in sparse rounds.
    threshold:
        Dense/sparse boundary on ``E[|X| | S]``; defaults to
        ``2·log2 n`` at :meth:`start` when omitted.
    count_scope_mask:
        Optional bitmask restricting *whose* probabilities count toward
        the expectation. The Theorem 4.3 variant of the attack counts
        only the band heads (other nodes have no flaky edges to
        manipulate); ``None`` counts everyone, matching Theorem 3.1 on
        the dual clique where every node is cut-adjacent.
    """

    adversary_class = AdversaryClass.ONLINE_ADAPTIVE

    def __init__(
        self,
        side_mask: int,
        *,
        threshold: Optional[float] = None,
        count_scope_mask: Optional[int] = None,
    ) -> None:
        self.side_mask = side_mask
        self.threshold = threshold
        self.count_scope_mask = count_scope_mask
        #: Per-round labels (True = dense), recorded for analysis/tests.
        self.dense_history: list[bool] = []

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng) -> None:
        super().start(network, algorithm, rng)
        if self.threshold is None:
            self.threshold = default_dense_threshold(network.n)
        self._dense_topology = RoundTopology.all_links(network)
        self._sparse_topology = RoundTopology.without_cut(
            network, self.side_mask, label="dense-sparse-cut"
        )
        self.dense_history = []

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        if not isinstance(view, OnlineAdaptiveView):
            raise AdversaryUsageError(
                "OnlineDenseSparseAttacker needs an online adaptive view; "
                "the engine supplied the wrong class"
            )
        expected = self._expected_in_scope(view)
        dense = expected > self.threshold
        self.dense_history.append(dense)
        return self._dense_topology if dense else self._sparse_topology

    def next_boundary(self, round_index: int) -> Optional[int]:
        # Online adaptive: the dense/sparse label keys on each round's
        # declared probabilities, so the choice can flip every round.
        return round_index + 1

    def _expected_in_scope(self, view: OnlineAdaptiveView) -> float:
        if self.count_scope_mask is None:
            return view.expected_transmitters()
        total = 0.0
        for u, p in enumerate(view.transmit_probabilities):
            if (self.count_scope_mask >> u) & 1:
                total += p
        return total

    def dense_round_fraction(self) -> float:
        """Share of observed rounds labelled dense (diagnostics)."""
        if not self.dense_history:
            return 0.0
        return sum(self.dense_history) / len(self.dense_history)


# ----------------------------------------------------------------------
# Declarative ScenarioSpec registrations
# ----------------------------------------------------------------------
from repro.registry import cut_mask_for, register_adversary  # noqa: E402


@register_adversary("online-dense-sparse")
def _spec_online_dense_sparse(
    ctx, *, side="A", threshold=None, count_scope=None
) -> OnlineDenseSparseAttacker:
    """``count_scope`` accepts the same selector vocabulary as ``side``
    (a named cut side, a bitmask int, or a node list)."""
    return OnlineDenseSparseAttacker(
        cut_mask_for(ctx, side),
        threshold=None if threshold is None else float(threshold),
        count_scope_mask=(
            None if count_scope is None else cut_mask_for(ctx, count_scope)
        ),
    )
