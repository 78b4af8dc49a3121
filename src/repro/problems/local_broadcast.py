"""The local broadcast problem: one message into every receiver.

From Section 2: "The local broadcast problem assumes some subset of
nodes ``B ⊆ V`` are provided a message. Let ``R`` be the set of nodes
with at least one neighbor in ``B`` by ``G``. The problem is solved
when every node in ``R`` has received at least one message from a
neighbor in ``B``."

Note the asymmetry the paper highlights (footnote 2): this is the
*receive* side only — every receiver hears *some* broadcaster, not
every broadcaster reaches every receiver. Reception may arrive over a
flaky ``G'`` edge; ``R`` itself is defined by ``G`` adjacency.
"""

from __future__ import annotations

from typing import AbstractSet, Optional

import numpy as np

from repro.core.errors import SpecError
from repro.core.trace import RoundRecord, iter_bits, popcount
from repro.graphs.dual_graph import DualGraph
from repro.problems.base import Problem, ProblemObserver
from repro.registry import cut_mask_for, register_problem

__all__ = ["LocalBroadcastProblem", "LocalBroadcastObserver", "receiver_set"]


def receiver_set(network: DualGraph, broadcasters: AbstractSet[int]) -> frozenset[int]:
    """The paper's ``R``: nodes with at least one ``G``-neighbor in ``B``.

    Broadcasters themselves belong to ``R`` when they neighbor another
    broadcaster — the definition does not exclude them.
    """
    indptr, indices = network.csr()
    in_b = np.zeros(network.n, dtype=bool)
    in_b[list(broadcasters)] = True
    # The union of B's G rows, one vectorized pass over the CSR.
    heard = np.zeros(network.n, dtype=bool)
    heard[indices[np.repeat(in_b, np.diff(indptr))]] = True
    return frozenset(np.flatnonzero(heard).tolist())


class LocalBroadcastObserver(ProblemObserver):
    """Tracks which receivers have heard a message originating in ``B``."""

    def __init__(self, n: int, broadcasters: frozenset[int], receivers: frozenset[int]) -> None:
        self.n = n
        self.broadcasters = broadcasters
        self.receivers = receivers
        self._pending_mask = 0
        for u in receivers:
            self._pending_mask |= 1 << u
        self._total = len(receivers)
        self.first_served_round: dict[int, int] = {}

    @property
    def solved(self) -> bool:
        return self._pending_mask == 0

    @property
    def served_count(self) -> int:
        return self._total - popcount(self._pending_mask)

    def on_round(self, record: RoundRecord) -> None:
        if not self._pending_mask:
            return
        for delivery in record.deliveries:
            if not delivery.message.is_data():
                continue
            if delivery.message.origin not in self.broadcasters:
                continue
            bit = 1 << delivery.receiver
            if self._pending_mask & bit:
                self._pending_mask &= ~bit
                self.first_served_round[delivery.receiver] = record.round_index

    def on_round_batch(self, start: int, stop: int) -> None:
        """All-silent span: no deliveries, so coverage cannot move."""

    def progress(self) -> float:
        if self._total == 0:
            return 1.0
        return self.served_count / self._total

    def pending_receivers(self) -> list[int]:
        """Receivers still waiting for a ``B``-originated message."""
        return list(iter_bits(self._pending_mask))


class LocalBroadcastProblem(Problem):
    """Local broadcast with broadcaster set ``B`` on a connected ``G``."""

    def __init__(self, network: DualGraph, broadcasters: AbstractSet[int]) -> None:
        super().__init__(network)
        self.broadcasters = frozenset(int(b) for b in broadcasters)
        for b in self.broadcasters:
            if not 0 <= b < network.n:
                raise ValueError(f"broadcaster {b} outside [0, {network.n})")
        self.receivers = receiver_set(network, self.broadcasters)

    def make_observer(self) -> LocalBroadcastObserver:
        return LocalBroadcastObserver(self.network.n, self.broadcasters, self.receivers)

    def describe(self) -> str:
        return (
            f"local-broadcast(|B|={len(self.broadcasters)}, "
            f"|R|={len(self.receivers)}, n={self.network.n})"
        )


@register_problem("local-broadcast")
def _spec_local_broadcast(
    ctx, *, broadcasters=None, fraction=None, side=None
) -> LocalBroadcastProblem:
    """Declarative broadcaster-set selection for ``B``.

    Exactly one selector:

    * ``broadcasters`` — an explicit node list;
    * ``fraction`` — a per-trial uniform sample of ``max(1, ⌊fraction·n⌋)``
      nodes from the ``"broadcasters"`` derivation stream (the label the
      geographic Figure-1 closures always used);
    * ``side`` — ``"all"`` for ``B = V``, or any cut-side selector
      understood by :func:`repro.registry.cut_mask_for` (``"A"`` picks a
      dual clique's side A / a bracelet's A-heads).
    """
    chosen = [s for s in (broadcasters, fraction, side) if s is not None]
    if len(chosen) != 1:
        raise SpecError(
            "local-broadcast needs exactly one of 'broadcasters', 'fraction', 'side'"
        )
    n = ctx.graph.n
    if broadcasters is not None:
        b = frozenset(int(u) for u in broadcasters)
    elif fraction is not None:
        count = max(1, int(n * float(fraction)))
        b = frozenset(ctx.rng("broadcasters").sample(range(n), count))
    elif side == "all":
        b = frozenset(range(n))
    else:
        b = frozenset(iter_bits(cut_mask_for(ctx, side)))
    return LocalBroadcastProblem(ctx.graph, b)
