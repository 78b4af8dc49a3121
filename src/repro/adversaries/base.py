"""Link processes: the adversaries that control unreliable links.

Section 2 of the paper: "the choice of which edges from ``E' \\ E`` to
include in the communication topology each round is determined by an
adversary called a *link process*", and three classical strength levels
are studied:

* **oblivious** — commits to all link decisions before the execution
  starts, knowing only the network topology and the algorithm
  description;
* **online adaptive** — sees the execution history through round
  ``r - 1`` (and anything derivable from start-of-round state, such as
  the expected transmitter count ``E[|X| | S]``), but *not* the round-r
  coins;
* **offline adaptive** — additionally sees the round-r random choices,
  i.e. the realized transmitter set.

The engine enforces these entitlements *structurally* through typed
views: an oblivious process is handed an :class:`ObliviousView` that
simply contains no execution state. Subclasses declare their class via
:attr:`LinkProcess.adversary_class`, and the engine constructs the
matching view each round.

The chosen topology is returned as a :class:`RoundTopology` — the full
per-node adjacency bitmasks for the round (``G`` plus chosen flaky
edges). Common patterns (all flaky links on, none on, a cut switched
off) are precomputed once and reused, which keeps adversaries O(1) per
round.
"""

from __future__ import annotations

import abc
import enum
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.errors import TopologyViolationError
from repro.core.trace import iter_bits
from repro.graphs.dual_graph import DualGraph, Edge, normalize_edge, pack_mask_rows

__all__ = [
    "AdversaryClass",
    "PACKED_ROWS_MAX_N",
    "RoundTopology",
    "ObliviousView",
    "OnlineAdaptiveView",
    "OfflineAdaptiveView",
    "AlgorithmInfo",
    "LinkProcess",
]


#: Above this node count a topology's packed word rows cost more memory
#: (n²/8 bytes per distinct pattern) than the engines save; the bank
#: engine's resolver switches to candidate scanning in the same regime.
PACKED_ROWS_MAX_N = 16384


class AdversaryClass(enum.Enum):
    """The three adversary strengths of the paper, weakest first."""

    OBLIVIOUS = "oblivious"
    ONLINE_ADAPTIVE = "online-adaptive"
    OFFLINE_ADAPTIVE = "offline-adaptive"

    def at_least(self, other: "AdversaryClass") -> bool:
        """True iff this class is at least as strong as ``other``."""
        order = [
            AdversaryClass.OBLIVIOUS,
            AdversaryClass.ONLINE_ADAPTIVE,
            AdversaryClass.OFFLINE_ADAPTIVE,
        ]
        return order.index(self) >= order.index(other)


@dataclass(frozen=True)
class RoundTopology:
    """The communication topology fixed for one round.

    ``masks[u]`` is the adjacency bitmask of node ``u`` this round. A
    legal topology satisfies ``G ⊆ topology ⊆ G'`` per node; the engine
    validates this when constructed with ``validate=True``.

    Use the factory helpers — they precompute masks once per pattern:

    * :meth:`reliable_only` — no flaky edge participates (bare ``G``);
    * :meth:`all_links` — every flaky edge participates (full ``G'``);
    * :meth:`without_cut` — all flaky edges except those crossing a
      node cut (the dense/sparse attackers' "sparse" pattern);
    * :meth:`from_flaky_edges` — an explicit flaky edge subset.
    """

    masks: tuple[int, ...]
    label: str = "custom"

    @classmethod
    def reliable_only(cls, network: DualGraph) -> "RoundTopology":
        """Only the reliable edges of ``G``."""
        topology = cls(masks=network.g_masks, label="G-only")
        topology._seed_packed_from(network, use_gp=False)
        return topology

    @classmethod
    def all_links(cls, network: DualGraph) -> "RoundTopology":
        """Every potential edge of ``G'``."""
        topology = cls(masks=network.gp_masks, label="G'-all")
        topology._seed_packed_from(network, use_gp=True)
        return topology

    def _seed_packed_from(self, network: DualGraph, *, use_gp: bool) -> None:
        """Adopt the graph's cached word rows for a whole-graph pattern.

        The stock adversaries rebuild the ``G``-only / full-``G'``
        topologies once per trial, but sweeps share one registry-cached
        graph — adopting :meth:`DualGraph.packed_mask_rows` here means
        the pack cost is paid once per graph, not once per trial. Gated
        like :meth:`publish_packed`: above ``PACKED_ROWS_MAX_N`` the
        engines stop consuming packed rows, so nothing is packed.
        """
        if len(self.masks) <= PACKED_ROWS_MAX_N:
            object.__setattr__(
                self, "_packed_rows_cache", network.packed_mask_rows(use_gp=use_gp)
            )

    @classmethod
    def without_cut(cls, network: DualGraph, side_mask: int, *, label: str = "cut-off") -> "RoundTopology":
        """All flaky edges except those crossing the ``side_mask`` cut.

        ``side_mask`` is a bitmask of one side of the cut; flaky edges
        with exactly one endpoint inside it are excluded, all other
        flaky edges are included. Reliable ``G`` edges always remain.
        """
        other = ((1 << network.n) - 1) & ~side_mask
        masks = []
        for u in range(network.n):
            keep = side_mask if (side_mask >> u) & 1 else other
            masks.append(network.g_masks[u] | (network.flaky_masks[u] & keep))
        return cls(masks=tuple(masks), label=label)

    @classmethod
    def from_flaky_edges(
        cls, network: DualGraph, flaky_edges: Iterable[Edge], *, label: str = "edge-set"
    ) -> "RoundTopology":
        """``G`` plus an explicit set of flaky edges.

        Raises :class:`TopologyViolationError` if an edge is not in
        ``G' \\ G`` (adding a ``G`` edge is a no-op, adding a non-``G'``
        edge is illegal).
        """
        masks = list(network.g_masks)
        for u, v in (normalize_edge(a, b) for a, b in flaky_edges):
            if (network.g_masks[u] >> v) & 1:
                continue  # already reliable
            if not (network.gp_masks[u] >> v) & 1:
                raise TopologyViolationError(f"edge ({u}, {v}) is not in G'")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(masks=tuple(masks), label=label)

    @classmethod
    def from_active_flaky_nodes(
        cls, network: DualGraph, active_mask: int, *, label: str = "node-fade"
    ) -> "RoundTopology":
        """Node-level fading: a flaky edge is on iff *both* endpoints are active.

        ``active_mask`` marks unfaded nodes. This is the O(n) pattern
        used by the node-level stochastic link processes; it runs every
        round for fading adversaries, so single-word graphs take a
        vectorized route over the network's cached uint64 masks.
        """
        words = network.word_masks()
        if words is not None:
            g_np, flaky_np = words
            active = np.unpackbits(
                np.frombuffer(active_mask.to_bytes(8, "little"), dtype=np.uint8),
                bitorder="little",
                count=network.n,
            ).astype(bool)
            rows = np.where(
                active, g_np | (flaky_np & np.uint64(active_mask)), g_np
            )
            return cls(masks=tuple(rows.tolist()), label=label)
        masks = []
        for u in range(network.n):
            if (active_mask >> u) & 1:
                masks.append(network.g_masks[u] | (network.flaky_masks[u] & active_mask))
            else:
                masks.append(network.g_masks[u])
        return cls(masks=tuple(masks), label=label)

    def packed_rows(self) -> np.ndarray:
        """The masks as a shared ``(n, ⌈n/64⌉)`` uint64 word matrix.

        Built lazily and cached on the (frozen) instance with the same
        ``object.__setattr__`` idiom as :meth:`DualGraph.word_masks`.
        Static and cyclic adversaries reuse one :class:`RoundTopology`
        object across all rounds (and the bank scheduler shares it
        across lanes), so the pack cost is paid once per *pattern* per
        run instead of once per round per lane. Treat the array as
        read-only; it is shared between callers.
        """
        rows = getattr(self, "_packed_rows_cache", None)
        if rows is None:
            rows = pack_mask_rows(self.masks, len(self.masks))
            object.__setattr__(self, "_packed_rows_cache", rows)
        return rows

    def publish_packed(self) -> "RoundTopology":
        """Precompute :meth:`packed_rows` eagerly; returns ``self``.

        Adversaries that mint their whole mask schedule in ``start()``
        call this on each cached topology so the word form exists
        before the first round. A no-op above ``PACKED_ROWS_MAX_N``,
        where the engines stop consuming packed rows.
        """
        if len(self.masks) <= PACKED_ROWS_MAX_N:
            self.packed_rows()
        return self

    def validate(self, network: DualGraph) -> None:
        """Check ``G ⊆ topology ⊆ G'`` and symmetry; raise on violation."""
        if len(self.masks) != network.n:
            raise TopologyViolationError("topology mask count differs from n")
        for u in range(network.n):
            mask = self.masks[u]
            if network.g_masks[u] & ~mask:
                raise TopologyViolationError(
                    f"round topology drops reliable G edges at node {u}"
                )
            if mask & ~network.gp_masks[u]:
                raise TopologyViolationError(
                    f"round topology adds edges outside G' at node {u}"
                )
        for u in range(network.n):
            for v in iter_bits(self.masks[u]):
                if not (self.masks[v] >> u) & 1:
                    raise TopologyViolationError(f"round topology asymmetric at ({u}, {v})")


# ----------------------------------------------------------------------
# Adversary views — the information entitlements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObliviousView:
    """What an oblivious link process may see per round: the clock only."""

    round_index: int


@dataclass(frozen=True)
class OnlineAdaptiveView(ObliviousView):
    """Adds start-of-round (coin-free) information.

    ``transmit_probabilities[u]`` is node ``u``'s declared plan
    probability — a deterministic function of its state ``S`` at the
    start of the round, so ``sum(transmit_probabilities)`` is exactly
    the ``E[|X| | S]`` of Theorem 3.1. ``history`` carries the
    per-round transmitter masks and delivery counts through round
    ``r - 1``.
    """

    transmit_probabilities: Sequence[float] = ()
    history: Sequence["HistoryEntry"] = ()

    def expected_transmitters(self) -> float:
        """The conditional expectation ``E[|X| | S]`` for this round."""
        return float(sum(self.transmit_probabilities))


@dataclass(frozen=True)
class OfflineAdaptiveView(OnlineAdaptiveView):
    """Adds the realized round-r coins: the transmitter set itself."""

    transmitter_mask: int = 0

    def transmitters(self) -> list[int]:
        return list(iter_bits(self.transmitter_mask))


@dataclass(frozen=True)
class HistoryEntry:
    """Compact public history of one past round (for adaptive views)."""

    round_index: int
    transmitter_mask: int
    delivery_count: int


@dataclass(frozen=True)
class AlgorithmInfo:
    """The algorithm description an adversary may study before round 0.

    All three adversary classes know "the algorithm being executed"
    (Section 2). ``name`` and ``metadata`` describe it; ``blueprint``
    is an optional callable ``(ProcessContext) -> Process`` with which
    an *oblivious* adversary may pre-simulate the algorithm on
    (sub)networks of its choosing — the isolated broadcast functions of
    Lemma 4.4 are exactly such pre-simulations.
    """

    name: str
    metadata: dict
    blueprint: Optional[object] = None


class LinkProcess(abc.ABC):
    """Base class for adversarial link processes.

    Lifecycle: the engine calls :meth:`start` once before round 0 with
    the network, the algorithm description, and a private RNG, then
    :meth:`choose_topology` every round with a view matching
    :attr:`adversary_class`.
    """

    #: Information entitlement of this adversary; subclasses override.
    adversary_class: AdversaryClass = AdversaryClass.OBLIVIOUS

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng: random.Random) -> None:
        """Study the network and algorithm; precompute schedules.

        Oblivious subclasses must derive *all* future behavior from the
        arguments of this call (plus the round index).
        """
        self.network = network
        self.algorithm = algorithm
        self.rng = rng

    @abc.abstractmethod
    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        """Fix the communication topology for ``view.round_index``."""

    def next_boundary(self, round_index: int) -> Optional[int]:
        """The skip contract: first round the mask choice can change.

        Returns the first round strictly after ``round_index`` at which
        :meth:`choose_topology` may return different masks, consume
        randomness, or have any other observable side effect; ``None``
        means "fixed forever". Within ``[round_index, boundary)`` the
        round-skipping engines are licensed to *elide* repeated
        :meth:`choose_topology` calls and reuse the round-``r`` masks,
        so an override additionally promises that the elided calls
        would have been pure (no state mutation, no RNG draws).

        Epoch/pattern adversaries report their next phase flip;
        degenerate stochastic ones (``p_up`` pinned to 0 or 1) report
        ``None``; anything that draws per-round randomness or records
        per-call state must keep the default. The default makes no
        promise (the distribution may change next round), which
        disables skipping over this adversary — the safe behavior for
        adaptive processes and third-party subclasses alike.
        """
        return round_index + 1

    def describe(self) -> str:
        """Human-readable label for experiment tables."""
        return f"{type(self).__name__}[{self.adversary_class.value}]"
