"""The dual graph network type: ``G = (V, E)`` and ``G' = (V, E')`` with ``E ⊆ E'``.

Section 2 of the paper describes the network with two graphs over the
same vertex set: ``G`` holds the *reliable* links that participate in
every round's communication topology, while ``G' \\ G`` holds the
*unreliable* (here: "flaky") links that the adversarial link process
may add round by round. The model requires ``E ⊆ E'``; with ``G = G'``
it degenerates to the classic static protocol model.

:class:`DualGraph` is immutable and validated on construction. For the
engine's hot path it precomputes, per node ``u``:

* ``g_masks[u]`` — bitmask of ``u``'s neighbors in ``G``;
* ``gp_masks[u]`` — bitmask of ``u``'s neighbors in ``G'``;
* ``flaky_masks[u] = gp_masks[u] & ~g_masks[u]`` — the adversary's
  per-node room to maneuver.

Bitmasks make per-round reception resolution an ``O(n)`` loop of
word-parallel intersections, which is what lets pure-Python simulations
reach the network sizes the lower-bound sweeps need.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.errors import GraphValidationError
from repro.core.trace import iter_bits, popcount

__all__ = [
    "DualGraph",
    "Edge",
    "normalize_edge",
    "edges_from_adjacency",
    "masks_to_neighbor_matrix",
    "pack_mask_rows",
]


def masks_to_neighbor_matrix(masks: Sequence[int], n: int) -> np.ndarray:
    """Expand adjacency bitmasks into an ``n × n`` float64 0/1 matrix.

    Row ``u`` is the indicator vector of ``masks[u]``. The dtype is
    deliberate: the bank engine resolves radio reception with two
    BLAS matvecs against this matrix (transmitting-neighbor *counts*
    and id-weighted sums), and float64 keeps both exact for every
    ``n`` this simulator can represent (values stay far below 2⁵³).

    The bit unpack runs at C speed: each mask serializes to
    little-endian bytes and ``np.unpackbits`` fans them out, so the
    conversion is O(n²/8) byte work rather than n² Python bit tests.
    """
    packed = _packed_adjacency(masks, n)
    bits = np.unpackbits(packed, axis=1, bitorder="little", count=n)
    return bits.astype(np.float64)

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` form of an undirected edge."""
    if u == v:
        raise GraphValidationError(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


def edges_from_adjacency(masks: Sequence[int]) -> set[Edge]:
    """Recover the canonical edge set from adjacency bitmasks."""
    edges: set[Edge] = set()
    for u, mask in enumerate(masks):
        for v in iter_bits(mask):
            if v > u:
                edges.add((u, v))
    return edges


#: Below this edge count the plain Python loop beats numpy's setup cost.
_VECTORIZE_EDGE_THRESHOLD = 1024


def _masks_from_edges(n: int, edges: Iterable[Edge]) -> list[int]:
    edge_list = edges if isinstance(edges, (list, tuple)) else list(edges)
    if len(edge_list) < _VECTORIZE_EDGE_THRESHOLD:
        masks = [0] * n
        for u, v in edge_list:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphValidationError(f"edge ({u}, {v}) outside node range [0, {n})")
            if u == v:
                raise GraphValidationError(f"self-loop at node {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks
    # Dense families (cliques, funnels) carry Θ(n²) edges; set the bits
    # through packed byte rows at C speed instead of 2|E| big-int ops.
    flat = np.fromiter(
        (coord for edge in edge_list for coord in edge),
        dtype=np.int64,
        count=2 * len(edge_list),
    )
    us, vs = flat[0::2], flat[1::2]
    bad = (us < 0) | (us >= n) | (vs < 0) | (vs >= n)
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        raise GraphValidationError(
            f"edge ({int(us[i])}, {int(vs[i])}) outside node range [0, {n})"
        )
    loops = us == vs
    if loops.any():
        i = int(np.nonzero(loops)[0][0])
        raise GraphValidationError(f"self-loop at node {int(us[i])}")
    nbytes = (n + 7) // 8
    packed = np.zeros((n, nbytes), dtype=np.uint8)
    bit_v = np.left_shift(1, (vs & 7).astype(np.uint8)).astype(np.uint8)
    bit_u = np.left_shift(1, (us & 7).astype(np.uint8)).astype(np.uint8)
    np.bitwise_or.at(packed, (us, vs >> 3), bit_v)
    np.bitwise_or.at(packed, (vs, us >> 3), bit_u)
    return [int.from_bytes(packed[u].tobytes(), "little") for u in range(n)]


def _packed_adjacency(masks: Sequence[int], n: int) -> np.ndarray:
    """Masks as an ``(n, ⌈n/8⌉)`` little-endian packed byte matrix."""
    nbytes = (n + 7) // 8
    buffer = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    return np.frombuffer(buffer, dtype=np.uint8).reshape(len(masks), nbytes)


def _first_asymmetric_edge(packed: np.ndarray, n: int) -> Optional[tuple[int, int]]:
    """Lexicographically smallest ``(u, v)`` with ``v ∈ N(u)`` but ``u ∉ N(v)``.

    Works on the packed byte matrix without unpacking it: only bytes
    that actually carry edge bits (≤ 2|E| of them) are expanded, so the
    symmetry check is O(n²/8) scan plus O(E log E) set membership
    instead of O(E) big-int shifts.
    """
    rows, cols = np.nonzero(packed)
    if rows.size == 0:
        return None
    vals = packed[rows, cols]
    parts_u: list[np.ndarray] = []
    parts_v: list[np.ndarray] = []
    for bit in range(8):
        hit = ((vals >> np.uint8(bit)) & np.uint8(1)).astype(bool)
        if hit.any():
            parts_u.append(rows[hit])
            parts_v.append((cols[hit] << 3) + bit)
    u = np.concatenate(parts_u)
    v = np.concatenate(parts_v)
    forward = u * np.int64(n) + v
    reverse = v * np.int64(n) + u
    missing = ~np.isin(reverse, forward, assume_unique=True)
    if not missing.any():
        return None
    worst = int(forward[missing].min())
    return worst // n, worst % n


def pack_mask_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """Bitmasks as a read-only ``(len(masks), ⌈n/64⌉)`` uint64 word matrix.

    This is the engines' shared word form: the bank engine's packed
    reception resolver and its scheduler both consume it, and
    static/cyclic adversaries publish their whole mask schedule through
    it once per run instead of letting every engine lane re-pack the
    same big-int tuples round after round. Single-word graphs take the
    direct ``np.array`` route; wider graphs serialize through
    little-endian bytes so each row's words are ``mask``'s 64-bit limbs
    in ascending order. The result is frozen — it is shared between
    engine lanes.
    """
    words = (n + 63) // 64
    if words == 1:
        rows = np.array(masks, dtype=np.uint64).reshape(len(masks), 1)
        rows.flags.writeable = False
        return rows
    buffer = b"".join(mask.to_bytes(words * 8, "little") for mask in masks)
    return np.frombuffer(buffer, dtype=np.uint64).reshape(len(masks), words)


@dataclass(frozen=True)
class DualGraph:
    """An immutable dual graph with precomputed adjacency bitmasks.

    Build instances with :meth:`from_edges` (preferred) or supply masks
    directly. The constructor validates symmetry implicitly (masks are
    built from undirected edges) and checks ``E ⊆ E'``.

    Attributes
    ----------
    n:
        Number of nodes; node ids are ``0 … n-1``.
    g_masks / gp_masks:
        Per-node adjacency bitmasks of ``G`` and ``G'``.
    embedding:
        Optional plane embedding ``(x, y)`` per node — present for
        geographic graphs (Section 2's geographic constraint).
    name:
        Human-readable label used by traces and experiment tables.
    """

    n: int
    g_masks: tuple[int, ...]
    gp_masks: tuple[int, ...]
    embedding: Optional[tuple[tuple[float, float], ...]] = None
    name: str = "dual-graph"
    #: Set ``validate=False`` only when the structural invariants
    #: (symmetry, no self-loops, E ⊆ E', masks within range) hold *by
    #: construction* — :meth:`from_edges` sets both directions of every
    #: edge and builds ``G'`` as a superset of ``G``, so re-deriving
    #: those facts from the finished masks is pure overhead at large n.
    #: Externally supplied masks must keep the default.
    validate: InitVar[bool] = True
    _flaky_masks: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self, validate: bool) -> None:
        if self.n < 1:
            raise GraphValidationError(f"need at least one node, got n={self.n}")
        if len(self.g_masks) != self.n or len(self.gp_masks) != self.n:
            raise GraphValidationError("adjacency mask lists must have length n")
        if validate:
            for u in range(self.n):
                # Range stays a per-node int check (bit_length is O(1),
                # unlike shifting an n-bit mask): negative or oversized
                # masks cannot even be packed into n-bit byte rows below.
                g, gp = self.g_masks[u], self.gp_masks[u]
                if g < 0 or gp < 0 or g.bit_length() > self.n or gp.bit_length() > self.n:
                    raise GraphValidationError(f"node {u} has neighbors outside [0, n)")
            # Structural checks: sparse graphs (rings, lines, geometric
            # families at large n) validate on packed byte rows without
            # ever unpacking them, dense families (cliques, funnels) on
            # the full unpacked bit matrix — materializing n × n bits
            # for a 2-regular ring costs more than the simulation at
            # n = 10⁴.
            total_bits = sum(m.bit_count() for m in self.g_masks) + sum(
                m.bit_count() for m in self.gp_masks
            )
            if total_bits * 16 < self.n * self.n:
                self._validate_sparse()
            else:
                self._validate_dense()
        if self.embedding is not None and len(self.embedding) != self.n:
            raise GraphValidationError("embedding must give one point per node")
        flaky = tuple(self.gp_masks[u] & ~self.g_masks[u] for u in range(self.n))
        object.__setattr__(self, "_flaky_masks", flaky)

    def _validate_sparse(self) -> None:
        """Structural checks on packed byte rows, mirroring :meth:`_validate_dense`.

        Unlike the dense path this never materializes the n × n bit
        matrix: subset and self-loop checks scan the ⌈n/8⌉-byte rows
        directly, and symmetry expands only the bytes that carry edge
        bits. Error selection order matches the dense path exactly:
        lowest offending node first (self-loop preferred over subset
        violation on ties), then ``G`` asymmetry before ``G'``
        asymmetry, lowest ``(u, v)`` first.
        """
        g_packed = _packed_adjacency(self.g_masks, self.n)
        gp_packed = _packed_adjacency(self.gp_masks, self.n)
        diagonal = np.arange(self.n)
        diag_bytes = g_packed[diagonal, diagonal >> 3] | gp_packed[diagonal, diagonal >> 3]
        loops = (diag_bytes >> (diagonal & 7).astype(np.uint8)) & np.uint8(1)
        subset_rows = (g_packed & ~gp_packed).any(axis=1)
        if loops.any() or subset_rows.any():
            loop_u = int(np.argmax(loops)) if loops.any() else self.n
            subset_u = int(np.argmax(subset_rows)) if subset_rows.any() else self.n
            if loop_u <= subset_u:
                raise GraphValidationError(f"self-loop at node {loop_u}")
            raise GraphValidationError(
                f"node {subset_u} has G edges missing from G' (E ⊆ E' violated)"
            )
        for packed, label in ((g_packed, "G"), (gp_packed, "G'")):
            pair = _first_asymmetric_edge(packed, self.n)
            if pair is not None:
                raise GraphValidationError(
                    f"{label} edge ({pair[0]}, {pair[1]}) is asymmetric"
                )

    def _validate_dense(self) -> None:
        g_packed = _packed_adjacency(self.g_masks, self.n)
        gp_packed = _packed_adjacency(self.gp_masks, self.n)
        g_bits = np.unpackbits(g_packed, axis=1, bitorder="little", count=self.n)
        gp_bits = np.unpackbits(gp_packed, axis=1, bitorder="little", count=self.n)
        diagonal = np.arange(self.n)
        loops = g_bits[diagonal, diagonal] | gp_bits[diagonal, diagonal]
        subset_rows = (g_bits > gp_bits).any(axis=1)
        if loops.any() or subset_rows.any():
            loop_u = int(np.argmax(loops)) if loops.any() else self.n
            subset_u = int(np.argmax(subset_rows)) if subset_rows.any() else self.n
            # Report the lowest offending node, self-loop first on ties
            # (the order the old per-node scan raised in).
            if loop_u <= subset_u:
                raise GraphValidationError(f"self-loop at node {loop_u}")
            raise GraphValidationError(
                f"node {subset_u} has G edges missing from G' (E ⊆ E' violated)"
            )
        asym_g = g_bits & (1 - g_bits.T)
        if asym_g.any():
            u, v = (int(x) for x in np.argwhere(asym_g)[0])
            raise GraphValidationError(f"G edge ({u}, {v}) is asymmetric")
        asym_gp = gp_bits & (1 - gp_bits.T)
        if asym_gp.any():
            u, v = (int(x) for x in np.argwhere(asym_gp)[0])
            raise GraphValidationError(f"G' edge ({u}, {v}) is asymmetric")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        g_edges: Iterable[Edge],
        extra_gp_edges: Iterable[Edge] = (),
        *,
        embedding: Optional[Sequence[tuple[float, float]]] = None,
        name: str = "dual-graph",
    ) -> "DualGraph":
        """Build from ``G``'s edges plus the *extra* edges of ``G' \\ G``.

        ``extra_gp_edges`` lists only the unreliable edges; ``G'`` is
        their union with ``G``, so ``E ⊆ E'`` holds by construction.
        Structural re-validation is skipped for the same reason:
        :func:`normalize_edge` rejects self-loops, :func:`_masks_from_edges`
        range-checks endpoints and sets both directions of every edge,
        and the superset union gives ``E ⊆ E'`` — nothing is left for
        ``__post_init__`` to find.
        """
        g_edge_set = {normalize_edge(u, v) for u, v in g_edges}
        extra_set = {normalize_edge(u, v) for u, v in extra_gp_edges} - g_edge_set
        g_masks = _masks_from_edges(n, g_edge_set)
        gp_masks = _masks_from_edges(n, g_edge_set | extra_set)
        return cls(
            n=n,
            g_masks=tuple(g_masks),
            gp_masks=tuple(gp_masks),
            embedding=tuple((float(x), float(y)) for x, y in embedding) if embedding else None,
            name=name,
            validate=False,
        )

    @classmethod
    def static(
        cls,
        n: int,
        g_edges: Iterable[Edge],
        *,
        embedding: Optional[Sequence[tuple[float, float]]] = None,
        name: str = "static-graph",
    ) -> "DualGraph":
        """Build a protocol-model graph (``G = G'``, no unreliable links)."""
        return cls.from_edges(n, g_edges, (), embedding=embedding, name=name)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def flaky_masks(self) -> tuple[int, ...]:
        """Per-node masks of the unreliable neighbors (``G' \\ G``)."""
        return self._flaky_masks

    def neighbor_matrix(self, *, use_gp: bool = False) -> np.ndarray:
        """The adjacency of ``G`` (or ``G'``) as a dense 0/1 float matrix.

        Built lazily and cached on the instance — the two static
        patterns ``G``-only and full-``G'`` are by far the most common
        round topologies (every static/oblivious adversary returns one
        of them most rounds), so the bank engine seeds its per-
        topology matrix cache from here. Treat the result as read-only;
        it is shared between callers.
        """
        cache = getattr(self, "_matrix_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_matrix_cache", cache)
        key = "gp" if use_gp else "g"
        matrix = cache.get(key)
        if matrix is None:
            masks = self.gp_masks if use_gp else self.g_masks
            matrix = masks_to_neighbor_matrix(masks, self.n)
            cache[key] = matrix
        return matrix

    def word_masks(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """``(g_masks, flaky_masks)`` as uint64 arrays, or ``None``.

        Only graphs whose masks fit one machine word (``n <= 64``) have
        a word form; callers fall back to the Python bigint loops
        otherwise. Built lazily and cached on the instance, like
        :meth:`neighbor_matrix`. Treat the arrays as read-only.
        """
        if self.n > 64:
            return None
        arrays = getattr(self, "_word_mask_cache", None)
        if arrays is None:
            arrays = (
                np.array(self.g_masks, dtype=np.uint64),
                np.array(self.flaky_masks, dtype=np.uint64),
            )
            object.__setattr__(self, "_word_mask_cache", arrays)
        return arrays

    def packed_mask_rows(self, *, use_gp: bool = False) -> np.ndarray:
        """``g_masks`` (or ``gp_masks``) through :func:`pack_mask_rows`, cached.

        The two static round topologies — reliable-only and full-``G'``
        — are rebuilt per trial by the stock adversaries, but their
        word form depends only on the graph, which sweeps share across
        trials via the registry cache. Caching the packed rows here
        means a sweep packs each pattern once instead of once per
        trial. The rows are frozen; treat them as read-only.
        """
        cache = getattr(self, "_packed_rows_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_packed_rows_cache", cache)
        key = "gp" if use_gp else "g"
        rows = cache.get(key)
        if rows is None:
            masks = self.gp_masks if use_gp else self.g_masks
            rows = pack_mask_rows(masks, self.n)
            cache[key] = rows
        return rows

    def g_neighbors(self, u: int) -> list[int]:
        """Neighbors of ``u`` in the reliable graph ``G``."""
        return list(iter_bits(self.g_masks[u]))

    def gp_neighbors(self, u: int) -> list[int]:
        """Neighbors of ``u`` in ``G'`` (the paper's ``N_{G'}(u)``)."""
        return list(iter_bits(self.gp_masks[u]))

    def flaky_neighbors(self, u: int) -> list[int]:
        """Neighbors reachable only through unreliable links."""
        return list(iter_bits(self._flaky_masks[u]))

    def g_degree(self, u: int) -> int:
        return popcount(self.g_masks[u])

    def gp_degree(self, u: int) -> int:
        return popcount(self.gp_masks[u])

    @property
    def max_degree(self) -> int:
        """The paper's ``Δ = max |N_{G'}(u)|`` (known to processes).

        Memoized on the instance: every trial setup asks for it (the
        processes are entitled to know Δ), and the n popcounts are not
        free at sweep scale.
        """
        cached = getattr(self, "_max_degree_cache", None)
        if cached is None:
            cached = max(popcount(mask) for mask in self.gp_masks)
            object.__setattr__(self, "_max_degree_cache", cached)
        return cached

    def g_edges(self) -> set[Edge]:
        """Canonical edge set of ``G``."""
        return edges_from_adjacency(self.g_masks)

    def gp_edges(self) -> set[Edge]:
        """Canonical edge set of ``G'``."""
        return edges_from_adjacency(self.gp_masks)

    def flaky_edges(self) -> set[Edge]:
        """Canonical edge set of ``G' \\ G``."""
        return edges_from_adjacency(self._flaky_masks)

    def has_g_edge(self, u: int, v: int) -> bool:
        return bool((self.g_masks[u] >> v) & 1)

    def has_gp_edge(self, u: int, v: int) -> bool:
        return bool((self.gp_masks[u] >> v) & 1)

    # ------------------------------------------------------------------
    # Graph algorithms (on G — the problems assume G connected)
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int, *, use_gp: bool = False) -> list[int]:
        """Hop distances from ``source``; ``-1`` marks unreachable nodes."""
        masks = self.gp_masks if use_gp else self.g_masks
        dist = [-1] * self.n
        dist[source] = 0
        frontier = 1 << source
        seen = frontier
        depth = 0
        while frontier:
            depth += 1
            next_frontier = 0
            for u in iter_bits(frontier):
                next_frontier |= masks[u]
            next_frontier &= ~seen
            seen |= next_frontier
            for u in iter_bits(next_frontier):
                dist[u] = depth
            frontier = next_frontier
        return dist

    def is_g_connected(self) -> bool:
        """True iff the reliable graph ``G`` is connected.

        Memoized on the instance: the graph is immutable, and problem
        constructors re-check connectivity once per trial while sweeps
        share one registry-cached graph across every trial and series —
        without the memo the BFS dominates trial setup at large ``n``.
        """
        cached = getattr(self, "_g_connected_cache", None)
        if cached is None:
            cached = all(d >= 0 for d in self.bfs_distances(0))
            object.__setattr__(self, "_g_connected_cache", cached)
        return cached

    def g_diameter(self) -> int:
        """Diameter of ``G`` (the paper's ``D``). Exact via all-sources BFS.

        Quadratic in ``n``; fine for experiment-scale graphs. Raises if
        ``G`` is disconnected.
        """
        best = 0
        for source in range(self.n):
            dist = self.bfs_distances(source)
            ecc = max(dist)
            if min(dist) < 0:
                raise GraphValidationError("g_diameter() requires a connected G")
            best = max(best, ecc)
        return best

    def g_eccentricity(self, source: int) -> int:
        """Max hop distance from ``source`` in ``G`` (broadcast depth)."""
        dist = self.bfs_distances(source)
        if min(dist) < 0:
            raise GraphValidationError("g_eccentricity() requires a connected G")
        return max(dist)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, nodes: Sequence[int], *, name: Optional[str] = None) -> "DualGraph":
        """Induced dual subgraph on ``nodes`` with ids remapped to ``0 … k-1``.

        Used by the lower-bound machinery to simulate a band of the
        bracelet network in isolation. The returned graph keeps only
        edges with both endpoints inside ``nodes``.
        """
        index = {node: i for i, node in enumerate(nodes)}
        if len(index) != len(nodes):
            raise GraphValidationError("induced_subgraph nodes must be distinct")
        k = len(nodes)
        g_masks = [0] * k
        gp_masks = [0] * k
        for node, i in index.items():
            for v in iter_bits(self.g_masks[node]):
                j = index.get(v)
                if j is not None:
                    g_masks[i] |= 1 << j
            for v in iter_bits(self.gp_masks[node]):
                j = index.get(v)
                if j is not None:
                    gp_masks[i] |= 1 << j
        emb = None
        if self.embedding is not None:
            emb = tuple(self.embedding[node] for node in nodes)
        # An induced subgraph of a valid dual graph is valid: symmetry,
        # loop-freedom, and E ⊆ E' all restrict to the node subset.
        return DualGraph(
            n=k,
            g_masks=tuple(g_masks),
            gp_masks=tuple(gp_masks),
            embedding=emb,
            name=name or f"{self.name}[induced {k}]",
            validate=False,
        )

    def as_static(self, *, use_gp: bool = False, name: Optional[str] = None) -> "DualGraph":
        """Collapse to a protocol-model graph: ``G = G'`` on ``G`` (or on ``G'``)."""
        masks = self.gp_masks if use_gp else self.g_masks
        return DualGraph(
            n=self.n,
            g_masks=masks,
            gp_masks=masks,
            embedding=self.embedding,
            name=name or f"{self.name}[static]",
            validate=False,
        )

    def to_networkx(self):  # pragma: no cover - optional dependency convenience
        """Export ``(G, G')`` as a pair of ``networkx.Graph`` objects."""
        import networkx as nx

        g = nx.Graph(name=f"{self.name}:G")
        gp = nx.Graph(name=f"{self.name}:G'")
        g.add_nodes_from(range(self.n))
        gp.add_nodes_from(range(self.n))
        g.add_edges_from(self.g_edges())
        gp.add_edges_from(self.gp_edges())
        return g, gp

    def summary(self) -> str:
        """One-line description for logs and tables."""
        return (
            f"{self.name}: n={self.n}, |E|={len(self.g_edges())}, "
            f"|E'\\E|={len(self.flaky_edges())}, Δ={self.max_degree}"
        )
