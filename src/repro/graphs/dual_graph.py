"""The dual graph network type: ``G = (V, E)`` and ``G' = (V, E')`` with ``E ⊆ E'``.

Section 2 of the paper describes the network with two graphs over the
same vertex set: ``G`` holds the *reliable* links that participate in
every round's communication topology, while ``G' \\ G`` holds the
*unreliable* (here: "flaky") links that the adversarial link process
may add round by round. The model requires ``E ⊆ E'``; with ``G = G'``
it degenerates to the classic static protocol model.

:class:`DualGraph` is immutable and built sparse-first. Its primary
form is CSR adjacency — ``int32`` ``indptr``/``indices`` arrays for
``G`` and for ``G'``, each row sorted — reached through
:meth:`DualGraph.csr`. :meth:`DualGraph.from_edges` sorts the edge
list straight into CSR. The graph queries (BFS, connectivity,
eccentricity, ``Δ``), local broadcast's receiver set and the
structural validation of caller-supplied masks run on it, in
``O(n + E)`` work and memory.

For the engines' hot path every node ``u`` also carries three
bitmasks, derived from the CSR rows on construction:

* ``g_masks[u]`` — bitmask of ``u``'s neighbors in ``G``;
* ``gp_masks[u]`` — bitmask of ``u``'s neighbors in ``G'``;
* ``flaky_masks[u] = gp_masks[u] & ~g_masks[u]`` — the adversary's
  per-node room to maneuver.

Bitmasks make per-round reception resolution an ``O(n)`` loop of
word-parallel intersections. A sparse graph's masks are set bit by bit
from their rows (shift-or); only a dense graph (``16·nnz ≥ n²``, whose
masks are themselves ``Θ(n²)`` bits) sets them through a packed byte
matrix. When ``E' = E`` there is one set of masks and one CSR:
``gp_masks`` is the same tuple object as ``g_masks`` and every
per-graph cache holds a single entry.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.errors import GraphValidationError
from repro.core.trace import iter_bits, popcount

__all__ = [
    "Csr",
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
    nbytes = (n + 7) // 8
    buffer = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    packed = np.frombuffer(buffer, dtype=np.uint8).reshape(len(masks), nbytes)
    bits = np.unpackbits(packed, axis=1, bitorder="little", count=n)
    return bits.astype(np.float64)

Edge = tuple[int, int]
#: CSR adjacency: ``(indptr, indices)``, both read-only ``int32``; row
#: ``u`` is ``indices[indptr[u]:indptr[u + 1]]``, sorted ascending.
Csr = tuple[np.ndarray, np.ndarray]


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


def _edge_array(edges: Iterable[Edge]) -> np.ndarray:
    """Edges as an ``(E, 2)`` int64 array; the first self-loop is an error."""
    edge_list = edges if isinstance(edges, (list, tuple)) else list(edges)
    flat = np.fromiter(itertools.chain.from_iterable(edge_list), dtype=np.int64)
    if flat.size != 2 * len(edge_list):
        raise GraphValidationError("edges must be (u, v) pairs")
    pairs = flat.reshape(-1, 2)
    loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    if loops.size:
        raise GraphValidationError(f"self-loop at node {int(pairs[loops[0], 0])}")
    return pairs


def _edge_keys(n: int, pairs: np.ndarray) -> np.ndarray:
    """Keys ``u·n + v`` (``u < v``) of undirected edges; endpoints must be in range."""
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        u, v = (int(x) for x in pairs[bad[0]])
        raise GraphValidationError(f"edge ({u}, {v}) outside node range [0, {n})")
    return pairs.min(axis=1) * n + pairs.max(axis=1)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted, without repeats."""
    # Stable sort: builders list edges in near-sorted runs, which it
    # merges in linear time.
    keys = np.sort(keys, kind="stable")
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _csr_from_counts(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _csr_from_keys(n: int, keys: np.ndarray) -> Csr:
    """Symmetric CSR of the undirected edges ``keys`` (see :func:`_edge_keys`)."""
    us, vs = np.divmod(keys, n)
    rows, cols = np.divmod(np.sort(np.concatenate((keys, vs * n + us)), kind="stable"), n)
    indptr = _csr_from_counts(np.bincount(rows, minlength=n))
    return _frozen(indptr), _frozen(cols.astype(np.int32))


def _csr_from_masks(masks: Sequence[int], n: int) -> Csr:
    """CSR rows of adjacency bitmasks, unpacked one mask at a time.

    Each row costs its own mask's bytes, so nothing ``n × n`` is built.
    The masks must be non-negative and below ``2**n``.
    """
    counts = np.fromiter((mask.bit_count() for mask in masks), dtype=np.int64, count=n)
    indptr = _csr_from_counts(counts)
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    for u, mask in enumerate(masks):
        if mask:
            row = np.frombuffer(
                mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8
            )
            indices[indptr[u] : indptr[u + 1]] = np.flatnonzero(
                np.unpackbits(row, bitorder="little")
            )
    return _frozen(indptr), _frozen(indices)


def _csr_rows(indptr: np.ndarray) -> np.ndarray:
    """The row (source node) of every CSR entry."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def _csr_keys(csr: Csr, n: int) -> np.ndarray:
    """Directed entry keys ``u·n + v``, ascending (rows and rows' entries are sorted)."""
    return _csr_rows(csr[0]) * n + csr[1]


def _masks_from_csr(csr: Csr, n: int) -> tuple[int, ...]:
    """Per-node bigint masks of CSR rows.

    A sparse graph sets each row's bits by shift-or, which costs only
    the masks' own bytes. A dense graph (``16·nnz ≥ n²``) has masks of
    ``Θ(n²)`` bits anyway; there one packed byte matrix sets them at C
    speed.
    """
    indptr, indices = csr
    if len(indices) * 16 >= n * n:
        # One flat little-endian byte matrix, n rows of ⌈n/8⌉ bytes.
        nbytes = (n + 7) // 8
        packed = np.zeros(n * nbytes, dtype=np.uint8)
        np.bitwise_or.at(
            packed,
            _csr_rows(indptr) * nbytes + (indices >> 3),
            np.left_shift(np.uint8(1), (indices & 7).astype(np.uint8)),
        )
        flat = memoryview(packed)
        return tuple(
            int.from_bytes(flat[u * nbytes : (u + 1) * nbytes], "little") for u in range(n)
        )
    ptr = indptr.tolist()
    adjacency = indices.tolist()
    masks = []
    for u in range(n):
        mask = 0
        for v in adjacency[ptr[u] : ptr[u + 1]]:
            mask |= 1 << v
        masks.append(mask)
    return tuple(masks)


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
    """An immutable dual graph: CSR adjacency plus per-node bitmasks.

    Build instances with :meth:`from_edges` (preferred) or supply masks
    directly; supplied masks are validated (range, self-loops,
    symmetry, ``E ⊆ E'``) once, on their CSR rows, and a supplied
    ``gp_masks`` equal to ``g_masks`` is replaced by the ``g_masks``
    tuple itself. So for graphs built from edges, derived or validated,
    ``gp_masks is g_masks`` exactly when ``E' = E``.

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
    #: CSR adjacency by key ``"g"`` / ``"gp"`` (see :meth:`csr`).
    _csr: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self, validate: bool) -> None:
        if self.n < 1:
            raise GraphValidationError(f"need at least one node, got n={self.n}")
        if len(self.g_masks) != self.n or len(self.gp_masks) != self.n:
            raise GraphValidationError("adjacency mask lists must have length n")
        if validate:
            for u in range(self.n):
                # Range is a per-node int check (bit_length is O(1),
                # unlike shifting an n-bit mask): negative or oversized
                # masks have no CSR row to check.
                g, gp = self.g_masks[u], self.gp_masks[u]
                if g < 0 or gp < 0 or g.bit_length() > self.n or gp.bit_length() > self.n:
                    raise GraphValidationError(f"node {u} has neighbors outside [0, n)")
            if self.gp_masks is not self.g_masks and self.gp_masks == self.g_masks:
                object.__setattr__(self, "gp_masks", self.g_masks)
            self._validate_structure()
        if self.embedding is not None and len(self.embedding) != self.n:
            raise GraphValidationError("embedding must give one point per node")
        if self.gp_masks is self.g_masks:
            flaky = (0,) * self.n
        else:
            flaky = tuple(self.gp_masks[u] & ~self.g_masks[u] for u in range(self.n))
        object.__setattr__(self, "_flaky_masks", flaky)

    def _validate_structure(self) -> None:
        """Self-loops, ``E ⊆ E'`` and symmetry, checked once on the CSR rows.

        Error order: the lowest offending node first (a self-loop before
        a subset violation on ties), then ``G`` asymmetry before ``G'``
        asymmetry, the lowest ``(u, v)`` first.
        """
        n = self.n
        g_keys = _csr_keys(self.csr(), n)
        gp_keys = g_keys if self.gp_masks is self.g_masks else _csr_keys(self.csr(use_gp=True), n)
        loop_u = subset_u = n
        for keys in (g_keys, gp_keys):
            loops = keys[keys // n == keys % n]
            if loops.size:
                loop_u = min(loop_u, int(loops[0]) // n)
        missing = g_keys[~np.isin(g_keys, gp_keys, assume_unique=True)]
        if missing.size:
            subset_u = int(missing[0]) // n
        if loop_u < n and loop_u <= subset_u:
            raise GraphValidationError(f"self-loop at node {loop_u}")
        if subset_u < n:
            raise GraphValidationError(
                f"node {subset_u} has G edges missing from G' (E ⊆ E' violated)"
            )
        for keys, label in ((g_keys, "G"), (gp_keys, "G'")):
            reverse = (keys % n) * n + keys // n
            asymmetric = keys[~np.isin(reverse, keys, assume_unique=True)]
            if asymmetric.size:
                u, v = divmod(int(asymmetric[0]), n)
                raise GraphValidationError(f"{label} edge ({u}, {v}) is asymmetric")

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
        The edges are sorted into CSR with numpy: self-loops and
        endpoints outside ``[0, n)`` are rejected, duplicates collapse,
        and both directions of every edge are stored — nothing is left
        for ``__post_init__`` to validate. With no extra edges ``G'``
        shares ``G``'s CSR and masks.
        """
        if n < 1:
            raise GraphValidationError(f"need at least one node, got n={n}")
        g_pairs = _edge_array(g_edges)
        extra_pairs = _edge_array(extra_gp_edges)
        g_keys = _distinct(_edge_keys(n, g_pairs))
        gp_csr = None
        if len(extra_pairs):
            gp_keys = _distinct(np.concatenate((g_keys, _edge_keys(n, extra_pairs))))
            if len(gp_keys) > len(g_keys):
                gp_csr = _csr_from_keys(n, gp_keys)
        return cls._from_csr(
            n,
            _csr_from_keys(n, g_keys),
            gp_csr,
            embedding=tuple((float(x), float(y)) for x, y in embedding) if embedding else None,
            name=name,
        )

    @classmethod
    def _from_csr(
        cls,
        n: int,
        g_csr: Csr,
        gp_csr: Optional[Csr],
        *,
        embedding: Optional[tuple[tuple[float, float], ...]],
        name: str,
    ) -> "DualGraph":
        """Build from valid symmetric CSR; ``gp_csr=None`` means ``G' = G``."""
        g_masks = _masks_from_csr(g_csr, n)
        gp_masks = g_masks if gp_csr is None else _masks_from_csr(gp_csr, n)
        graph = cls(
            n=n,
            g_masks=g_masks,
            gp_masks=gp_masks,
            embedding=embedding,
            name=name,
            validate=False,
        )
        graph._csr["g"] = g_csr
        if gp_csr is not None:
            graph._csr["gp"] = gp_csr
        return graph

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

    def _cache_key(self, use_gp: bool) -> str:
        """``"gp"`` for a distinct ``G'``; ``G = G'`` shares the ``"g"`` entry."""
        return "gp" if use_gp and self.gp_masks is not self.g_masks else "g"

    def csr(self, *, use_gp: bool = False) -> Csr:
        """``G``'s (or ``G'``'s) adjacency as read-only int32 ``(indptr, indices)``.

        Row ``u`` — ``indices[indptr[u]:indptr[u + 1]]`` — lists ``u``'s
        neighbors in ascending order. Graphs built from edges carry their
        CSR from construction; for supplied masks it is derived once,
        one mask at a time, and cached.
        """
        key = self._cache_key(use_gp)
        arrays = self._csr.get(key)
        if arrays is None:
            arrays = _csr_from_masks(self.gp_masks if key == "gp" else self.g_masks, self.n)
            self._csr[key] = arrays
        return arrays

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
        key = self._cache_key(use_gp)
        matrix = cache.get(key)
        if matrix is None:
            masks = self.gp_masks if key == "gp" else self.g_masks
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
        key = self._cache_key(use_gp)
        rows = cache.get(key)
        if rows is None:
            masks = self.gp_masks if key == "gp" else self.g_masks
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

        The longest ``G'`` CSR row, memoized on the instance: every
        trial setup asks for it (the processes are entitled to know Δ).
        """
        cached = getattr(self, "_max_degree_cache", None)
        if cached is None:
            cached = int(np.diff(self.csr(use_gp=True)[0]).max())
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
        """Hop distances from ``source``; ``-1`` marks unreachable nodes.

        A level-by-level walk of the CSR rows: ``O(n + E)``.
        """
        indptr, indices = self.csr(use_gp=use_gp)
        ptr = indptr.tolist()
        adjacency = indices.tolist()
        dist = [-1] * self.n
        dist[source] = 0
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            reached = []
            for u in frontier:
                for v in adjacency[ptr[u] : ptr[u + 1]]:
                    if dist[v] < 0:
                        dist[v] = depth
                        reached.append(v)
            frontier = reached
        return dist

    def is_g_connected(self) -> bool:
        """True iff the reliable graph ``G`` is connected.

        Memoized on the instance: the graph is immutable, and problem
        constructors re-check connectivity once per trial while sweeps
        share one registry-cached graph across every trial and series.
        """
        cached = getattr(self, "_g_connected_cache", None)
        if cached is None:
            cached = min(self.bfs_distances(0)) >= 0
            object.__setattr__(self, "_g_connected_cache", cached)
        return cached

    def g_diameter(self) -> int:
        """Diameter of ``G`` (the paper's ``D``). Exact via all-sources BFS.

        ``O(n·(n + E))``; fine for experiment-scale graphs. Raises if
        ``G`` is disconnected.
        """
        if not self.is_g_connected():
            raise GraphValidationError("g_diameter() requires a connected G")
        return max(max(self.bfs_distances(source)) for source in range(self.n))

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
        k = len(nodes)
        if len(set(nodes)) != k:
            raise GraphValidationError("induced_subgraph nodes must be distinct")
        if k < 1:
            raise GraphValidationError("induced_subgraph needs at least one node")
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[np.asarray(nodes, dtype=np.int64)] = np.arange(k)

        def kept_keys(csr: Csr) -> np.ndarray:
            us, vs = remap[_csr_rows(csr[0])], remap[csr[1]]
            keep = (us >= 0) & (us < vs)
            return np.sort(us[keep] * k + vs[keep], kind="stable")

        # An induced subgraph of a valid dual graph is valid: symmetry,
        # loop-freedom, and E ⊆ E' all restrict to the node subset.
        g_keys = kept_keys(self.csr())
        gp_csr = None
        if self.gp_masks is not self.g_masks:
            gp_keys = kept_keys(self.csr(use_gp=True))
            if not np.array_equal(gp_keys, g_keys):
                gp_csr = _csr_from_keys(k, gp_keys)
        emb = None
        if self.embedding is not None:
            emb = tuple(self.embedding[node] for node in nodes)
        return DualGraph._from_csr(
            k,
            _csr_from_keys(k, g_keys),
            gp_csr,
            embedding=emb,
            name=name or f"{self.name}[induced {k}]",
        )

    def as_static(self, *, use_gp: bool = False, name: Optional[str] = None) -> "DualGraph":
        """Collapse to a protocol-model graph: ``G = G'`` on ``G`` (or on ``G'``)."""
        masks = self.gp_masks if use_gp else self.g_masks
        graph = DualGraph(
            n=self.n,
            g_masks=masks,
            gp_masks=masks,
            embedding=self.embedding,
            name=name or f"{self.name}[static]",
            validate=False,
        )
        graph._csr["g"] = self.csr(use_gp=use_gp)
        return graph

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
