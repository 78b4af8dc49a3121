"""Geographic dual graphs: the Section 2 constraint, as generators.

The paper's geographic constraint (inherited from [3], generalizing
unit disk graphs): there is a constant ``r ≥ 1`` and a plane embedding
with distance ``d`` such that for all ``u ≠ v``:

* ``d(u, v) ≤ 1``  ⇒  ``(u, v) ∈ G``  (close nodes are reliable);
* ``d(u, v) > r``  ⇒  ``(u, v) ∉ G'`` (far nodes cannot communicate).

Pairs in the *grey zone* ``1 < d(u, v) ≤ r`` may or may not be usable,
round by round, at the adversary's whim — these are exactly the flaky
edges our generators place in ``G' \\ G``.

Generators:

* :func:`random_geographic` — uniform points in a square, resampled
  until ``G`` is connected; density and grey-zone ratio are the knobs.
* :func:`grid_geographic` — jittered lattice (connectivity guaranteed),
  used for large-`n`` sweeps where resampling would be wasteful.
* :func:`cluster_chain_geographic` — ``k`` dense clusters strung along
  a line, giving geographic graphs with controlled diameter.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional, Sequence

from repro.core.errors import GraphValidationError
from repro.graphs.dual_graph import DualGraph, Edge
from repro.registry import register_graph

__all__ = [
    "edges_from_embedding",
    "geographic_from_points",
    "random_geographic",
    "grid_geographic",
    "cluster_chain_geographic",
    "verify_geographic_constraint",
]


def edges_from_embedding(
    points: Sequence[tuple[float, float]], grey_ratio: float
) -> tuple[list[Edge], list[Edge]]:
    """Split all pairs into reliable (``d ≤ 1``) and grey (``1 < d ≤ r``) edges.

    ``grey_ratio`` is the constant ``r`` of the constraint. Uses a grid
    spatial index so generation is ~O(n) for bounded densities.
    """
    if grey_ratio < 1.0:
        raise GraphValidationError(f"grey_ratio (the constant r) must be >= 1, got {grey_ratio}")
    cell = grey_ratio  # cell size = max interaction radius
    buckets: dict[tuple[int, int], list[int]] = {}
    for idx, (x, y) in enumerate(points):
        buckets.setdefault((math.floor(x / cell), math.floor(y / cell)), []).append(idx)

    reliable: list[Edge] = []
    grey: list[Edge] = []
    for (cx, cy), members in buckets.items():
        neighborhood: list[int] = []
        for dx, dy in itertools.product((-1, 0, 1), repeat=2):
            neighborhood.extend(buckets.get((cx + dx, cy + dy), ()))
        for u in members:
            ux, uy = points[u]
            for v in neighborhood:
                if v <= u:
                    continue
                vx, vy = points[v]
                dist = math.hypot(ux - vx, uy - vy)
                if dist <= 1.0:
                    reliable.append((u, v))
                elif dist <= grey_ratio:
                    grey.append((u, v))
    return reliable, grey


def geographic_from_points(
    points: Sequence[tuple[float, float]],
    grey_ratio: float,
    *,
    name: Optional[str] = None,
) -> DualGraph:
    """Build the dual graph induced by an embedding under the constraint."""
    reliable, grey = edges_from_embedding(points, grey_ratio)
    return DualGraph.from_edges(
        len(points),
        reliable,
        grey,
        embedding=points,
        name=name or f"geo-{len(points)}",
    )


def random_geographic(
    n: int,
    *,
    grey_ratio: float = 2.0,
    density: Optional[float] = None,
    seed: int = 0,
    max_tries: int = 200,
) -> DualGraph:
    """Uniform random points in a square, resampled until ``G`` connects.

    Parameters
    ----------
    n:
        Node count.
    grey_ratio:
        The geographic constant ``r`` (grey zone ``(1, r]``).
    density:
        Expected number of nodes per unit disc; the square side is
        chosen as ``sqrt(n * π / density)``. Random geometric graphs
        connect around density ``≈ ln n``, so the default scales as
        ``2·ln n + 4`` (comfortably connected at experiment sizes
        while keeping ``Δ = Θ(log n)``).
    seed:
        Seed for point placement (placement is workload, not execution,
        randomness — hence a plain seed rather than an engine RNG).
    max_tries:
        Resampling budget before raising.
    """
    if n < 2:
        raise GraphValidationError("random_geographic needs n >= 2")
    if density is None:
        density = 2.0 * math.log(n) + 4.0
    if density <= 0:
        raise GraphValidationError("density must be positive")
    rng = random.Random(seed)
    side = math.sqrt(n * math.pi / density)
    for _ in range(max_tries):
        points = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
        graph = geographic_from_points(points, grey_ratio, name=f"geo-rand-{n}")
        if graph.is_g_connected():
            return graph
    raise GraphValidationError(
        f"failed to sample a connected geographic graph after {max_tries} tries "
        f"(n={n}, density={density}); raise the density"
    )


def grid_geographic(
    rows: int,
    cols: int,
    *,
    spacing: float = 0.7,
    jitter: float = 0.1,
    grey_ratio: float = 2.0,
    seed: int = 0,
) -> DualGraph:
    """A jittered lattice whose connectivity is guaranteed by construction.

    With ``spacing + 2·jitter·√2 ≤ 1`` every lattice-adjacent pair
    stays within distance 1, so ``G`` contains the grid and is
    connected; the grey zone then supplies flaky diagonal and
    second-ring edges. Good for large sweeps (no resampling).
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GraphValidationError("grid_geographic needs at least two nodes")
    if spacing <= 0:
        raise GraphValidationError("spacing must be positive")
    reach = spacing + 2 * jitter * math.sqrt(2.0)
    if reach > 1.0 + 1e-9:
        raise GraphValidationError(
            f"spacing={spacing} with jitter={jitter} lets lattice neighbors "
            f"drift to distance {reach:.3f} > 1; G-connectivity would not be guaranteed"
        )
    rng = random.Random(seed)
    points = [
        (
            c * spacing + rng.uniform(-jitter, jitter),
            r * spacing + rng.uniform(-jitter, jitter),
        )
        for r in range(rows)
        for c in range(cols)
    ]
    return geographic_from_points(points, grey_ratio, name=f"geo-grid-{rows}x{cols}")


def cluster_chain_geographic(
    num_clusters: int,
    cluster_size: int,
    *,
    cluster_radius: float = 0.35,
    cluster_spacing: float = 0.9,
    grey_ratio: float = 2.0,
    seed: int = 0,
    max_tries: int = 200,
) -> DualGraph:
    """Dense clusters strung along a line: geographic graphs with ``D = Θ(k)``.

    Cluster centers sit ``cluster_spacing`` apart; points scatter within
    ``cluster_radius``. With spacing + 2·radius ≤ ~1.6 adjacent
    clusters overlap in ``G`` range, yielding a connected backbone with
    per-hop contention ``Θ(cluster_size)`` — the geographic analogue of
    :func:`~repro.graphs.builders.line_of_cliques`.
    """
    if num_clusters < 1 or cluster_size < 1:
        raise GraphValidationError("need at least one cluster and one node per cluster")
    rng = random.Random(seed)
    n = num_clusters * cluster_size
    for _ in range(max_tries):
        points: list[tuple[float, float]] = []
        for k in range(num_clusters):
            cx = k * cluster_spacing
            for _ in range(cluster_size):
                angle = rng.uniform(0.0, 2.0 * math.pi)
                rad = cluster_radius * math.sqrt(rng.random())
                points.append((cx + rad * math.cos(angle), rad * math.sin(angle)))
        graph = geographic_from_points(
            points, grey_ratio, name=f"geo-chain-{num_clusters}x{cluster_size}"
        )
        if graph.is_g_connected():
            return graph
    raise GraphValidationError(
        "failed to build a connected cluster chain; reduce cluster_spacing"
    )


def verify_geographic_constraint(graph: DualGraph, grey_ratio: float) -> None:
    """Assert the Section 2 constraint holds for ``graph``'s embedding.

    Checks both directions: every pair at distance ≤ 1 is a ``G`` edge,
    and no pair at distance > ``grey_ratio`` appears in ``G'``. Used by
    tests and by :class:`~repro.graphs.regions.RegionDecomposition` as a
    precondition.
    """
    if graph.embedding is None:
        raise GraphValidationError("graph has no embedding to verify")
    pts = graph.embedding
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            dist = math.hypot(pts[u][0] - pts[v][0], pts[u][1] - pts[v][1])
            if dist <= 1.0 and not graph.has_g_edge(u, v):
                raise GraphValidationError(
                    f"nodes {u},{v} at distance {dist:.3f} <= 1 lack a G edge"
                )
            if dist > grey_ratio and graph.has_gp_edge(u, v):
                raise GraphValidationError(
                    f"nodes {u},{v} at distance {dist:.3f} > r={grey_ratio} have a G' edge"
                )


# ----------------------------------------------------------------------
# Declarative ScenarioSpec registrations
# ----------------------------------------------------------------------
@register_graph("geographic")
def _spec_random_geographic(
    ctx,
    *,
    n: int,
    grey_ratio: float = 2.0,
    density: Optional[float] = None,
    seed: Optional[int] = None,
) -> DualGraph:
    """Per-trial random deployment; omit ``seed`` to redraw every trial.

    The default per-trial seed uses the ``"geo"`` derivation label the
    Figure-1 scenarios have always used, so spec-built trials reproduce
    the legacy closures bit for bit.
    """
    return random_geographic(
        int(n),
        grey_ratio=float(grey_ratio),
        density=None if density is None else float(density),
        seed=ctx.derive("geo") if seed is None else int(seed),
    )


@register_graph("grid-geographic")
def _spec_grid_geographic(
    ctx,
    *,
    rows: int,
    cols: int,
    spacing: float = 0.7,
    jitter: float = 0.1,
    grey_ratio: float = 2.0,
    seed: Optional[int] = None,
) -> DualGraph:
    return grid_geographic(
        int(rows),
        int(cols),
        spacing=float(spacing),
        jitter=float(jitter),
        grey_ratio=float(grey_ratio),
        seed=ctx.derive("geo-grid") if seed is None else int(seed),
    )


@register_graph("cluster-chain")
def _spec_cluster_chain(
    ctx,
    *,
    num_clusters: int,
    cluster_size: int,
    cluster_radius: float = 0.35,
    cluster_spacing: float = 0.9,
    grey_ratio: float = 2.0,
    seed: Optional[int] = None,
) -> DualGraph:
    return cluster_chain_geographic(
        int(num_clusters),
        int(cluster_size),
        cluster_radius=float(cluster_radius),
        cluster_spacing=float(cluster_spacing),
        grey_ratio=float(grey_ratio),
        seed=ctx.derive("geo-chain") if seed is None else int(seed),
    )
