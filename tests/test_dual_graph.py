"""Tests for the DualGraph type: invariants, masks, graph algorithms."""

from __future__ import annotations

import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import GraphValidationError
from repro.core.trace import iter_bits
from repro.graphs.builders import er_dual, line_dual, ring_dual
from repro.graphs.dual_graph import (
    DualGraph,
    edges_from_adjacency,
    normalize_edge,
)
from repro.problems.local_broadcast import receiver_set


class TestNormalizeEdge:
    def test_orders_endpoints(self):
        assert normalize_edge(5, 2) == (2, 5)
        assert normalize_edge(2, 5) == (2, 5)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphValidationError):
            normalize_edge(3, 3)


class TestConstruction:
    def test_from_edges_builds_symmetric_masks(self):
        g = DualGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.g_masks[0] == 0b010
        assert g.g_masks[1] == 0b101
        assert g.g_masks[2] == 0b010

    def test_extra_edges_go_to_gp_only(self):
        g = DualGraph.from_edges(3, [(0, 1)], [(1, 2)])
        assert g.has_gp_edge(1, 2)
        assert not g.has_g_edge(1, 2)
        assert g.flaky_edges() == {(1, 2)}

    def test_duplicate_extra_edge_absorbed_into_g(self):
        g = DualGraph.from_edges(3, [(0, 1)], [(0, 1), (1, 2)])
        assert g.flaky_edges() == {(1, 2)}

    def test_edge_outside_range_rejected(self):
        with pytest.raises(GraphValidationError):
            DualGraph.from_edges(3, [(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError):
            DualGraph.from_edges(3, [(1, 1)])

    def test_g_not_subset_gp_rejected(self):
        with pytest.raises(GraphValidationError):
            DualGraph(n=2, g_masks=(0b10, 0b01), gp_masks=(0, 0))

    def test_asymmetric_masks_rejected(self):
        with pytest.raises(GraphValidationError):
            DualGraph(n=2, g_masks=(0b10, 0b00), gp_masks=(0b10, 0b00))

    def test_embedding_length_checked(self):
        with pytest.raises(GraphValidationError):
            DualGraph.from_edges(3, [(0, 1), (1, 2)], embedding=[(0, 0)])

    def test_static_constructor_equates_graphs(self):
        g = DualGraph.static(3, [(0, 1), (1, 2)])
        assert g.g_masks == g.gp_masks
        assert not g.flaky_edges()


class TestAccessors:
    def make(self):
        return DualGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [(0, 2), (1, 3)])

    def test_neighbors(self):
        g = self.make()
        assert g.g_neighbors(1) == [0, 2]
        assert g.gp_neighbors(1) == [0, 2, 3]
        assert g.flaky_neighbors(1) == [3]

    def test_degrees(self):
        g = self.make()
        assert g.g_degree(1) == 2
        assert g.gp_degree(1) == 3
        assert g.max_degree == 3

    def test_edge_sets(self):
        g = self.make()
        assert g.g_edges() == {(0, 1), (1, 2), (2, 3)}
        assert g.flaky_edges() == {(0, 2), (1, 3)}
        assert g.gp_edges() == g.g_edges() | g.flaky_edges()

    def test_edge_queries(self):
        g = self.make()
        assert g.has_g_edge(0, 1) and g.has_g_edge(1, 0)
        assert not g.has_g_edge(0, 2)
        assert g.has_gp_edge(0, 2)

    def test_edges_from_adjacency_roundtrip(self):
        g = self.make()
        assert edges_from_adjacency(g.g_masks) == g.g_edges()

    def test_summary_mentions_counts(self):
        text = self.make().summary()
        assert "n=4" in text and "Δ=3" in text


class TestGraphAlgorithms:
    def test_bfs_distances_line(self):
        g = line_dual(5)
        assert g.bfs_distances(0) == [0, 1, 2, 3, 4]

    def test_bfs_with_gp_uses_flaky_edges(self):
        g = line_dual(5, extra_flaky_skips=3)
        dist = g.bfs_distances(0, use_gp=True)
        assert dist[2] == 1  # skip edge (0, 2)

    def test_bfs_unreachable_marked(self):
        g = DualGraph.from_edges(3, [(0, 1)])
        assert g.bfs_distances(0)[2] == -1

    def test_connectivity(self):
        assert line_dual(6).is_g_connected()
        assert not DualGraph.from_edges(3, [(0, 1)]).is_g_connected()

    def test_diameter_line(self):
        assert line_dual(6).g_diameter() == 5

    def test_diameter_disconnected_raises(self):
        with pytest.raises(GraphValidationError):
            DualGraph.from_edges(3, [(0, 1)]).g_diameter()

    def test_eccentricity(self):
        g = line_dual(5)
        assert g.g_eccentricity(0) == 4
        assert g.g_eccentricity(2) == 2


class TestDerivedGraphs:
    def test_induced_subgraph_remaps_ids(self):
        g = line_dual(5, extra_flaky_skips=3)
        sub = g.induced_subgraph([2, 3, 4])
        assert sub.n == 3
        assert sub.has_g_edge(0, 1) and sub.has_g_edge(1, 2)
        # skip edge (2, 4) maps to (0, 2)
        assert sub.has_gp_edge(0, 2) and not sub.has_g_edge(0, 2)

    def test_induced_subgraph_duplicate_nodes_rejected(self):
        with pytest.raises(GraphValidationError):
            line_dual(4).induced_subgraph([1, 1])

    def test_as_static_on_g(self):
        g = line_dual(4, extra_flaky_skips=2)
        s = g.as_static()
        assert s.g_masks == s.gp_masks == g.g_masks

    def test_as_static_on_gp(self):
        g = line_dual(4, extra_flaky_skips=2)
        s = g.as_static(use_gp=True)
        assert s.g_masks == g.gp_masks

    def test_induced_subgraph_keeps_embedding(self):
        g = DualGraph.from_edges(
            3, [(0, 1), (1, 2)], embedding=[(0, 0), (1, 0), (2, 0)]
        )
        sub = g.induced_subgraph([1, 2])
        assert sub.embedding == ((1.0, 0.0), (2.0, 0.0))


class TestRandomGraphProperties:
    @given(
        n=st.integers(4, 24),
        pg=st.floats(0.0, 0.4),
        pf=st.floats(0.0, 0.4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_er_dual_invariants(self, n, pg, pf, seed):
        g = er_dual(n, pg, pf, random.Random(seed))
        # E ⊆ E' everywhere.
        for u in range(n):
            assert not g.g_masks[u] & ~g.gp_masks[u]
            assert not (g.g_masks[u] >> u) & 1
        # Spanning tree guarantees connectivity.
        assert g.is_g_connected()
        # Flaky masks = difference.
        for u in range(n):
            assert g.flaky_masks[u] == g.gp_masks[u] & ~g.g_masks[u]

    @given(n=st.integers(4, 16), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_er_dual_symmetry(self, n, seed):
        g = er_dual(n, 0.3, 0.3, random.Random(seed))
        for u in range(n):
            for v in g.gp_neighbors(u):
                assert u in g.gp_neighbors(v)


# ----------------------------------------------------------------------
# CSR storage: the bigint implementations below are the oracles.
# ----------------------------------------------------------------------
def byte_matrix_masks(n, edges):
    """Masks set through an n × ⌈n/8⌉ byte matrix (the pre-CSR build)."""
    packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    for u, v in edges:
        packed[u, v >> 3] |= np.uint8(1 << (v & 7))
        packed[v, u >> 3] |= np.uint8(1 << (u & 7))
    return tuple(int.from_bytes(packed[u].tobytes(), "little") for u in range(n))


def bigint_bfs(masks, source):
    dist = [-1] * len(masks)
    dist[source] = 0
    frontier = seen = 1 << source
    depth = 0
    while frontier:
        depth += 1
        reached = 0
        for u in iter_bits(frontier):
            reached |= masks[u]
        reached &= ~seen
        seen |= reached
        for u in iter_bits(reached):
            dist[u] = depth
        frontier = reached
    return dist


@st.composite
def edge_lists(draw, dense):
    """A graph on one side of the density rule ``16·nnz ≥ n²``."""
    n = draw(st.integers(2, 24) if dense else st.integers(24, 90))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if dense:
        count = draw(st.integers(-(-n * n // 32), len(pairs)))
    else:
        count = draw(st.integers(0, (n * n - 1) // 32))
    chosen = draw(st.permutations(pairs))[:count]
    # Unnormalized and repeated edges must collapse.
    edges = [(v, u) if i % 3 else (u, v) for i, (u, v) in enumerate(chosen)]
    edges += edges[: draw(st.integers(0, 3))]
    return n, edges


def split(draw_edges, data):
    n, edges = draw_edges
    cut = data.draw(st.integers(0, len(edges)))
    return n, edges[:cut], edges[cut:]


class TestCsrMatchesBigintOracles:
    @pytest.mark.parametrize("dense", [False, True])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_csr_graph_equals_oracles(self, dense, data):
        n, g_edges, extra = split(data.draw(edge_lists(dense)), data)
        graph = DualGraph.from_edges(n, g_edges, extra)
        nnz = len(graph.csr(use_gp=True)[1])
        assert (16 * nnz >= n * n) == dense
        g_masks = byte_matrix_masks(n, g_edges)
        gp_masks = byte_matrix_masks(n, g_edges + extra)
        assert graph.g_masks == g_masks and graph.gp_masks == gp_masks
        assert graph.flaky_masks == tuple(gp & ~g for g, gp in zip(g_masks, gp_masks))
        assert graph.max_degree == max(mask.bit_count() for mask in gp_masks)
        source = data.draw(st.integers(0, n - 1))
        for use_gp, masks in ((False, g_masks), (True, gp_masks)):
            assert graph.bfs_distances(source, use_gp=use_gp) == bigint_bfs(masks, source)
        assert graph.is_g_connected() == (min(bigint_bfs(g_masks, 0)) >= 0)
        chosen = data.draw(st.sets(st.integers(0, n - 1)))
        b_mask = sum(1 << b for b in chosen)
        assert receiver_set(graph, chosen) == frozenset(
            u for u in range(n) if g_masks[u] & b_mask
        )
        # Supplied masks reach the same CSR through validation.
        supplied = DualGraph(n=n, g_masks=g_masks, gp_masks=gp_masks)
        for use_gp in (False, True):
            for built, derived in zip(graph.csr(use_gp=use_gp), supplied.csr(use_gp=use_gp)):
                np.testing.assert_array_equal(built, derived)
                assert derived.dtype == np.int32


class TestSharedGPrime:
    def test_no_extra_edges_shares_masks_and_caches(self):
        graph = DualGraph.from_edges(5, [(0, 1), (1, 2)], [(1, 0)])
        assert graph.gp_masks is graph.g_masks
        assert graph.flaky_masks == (0,) * 5
        assert graph.csr(use_gp=True) is graph.csr()
        assert graph.neighbor_matrix(use_gp=True) is graph.neighbor_matrix()
        assert graph.packed_mask_rows(use_gp=True) is graph.packed_mask_rows()
        assert list(graph._csr) == ["g"]

    def test_extra_edges_keep_separate_masks(self):
        graph = DualGraph.from_edges(5, [(0, 1), (1, 2)], [(3, 4)])
        assert graph.gp_masks is not graph.g_masks
        assert graph.csr(use_gp=True) is not graph.csr()

    def test_equal_supplied_masks_are_shared(self):
        graph = DualGraph(n=2, g_masks=(0b10, 0b01), gp_masks=(0b10, 0b01))
        assert graph.gp_masks is graph.g_masks
        assert graph.csr(use_gp=True) is graph.csr()

    def test_induced_subgraph_without_flaky_edges_shares(self):
        graph = line_dual(5, extra_flaky_skips=3)
        sub = graph.induced_subgraph([0, 1])
        assert sub.gp_masks is sub.g_masks
        sub = graph.induced_subgraph([2, 3, 4])
        assert sub.gp_masks is not sub.g_masks

    def test_static_graphs_share(self):
        static = DualGraph.static(3, [(0, 1)])
        assert static.gp_masks is static.g_masks
        as_static = line_dual(4, extra_flaky_skips=2).as_static(use_gp=True)
        assert as_static.gp_masks is as_static.g_masks


class TestValidationErrorOrder:
    @pytest.mark.parametrize(
        "g_masks, gp_masks, message",
        [
            # Lowest offending node first: subset at 0 before loop at 2.
            ((0b010, 0b000, 0b100), (0b000, 0b000, 0b100), "node 0 has G edges missing"),
            # A self-loop wins a tie with a subset violation.
            ((0b011, 0b001, 0), (0b001, 0b001, 0), "self-loop at node 0"),
            # G asymmetry before G' asymmetry, lowest (u, v) first.
            ((0b100, 0b100, 0), (0b110, 0b100, 0), "G edge (0, 2) is asymmetric"),
            ((0b000, 0b000, 0), (0b110, 0b000, 0b001), "G' edge (0, 1) is asymmetric"),
            ((0b000, 0b100, 0), (0b000, 0b100, 0b001), "G edge (1, 2) is asymmetric"),
            ((0b000, 0b000, 0b1000), (0, 0, 0b1000), "node 2 has neighbors outside"),
        ],
    )
    def test_first_error_reported(self, g_masks, gp_masks, message):
        with pytest.raises(GraphValidationError, match=re.escape(message)):
            DualGraph(n=3, g_masks=g_masks, gp_masks=gp_masks)


def test_sparse_build_allocates_no_quadratic_intermediate():
    tracemalloc.start()
    try:
        graph = ring_dual(20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    mask_bytes = sum(sys.getsizeof(mask) for mask in graph.g_masks)
    assert graph.gp_masks is graph.g_masks
    assert peak <= 2 * mask_bytes, f"peak {peak} B for {mask_bytes} B of masks"
