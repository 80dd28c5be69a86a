import numpy as np
import networkx as nx
import pytest

from sirvar.network import NetworkGenParams, build_small_world


def row(topo, i):
    return topo.neighbors[topo.offsets[i]:topo.offsets[i + 1]]


def as_nx(topo):
    g = nx.Graph()
    g.add_nodes_from(range(topo.n))
    g.add_edges_from(map(tuple, topo.edges()))
    return g


class TestRingLattice:
    def test_cycle_graph(self):
        topo = build_small_world(6, 2, 0.0, seed=0)
        expected = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}
        assert {tuple(e) for e in topo.edges()} == expected

    def test_k4_neighbours(self):
        topo = build_small_world(8, 4, 0.0, seed=0)
        assert np.array_equal(row(topo, 0), [1, 2, 6, 7])
        assert np.array_equal(row(topo, 3), [1, 2, 4, 5])


class TestInvariants:
    def test_fuzz_structure(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            n = int(rng.integers(4, 41))
            k = int(rng.integers(1, max(2, n // 2)) * 2)
            if k >= n:
                k = (n - 1) // 2 * 2
            if k < 2:
                continue
            p = float(rng.random())
            topo = build_small_world(n, k, p, seed=rng)
            # edge count preserved by rewiring
            assert topo.edge_count == n * k // 2
            assert int(topo.degrees.sum()) == n * k
            # no self-loops, sorted rows without duplicates, symmetric
            pairs = set()
            for i in range(n):
                neighbours = row(topo, i)
                assert np.all(np.diff(neighbours) > 0)
                assert i not in neighbours
                pairs.update((i, int(j)) for j in neighbours)
            assert all((j, i) in pairs for i, j in pairs)

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError):
            build_small_world(10, 3, 0.1, seed=0)  # odd
        with pytest.raises(ValueError):
            build_small_world(10, 0, 0.1, seed=0)
        with pytest.raises(ValueError):
            build_small_world(10, 10, 0.1, seed=0)  # k >= n
        with pytest.raises(ValueError):
            build_small_world(10, 4, 1.5, seed=0)

    def test_gen_params_validation(self):
        with pytest.raises(ValueError):
            NetworkGenParams(k=3)
        with pytest.raises(ValueError):
            NetworkGenParams(p_rewire=-0.1)


class TestSmallWorldEffect:
    def test_rewiring_shortens_paths_and_cuts_clustering(self):
        lattice = as_nx(build_small_world(1000, 10, 0.0, seed=1))
        rewired = as_nx(build_small_world(1000, 10, 0.1, seed=1))
        assert nx.is_connected(rewired)
        c_lattice = nx.average_clustering(lattice)
        c_rewired = nx.average_clustering(rewired)
        l_lattice = nx.average_shortest_path_length(lattice)
        l_rewired = nx.average_shortest_path_length(rewired)
        assert c_rewired < c_lattice
        assert l_rewired < l_lattice


class TestDeterminismAndExport:
    def test_same_seed_same_graph(self):
        a = build_small_world(200, 6, 0.3, seed=21)
        b = build_small_world(200, 6, 0.3, seed=21)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.offsets, b.offsets)

    def test_different_seed_different_graph(self):
        a = build_small_world(200, 6, 0.3, seed=21)
        b = build_small_world(200, 6, 0.3, seed=22)
        assert not np.array_equal(a.neighbors, b.neighbors)

    def test_edge_list_round_trip(self):
        # edges() lists each undirected CSR edge once, as (u, v) with u < v
        topo = build_small_world(50, 4, 0.2, seed=5)
        edges = topo.edges()
        assert edges.shape == (topo.edge_count, 2)
        assert np.all(edges[:, 0] < edges[:, 1])
        from_edges = {i: set() for i in range(topo.n)}
        for u, v in edges.tolist():
            from_edges[u].add(v)
            from_edges[v].add(u)
        assert all(sorted(from_edges[i]) == row(topo, i).tolist() for i in range(topo.n))
