import math
import tracemalloc
from collections import Counter

import numpy as np
import networkx as nx
import pytest
from scipy.sparse.csgraph import shortest_path
from scipy.stats import chi2_contingency

from sirvar import network
from sirvar.abm import _simulate
from sirvar.core import replicate_rng
from sirvar.network import NetworkTopology, build_small_world, check_network

from paper_params import default_params
from same_law import ALPHA, MIN_REPLICATES, assert_same_law, outcomes


def row(topo, i):
    return topo.neighbors[topo.offsets[i]:topo.offsets[i + 1]]


def reference_small_world(n, k, p_rewire, rng):
    """CSR rows of the version 1 rewiring loop, and its events.

    The loop is the package's ``network`` stream version 1, kept as the
    reference that version 2 must match in law.  An edge takes its first
    candidate free of every edge placed so far.  ``events`` counts the rows
    whose answer depends on earlier rows ("taken": the first lattice-free
    candidate was already chosen; "freed": a lattice candidate checked up
    to it had been rewired away; "no_free": no candidate is lattice-free),
    rows that drew single targets ("single_draw") and rows skipped because
    the source was adjacent to every other node ("guard").
    """
    nodes = np.arange(n, dtype=np.int64)
    u = np.concatenate([nodes] * (k // 2))
    v = np.concatenate([(nodes + j) % n for j in range(1, k // 2 + 1)])
    events = Counter()
    if p_rewire > 0.0:
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        edge_set = set(keys.tolist())
        lattice = frozenset(edge_set)
        degree = np.full(n, k, dtype=np.int64)
        flagged = np.flatnonzero(rng.random(u.size) < p_rewire)
        candidates = rng.integers(0, n, size=(flagged.size, 8)) if flagged.size else None
        for row, e in enumerate(flagged):
            src = int(u[e])
            if degree[src] >= n - 1:
                events["guard"] += 1
                continue
            old = int(v[e])
            old_key = int(keys[e])
            checked = []
            for w in candidates[row].tolist():
                if w == src:
                    continue
                checked.append(min(src, w) * n + max(src, w))
                if checked[-1] not in lattice:
                    break
            else:
                events["no_free"] += 1
            if checked and checked[-1] not in lattice and checked[-1] in edge_set:
                events["taken"] += 1
            if any(key in lattice and key not in edge_set for key in checked):
                events["freed"] += 1
            new_target = -1
            for w in candidates[row]:
                w = int(w)
                if w != src and min(src, w) * n + max(src, w) not in edge_set:
                    new_target = w
                    break
            if new_target < 0:
                events["single_draw"] += 1
            while new_target < 0:
                w = int(rng.integers(0, n))
                if w != src and min(src, w) * n + max(src, w) not in edge_set:
                    new_target = w
            edge_set.discard(old_key)
            new_key = min(src, new_target) * n + max(src, new_target)
            edge_set.add(new_key)
            v[e] = new_target
            keys[e] = new_key
            degree[old] -= 1
            degree[new_target] += 1
    return (*csr_rows(u, v, n), events)


def reference_small_world_v2(n, k, p_rewire, rng):
    """CSR rows of the version 2 rewiring loop, one edge at a time, and its events.

    The loop is the package's ``network`` stream version 2, kept as the
    reference that version 3 must match in law.  An edge takes its first
    candidate that is neither its source nor a lattice neighbour, and keeps
    its lattice edge when none qualifies ("no_free") or when an earlier edge
    took the same pair ("taken").
    """
    nodes = np.arange(n, dtype=np.int64)
    u = np.concatenate([nodes] * (k // 2))
    v = np.concatenate([(nodes + j) % n for j in range(1, k // 2 + 1)])
    events = Counter()
    if p_rewire > 0.0:
        flagged = np.flatnonzero(rng.random(u.size) < p_rewire)
        candidates = rng.integers(0, n, size=(flagged.size, 8)) if flagged.size else None
        answered = set()
        for row, e in enumerate(flagged):
            src = int(u[e])
            for w in candidates[row].tolist():
                if k // 2 < (w - src) % n < n - k // 2:  # ring distance above k/2
                    break
            else:
                events["no_free"] += 1
                continue
            pair = (min(src, w), max(src, w))
            if pair in answered:
                events["taken"] += 1
                continue
            answered.add(pair)
            v[e] = w
    return (*csr_rows(u, v, n), events)


def reference_small_world_v3(n, k, p_rewire, rng, margin=8):
    """CSR rows of the version 3 rewiring loop, one edge at a time, and its events.

    Edges are picked at running sums of geometric gaps from position -1,
    drawn in chunks of ``ceil(E p + margin sqrt(E p) + margin)`` until the
    position reaches ``E = n k / 2`` ("chunks" counts them, "picked" the
    picks).  Each picked edge draws one candidate, and those whose candidate
    is the source or a lattice neighbour ("spare") then draw 7 more, in one
    block.  The answers follow version 2's rule.
    """
    nodes = np.arange(n, dtype=np.int64)
    u = np.concatenate([nodes] * (k // 2))
    v = np.concatenate([(nodes + j) % n for j in range(1, k // 2 + 1)])
    events = Counter()

    def qualifies(src, w):
        return k // 2 < (w - src) % n < n - k // 2  # ring distance above k/2

    if p_rewire > 0.0:
        mean = u.size * p_rewire
        chunk = math.ceil(mean + margin * math.sqrt(mean) + margin)
        flagged, position = [], -1
        while position < u.size:
            events["chunks"] += 1
            for gap in rng.geometric(p_rewire, size=chunk).tolist():
                position += gap  # a Python int: no clip is needed
                if position < u.size:
                    flagged.append(position)
        events["picked"] = len(flagged)
        first = rng.integers(0, n, size=len(flagged)).tolist() if flagged else []
        redo = [row for row, e in enumerate(flagged) if not qualifies(int(u[e]), first[row])]
        events["spare"] = len(redo)
        spares = dict(zip(redo, rng.integers(0, n, size=(len(redo), 7)).tolist())) if redo else {}
        answered = set()
        for row, e in enumerate(flagged):
            src = int(u[e])
            for w in [first[row], *spares.get(row, ())]:
                if qualifies(src, w):
                    break
            else:
                events["no_free"] += 1
                continue
            pair = (min(src, w), max(src, w))
            if pair in answered:
                events["taken"] += 1
                continue
            answered.add(pair)
            v[e] = w
    return (*csr_rows(u, v, n), events)


def csr_rows(u, v, n):
    """``neighbors`` and ``offsets`` of the undirected edges ``(u[e], v[e])``."""
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return dst[order].astype(np.int32), offsets


def assert_matches_reference(n, k, p, seed, margin=8):
    """Same CSR graph and Generator state as the version 3 loop; returns its events.

    The Generator state shows that a build makes exactly the draws of the
    loop: its chunks of geometric gaps, ``rng.integers(0, n, size=F)`` and
    ``rng.integers(0, n, size=(R, 7))``.
    """
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    topo = build_small_world(n, k, p, seed=ours)
    neighbors, offsets, events = reference_small_world_v3(n, k, p, theirs, margin)
    assert np.array_equal(topo.neighbors, neighbors), (n, k, p, seed)
    assert topo.neighbors.dtype == neighbors.dtype
    assert np.array_equal(topo.offsets, offsets), (n, k, p, seed)
    assert ours.bit_generator.state == theirs.bit_generator.state, (n, k, p, seed)
    return events


def edges_not_in_version_1(n, k, p, seed):
    """Edges of the version 2 loop that the version 1 loop does not make, and
    version 1's events."""
    graphs = []
    for reference in (reference_small_world_v2, reference_small_world):
        neighbors, offsets, events = reference(n, k, p, np.random.default_rng(seed))
        topo = NetworkTopology(n=n, neighbors=neighbors, offsets=offsets)
        graphs.append(set(map(tuple, topo.edges().tolist())))
    return len(graphs[0] - graphs[1]), events


def mean_path_length(graph):
    """Mean shortest-path length over ordered node pairs of a connected graph."""
    dist = shortest_path(nx.to_scipy_sparse_array(graph), unweighted=True, directed=False)
    assert np.isfinite(dist).all()
    n = graph.number_of_nodes()
    return dist.sum() / (n * (n - 1))


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
        with pytest.raises(ValueError, match="k must be a positive even integer, got 4.0"):
            build_small_world(10, 4.0, 0.1, seed=0)

    def test_population_beyond_int32_ids_rejected(self):
        # checked before anything is allocated, so this returns at once
        with pytest.raises(ValueError, match=r"n must be below 2\*\*31"):
            build_small_world(2**31, 10, 0.1, 0)

    def test_gen_params_validation(self):
        with pytest.raises(ValueError):
            check_network(100, 3, 0.1)
        with pytest.raises(ValueError, match="k must be a positive even integer, got 6.0"):
            check_network(100, 6.0, 0.1)
        with pytest.raises(ValueError):
            check_network(100, 10, -0.1)


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


class TestMatchesReferenceLoop:
    def test_random_small_graphs(self):
        rng = np.random.default_rng(2024)
        cases = [(n, n - 2, p) for n in (4, 6, 10, 16) for p in (0.0, 0.5, 1.0)]
        for _ in range(300):
            n = int(rng.integers(3, 60))
            k = 2 * int(rng.integers(1, (n - 1) // 2 + 1))
            cases.append((n, k, float(rng.choice([0.0, 1.0, rng.random()]))))
        for i, (n, k, p) in enumerate(cases):
            assert_matches_reference(n, k, p, seed=i)

    @pytest.mark.parametrize("event, case", [
        ("taken", (2000, 10, 1.0, 0)),
        ("no_free", (100, 60, 0.1, 0)),
    ])
    def test_rows_that_keep_their_lattice_edge(self, event, case):
        assert assert_matches_reference(*case)[event] > 0

    @pytest.mark.parametrize("event, case", [
        ("taken", (2000, 10, 1.0, 0)),
        ("freed", (200, 10, 1.0, 0)),
        ("no_free", (100, 60, 0.1, 0)),
        ("single_draw", (60, 40, 0.1, 1)),
        ("guard", (24, 20, 0.3, 1)),
    ])
    def test_rows_that_depend_on_earlier_rows(self, event, case):
        # Version 2 differs from version 1 only at the rows whose version 1
        # answer depends on earlier rows, and at most at one later row for
        # each: the first that picks the pair such a row left untaken.
        # Version 3 draws the same law from other bits, and matches its loop
        # on the same graphs.
        assert_matches_reference(*case)
        changed, events = edges_not_in_version_1(*case)
        assert events[event] > 0
        assert 0 < changed <= 2 * sum(events.values()), (changed, events)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_paper_size(self, seed):
        # Version 1 resolved a row of seed 0 whose pick an earlier row took,
        # and a row of seed 7 whose checked lattice edge an earlier row
        # freed; seeds 1 and 2 have no such row, so the version 2 loop gives
        # the version 1 graph there.
        assert_matches_reference(52_910, 10, 0.1, seed)
        changed, events = edges_not_in_version_1(52_910, 10, 0.1, seed)
        assert (changed > 0) == (seed in (0, 7)), (changed, events)
        assert changed <= 2 * sum(events.values()), (changed, events)

    def test_paper_size_half_rewired(self):
        # Half the edges rewired, about 132,000 rows, some of which answer
        # a pair that an earlier row took.
        assert assert_matches_reference(52_910, 10, 0.5, 0)["taken"] > 0

    @pytest.mark.parametrize("n", [2**16, 2**16 + 1])
    def test_csr_key_width_boundary(self, n):
        # CSR keys (node << b) | neighbour, b = (n - 1).bit_length(), fill
        # 32 bits at n = 2**16 and need 64 bits one node later.  No row's
        # first candidate fails here, so no spares are drawn.
        events = assert_matches_reference(n, 4, 0.05, seed=n)
        assert events["spare"] == 0 < events["picked"], events

    @pytest.mark.parametrize("p", [5e-324, 1e-300])
    @pytest.mark.parametrize("n, k", [(12, 4), (2000, 10)])
    def test_tiny_p_rewire_gives_the_ring_lattice(self, n, k, p):
        # numpy's gaps are INT64_MAX here; clipped to E + 1, the first one
        # passes the last edge E - 1 from position -1, so nothing is picked
        # (clipped to E, it would pick edge E - 1).
        for seed in range(5):
            events = assert_matches_reference(n, k, p, seed)
            assert events["picked"] == 0 and events["chunks"] == 1, events
            topo = build_small_world(n, k, p, seed)
            lattice = build_small_world(n, k, 0.0, seed)
            assert np.array_equal(topo.neighbors, lattice.neighbors)
            assert np.array_equal(topo.offsets, lattice.offsets)

    @pytest.mark.parametrize("n, k", [(5, 2), (40, 6), (2000, 10)])
    def test_p_rewire_1_picks_every_edge(self, n, k):
        events = assert_matches_reference(n, k, 1.0, seed=n)
        assert events["picked"] == n * k // 2 and events["chunks"] == 1, events

    def test_picks_that_need_more_chunks(self, monkeypatch):
        # A second chunk follows the first with chance below 1e-14 at the
        # margin of 8, so the margin is set to 0: a chunk is then ceil(E p)
        # gaps, here 1 for E p = 0.5, and every pick after the first one
        # takes another chunk.
        monkeypatch.setattr(network, "_CHUNK_MARGIN", 0)
        chunks = [assert_matches_reference(1000, 4, 2.5e-4, seed, margin=0)["chunks"]
                  for seed in range(20)]
        assert max(chunks) >= 3, chunks


class TestSameLawAsVersion1:
    """``network`` stream versions 2 and 3 keep the lattice edge where
    version 1 replayed earlier rows; ABM epidemics on fresh graphs of the
    current version and of version 1 have the same law."""

    def test_outcomes_on_fresh_graphs_match_version_1(self):
        params = default_params(population=2000, initial_infected=10)
        weeks = 10

        def run(build, seed):
            return [outcomes(_simulate(params, build(replicate_rng(seed, r, 0)), weeks,
                                       replicate_rng(seed, r, 1), False))
                    for r in range(MIN_REPLICATES)]

        def build_v1(rng):
            neighbors, offsets, _ = reference_small_world(2000, 10, 0.1, rng)
            return NetworkTopology(n=2000, neighbors=neighbors, offsets=offsets)

        assert_same_law(run(lambda rng: build_small_world(2000, 10, 0.1, rng), 1),
                        run(build_v1, 2))


class TestSameLawAsVersion2:
    """``network`` stream version 3 draws version 2's graphs from other bits."""

    @pytest.mark.parametrize("n, k, p", [(6, 2, 0.5), (8, 4, 0.3), (12, 10, 1.0)])
    def test_labelled_graphs_match_version_2(self, n, k, p):
        # chi-squared homogeneity of the labelled graphs of 20,000 builds a
        # side, with the graphs seen fewer than 10 times in both pooled in
        # one class
        builds = 20_000
        ours, theirs = np.random.default_rng(1), np.random.default_rng(2)
        counts = (Counter(), Counter())
        for _ in range(builds):
            topo = build_small_world(n, k, p, ours)
            counts[0][topo.neighbors.tobytes(), topo.offsets.tobytes()] += 1
            neighbors, offsets, _ = reference_small_world_v2(n, k, p, theirs)
            counts[1][neighbors.tobytes(), offsets.tobytes()] += 1
        pooled = counts[0] + counts[1]
        rare = {graph for graph, count in pooled.items() if count < 10}
        classes = [[graph] for graph in pooled if graph not in rare] + ([rare] if rare else [])
        rows = [[sum(side[graph] for graph in members) for members in classes] for side in counts]
        assert len(classes) > 1
        pvalue = chi2_contingency(rows).pvalue
        assert pvalue > ALPHA, (pvalue, len(pooled))

    def test_outcomes_on_fresh_graphs_match_version_2(self):
        params = default_params(population=2000, initial_infected=10)
        weeks = 10

        def run(build, seed):
            return [outcomes(_simulate(params, build(replicate_rng(seed, r, 0)), weeks,
                                       replicate_rng(seed, r, 1), False))
                    for r in range(MIN_REPLICATES)]

        def build_v2(rng):
            neighbors, offsets, _ = reference_small_world_v2(2000, 10, 0.1, rng)
            return NetworkTopology(n=2000, neighbors=neighbors, offsets=offsets)

        assert_same_law(run(lambda rng: build_small_world(2000, 10, 0.1, rng), 1),
                        run(build_v2, 2))


class TestMemory:
    def test_paper_size_build_peak(self):
        # The build holds no concatenated or sorted copies of the edge
        # list, its lattice and sort keys are 32-bit at this size, and the
        # neighbours are the masked keys: its traced peak stays within 1.75
        # times the finished graph.  One build runs first, so the modules
        # numpy imports on a first build are not counted.
        build_small_world(100, 4, 0.1, seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            topo = build_small_world(52_910, 10, 0.1, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        graph_bytes = topo.neighbors.nbytes + topo.offsets.nbytes
        assert peak < 1.75 * graph_bytes, (peak, graph_bytes)


class TestStorage:
    @pytest.mark.parametrize("n, key_bits", [(12, 8), (200, 16), (2**16, 32), (2**16 + 1, 64)])
    def test_csr_arrays_are_read_only_and_typed(self, n, key_bits):
        # On 32-bit keys the neighbours share the sorted key buffer; every
        # width gives C-contiguous int32 neighbours and int64 offsets.
        assert np.min_scalar_type(((n - 1) << (n - 1).bit_length()) | (n - 1)).itemsize * 8 \
            == key_bits
        topo = build_small_world(n, 4, 0.3, seed=5)
        assert topo.neighbors.dtype == np.int32 and topo.neighbors.flags.c_contiguous
        assert topo.offsets.dtype == np.int64
        for arr in (topo.neighbors, topo.offsets):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


class TestNetworkxOracle:
    def test_clustering_and_path_length_match_watts_strogatz(self):
        ours_c, ours_l, nx_c, nx_l = [], [], [], []
        for seed in range(5):
            ours = as_nx(build_small_world(1000, 10, 0.1, seed=seed))
            theirs = nx.watts_strogatz_graph(1000, 10, 0.1, seed=seed)
            for graph, clustering, path in ((ours, ours_c, ours_l), (theirs, nx_c, nx_l)):
                clustering.append(nx.average_clustering(graph))
                path.append(mean_path_length(graph))
        assert abs(np.mean(ours_c) - np.mean(nx_c)) < 0.02
        assert np.mean(ours_l) == pytest.approx(np.mean(nx_l), rel=0.03)


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
