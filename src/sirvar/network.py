"""Watts-Strogatz small-world contact network generation.

The construction follows the original recipe: start from a ring lattice
where every node links to its ``k / 2`` nearest neighbours on each side,
then visit each lattice edge once and, with probability ``p_rewire``,
replace its far endpoint with a uniformly random node that is neither the
source itself nor already adjacent to it.  ``p_rewire = 0`` reproduces the
exact ring lattice, ``p_rewire = 1`` gives a fully randomised graph; both
extremes keep the edge count at ``n * k / 2``.

Adjacency is stored in compressed sparse row form (one flat neighbour
array plus per-node offsets) so the agent-based simulator can index it
without Python-level loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetworkGenParams:
    """Generation knobs for a small-world topology."""

    k: int = 10
    p_rewire: float = 0.1

    def __post_init__(self):
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError(f"mean degree k must be a positive even integer, got {self.k}")
        if not 0.0 <= self.p_rewire <= 1.0:
            raise ValueError(f"p_rewire must be in [0, 1], got {self.p_rewire}")


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """Undirected contact graph in CSR form.

    ``neighbors[offsets[i]:offsets[i + 1]]`` lists node i's neighbours in
    ascending order.  The structure is immutable and safe to share across
    workers.
    """

    n: int
    neighbors: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        for name in ("neighbors", "offsets"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def edge_count(self) -> int:
        return int(self.neighbors.size // 2)

    def edges(self) -> np.ndarray:
        """(edge_count, 2) array of undirected edges with u < v."""
        u = np.repeat(np.arange(self.n), self.degrees)
        v = self.neighbors
        keep = u < v
        return np.column_stack([u[keep], v[keep]])


def _ring_edges(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice edges (u, v) with v = u + j (mod n) for j = 1 .. k/2."""
    nodes = np.arange(n, dtype=np.int64)
    us = []
    vs = []
    for j in range(1, k // 2 + 1):
        us.append(nodes)
        vs.append((nodes + j) % n)
    return np.concatenate(us), np.concatenate(vs)


def build_small_world(
    n: int,
    k: int,
    p_rewire: float,
    seed,
) -> NetworkTopology:
    """Generate a Watts-Strogatz topology over ``n`` nodes.

    Parameters
    ----------
    n : int
        Node count; must exceed ``k``.
    k : int
        Even mean degree of the starting lattice.
    p_rewire : float
        Per-edge rewiring probability in [0, 1].
    seed : int, SeedSequence or Generator
        Source of randomness for the rewiring pass.

    Raises
    ------
    ValueError
        If ``k`` is odd, below 2, or not smaller than ``n``, or
        ``p_rewire`` is outside [0, 1].
    """
    NetworkGenParams(k=k, p_rewire=p_rewire)  # validates k and p_rewire
    if k >= n:
        raise ValueError(f"k must be smaller than n, got k={k}, n={n}")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u, v = _ring_edges(n, k)

    if p_rewire > 0.0:
        # Canonical integer keys make duplicate checks O(1); the set tracks
        # the evolving edge list while edges are visited in lattice order.
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        edge_set = set(keys.tolist())
        degree = np.full(n, k, dtype=np.int64)
        flagged = np.flatnonzero(rng.random(u.size) < p_rewire)
        # Candidate targets are drawn in bulk; rejections fall back to
        # singles.  Retries happen only on self-loops or duplicates, which
        # are rare for k << n.
        candidates = rng.integers(0, n, size=(flagged.size, 8)) if flagged.size else None
        for row, e in enumerate(flagged):
            src = int(u[e])
            if degree[src] >= n - 1:
                continue  # src already adjacent to every other node
            old = int(v[e])
            old_key = int(keys[e])
            new_target = -1
            for w in candidates[row]:
                w = int(w)
                if w != src and min(src, w) * n + max(src, w) not in edge_set:
                    new_target = w
                    break
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

    # CSR assembly: both edge directions, rows sorted by (node, neighbour).
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    neighbors = dst[order].astype(np.int32)
    degrees = np.bincount(src, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return NetworkTopology(n=n, neighbors=neighbors, offsets=offsets)
