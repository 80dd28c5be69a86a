"""Watts-Strogatz small-world contact network generation.

The construction follows the original recipe: start from a ring lattice
where every node links to its ``k / 2`` nearest neighbours on each side,
then visit each lattice edge once and, with probability ``p_rewire``,
replace its far endpoint with a uniformly random node that is neither the
source itself nor one of its lattice neighbours.  ``p_rewire = 0``
reproduces the exact ring lattice, ``p_rewire = 1`` gives a fully
randomised graph; both extremes keep the edge count at ``n * k / 2``.

The graph a seed yields is fixed by the order of random draws, which is
part of this module's contract; it is version 3 of the ``network`` stream
in :data:`sirvar.io.STREAM_VERSIONS`.  A build of ``E = n * k / 2``
lattice edges draws, in order (nothing when ``p_rewire = 0``):

1. the picked lattice edges, as running sums of geometric gaps from
   position -1: ``rng.geometric(p_rewire, size=m)`` with
   ``m = ceil(E p + 8 sqrt(E p) + 8)``, repeated until the position
   reaches E; each gap is clipped to ``E + 1`` before it is summed;
2. ``rng.integers(0, n, size=F)``, one candidate target for each of the
   ``F`` picked edges, in lattice order (skipped when ``F = 0``);
3. ``rng.integers(0, n, size=(R, 7))``, 7 spare candidates for each of the
   ``R`` picked edges whose first candidate is the source or a lattice
   neighbour of it, in lattice order (skipped when ``R = 0``).

A picked edge takes its first candidate that is neither its source nor a
lattice neighbour of it.  It keeps its lattice edge when none of its 8
candidates qualifies, or when an earlier picked edge took the same pair,
so the graph stays simple and nothing more is drawn.  Each edge is picked
with chance ``p_rewire`` and its candidates are uniform, as in version 2,
which drew one uniform per edge and 8 candidates per picked edge: the two
versions give the same law of graphs from different bits.  Version 1
instead took the first candidate free of every edge placed so far and drew
single targets when all 8 were taken; it differs from version 2 only in
the rare edges whose answer depended on earlier rewirings.

Adjacency is stored in compressed sparse row form (one flat neighbour
array plus per-node offsets) so the agent-based simulator can index it
without Python-level loops.

Memory: the lattice's far ends ``v`` (``n * k / 2`` entries; an edge's
source is its index mod ``n``) sit beside one key ``(node << b) |
neighbour`` per edge direction, where ``b`` is the bit length of
``n - 1``.  ``v`` and the keys take the narrowest unsigned type that holds
a key: 32 bits up to ``n = 2**16``, 64 bits above, and 8 or 16 bits for
tiny ``n``.  The keys are sorted and masked in place.  32-bit keys are
then the int32 ``neighbors`` themselves, and other widths are copied to
int32, so node ids stay below 2**31.  ``neighbors`` stays int32 in
storage, half the bytes of int64, and the agent-based day widens only the
few entries it reads to intp.  Rewiring adds a few arrays of about ``F``
entries for the ``F`` picked edges and returns each node's degree change,
so no count runs over all the far ends.  Not counting the modules numpy
imports on a first build, a build's traced peak is 1.5 times the finished
graph at paper scale (n = 52,910, k = 10, p_rewire = 0.1) and 2.8 times at
n = 10**6, whose keys are 64-bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NODE_LIMIT = 2**31  # node ids must fit the int32 ``neighbors``
_CHUNK_MARGIN = 8  # a chunk of picks is their mean, 8 standard deviations and 8 more


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

    @cached_property
    def degrees(self) -> np.ndarray:
        # Computed on first use in each process, not at construction, so
        # that building or forking a topology carries no extra array.
        degrees = np.diff(self.offsets)
        degrees.setflags(write=False)
        return degrees

    @property
    def edge_count(self) -> int:
        return int(self.neighbors.size // 2)

    def edges(self) -> np.ndarray:
        """(edge_count, 2) array of undirected edges with u < v."""
        u = np.repeat(np.arange(self.n), self.degrees)
        v = self.neighbors
        keep = u < v
        return np.column_stack([u[keep], v[keep]])


def check_network(n: int, k: int, p_rewire: float) -> None:
    """Raise ``ValueError`` unless ``k`` is a positive even integer, ``p_rewire``
    is in [0, 1] and ``k < n < 2**31``: a lattice of degree ``k`` needs more
    than ``k`` nodes, and node ids must fit the int32 ``neighbors``."""
    if not isinstance(k, numbers.Integral) or k < 2 or k % 2 != 0:
        raise ValueError(f"mean degree k must be a positive even integer, got {k}")
    if not 0.0 <= p_rewire <= 1.0:
        raise ValueError(f"p_rewire must be in [0, 1], got {p_rewire}")
    if k >= n:
        raise ValueError(f"k must be smaller than n, got k={k}, n={n}")
    if n >= NODE_LIMIT:
        raise ValueError(f"n must be below 2**31 so node ids fit int32 neighbours, got n={n}")


def _ring_targets(n: int, k: int, dtype) -> np.ndarray:
    """Far ends of the lattice edges: edge ``(j - 1) * n + u`` joins u to u + j (mod n).

    Edges are ordered by offset j = 1 .. k/2, then by source u, so the
    source of edge e is ``e % n`` and needs no array of its own.  The far
    ends are written in ``dtype``, the type of the CSR keys.
    """
    nodes = np.arange(n, dtype=dtype)
    v = np.empty((k // 2, n), dtype=dtype)
    for j, block in enumerate(v, 1):
        block[:n - j] = nodes[j:]
        block[n - j:] = nodes[:j]
    return v.reshape(-1)


def _rewire(v: np.ndarray, n: int, half_k: int, p_rewire: float, rng) -> np.ndarray | int:
    """Rewire the lattice edges with far ends ``v`` in place; return the degree change.

    Every picked edge ("row") answers with its first candidate that
    qualifies: one that is neither its source nor a lattice neighbour of
    it (ring distance above ``half_k``).  A row's first candidate
    qualifies with chance ``1 - (k + 1) / n``, so each row draws one
    candidate, and only the rows whose first candidate fails draw 7
    spares.  A row keeps its lattice edge when none of its 8 candidates
    qualifies, or when an earlier row answered the same pair; the rows that
    share an answer come from one sort of the keys.  A row's answer reads
    only its own candidates, so all rows are resolved at once.  Rewired
    edges join distinct pairs that are not lattice neighbours, and kept
    edges are distinct lattice pairs, so the graph is simple and keeps its
    ``n * k / 2`` edges.

    Returns the int64 change of each node's degree from the lattice's k,
    ``bincount(new) - bincount(old)`` over the rows' far ends, or 0 when no
    edge is picked.
    """
    # Gaps are clipped to E + 1, which still passes the last edge from -1,
    # so numpy's INT64_MAX gaps at a tiny p_rewire cannot overflow the sum.
    edges = v.size
    mean = edges * p_rewire
    chunk = math.ceil(mean + _CHUNK_MARGIN * math.sqrt(mean) + _CHUNK_MARGIN)
    picks, position = [], -1
    while position < edges:
        gaps = np.minimum(rng.geometric(p_rewire, size=chunk), edges + 1)
        picks.append(position + np.cumsum(gaps))
        position = int(picks[-1][-1])
    flagged = np.concatenate(picks)
    flagged = flagged[:np.searchsorted(flagged, edges)]
    rows = flagged.size
    if not rows:
        return 0
    target = rng.integers(0, n, size=rows)
    src = flagged % n

    ring = np.abs(target - src)
    np.minimum(ring, n - ring, out=ring)  # ring distance from the source
    redo = np.flatnonzero(ring <= half_k)  # first candidate is the source or a lattice neighbour
    spares = rng.integers(0, n, size=(redo.size, 7))  # draws nothing when no row fails
    ring = np.abs(spares - src[redo, None])
    np.minimum(ring, n - ring, out=ring)
    free = ring > half_k
    target[redo] = spares[np.arange(redo.size), free.argmax(axis=1)]
    none = redo[~free.any(axis=1)]
    old = v[flagged].astype(np.int64)  # int64 for bincount, whatever the key width
    target[none] = old[none]  # no candidate qualifies: keep the lattice edge
    # Kept lattice pairs are never an answer, so only answers can share a key.
    key = np.minimum(src, target) * n + np.maximum(src, target)
    sorted_keys = np.sort(key)
    shared = np.flatnonzero(np.isin(key, sorted_keys[1:][sorted_keys[1:] == sorted_keys[:-1]]))
    later = np.delete(shared, np.unique(key[shared], return_index=True)[1])
    target[later] = old[later]  # an earlier row answered the same pair
    v[flagged] = target
    return np.bincount(target, minlength=n) - np.bincount(old, minlength=n)


def build_small_world(
    n: int,
    k: int,
    p_rewire: float,
    seed,
) -> NetworkTopology:
    """Generate a Watts-Strogatz topology over ``n`` nodes.

    Lattice edges are visited in the order of :func:`_ring_targets` (offset
    1 for every node, then offset 2, ...).  A build makes only the draws
    stated in the module docstring (``network`` stream version 3), so
    a seed gives one graph and leaves a caller's Generator in one state.

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
        If :func:`check_network` rejects ``n``, ``k`` and ``p_rewire``.
    """
    check_network(n, k, p_rewire)

    rng = np.random.default_rng(seed)
    # CSR assembly: one key (node << b) | neighbour per edge direction, with
    # b = bit length of n - 1, in the narrowest unsigned type that holds
    # them, viewed as (k/2, n) blocks whose column is the lattice source.
    # The keys are distinct, so sorting them orders rows by (node,
    # neighbour).  Every node is the source of k/2 lattice edges and the
    # far end of k/2, and rewiring moves only far ends, so a degree is k
    # plus the change that _rewire counts.
    shift = (n - 1).bit_length()
    dtype = np.min_scalar_type(((n - 1) << shift) | (n - 1))
    v = _ring_targets(n, k, dtype)
    change = _rewire(v, n, k // 2, p_rewire, rng) if p_rewire > 0.0 else 0
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add(change, k, out=offsets[1:])  # the degrees
    np.cumsum(offsets, out=offsets)
    del change  # not held beside the keys
    far = v.reshape(k // 2, n)
    nodes = np.arange(n, dtype=dtype)
    keys = np.empty((2, k // 2, n), dtype=dtype)
    np.left_shift(nodes, shift, out=keys[0])
    keys[0] |= far
    np.left_shift(far, shift, out=keys[1])
    keys[1] |= nodes
    del v, far
    keys = keys.reshape(-1)
    keys.sort()
    keys &= (1 << shift) - 1
    # 32-bit keys are below 2**31 once masked, so they are the neighbours.
    neighbors = keys.view(np.int32) if keys.itemsize == 4 else keys.astype(np.int32)
    return NetworkTopology(n=n, neighbors=neighbors, offsets=offsets)
