"""Mutual-visibility verification on disjointness graphs.

A set U of vertices is a mutual-visibility set when every pair in U is
joined by some shortest path whose internal vertices all avoid U, that is,
lie in the complement S = V \\ U.  One check decides this,
``first_failing_pair``, source by source in ascending order.

Almost every D(P) has diameter 2, and a source a of eccentricity at most 2
takes the cover test.  Every later b of U is then adjacent to a (visible),
at distance 2 (visible exactly when a common neighbour lies in S, that is,
when b lies in C(a), the union of the rows of N(a) & S), or unreachable
(failing, and in neither N(a) nor C(a)).  So the failing partners of a are
the vertices of U after a outside N(a) | C(a), and the lowest of them ends
the check.  C(a) is cached per distinct N(a) & S; the certificate and solver
checks have |S| <= 9, so few occur.

Any other source walks its distance layers L_1, L_2, ... and keeps R_k,
the vertices of L_k that a shortest path from a reaches while staying
inside S.  A pair (a, b) at distance d is visible exactly when b has a
neighbour in R_{d-1}.  ``is_mutually_visible`` runs the same walk for one
pair and rebuilds a witness path from it; it reports the distance, so it
does not take the cover test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import INFINITY, DisjointnessGraph, iter_bits


@dataclass(frozen=True)
class VertexSet:
    """Bitset over the vertices of a bound graph."""

    n_vertices: int
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.n_vertices:
            raise ValueError("bit set outside the vertex range")

    @classmethod
    def from_indices(cls, n_vertices: int, ids: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in ids:
            if not 0 <= v < n_vertices:
                raise ValueError(f"vertex {v} out of range")
            mask |= 1 << v
        return cls(n_vertices, mask)

    @classmethod
    def full(cls, n_vertices: int) -> "VertexSet":
        return cls(n_vertices, (1 << n_vertices) - 1)

    def indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def complement(self) -> "VertexSet":
        return VertexSet(self.n_vertices, ((1 << self.n_vertices) - 1) & ~self.mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n_vertices and bool(self.mask >> v & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()


def require_sized_for(g: DisjointnessGraph, u: VertexSet) -> None:
    """Raise ValueError unless u is sized for the vertices of g."""
    if u.n_vertices != g.n_vertices:
        raise ValueError(
            f"vertex set sized for {u.n_vertices} vertices, "
            f"but the graph has {g.n_vertices}"
        )


@dataclass(frozen=True)
class PairVerdict:
    a: int
    b: int
    visible: bool
    distance: float  # hop count; math.inf when unreachable
    witness_path: Optional[tuple[int, ...]]


def _reach_layers(g: DisjointnessGraph, a: int, s_mask: int):
    """Walk the distance layers of a, yielding (L_k, R_{k-1}, N(R_{k-1}))
    for k = 1, 2, ...

    R_0 = {a}; R_k holds the vertices of L_k inside s_mask that a shortest
    path from a reaches with every vertex after a inside s_mask.  A vertex b
    of L_k is joined to a by a shortest path with all internal vertices in
    s_mask exactly when b lies in N(R_{k-1}).
    """
    adj = g.adj
    reach = 1 << a
    for layer in g.distance_layers[a][1:]:
        nbrs = 0
        for v in iter_bits(reach):
            nbrs |= adj[v]
        yield layer, reach, nbrs
        reach = layer & s_mask & nbrs


def first_failing_pair(
    g: DisjointnessGraph, u_mask: int
) -> Optional[tuple[int, int]]:
    """The lexicographically first pair (a, b), a < b, of the vertex set
    ``u_mask`` with no shortest path internally avoiding it, or None when
    ``u_mask`` is a mutual-visibility set.  Pairs in different components
    fail.  A source of eccentricity at most 2 takes the cover test, any
    other walks its reach layers (see the module docstring)."""
    adj = g.adj
    layers_of = g.distance_layers
    s_mask = g.full_mask & ~u_mask
    covers = {}
    # iter_bits inlined over U and over N(a) & S: a generator per call
    # costs more than the few tests it runs
    rest = u_mask
    while rest:
        low = rest & -rest
        a = low.bit_length() - 1
        rest ^= low
        if not rest:
            break
        if len(layers_of[a]) <= 3:
            row = adj[a]
            inner = row & s_mask
            cover = covers.get(inner)
            if cover is None:
                cover = 0
                left = inner
                while left:
                    low = left & -left
                    cover |= adj[low.bit_length() - 1]
                    left ^= low
                covers[inner] = cover
            fail = rest & ~row & ~cover
        else:
            targets = rest
            fail = 0
            for layer, _, nbrs in _reach_layers(g, a, s_mask):
                here = targets & layer
                fail |= here & ~nbrs
                targets ^= here
                if fail:
                    targets &= (fail & -fail) - 1  # only a lower b can come first
                if not targets:
                    break
            fail |= targets  # left over: not reachable from a
        if fail:
            return a, (fail & -fail).bit_length() - 1
    return None


def is_mutually_visible(
    g: DisjointnessGraph, u: VertexSet, a: int, b: int
) -> PairVerdict:
    """Verdict for one pair of U: is there a shortest a-b path internally
    avoiding U?  The walk stops at b's layer d, and b is visible when it has
    a neighbour in R_{d-1}; an unreachable b fails at distance math.inf.
    Internal vertices of a returned witness always lie outside U.
    """
    require_sized_for(g, u)
    if a not in u or b not in u:
        raise ValueError("both endpoints must belong to the tested set")
    if a == b:
        raise ValueError("pair endpoints must be distinct")
    if g.are_adjacent(a, b):
        return PairVerdict(a, b, True, 1, None)
    reaches = []
    for dist, (layer, reach, nbrs) in enumerate(
        _reach_layers(g, a, g.full_mask & ~u.mask), start=1
    ):
        reaches.append(reach)
        if layer >> b & 1:
            break
    else:
        return PairVerdict(a, b, False, INFINITY, None)
    if not nbrs >> b & 1:
        return PairVerdict(a, b, False, dist, None)
    path = [b]
    for reach in reversed(reaches):  # R_{dist-1}, ..., R_0 = {a}
        path.append(next(iter_bits(reach & g.adj[path[-1]])))
    path.reverse()
    return PairVerdict(a, b, True, dist, tuple(path))


def is_mutual_visibility_set(
    g: DisjointnessGraph, u: VertexSet
) -> tuple[bool, Optional[PairVerdict]]:
    """Is U a mutual-visibility set?  On failure also return the verdict of
    the first failing pair in lexicographic (a, b) order.  Empty and
    singleton sets pass."""
    require_sized_for(g, u)
    pair = first_failing_pair(g, u.mask)
    if pair is None:
        return True, None
    return False, is_mutually_visible(g, u, *pair)
