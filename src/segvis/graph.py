"""Disjointness graph of the segments spanned by a planar point set.

Vertices are the C(n,2) closed segments in lexicographic (i, j) order; two
vertices are adjacent exactly when the segments are disjoint.  Adjacency is
stored as one Python-int bitset row per vertex, which the solver relies on
for fast common-neighbour queries.
"""

from __future__ import annotations

import math
from functools import cached_property

from .geometry import PointSet, SegmentId, all_segments, cross

INFINITY = math.inf

#: Diameter range a sweep accepts for n = 5..8 random points; any other n
#: must give diameter 2.
_DIAMETER_RANGE = {5: (2, 4), 6: (2, 3), 7: (2, 3), 8: (2, 3)}


class DisjointnessGraph:
    """Immutable graph over the segments of a point set in general position."""

    def __init__(self, pointset: PointSet):
        self.pointset = pointset
        self.n_points = pointset.n
        self.vertices: tuple[SegmentId, ...] = tuple(all_segments(pointset.n))
        self.index_of: dict[SegmentId, int] = {
            s: k for k, s in enumerate(self.vertices)
        }
        nv = len(self.vertices)
        self.n_vertices = nv
        self.full_mask = (1 << nv) - 1
        self.adj: tuple[int, ...] = self._build_adjacency()

    def _build_adjacency(self) -> tuple[int, ...]:
        pts = self.pointset.points
        segs = self.vertices
        nv = len(segs)
        rows = [0] * nv
        for u in range(nv):
            i, j = segs[u]
            p1, p2 = pts[i], pts[j]
            for v in range(u + 1, nv):
                k, l = segs[v]
                if i == k or i == l or j == k or j == l:
                    continue  # shared endpoint: segments intersect
                q1, q2 = pts[k], pts[l]
                d1 = cross(p1, p2, q1)
                d2 = cross(p1, p2, q2)
                if (d1 > 0) != (d2 > 0):
                    d3 = cross(q1, q2, p1)
                    d4 = cross(q1, q2, p2)
                    if (d3 > 0) != (d4 > 0):
                        continue  # proper crossing
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        return tuple(rows)

    # -- vertex helpers ----------------------------------------------------

    def vertex(self, seg: SegmentId) -> int:
        return self.index_of[seg]

    def segment_of(self, v: int) -> SegmentId:
        return self.vertices[v]

    def mask_of(self, segments) -> int:
        """Bitmask of the vertices of the given segments."""
        mask = 0
        for s in segments:
            mask |= 1 << self.index_of[s]
        return mask

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def are_adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    @cached_property
    def n_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @cached_property
    def touch_mask(self) -> tuple[int, ...]:
        """touch_mask[v]: vertices whose segment shares an endpoint with v
        (v itself included)."""
        by_point = [0] * self.n_points
        for k, (i, j) in enumerate(self.vertices):
            bit = 1 << k
            by_point[i] |= bit
            by_point[j] |= bit
        return tuple(by_point[i] | by_point[j] for (i, j) in self.vertices)

    @cached_property
    def cross_mask(self) -> tuple[int, ...]:
        """cross_mask[v]: vertices whose segment properly crosses v's."""
        full = self.full_mask
        return tuple(
            full & ~self.adj[v] & ~self.touch_mask[v] for v in range(self.n_vertices)
        )

    def is_clean_vertex(self, v: int) -> bool:
        return self.cross_mask[v] == 0

    @cached_property
    def distance_layers(self) -> tuple[tuple[int, ...], ...]:
        """distance_layers[a][k]: the vertices at distance exactly k from a,
        for k = 0 .. the eccentricity of a; vertices a cannot reach lie in no
        layer.  One BFS per source, shared by every distance query."""
        adj = self.adj
        out = []
        for a in range(self.n_vertices):
            seen = frontier = 1 << a
            layers = [frontier]
            while True:
                reach = 0
                for v in iter_bits(frontier):
                    reach |= adj[v]
                frontier = reach & ~seen
                if not frontier:
                    break
                seen |= frontier
                layers.append(frontier)
            out.append(tuple(layers))
        return tuple(out)


def build_disjointness_graph(ps: PointSet) -> DisjointnessGraph:
    """Classify every segment pair with the exact intersection predicate."""
    if ps.n < 3:
        raise ValueError("graph construction needs n >= 3")
    return DisjointnessGraph(ps)


def iter_bits(m: int):
    """Indices of the set bits of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def distances_from(g: DisjointnessGraph, a: int) -> list:
    """Exact hop distances from a; unreachable vertices get math.inf."""
    dist = [INFINITY] * g.n_vertices
    for d, layer in enumerate(g.distance_layers[a]):
        for v in iter_bits(layer):
            dist[v] = d
    return dist


def diameter(g: DisjointnessGraph):
    """Largest pairwise distance; math.inf iff the graph is disconnected."""
    if not is_connected(g):
        return INFINITY
    return max(len(layers) for layers in g.distance_layers) - 1


def diameter_bounds(n: int) -> tuple[int, int]:
    """The (lowest, highest) diameter a sweep accepts for n points."""
    return _DIAMETER_RANGE.get(n, (2, 2))


def is_connected(g: DisjointnessGraph) -> bool:
    return sum(g.distance_layers[0]) == g.full_mask  # disjoint layers: sum = union


# ---------------------------------------------------------------------------
# Exports


def to_dot(g: DisjointnessGraph) -> str:
    """Undirected DOT export with vertices labelled "i-j", stable order."""
    lines = ["graph disjointness {"]
    for i, j in g.vertices:
        lines.append(f'  "{i}-{j}";')
    for u in range(g.n_vertices):
        for v in iter_bits(g.adj[u] >> (u + 1) << (u + 1)):
            ui, uj = g.vertices[u]
            vi, vj = g.vertices[v]
            lines.append(f'  "{ui}-{uj}" -- "{vi}-{vj}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(g: DisjointnessGraph) -> dict:
    edges = []
    for u in range(g.n_vertices):
        for v in iter_bits(g.adj[u] >> (u + 1) << (u + 1)):
            edges.append([u, v])
    return {
        "n_points": g.n_points,
        "vertices": [list(s) for s in g.vertices],
        "edges": edges,
    }
