"""Disjointness graph of the segments spanned by a planar point set.

Vertices are the C(n,2) closed segments in lexicographic (i, j) order; two
vertices are adjacent exactly when the segments are disjoint.  Adjacency is
stored as one Python-int bitset row per vertex, which the solver relies on
for fast common-neighbour queries.

The rows come from packed orientation columns, one n-by-|V| bit-matrix
transpose and per-n tables of cuts, with no Python loop over segment pairs
or (segment, point) pairs.  Each segment owns one field, W bits wide, of
three big ints (its direction and its line's offset), so one exact
expression per point evaluates that point's orientation against every
segment's line at once.  W is the fewest whole bytes whose sign bit lies
above the squared coordinate span, which bounds every orientation, so no
field borrows from or carries into the next; the coordinate cap keeps W at
most 64 bits.  The cost is n evaluations of O(|V| W) bits, a transpose of
n * |V| bits and |V| * ceil(n/8) table lookups (see
``DisjointnessGraph._crossing_rows``).  Distances take one BFS per source,
with layers 1 and 2 settled directly, since almost every D(P) has diameter
2: layer 1 is the source's row, and a few high-degree hub rows settle most
of layer 2 at once, so a source costs one or two lookups in tables of
their unions plus a row test for each vertex they leave.  Only a source of
eccentricity 3 or more takes the generic step, the same row test against
its frontier (see ``DisjointnessGraph.distance_layers``).

The segment tables depend on n alone: the vertex list, the read-only
``index_of`` map, the ``touch_mask`` rows and the cut tables are built once
per n and shared by every graph of that size (see ``_segment_tables``).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import chain, combinations, compress
from operator import or_, xor
from types import MappingProxyType

from .geometry import PointSet, SegmentId, all_segments

INFINITY = math.inf

#: Diameter range a sweep accepts for n = 5..8 random points; any other n
#: must give diameter 2.
_DIAMETER_RANGE = {5: (2, 4), 6: (2, 3), 7: (2, 3), 8: (2, 3)}


class DisjointnessGraph:
    """Immutable graph over the segments of n >= 3 points in general position."""

    def __init__(self, pointset: PointSet):
        if pointset.n < 3:
            raise ValueError("graph construction needs n >= 3")
        self.pointset = pointset
        self.n_points = pointset.n
        #: touch_mask[v]: vertices whose segment shares an endpoint with v
        #: (v itself included)
        self.vertices, self.index_of, self.touch_mask, cuts = _segment_tables(pointset.n)
        nv = len(self.vertices)
        self.n_vertices = nv
        full = self.full_mask = (1 << nv) - 1
        #: cross_mask[v]: vertices whose segment properly crosses v's
        self.cross_mask: tuple[int, ...] = self._crossing_rows(cuts)
        self.adj: tuple[int, ...] = tuple(
            full & ~cross & ~touch for cross, touch in zip(self.cross_mask, self.touch_mask)
        )

    def _crossing_rows(self, cuts: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        """Row u, for u = (i, j): the segments that properly cross u.

        Segments with four distinct endpoints cross iff each one's line
        separates the other's endpoints.  All orientation tests run inside
        n exact big-integer expressions, one per point k, with no loop over
        (segment, point) pairs.  The coordinates are shifted to start at 0,
        and ``span`` is the largest of them.  Segment u owns field u, W
        bits wide, of three packed ints: ``dx`` holds x_j - x_i, ``dy``
        holds y_j - y_i and ``c`` holds x_i*y_j - x_j*y_i + 2^(W-1).  The
        segments (i, i+1 .. n-1) are one block of fields, so each block
        takes one shifted copy of the packed coordinates.  Field u of
        y_k*dx - x_k*dy + c is then cross(p_i, p_j, p_k) + 2^(W-1).  That
        orientation is twice the signed area of a triangle in a
        span-by-span box, so at most span^2 in size, and W is the fewest
        whole bytes with span^2 < 2^(W-1); so every field of the sum lies
        in [0, 2^W) and none borrows from or carries into the next.  The top bit of field u is set iff k lies on
        or to the left of line u; one strided byte per field, read as
        ``bit_columns`` reads a column, gives those bits as ``sides[k]``.
        For v = (k, l), ``sep[v] = sides[k] ^ sides[l]`` holds the lines
        that separate v's endpoints.  Column u of ``sep``, the segments
        whose endpoints line u separates, is the cut of the points on or
        left of line u: the XOR of their star rows.  Those points are
        column u of ``sides``, read as ``ceil(n/8)`` bytes, and each byte
        picks its entry of that byte's 256-entry table in ``cuts`` (see
        ``_segment_tables`` and ``_byte_lookups``).  ``sep[u] & column u``
        holds the segments crossing u, once those touching u are masked
        off.  Cost: n evaluations of O(|V| W) bits, an n-by-|V| transpose
        and |V| * ceil(n/8) table lookups."""
        nv = self.n_vertices
        xs, ys = zip(*self.pointset.points)
        x0, y0 = min(xs), min(ys)
        xs = [x - x0 for x in xs]
        ys = [y - y0 for y in ys]
        n, span = len(xs), max(max(xs), max(ys))
        size = ((span * span).bit_length() + 8) // 8  # W / 8
        width = 8 * size

        def packed(values: list[int]) -> int:
            return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")

        one = (1).to_bytes(size, "little")
        all_x, all_y, ones = packed(xs), packed(ys), int.from_bytes(one * n, "little")
        dx = dy = c = 0
        at = 0  # the bit offset of block i
        for i in range(n - 1):
            shift = width * (i + 1)
            xj, yj, rep = all_x >> shift, all_y >> shift, ones >> shift
            dx += (xj - xs[i] * rep) << at
            dy += (yj - ys[i] * rep) << at
            c += (xs[i] * yj - ys[i] * xj) << at
            at += width * (n - 1 - i)
        c += int.from_bytes(one * nv, "little") << width - 1
        length, top = nv * size, _BIT_DIGITS[7]
        sides = [
            int((y * dx - x * dy + c).to_bytes(length, "big")[::size].translate(top), 2)
            for x, y in zip(xs, ys)
        ]
        sep = [sides[i] ^ sides[j] for i, j in self.vertices]
        cols = _byte_lookups(cuts, sides, nv, xor)
        return tuple(
            row & col & ~touch for row, col, touch in zip(sep, cols, self.touch_mask)
        )

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

    def is_clean_vertex(self, v: int) -> bool:
        return self.cross_mask[v] == 0

    @cached_property
    def distance_layers(self) -> tuple[tuple[int, ...], ...]:
        """distance_layers[a][k]: the vertices at distance exactly k from a,
        for k = 0 .. the eccentricity of a; vertices a cannot reach lie in no
        layer.  One BFS per source, shared by every distance query.

        Layers 1 and 2 are settled directly, since almost every D(P) has
        diameter 2.  Layer 1 is ``adj[a]``; a vertex with no neighbours has
        the single layer {a}.  Layer 2 is mostly settled at once by hubs,
        the rows of the k = ``n_vertices.bit_length()`` highest-degree
        vertices (ties broken by index): every unseen vertex w in the union
        of the hub rows that hold a is at distance 2, since a-h-w is a path
        and w is not a neighbour of a.  Column a of the hub rows says which
        hubs hold a; each byte of it picks one entry of a 256-entry table of
        unions of those eight hub rows (``_byte_lookups``), so the union
        costs ceil(k/8) lookups, read for every source at once.  A source
        whose union covers every unseen vertex has all of them as layer 2,
        its last layer.  Otherwise each unseen vertex outside the union
        joins layer 2 when its row meets ``adj[a]``.  Only layers 3 and up
        take the generic step, which tests each unseen vertex's row against
        the frontier; few sources reach it, all at small n."""
        adj = self.adj
        full = self.full_mask
        nv = self.n_vertices
        by_degree = sorted(range(nv), key=lambda v: -adj[v].bit_count())
        hubs = [adj[h] for h in by_degree[:nv.bit_length()]]
        out = []
        for a, near in enumerate(_byte_lookups(_byte_tables(hubs, or_), hubs, nv, or_)):
            first = adj[a]
            if not first:
                out.append((1 << a,))
                continue
            unseen = full & ~(first | 1 << a)
            rest = unseen & ~near
            if not rest:
                out.append((1 << a, first, unseen) if unseen else (1 << a, first))
                continue
            second = unseen ^ rest
            # iter_bits inlined: rest is mostly empty, and a generator per
            # source costs more than the tests it runs
            while rest:
                low = rest & -rest
                if adj[low.bit_length() - 1] & first:
                    second |= low
                rest ^= low
            layers = [1 << a, first]
            frontier = second
            while frontier:
                layers.append(frontier)
                unseen &= ~frontier
                if not unseen:
                    break
                frontier = sum(1 << w for w in iter_bits(unseen) if adj[w] & frontier)
            out.append(tuple(layers))
        return tuple(out)


@lru_cache(maxsize=8)
def _segment_tables(n: int):
    """(vertices, index_of, touch_mask, cuts) for n points, shared by every
    graph of that size, so ``index_of`` is a read-only view.  ``cuts[b][m]``
    is the XOR of the star rows (the vertices with endpoint p) of the points
    p = 8b + t for the set bits t of m: the segments with exactly one
    endpoint among those points.  Eight sizes are kept, enough for the
    default sweep's n = 5..12 and for workloads that alternate sizes."""
    vertices: tuple[SegmentId, ...] = tuple(all_segments(n))
    index_of = MappingProxyType({s: k for k, s in enumerate(vertices)})
    star = [0] * n  # star[p]: the vertices with endpoint p
    for k, (i, j) in enumerate(vertices):
        star[i] |= 1 << k
        star[j] |= 1 << k
    touch_mask = tuple(star[i] | star[j] for i, j in vertices)
    return vertices, index_of, touch_mask, _byte_tables(star, xor)


def build_disjointness_graph(ps: PointSet) -> DisjointnessGraph:
    """D(P) from exact orientation tests; every segment pair is classified."""
    return DisjointnessGraph(ps)


def iter_bits(m: int):
    """Indices of the set bits of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


# _BIT_DIGITS[i] maps a byte to the ASCII digit of its bit i.
_BIT_DIGITS = [bytes(0x30 | (byte >> i & 1) for byte in range(256)) for i in range(8)]


def bit_columns(rows: list[int], n_cols: int) -> list[int]:
    """Transpose a bit matrix: bit p of column v is bit v of rows[p].

    With the rows laid out as bytes, last row first, a strided slice takes
    one byte of every row, and one bit of those bytes, read as binary
    digits, is a column.  The cost is linear in the size of the matrix.
    """
    if not rows:
        return [0] * n_cols
    width = (n_cols + 7) // 8
    # filled in place: a join of one bytes object per row holds it twice
    laid_out = bytearray(width * len(rows))
    end = len(laid_out)
    for row in rows:
        laid_out[end - width:end] = row.to_bytes(width, "little")
        end -= width
    cols = []
    for j in range(width):
        byte_column = laid_out[j::width]
        for i in range(min(8, n_cols - 8 * j)):
            cols.append(int(byte_column.translate(_BIT_DIGITS[i]), 2))
    return cols


# _SELECTORS maps the ASCII digits 0 and 1 to the bytes 0 and 1.
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _bit_bytes(row: int, length: int) -> bytes:
    """The bits of row, lowest first, one byte (0 or 1) each, zero-padded
    to ``length`` bytes (row 0 gives at least one byte)."""
    return format(row, "b").zfill(length)[::-1].encode().translate(_SELECTORS)


def _byte_tables(rows: list[int], op) -> tuple[tuple[int, ...], ...]:
    """``tables[b][m]``: ``op`` folded over the rows 8b + t for the set
    bits t of m, and 0 for m = 0; one table per byte of rows."""
    tables = []
    for base in range(0, len(rows), 8):
        table = [0]
        for row in rows[base:base + 8]:
            table += [op(folded, row) for folded in table]
        tables.append(tuple(table))
    return tuple(tables)


def _byte_lookups(tables, rows: list[int], length: int, op):
    """For each column u < length of the bit matrix ``rows``, ``op``
    folded over ``tables[b][key]``, where bit t of key is bit u of
    ``rows[8b + t]``.  With ``tables = _byte_tables(values, op)`` that is
    ``op`` folded over ``values[p]`` for the rows p whose bit u is set.

    The transpose takes no Python step per column: byte u of ``spread[p]``
    is bit u of ``rows[p]``, so eight of them, shifted and summed, hold
    every column's key byte at once.  Needs at least one row."""
    spread = [int.from_bytes(_bit_bytes(row, length), "little") for row in rows]
    keys = [
        sum(row << t for t, row in enumerate(spread[base:base + 8])).to_bytes(length, "little")
        for base in range(0, len(rows), 8)
    ]
    out = map(tables[0].__getitem__, keys[0])
    for table, key in zip(tables[1:], keys[1:]):
        out = map(op, out, map(table.__getitem__, key))
    return out


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


def _upper_neighbours(g: DisjointnessGraph):
    """One selector row per vertex u, ascending: byte k is 1 iff u is
    adjacent to vertex u + 1 + k.  Row u has |V| - u - 1 bytes (the last
    row has one, a 0), so the rows chained together select the pairs of
    ``combinations(range(|V|), 2)``.

    A row's upper part is written as binary digits, zero-padded, reversed
    so that its lowest bit comes first, and translated digit for digit;
    each writer compresses with the selectors, so no Python loop runs per
    edge.
    """
    nv = g.n_vertices
    for first, row in enumerate(g.adj, 1):
        yield _bit_bytes(row >> first, nv - first)


def to_dot(g: DisjointnessGraph) -> str:
    """Undirected DOT export with vertices labelled "i-j", stable order."""
    labels = [f'"{i}-{j}"' for i, j in g.vertices]
    ends = [f"{label};\n" for label in labels]
    parts = ["graph disjointness {\n"]
    parts.extend(f"  {end}" for end in ends)
    for u, (row, sel) in enumerate(zip(g.adj, _upper_neighbours(g))):
        first = u + 1
        if row >> first:
            head = f"  {labels[u]} -- "
            parts.append(head + head.join(compress(ends[first:], sel)))
    parts.append("}\n")
    return "".join(parts)


def to_json_dict(g: DisjointnessGraph) -> dict:
    """The graph as plain data: ``n_points``, ``vertices`` as [i, j] lists
    and ``edges`` as (u, v) tuples with u < v, in ascending lexicographic
    order.  ``json.dumps`` writes a tuple as it writes a list, so the JSON is
    the same as with [u, v] lists.  The edges are drawn from
    ``combinations(range(n_vertices), 2)``, whose tuples all refer to the
    ints of one pool, so the edges add no int per edge."""
    pairs = combinations(range(g.n_vertices), 2)
    return {
        "n_points": g.n_points,
        "vertices": [list(s) for s in g.vertices],
        "edges": list(compress(pairs, chain.from_iterable(_upper_neighbours(g)))),
    }
