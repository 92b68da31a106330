import itertools
from math import comb

import pytest
from hypothesis import assume, given, strategies as st

from segvis.geometry import (
    MAX_COORD,
    PointSet,
    cacerola_points,
    cross,
    gen_convex,
    gen_double_chain,
    gen_random_general_position,
    segment,
)
from segvis.graph import (
    INFINITY,
    DisjointnessGraph,
    build_disjointness_graph,
    diameter,
    is_connected,
    to_dot,
    to_json_dict,
)

from oracles import (
    layer_distances,
    oracle_adjacency,
    oracle_distances,
    oracle_edges,
    oracle_is_clean,
)


def test_vertex_layout(cacerola_graph):
    g = cacerola_graph
    assert g.n_vertices == 21
    assert g.vertices[0] == (0, 1)
    assert g.vertices == tuple(sorted(g.vertices))


def assert_rows_match_oracle(ps):
    g = build_disjointness_graph(ps)
    segs, adj = oracle_adjacency([(p.x, p.y) for p in ps.points])
    assert g.vertices == tuple(segs)
    assert g.adj == tuple(g.mask_of(adj[s]) for s in segs), ps.points


def near_cap_chain() -> PointSet:
    # k * (N + 1, N) + e * (1, 1): every orientation is a small integer
    # while the products inside it reach 2^60, where floats get 32 of the
    # 336 ordered triples' signs wrong
    big = MAX_COORD // 8
    offsets = [3, -5, 8, 0, -9, 6, -2, 11]
    return PointSet.from_coords(
        [(k * (big + 1) + e + 20, k * big + e + 20) for k, e in enumerate(offsets)]
    )


def test_adjacency_matches_rational_oracle():
    point_sets = [
        gen_random_general_position(n, seed=seed, bound=800)
        for n in range(3, 11)
        for seed in (3, 4, 5)
    ]
    # each byte of points has its own cut table: sizes on and next to its
    # boundaries
    point_sets += [
        gen_random_general_position(n, seed=n, bound=bound)
        for n in (8, 9, 16, 17, 24, 25)
        for bound in (800, 1 << 20)
    ]
    point_sets += [gen_convex(n) for n in range(3, 13)]
    point_sets += [gen_double_chain(2, 6), gen_double_chain(3, 6), near_cap_chain()]
    for ps in point_sets:
        assert_rows_match_oracle(ps)


def general_position_subset(coords):
    """Greedily keep each point off every line through two kept ones."""
    kept = []
    for c in coords:
        if c not in kept and all(cross(a, b, c) for a, b in itertools.combinations(kept, 2)):
            kept.append(c)
    return kept


def corner_set(high: int) -> PointSet:
    """Points at and next to the corners of [-MAX_COORD, high]^2."""
    low = -MAX_COORD
    steps = [(0, 0), (1, 0), (0, 2), (3, 5), (7, 2), (2, 9)]
    coords = [
        (low + a if right < 0 else high - a, low + b if top < 0 else high - b)
        for right in (-1, 1)
        for top in (-1, 1)
        for a, b in steps
    ]
    return PointSet.from_coords(general_position_subset(coords))


@pytest.mark.parametrize("high", [MAX_COORD, MAX_COORD - 1], ids=["span2^31", "span2^31-1"])
def test_adjacency_matches_oracle_at_the_coordinate_cap(high):
    # each segment's orientations fill one field of a packed int, sized
    # from the span: both spans take the widest field, 64 bits, the fewest
    # with span^2 < 2^(W-1); three corners of the box give an orientation
    # of span^2 or near it, so a field one byte narrower overflows
    ps = corner_set(high)
    assert ps.n >= 12
    assert max(p.x for p in ps) - min(p.x for p in ps) == high + MAX_COORD
    assert_rows_match_oracle(ps)


def test_adjacency_matches_oracle_with_negative_coordinates():
    for n, seed, bound in [(9, 1, 1000), (14, 2, 10**6), (20, 3, MAX_COORD)]:
        pts = gen_random_general_position(n, seed=seed, bound=bound).points
        for sx, sy in [(bound, bound), (bound // 2, 0), (0, bound // 3)]:
            assert_rows_match_oracle(PointSet.from_coords([(x - sx, y - sy) for x, y in pts]))


def test_graph_needs_three_points():
    # the constructor itself refuses D(P) of 1 or 2 points, so no graph
    # reaches the distance queries with at most one vertex
    for coords in ([(-5, 7)], [(-5, 7), (MAX_COORD, -MAX_COORD)]):
        with pytest.raises(ValueError, match="needs n >= 3"):
            DisjointnessGraph(PointSet.from_coords(coords))


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=12))
def test_adjacency_matches_oracle_on_grids(coords):
    # small grids are full of near-degenerate configurations: segments
    # passing next to an endpoint, nested triangles, touching hulls
    kept = general_position_subset(coords)
    assume(len(kept) >= 3)
    assert_rows_match_oracle(PointSet.from_coords(kept))


def test_convex5_structure():
    # Brute force gives 10 edges: hull edges have degree C(3,2)=3 while each
    # diagonal crosses the other two and keeps only its opposite hull edge.
    g = build_disjointness_graph(gen_convex(5))
    assert g.n_vertices == 10
    assert g.n_edges == 10
    assert sorted(g.degree(v) for v in range(10)) == [1] * 5 + [3] * 5


def test_triangle_graph_edgeless():
    g = build_disjointness_graph(gen_convex(3))
    assert g.n_vertices == 3
    assert g.n_edges == 0
    assert not is_connected(g)


def test_quadrilateral_disconnected():
    ps = PointSet.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
    g = build_disjointness_graph(ps)
    assert g.n_vertices == 6
    assert not is_connected(g)
    assert diameter(g) == INFINITY


def test_distances(cacerola_graph):
    g = cacerola_graph
    d0 = layer_distances(g, 0)
    assert d0[0] == 0
    neighbor = next(v for v in range(g.n_vertices) if g.are_adjacent(0, v))
    assert d0[neighbor] == 1
    # full check, from every source, against an independent BFS on the
    # oracle adjacency
    graphs = [
        build_disjointness_graph(PointSet.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])),
        cacerola_graph,
        build_disjointness_graph(gen_convex(5)),
        # a bottom-up step here is followed by a further layer
        build_disjointness_graph(gen_random_general_position(5, seed=0, bound=10000)),
        build_disjointness_graph(gen_random_general_position(12, seed=7, bound=10000)),
    ]
    bottom_up = set()
    unreachable = False
    for g in graphs:
        segs, adj = oracle_adjacency([(p.x, p.y) for p in g.pointset.points])
        for a, s in enumerate(segs):
            expect = oracle_distances(segs, adj, s)
            assert layer_distances(g, a) == [expect[t] for t in segs]
            # a BFS step goes bottom-up when fewer vertices are unvisited
            # than lie in its frontier
            sizes = [list(expect.values()).count(k) for k in range(len(g.distance_layers[a]))]
            unvisited = len(segs)
            for size in sizes:
                unvisited -= size
                bottom_up.add(unvisited < size)
            unreachable |= unvisited > 0
    assert bottom_up == {False, True} and unreachable


def plain_bfs_layers(g, a):
    """Layers of a top-down bitset BFS from a: each ORs its frontier's rows."""
    seen = frontier = 1 << a
    layers = [frontier]
    while True:
        nxt = 0
        for v in range(g.n_vertices):
            if frontier >> v & 1:
                nxt |= g.adj[v]
        nxt &= ~seen
        if not nxt:
            return layers
        seen |= nxt
        frontier = nxt
        layers.append(nxt)


def test_distance_layers_match_plain_bfs(cacerola_graph):
    graphs = [
        build_disjointness_graph(gen_convex(3)),  # no edges
        build_disjointness_graph(PointSet.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])),
        build_disjointness_graph(gen_convex(5)),  # diameter 4
        cacerola_graph,  # diameter 3
        build_disjointness_graph(gen_double_chain(3, 6)),
        build_disjointness_graph(gen_random_general_position(32, seed=32000, bound=1 << 20)),
    ]
    graphs += [
        build_disjointness_graph(gen_random_general_position(n, seed=seed, bound=10000))
        for n in range(5, 13)
        for seed in (1, 2, 3)
    ]
    # how much of layer 2 the rows of the bit_length() highest-degree
    # vertices that hold the source cover: the inputs must reach every case
    cover = set()
    # the kinds of source the layer 1/2 step and the generic step meet
    kinds = set()
    for g in graphs:
        by_degree = sorted(range(g.n_vertices), key=lambda v: (-g.degree(v), v))
        hubs = [g.adj[h] for h in by_degree[: g.n_vertices.bit_length()]]
        for a in range(g.n_vertices):
            layers = plain_bfs_layers(g, a)
            assert g.distance_layers[a] == tuple(layers), (g.pointset.points, a)
            if len(layers) == 1:
                kinds.add("no neighbours")
            if len(layers) > 3:
                kinds.add("layer 3")
            if len(layers) > 2:
                near = 0
                for row in hubs:
                    if row >> a & 1:
                        near |= row
                covered = near & layers[2]
                cover.add("empty" if not covered else "complete" if covered == layers[2] else "partial")
                if covered != layers[2]:
                    kinds.add("row tests outside near")
    assert cover == {"empty", "partial", "complete"}
    assert kinds == {"no neighbours", "row tests outside near", "layer 3"}


def test_distance_three_pair_frozen(cacerola_graph):
    # crossing diagonals far apart in the graph; value fixed by the oracle BFS
    g = cacerola_graph
    assert layer_distances(g, g.vertex((0, 3)))[g.vertex((1, 4))] == 3
    assert layer_distances(g, g.vertex((0, 3)))[g.vertex((1, 6))] == 2


def test_diameter_values(cacerola_graph):
    assert diameter(cacerola_graph) == 3
    assert diameter(build_disjointness_graph(gen_convex(9))) == 2
    assert diameter(build_disjointness_graph(gen_convex(5))) == 4


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_connectivity_by_size(n):
    ps = gen_random_general_position(n, seed=n, bound=4000)
    assert is_connected(build_disjointness_graph(ps))


def test_diameter_ranges_small_sweep():
    ranges = {5: (2, 4), 6: (2, 3), 7: (2, 3), 8: (2, 3), 9: (2, 2), 10: (2, 2)}
    for n, (lo, hi) in ranges.items():
        for k in range(5):
            ps = gen_random_general_position(n, seed=100 * n + k, bound=5000)
            d = diameter(build_disjointness_graph(ps))
            assert lo <= d <= hi, (n, k, d)


def test_hull_edge_degree():
    from segvis.geometry import convex_hull

    for seed in (31, 32, 33):
        for n in (6, 8, 10):
            ps = gen_random_general_position(n, seed=seed, bound=5000)
            g = build_disjointness_graph(ps)
            h = convex_hull(ps)
            for k in range(h.m):
                e = segment(h.hull[k], h.hull[(k + 1) % h.m])
                assert g.degree(g.vertex(e)) == comb(n - 2, 2)


def test_adjacency_symmetric_irreflexive(cacerola_graph):
    g = cacerola_graph
    for v in range(g.n_vertices):
        assert not g.adj[v] >> v & 1
        for w in range(g.n_vertices):
            assert (g.adj[v] >> w & 1) == (g.adj[w] >> v & 1)


def test_rebuild_deterministic(cacerola):
    g1 = build_disjointness_graph(cacerola)
    g2 = build_disjointness_graph(cacerola)
    assert g1.adj == g2.adj
    assert g1.vertices == g2.vertices


def test_clean_vertex_matches_geometry(cacerola, cacerola_graph):
    coords = [(p.x, p.y) for p in cacerola.points]
    for s in cacerola_graph.vertices:
        assert cacerola_graph.is_clean_vertex(cacerola_graph.vertex(s)) == oracle_is_clean(
            coords, s
        )


def test_dot_export():
    g = build_disjointness_graph(gen_convex(4))
    dot = to_dot(g)
    assert dot.startswith("graph disjointness {")
    assert '"0-1";' in dot
    assert dot == to_dot(g)  # deterministic
    # n=4: two crossing diagonals plus opposite edge pairs -> 2 edges
    assert dot.count("--") == g.n_edges == 2


def test_json_export(cacerola_graph):
    data = to_json_dict(cacerola_graph)
    assert data["n_points"] == 7
    assert len(data["vertices"]) == 21
    assert all(u < v for u, v in data["edges"])
    assert len(data["edges"]) == cacerola_graph.n_edges


def oracle_dot(g, edges) -> str:
    """The DOT export written one line per vertex and per edge."""
    labels = [f'"{i}-{j}"' for i, j in g.vertices]
    lines = ["graph disjointness {"]
    lines += [f"  {label};" for label in labels]
    lines += [f"  {labels[u]} -- {labels[v]};" for u, v in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


EXPORT_CASES = {f"convex:{n}": (gen_convex, n) for n in range(3, 13)}
EXPORT_CASES["quadrilateral"] = (PointSet.from_coords, [(0, 0), (10, 0), (10, 10), (0, 10)])
EXPORT_CASES["cacerola"] = (cacerola_points,)
# 10 .. 136 vertices: on and off multiples of 8, rows with no upper part
EXPORT_CASES.update(
    (f"random:{n}:{n}:{bound}", (gen_random_general_position, n, n, bound))
    for n in range(5, 18)
    for bound in (60, 10000)
)


@pytest.mark.parametrize("case", list(EXPORT_CASES))
def test_exports_match_oracle(case):
    make, *args = EXPORT_CASES[case]
    g = build_disjointness_graph(make(*args))
    edges = oracle_edges(g)
    assert list(map(tuple, to_json_dict(g)["edges"])) == edges
    assert to_dot(g) == oracle_dot(g, edges)


def test_json_edges_share_one_int_per_vertex():
    # 496 vertices: most ids lie above the small ints CPython caches
    g = build_disjointness_graph(gen_random_general_position(32, seed=32, bound=1 << 20))
    edges = to_json_dict(g)["edges"]
    assert len(edges) == g.n_edges
    assert len({id(v) for edge in edges for v in edge}) <= g.n_vertices


def test_graphs_of_one_size_share_their_segment_tables():
    a = build_disjointness_graph(gen_random_general_position(9, seed=1, bound=1000))
    b = build_disjointness_graph(gen_convex(9))
    assert a.vertices is b.vertices
    assert a.index_of is b.index_of and a.touch_mask is b.touch_mask
    with pytest.raises(TypeError):
        a.index_of[(0, 1)] = 5
    assert a.index_of[(0, 1)] == 0 and a.vertex((7, 8)) == len(a.vertices) - 1
    # alternating sizes keep their tables too: the golden instances' sizes
    # for exact mu, then 32 and 48
    first = {}
    for seed in (1, 2):
        for n in (7, 10, 9, 9, 10, 11, 32, 48):
            g = build_disjointness_graph(gen_random_general_position(n, seed=seed, bound=1 << 20))
            tables = (g.vertices, g.index_of, g.touch_mask)
            kept = first.setdefault(n, tables)
            assert all(x is y for x, y in zip(kept, tables)), n
