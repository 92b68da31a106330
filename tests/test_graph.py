import itertools
from math import comb

import pytest

from segvis.geometry import PointSet, gen_convex, gen_random_general_position, segment
from segvis.graph import (
    INFINITY,
    build_disjointness_graph,
    diameter,
    distances_from,
    is_connected,
    to_dot,
    to_json_dict,
)

from oracles import oracle_adjacency, oracle_distances


def test_vertex_layout(cacerola_graph):
    g = cacerola_graph
    assert g.n_vertices == 21
    assert g.vertices[0] == (0, 1)
    assert g.vertices == tuple(sorted(g.vertices))


def test_adjacency_matches_rational_oracle():
    for seed in (3, 4):
        ps = gen_random_general_position(7, seed=seed, bound=800)
        g = build_disjointness_graph(ps)
        segs, adj = oracle_adjacency([(p.x, p.y) for p in ps.points])
        for s1, s2 in itertools.combinations(segs, 2):
            assert g.are_adjacent(g.vertex(s1), g.vertex(s2)) == (s2 in adj[s1])


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
    d0 = distances_from(g, 0)
    assert d0[0] == 0
    neighbor = next(v for v in range(g.n_vertices) if g.are_adjacent(0, v))
    assert d0[neighbor] == 1
    # full check against an independent BFS on the oracle adjacency
    coords = [(p.x, p.y) for p in g.pointset.points]
    segs, adj = oracle_adjacency(coords)
    for a in (0, 5, 17):
        expect = oracle_distances(segs, adj, g.vertices[a])
        got = distances_from(g, a)
        for s in segs:
            assert got[g.vertex(s)] == expect[s]


def test_distance_three_pair_frozen(cacerola_graph):
    # crossing diagonals far apart in the graph; value fixed by the oracle BFS
    g = cacerola_graph
    assert distances_from(g, g.vertex((0, 3)))[g.vertex((1, 4))] == 3
    assert distances_from(g, g.vertex((0, 3)))[g.vertex((1, 6))] == 2


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
    from segvis.geometry import all_segments, is_clean

    for s in all_segments(cacerola.n):
        assert cacerola_graph.is_clean_vertex(cacerola_graph.vertex(s)) == is_clean(
            cacerola, s
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
