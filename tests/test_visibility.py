import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segvis.constructions import build_certificate
from segvis.geometry import PointSet, gen_convex, gen_random_general_position, segment
from segvis.graph import build_disjointness_graph, diameter, iter_bits
from segvis.solver import mu_exact
from segvis.visibility import (
    VertexSet,
    first_failing_pair,
    is_mutual_visibility_set,
    is_mutually_visible,
)

from oracles import (
    all_shortest_paths,
    layer_distances,
    oracle_first_failing_pair,
    oracle_pair_visible,
)


def test_vertex_set_basics():
    u = VertexSet.from_indices(10, [1, 4, 7])
    assert len(u) == 3
    assert 4 in u and 5 not in u
    assert u.indices() == (1, 4, 7)
    assert len(u.complement()) == 7
    with pytest.raises(ValueError):
        VertexSet.from_indices(4, [5])
    with pytest.raises(ValueError):
        VertexSet(4, 1 << 6)


def test_adjacent_pair_verdict(cacerola_graph):
    g = cacerola_graph
    a = 0
    b = next(v for v in range(g.n_vertices) if g.are_adjacent(0, v))
    u = VertexSet.from_indices(g.n_vertices, [a, b])
    v = is_mutually_visible(g, u, a, b)
    assert v.visible and v.distance == 1 and v.witness_path is None


def test_pair_alone_always_visible(cacerola_graph):
    g = cacerola_graph
    a, b = 0, next(v for v in range(g.n_vertices) if not g.are_adjacent(0, v) and v != 0)
    u = VertexSet.from_indices(g.n_vertices, [a, b])
    assert is_mutually_visible(g, u, a, b).visible


def test_full_vertex_set_fails(cacerola_graph):
    ok, verdict = is_mutual_visibility_set(
        cacerola_graph, VertexSet.full(cacerola_graph.n_vertices)
    )
    assert not ok
    assert verdict is not None and not verdict.visible
    # failing pair reported in lexicographic order: no earlier pair fails
    for a, b in itertools.combinations(range(cacerola_graph.n_vertices), 2):
        if (a, b) == (verdict.a, verdict.b):
            break
        assert is_mutually_visible(
            cacerola_graph, VertexSet.full(cacerola_graph.n_vertices), a, b
        ).visible


def test_small_sets_vacuous(cacerola_graph):
    assert is_mutual_visibility_set(cacerola_graph, VertexSet(21, 0))[0]
    assert is_mutual_visibility_set(cacerola_graph, VertexSet.from_indices(21, [3]))[0]
    assert is_mutual_visibility_set(cacerola_graph, VertexSet.from_indices(21, [0, 20]))[0]


def test_membership_preconditions(cacerola_graph):
    u = VertexSet.from_indices(21, [0, 1])
    with pytest.raises(ValueError):
        is_mutually_visible(cacerola_graph, u, 0, 5)
    # an endpoint outside 0..20 is in no set, never a shift error, so the
    # pair verdict refuses it as a non-member
    full = VertexSet.full(21)
    assert 0 in full and 20 in full
    assert -1 not in full and 21 not in full and 99 not in full
    for a, b in ((-1, 3), (3, -1), (0, 21), (0, 99)):
        with pytest.raises(ValueError, match="both endpoints must belong"):
            is_mutually_visible(cacerola_graph, full, a, b)


def test_witness_path_invariants(cacerola_graph):
    g = cacerola_graph
    rng = random.Random(5)
    for _ in range(200):
        ids = rng.sample(range(g.n_vertices), rng.randint(2, 8))
        u = VertexSet.from_indices(g.n_vertices, ids)
        for a, b in itertools.combinations(sorted(ids), 2):
            v = is_mutually_visible(g, u, a, b)
            if v.visible and v.distance > 1:
                assert v.witness_path is not None
                assert len(v.witness_path) - 1 == v.distance
                assert v.witness_path[0] == a and v.witness_path[-1] == b
                for inner in v.witness_path[1:-1]:
                    assert inner not in u
                for x, y in zip(v.witness_path, v.witness_path[1:]):
                    assert g.are_adjacent(x, y)
            elif v.visible:
                assert v.witness_path is None


def test_restricted_bfs_matches_naive_oracle(cacerola_graph):
    g = cacerola_graph
    rng = random.Random(11)
    for _ in range(120):
        ids = sorted(rng.sample(range(g.n_vertices), rng.randint(2, 9)))
        u = VertexSet.from_indices(g.n_vertices, ids)
        for a, b in itertools.combinations(ids, 2):
            assert is_mutually_visible(g, u, a, b).visible == oracle_pair_visible(
                g, ids, a, b
            )


def test_set_verdict_matches_naive_oracle():
    # Random sets and complements of small blocker sets over a disconnected
    # quadrilateral (unreachable pairs) and random sets with n = 5..8, plus
    # sets holding a distance-4 pair of the convex pentagon.  The reported
    # failing pair must be the oracle's lexicographically first one.
    rng = random.Random(23)
    quad = PointSet.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
    graphs = [build_disjointness_graph(quad)] + [
        build_disjointness_graph(gen_random_general_position(n, seed=seed, bound=2000))
        for n, seed in ((5, 1), (6, 1), (6, 2), (7, 1), (8, 1))
    ]
    cases = []
    for g in graphs:
        nv = g.n_vertices
        for _ in range(40):
            cases.append((g, sorted(rng.sample(range(nv), rng.randint(0, min(nv, 7))))))
            blockers = set(rng.sample(range(nv), rng.randint(0, min(nv, 9))))
            cases.append((g, [v for v in range(nv) if v not in blockers]))
    g5 = build_disjointness_graph(gen_convex(5))
    far = [
        (a, b)
        for a, b in itertools.combinations(range(g5.n_vertices), 2)
        if layer_distances(g5, a)[b] == 4
    ]
    assert far
    for a, b in far:
        for _ in range(12):
            extra = rng.sample(range(g5.n_vertices), rng.randint(0, 6))
            cases.append((g5, sorted({a, b, *extra})))
    for g, ids in cases:
        u = VertexSet.from_indices(g.n_vertices, ids)
        ok, verdict = is_mutual_visibility_set(g, u)
        first = oracle_first_failing_pair(g, ids)
        assert ok == (first is None)
        if not ok:
            assert (verdict.a, verdict.b) == first and not verdict.visible


def test_cover_test_pairs_match_naive_oracle(cacerola):
    # Sources of eccentricity at most 2 take the cover test, the others the
    # walk.  Diameter-2 graphs (n = 9, 10) check the complement of their
    # certificate, which passes, and that complement plus one blocker, which
    # fails; cacerola (diameter 3, some sources of eccentricity 2), convex:5
    # (diameter 4) and the disconnected quadrilateral check random sets and
    # complements of random blocker sets.  The pair must be the oracle's
    # lexicographically first failing pair.
    rng = random.Random(41)
    cases = []
    for n, seed in ((9, 1), (10, 1)):
        ps = gen_random_general_position(n, seed=seed, bound=10000)
        g = build_disjointness_graph(ps)
        assert diameter(g) == 2
        blockers = g.mask_of(build_certificate(ps, g).blockers)
        u = g.full_mask & ~blockers
        cases.append((g, u))
        cases += [(g, u | 1 << x) for x in iter_bits(blockers)]
    quad = PointSet.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
    for ps in (cacerola, gen_convex(5), quad):
        g = build_disjointness_graph(ps)
        nv = g.n_vertices
        for _ in range(40):
            cases.append((g, g.mask_of(rng.sample(g.vertices, rng.randint(0, min(nv, 8))))))
            blockers = g.mask_of(rng.sample(g.vertices, rng.randint(0, min(nv, 9))))
            cases.append((g, g.full_mask & ~blockers))
    seen = set()
    for g, u in cases:
        ids = list(iter_bits(u))
        pair = first_failing_pair(g, u)
        assert pair == oracle_first_failing_pair(g, ids), (g.pointset.points, ids)
        if pair is not None:
            seen.add(len(g.distance_layers[pair[0]]) <= 3)
    assert seen == {False, True}


@given(
    n=st.integers(5, 8),
    seed=st.integers(0, 10**6),
    bound=st.sampled_from([50, 10000]),
    data=st.data(),
)
def test_first_failing_pair_matches_oracle_property(n, seed, bound, data):
    # n = 5..8 gives diameters 2 to 4, so sources take both the cover test
    # and the reach walk; U is empty, a singleton or any subset
    g = build_disjointness_graph(gen_random_general_position(n, seed=seed, bound=bound))
    u_mask = data.draw(
        st.one_of(
            st.just(0),
            st.integers(0, g.n_vertices - 1).map(lambda v: 1 << v),
            st.integers(0, g.full_mask),
        ),
        label="u_mask",
    )
    ids = list(iter_bits(u_mask))
    assert first_failing_pair(g, u_mask) == oracle_first_failing_pair(g, ids)


def test_vertex_set_sized_for_another_graph_is_refused():
    g = build_disjointness_graph(gen_convex(6))
    assert g.n_vertices == 15
    big = VertexSet(20, 1 << 16 | 1 << 17)
    small = VertexSet(3, 0b101)
    message = r"sized for {} vertices, but the graph has 15"
    for u in (big, small):
        with pytest.raises(ValueError, match=message.format(u.n_vertices)):
            is_mutual_visibility_set(g, u)
        a, b = u.indices()
        with pytest.raises(ValueError, match=message.format(u.n_vertices)):
            is_mutually_visible(g, u, a, b)
    for hint in (big, VertexSet(3, 0b11)):
        with pytest.raises(ValueError, match=message.format(hint.n_vertices)):
            mu_exact(g, witness_hint=hint)


def test_downward_closure(cacerola_graph):
    g = cacerola_graph
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        ids = sorted(rng.sample(range(g.n_vertices), rng.randint(2, 6)))
        u = VertexSet.from_indices(g.n_vertices, ids)
        if not is_mutual_visibility_set(g, u)[0]:
            continue
        checked += 1
        sub = sorted(rng.sample(ids, rng.randint(0, len(ids))))
        assert is_mutual_visibility_set(
            g, VertexSet.from_indices(g.n_vertices, sub)
        )[0]


# -- pair distances ---------------------------------------------------------------


def test_classify_convex6_long_diagonal_case():
    # Hexagon blockers: edges plus the three long diagonals.  The remaining
    # short diagonals pairwise see each other at distance 2 or 3.
    ps = gen_convex(6)
    from segvis.geometry import convex_hull

    g = build_disjointness_graph(ps)
    h = convex_hull(ps).hull
    edges = [segment(h[k], h[(k + 1) % 6]) for k in range(6)]
    longs = [segment(h[0], h[3]), segment(h[1], h[4]), segment(h[2], h[5])]
    s = VertexSet.from_indices(g.n_vertices, [g.vertex(t) for t in edges + longs])
    ok, _ = is_mutual_visibility_set(g, s.complement())
    assert ok
    for j in range(6):
        a = g.vertex(segment(h[j], h[(j + 2) % 6]))
        b = g.vertex(segment(h[j], h[(j + 4) % 6]))
        v = is_mutually_visible(g, s.complement(), a, b)
        assert v.visible and v.distance == 3
        # the stated witnesses form the required path
        g1 = g.vertex(segment(h[(j + 4) % 6], h[(j + 5) % 6]))
        g2 = g.vertex(segment(h[(j + 1) % 6], h[(j + 2) % 6]))
        assert g.are_adjacent(a, g1) and g.are_adjacent(g1, g2) and g.are_adjacent(g2, b)


def test_classify_alternating_edges_dist2():
    ps = gen_convex(10)
    from segvis.geometry import convex_hull

    g = build_disjointness_graph(ps)
    h = convex_hull(ps).hull
    blockers = [segment(h[k], h[(k + 1) % 10]) for k in (0, 2, 4, 6, 8)]
    s = VertexSet.from_indices(g.n_vertices, [g.vertex(t) for t in blockers])
    u = s.complement()
    for a, b in itertools.combinations(u.indices(), 2):
        if g.are_adjacent(a, b):
            continue
        v = is_mutually_visible(g, u, a, b)
        assert v.visible and v.distance == 2


def test_classification_equivalence_with_verifier(cacerola_graph):
    g = cacerola_graph
    rng = random.Random(3)
    for _ in range(80):
        ids = sorted(rng.sample(range(g.n_vertices), rng.randint(0, 9)))
        u = VertexSet.from_indices(g.n_vertices, ids).complement()
        every_pair_visible = all(
            is_mutually_visible(g, u, a, b).visible
            for a, b in itertools.combinations(u.indices(), 2)
            if not g.are_adjacent(a, b)
        )
        assert every_pair_visible == is_mutual_visibility_set(g, u)[0]


def test_distance4_only_for_five_points():
    # convex five-point sets achieve diameter 4; larger sets never do
    g5 = build_disjointness_graph(gen_convex(5))
    far = [
        (a, b)
        for a in range(g5.n_vertices)
        for b in range(a + 1, g5.n_vertices)
        if layer_distances(g5, a)[b] == 4
    ]
    assert far
    a, b = far[0]
    v = is_mutually_visible(g5, VertexSet.from_indices(g5.n_vertices, [a, b]), a, b)
    assert v.visible and v.distance == 4
    for n in (6, 7, 8):
        for seed in range(3):
            ps = gen_random_general_position(n, seed=seed, bound=3000)
            g = build_disjointness_graph(ps)
            assert all(
                d <= 3 for a in range(g.n_vertices) for d in layer_distances(g, a)
            )


def test_pair_verdict_matches_shortest_path_oracle():
    # With U = V \ S, the verdict gives dist(a, b), math.inf when b is
    # unreachable, and is visible exactly when some shortest path has all its
    # internal vertices in S; a visible pair at distance >= 2 carries such a
    # path as its witness.  convex:5 contributes every distance-4 pair and
    # the quadrilateral unreachable ones.
    rng = random.Random(31)
    quad = PointSet.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
    graphs = [build_disjointness_graph(quad), build_disjointness_graph(gen_convex(5))]
    graphs += [
        build_disjointness_graph(gen_random_general_position(n, seed=seed, bound=2000))
        for n in range(5, 9)
        for seed in (1, 2)
    ]
    seen = set()
    for g in graphs:
        nv = g.n_vertices
        for a, b in itertools.permutations(range(nv), 2):
            paths = all_shortest_paths(g, a, b)
            dist = len(paths[0]) - 1 if paths else math.inf
            for _ in range(3 if nv < 16 else 1):
                others = [v for v in range(nv) if v not in (a, b)]
                s = VertexSet.from_indices(nv, rng.sample(others, rng.randint(0, len(others))))
                visible = any(all(v in s for v in p[1:-1]) for p in paths)
                verdict = is_mutually_visible(g, s.complement(), a, b)
                assert (verdict.visible, verdict.distance) == (visible, dist), (a, b, s.indices())
                if visible and dist >= 2:
                    path = verdict.witness_path
                    assert path in paths and all(v in s for v in path[1:-1]), (a, b, path)
                seen.add((dist, visible))
    assert {(math.inf, False), (3, False), (3, True), (4, False), (4, True)} <= seen
