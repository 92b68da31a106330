import itertools
import re

import pytest
from hypothesis import example, given, strategies as st

from segvis.geometry import (
    MAX_COORD,
    CoordinateError,
    GeneralPositionError,
    GenerationError,
    Point,
    PointSet,
    _find_collinear_triple,
    all_segments,
    cacerola_points,
    convex_hull,
    cross,
    gen_convex,
    gen_double_chain,
    gen_random_general_position,
    load_pointset,
    save_pointset,
    segment,
)

from segvis import constructions
from segvis.graph import build_disjointness_graph

from oracles import (
    float_rotation_neighbors,
    oracle_crosses,
    oracle_hull_cycle,
    oracle_is_clean,
    oracle_random_general_position,
    oracle_segments_intersect,
)


# -- general position ---------------------------------------------------------


def first_collinear_triple(pts):
    """The lexicographically first collinear index triple, by a plain scan."""
    return next(
        (
            t
            for t in itertools.combinations(range(len(pts)), 3)
            if cross(*(pts[k] for k in t)) == 0
        ),
        None,
    )


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=14))
@example([(0, 0), (1, 1), (5, 0), (2, 2), (3, 3)])  # two later points on line 01
@example([(0, 0), (0, 1), (1, 5), (0, 3)])  # a vertical line
@example([(0, 0), (0, -3), (5, 1), (0, 2)])  # vertical, both signs through point 0
@example([(2, 2), (0, 0), (9, 1), (4, 4)])  # a diagonal, both signs through point 0
@example([(-(2**30), -(2**30)), (2**30, 2**30), (0, 1), (0, 0)])  # at the bound
@example([(2**30, -(2**30)), (-(2**30), 2**30), (1, 0), (2**30 - 1, 2**30),
          (-(2**30) + 1, -(2**30) + 2)])  # near the bound, no triple
# through point 0, (5, 6) repeats a direction before (2, 7) does, but
# (0, 2, 7) comes first
@example([(0, 0), (5, 1), (1, 1), (1, 7), (7, 2), (1, 2), (2, 4), (3, 3)])
def test_collinear_triple_is_lexicographically_first(coords):
    # the reported triple names the error message; a plain scan is the oracle
    pts = [Point(*p) for p in dict.fromkeys(coords)]
    first = first_collinear_triple(pts)
    assert _find_collinear_triple(pts) == first
    if first is None:
        PointSet.from_coords(pts)
    else:
        with pytest.raises(GeneralPositionError, match=re.escape(f"collinear triple at indices {first}")):
            PointSet.from_coords(pts)


def test_pointset_rejects_bad_input():
    with pytest.raises(GeneralPositionError):
        PointSet.from_coords([(0, 0), (1, 1), (2, 2), (0, 5)])
    with pytest.raises(GeneralPositionError):
        PointSet.from_coords([(0, 0), (0, 0), (1, 3)])
    with pytest.raises(CoordinateError):
        PointSet.from_coords([(0, 0), (1, 2), (2 ** 31, 5)])
    with pytest.raises(CoordinateError):
        PointSet.from_coords([(0, 0), (1.5, 2), (3, 5)])
    with pytest.raises(ValueError, match="pair"):
        PointSet.from_coords([(0, 0), (1, 2), (3, 5, 7)])  # no silent truncation
    with pytest.raises(ValueError, match="pair"):
        PointSet.from_coords([(0, 0), (1,), (3, 5)])
    with pytest.raises(ValueError, match="pair"):
        PointSet.from_coords("abc")


# -- crossings, read from D(P) ----------------------------------------------------
# D(P)'s crossing rows are the one crossing test: two segments meet exactly
# when they share an endpoint or cross, and are adjacent otherwise


def crossing(g, a, b) -> bool:
    return bool(g.cross_mask[g.vertex(a)] >> g.vertex(b) & 1)


def test_intersection_examples():
    quad = PointSet.from_coords([(0, 0), (10, 0), (10, 10), (0, 10), (25, 17)])
    g = build_disjointness_graph(quad)
    v = g.vertex
    assert not g.are_adjacent(v((0, 1)), v((0, 2)))  # shared endpoint
    assert not g.are_adjacent(v((0, 2)), v((1, 3)))  # crossing diagonals
    assert g.are_adjacent(v((0, 1)), v((2, 3)))  # opposite edges
    assert crossing(g, (0, 2), (1, 3))
    assert not crossing(g, (0, 1), (0, 2))


def test_cacerola_cross_and_clean_frozen_values(cacerola, cacerola_graph):
    coords = [(p.x, p.y) for p in cacerola.points]
    g = cacerola_graph
    # values fixed by the rational-arithmetic oracle
    assert oracle_crosses(coords, (0, 3), (1, 6)) is True
    assert crossing(g, (0, 3), (1, 6))
    assert oracle_is_clean(coords, (2, 6)) is False
    assert g.is_clean_vertex(g.vertex((2, 6))) is False


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_predicates_match_rational_oracle(seed):
    ps = gen_random_general_position(7, seed=seed, bound=500)
    coords = [(p.x, p.y) for p in ps.points]
    g = build_disjointness_graph(ps)
    for a, b in itertools.combinations(all_segments(ps.n), 2):
        meet = not g.are_adjacent(g.vertex(a), g.vertex(b))
        assert meet == oracle_segments_intersect(coords, a, b)
        assert crossing(g, a, b) == oracle_crosses(coords, a, b)


@pytest.mark.parametrize("seed", range(4))
def test_predicate_properties(seed):
    g = build_disjointness_graph(gen_random_general_position(6, seed=seed, bound=300))
    for a, b in itertools.combinations(g.vertices, 2):
        assert crossing(g, a, b) == crossing(g, b, a)
        if crossing(g, a, b):
            assert not g.are_adjacent(g.vertex(a), g.vertex(b))
        if set(a) & set(b):
            assert not g.are_adjacent(g.vertex(a), g.vertex(b)) and not crossing(g, a, b)


def test_hull_edges_are_clean():
    for seed in range(3):
        ps = gen_random_general_position(8, seed=seed, bound=2000)
        g = build_disjointness_graph(ps)
        h = convex_hull(ps)
        for k in range(h.m):
            assert g.is_clean_vertex(g.vertex(segment(h.hull[k], h.hull[(k + 1) % h.m])))


def test_pentagon_diagonal_not_clean():
    ps = gen_convex(5)
    h = convex_hull(ps)
    g = build_disjointness_graph(ps)
    assert not g.is_clean_vertex(g.vertex(segment(h.hull[0], h.hull[2])))


# -- convex hull ---------------------------------------------------------------


def test_hull_cacerola(cacerola):
    h = convex_hull(cacerola)
    assert h.hull == (0, 1, 2, 3, 4, 5)
    assert h.interior == (6,)


def test_hull_matches_supporting_line_oracle():
    for seed in (5, 6, 7):
        ps = gen_random_general_position(9, seed=seed, bound=4000)
        assert list(convex_hull(ps).hull) == oracle_hull_cycle(
            [(p.x, p.y) for p in ps.points]
        )


def test_hull_is_clockwise_and_partitions():
    ps = gen_random_general_position(10, seed=11, bound=4000)
    h = convex_hull(ps)
    for k in range(h.m):
        a, b, c = (ps[h.hull[k % h.m]], ps[h.hull[(k + 1) % h.m]], ps[h.hull[(k + 2) % h.m]])
        assert cross(a, b, c) < 0
    assert sorted(h.hull + h.interior) == list(range(ps.n))


def test_hull_invariant_under_relabelling():
    ps = gen_random_general_position(8, seed=21, bound=3000)
    perm = [3, 1, 7, 0, 6, 2, 5, 4]
    relabeled = PointSet.from_coords([(ps[i].x, ps[i].y) for i in perm])
    h1 = [tuple(ps[i]) for i in convex_hull(ps).hull]
    h2 = [tuple(relabeled[i]) for i in convex_hull(relabeled).hull]
    # same cyclic sequence of coordinates, up to the start rule
    k = h2.index(h1[0])
    assert h1 == h2[k:] + h2[:k]


def test_hull_double_chain_extremes():
    h = convex_hull(gen_double_chain(3, 6))
    assert h.m == 4  # two extreme points per chain


# -- rotation neighbours --------------------------------------------------------


def rotation_neighbors(ps, i):
    """The hull-3 sweep's rotation neighbours of hull vertex i, read from
    ``first_swept`` folded over the candidates."""
    return constructions._rotation_neighbours(constructions._Workspace(ps), i)


def test_rotation_neighbors_two_candidates():
    # triangle hull with two interior points: the pair is decided by a
    # single orientation test
    ps = PointSet.from_coords([(0, 0), (100, 0), (50, 90), (40, 30), (60, 31)])
    h = convex_hull(ps)
    i = h.hull.index(0)
    vm, vp = rotation_neighbors(ps, i)
    assert {vm, vp} == {3, 4}
    assert vm != vp


def test_rotation_neighbors_cacerola_frozen(cacerola):
    # values fixed by the float-angle sorting oracle
    assert rotation_neighbors(cacerola, 0) == (2, 4)
    assert rotation_neighbors(cacerola, 1) == (3, 5)


@pytest.mark.parametrize("seed", range(6))
def test_rotation_neighbors_match_angle_oracle(seed):
    ps = gen_random_general_position(8, seed=seed, bound=900)
    h = convex_hull(ps)
    coords = [(p.x, p.y) for p in ps.points]
    cyc = list(h.hull)
    for i in range(h.m):
        assert rotation_neighbors(ps, i) == float_rotation_neighbors(coords, cyc, i)


# -- generators -----------------------------------------------------------------


def test_gen_convex():
    assert convex_hull(gen_convex(3)).m == 3
    assert convex_hull(gen_convex(5)).m == 5
    ps = gen_convex(10)
    assert convex_hull(ps).m == 10
    assert first_collinear_triple(ps.points) is None
    with pytest.raises(ValueError):
        gen_convex(2)


def test_gen_double_chain_small():
    assert gen_double_chain(1, 1).n == 2
    ps = gen_double_chain(2, 2)
    assert ps.n == 4


def test_gen_double_chain_separation_explicit():
    ps = gen_double_chain(3, 6)
    upper, lower = range(0, 3), range(3, 9)
    for a in upper:
        for b1, b2 in itertools.combinations(lower, 2):
            assert cross(ps[b1], ps[b2], ps[a]) > 0
    for b in lower:
        for a1, a2 in itertools.combinations(upper, 2):
            assert cross(ps[a1], ps[a2], ps[b]) < 0


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=7))
def test_gen_double_chain_property(p, q):
    ps = gen_double_chain(p, q)  # generator re-verifies its own contract
    assert ps.n == p + q


def test_cacerola_points_fixed():
    ps = cacerola_points()
    assert tuple(ps[0]) == (121, 204)
    assert tuple(ps[6]) == (127, 135)
    assert ps.n == 7
    assert first_collinear_triple(ps.points) is None


def test_gen_random_general_position():
    a = gen_random_general_position(5, seed=1, bound=1000)
    b = gen_random_general_position(5, seed=1, bound=1000)
    assert a == b  # determinism
    assert first_collinear_triple(a.points) is None
    assert gen_random_general_position(3, seed=9, bound=10).n == 3
    with pytest.raises(ValueError):
        gen_random_general_position(5, seed=0, bound=3)
    # a bound over the coordinate cap is refused before any draw
    assert gen_random_general_position(5, seed=0, bound=MAX_COORD).n == 5
    with pytest.raises(ValueError, match=re.escape(f"bound {MAX_COORD + 1} exceeds")):
        gen_random_general_position(5, seed=0, bound=MAX_COORD + 1)
    with pytest.raises(GenerationError):
        gen_random_general_position(12, seed=0, bound=12, max_tries=5)


def test_generator_matches_pairwise_cross_product_oracle():
    # the generator tests a candidate's direction from each placed point;
    # the oracle, a cross product per placed pair, must accept and reject
    # the same candidates, so the point lists and the try counts agree
    cases = [
        (n, seed, bound, 20000)
        for n in range(3, 41)
        for seed in (0, 1, 2)
        for bound in (n, 3 * n, 10000)
    ]
    # few tries: some runs stop with GenerationError, the rest just make it
    cases += [
        (n, seed, n, tries)
        for n in range(8, 41, 4)
        for seed in (0, 1)
        for tries in (n + 3, 2 * n)
    ]
    failures = 0
    for n, seed, bound, tries in cases:
        want = oracle_random_general_position(n, seed, bound, max_tries=tries)
        if want is None:
            failures += 1
            with pytest.raises(GenerationError):
                gen_random_general_position(n, seed, bound, max_tries=tries)
        else:
            got = gen_random_general_position(n, seed, bound, max_tries=tries)
            assert [tuple(p) for p in got.points] == want, (n, seed, bound)
    assert 0 < failures < len(cases)


# -- files -----------------------------------------------------------------------


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_pointset_roundtrip(tmp_path, suffix, cacerola):
    path = tmp_path / f"pts{suffix}"
    save_pointset(cacerola, path)
    assert load_pointset(path) == cacerola


def test_load_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"nope": 1}')
    with pytest.raises(ValueError):
        load_pointset(p)
    c = tmp_path / "bad.csv"
    c.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        load_pointset(c)
