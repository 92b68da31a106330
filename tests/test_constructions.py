import hashlib
import itertools
import re
import time
from math import comb

import pytest

import segvis.constructions as constructions
from segvis import geometry, solver

from segvis.constructions import (
    ConstructionError,
    build_certificate,
    certificate_from_blockers,
    certificate_json,
    double_chain_blocker,
)
from segvis.geometry import (
    Point,
    PointSet,
    convex_hull,
    gen_convex,
    gen_double_chain,
    gen_random_general_position,
    segment,
)
from segvis.graph import build_disjointness_graph
from segvis.visibility import VertexSet, is_mutual_visibility_set

from conftest import hull3_instance, ngon, random_instances
from oracles import (
    first_on_rotating_line,
    oracle_ch6_case4,
    oracle_good_triangle_blockers,
    oracle_is_clean,
    oracle_min_blockers,
    oracle_regions,
    strictly_inside_convex,
)


def verify_blockers(ps, blockers) -> bool:
    g = build_disjointness_graph(ps)
    ids = [g.vertex(s) for s in blockers]
    u = VertexSet.from_indices(g.n_vertices, ids).complement()
    return is_mutual_visibility_set(g, u)[0]


# -- regions ----------------------------------------------------------------


def base_frame(ps):
    return constructions._Workspace(ps).base_frame()


def frame_regions(f) -> dict:
    """Every region of frame f, listed by its hull positions and keyed as
    ``oracle_regions`` keys them."""
    names = ["ear", "ear_fwd", "ear_mid", "ear_bwd"]
    if f.m == 7:
        names += ["edge_quad", "span_tri", "core", "core_tip", "lens"]
    regions = {name: tuple(map(getattr(f, name), range(f.m))) for name in names}
    if f.m == 6:
        regions["center"] = f.center()
    return regions


def test_region_partition_identities():
    for n in (8, 9, 10):
        for seed in (1, 2, 3, 4):
            f = base_frame(gen_random_general_position(n, seed=700 + seed, bound=6000))
            if f.m not in (5, 6, 7):
                continue
            for k in range(f.m):
                assert f.ear(k) == f.ear_fwd(k) | f.ear_mid(k) | f.ear_bwd(k)
                assert not (f.ear_fwd(k) & f.ear_bwd(k))
                assert f.ear_fwd(k) == f.ear_bwd(k + 1)


def test_regions_empty_for_pure_hull():
    f = base_frame(gen_convex(7))
    assert all(not f.ear(k) for k in range(7))
    assert all(not f.core(k) and not f.lens(k) for k in range(7))


def test_regions_m7_coverage():
    count = 0
    for n in (9, 10, 11):
        for seed in range(30):
            f = base_frame(gen_random_general_position(n, seed=4000 + seed, bound=9000))
            if f.m != 7:
                continue
            count += 1
            cover = set()
            for k in range(7):
                cover |= f.ear(k) | f.core(k) | f.lens(k)
            assert cover >= set(f.interior)
    assert count > 3


def test_frame_regions_match_fresh_decomposition():
    # every frame (each rotation, plain and mirrored) computes its regions
    # from its own labels over the query's shared chord-side table; a fresh
    # positional decomposition of that frame's labelling, over the
    # y-mirrored coordinates for a mirrored frame, is the reference
    instances = [ps for _, ps in random_instances(range(6, 13), 40, base_seed=900)]
    instances.append(gen_random_general_position(8, seed=8076, bound=10000))
    sizes, frames = set(), 0
    for ps in instances:
        ws = constructions._Workspace(ps)
        if ws.m not in (5, 6, 7):
            continue
        sizes.add(ws.m)
        mirror_pts = [Point(p.x, -p.y) for p in ps.points]
        for f in ws.frames():
            pts = mirror_pts if f.mirrored else f.pts
            assert frame_regions(f) == oracle_regions(pts, f.hull), f.describe()
            frames += 1
    assert sizes == {5, 6, 7}
    assert frames == 2704


def test_first_swept_matches_rotating_line_oracle():
    # the frames' sign rule for which of two points a line turning
    # clockwise meets first, on every ordered quadruple of points, against
    # a clockwise-angle sweep; a mirrored frame's reference runs over the
    # y-mirrored coordinates
    checked = 0
    for seed in range(20):
        ps = gen_random_general_position(6, seed=1600 + seed, bound=1000)
        ws = constructions._Workspace(ps)
        mirror_pts = [Point(p.x, -p.y) for p in ps.points]
        for f in (ws.frames()[0], ws.frames()[ws.m]):
            pts = mirror_pts if f.mirrored else ps.points
            for o, t, a, b in itertools.permutations(range(ps.n), 4):
                expected = first_on_rotating_line(pts, o, t, [a, b])
                assert f.first_swept(o, t, a, b) == expected, (seed, f.describe())
                checked += 1
    assert checked == 20 * 2 * 360


def test_regions_need_hull_4_to_7(monkeypatch):
    # only the hull-4..7 cases read interior regions (hull 4 reads the
    # triangle between an edge and the diagonal crossing): every other hull
    # size certifies (or falls back) without reading a single chord side
    fills = []
    chord_side = constructions._chord_side

    def recording(pts, interior, a, b, c):
        fills.append((a, b, c))
        return chord_side(pts, interior, a, b, c)

    monkeypatch.setattr(constructions, "_chord_side", recording)
    instances = [ps for _, ps in random_instances(range(5, 13), 12, base_seed=300)]
    instances += [gen_convex(n) for n in (8, 9, 10, 12)]
    instances += [hull3_instance(4, seed) for seed in range(3)]
    instances += [PointSet.from_coords(ngon(4) + [(50, 120), (-130, -45)]), gen_double_chain(3, 6)]
    read = set()
    for ps in instances:
        fills.clear()
        assert build_certificate(ps).verified
        m = convex_hull(ps).m
        if fills:
            read.add(m)
    assert read == {4, 5, 6, 7}


# -- certificate primitives ----------------------------------------------------
# good triangles and good 2-sets are built only inside the cases, from frame
# labels; these pin the helpers the cases call


def test_find_five_disjoint_clean():
    # the hull-10+ case's five alternating hull edges are pairwise disjoint
    # clean segments, with or without interior points
    for ps in (
        gen_convex(10),
        gen_convex(13),
        PointSet.from_coords([(k, k * k) for k in range(10)] + [(3, 20), (5, 42)]),
    ):
        ws = constructions._Workspace(ps)
        assert ws.m >= 10
        ((_, segs),) = constructions._ch10(ws)
        g = ws.g
        vs = [g.vertex(s) for s in segs]
        assert len(set(vs)) == 5 and all(map(g.is_clean_vertex, vs))
        assert all(g.are_adjacent(a, b) for a, b in itertools.combinations(vs, 2))


def good_triangles(ws):
    f = ws.base_frame()
    return [
        (x, i)
        for x in range(ws.n)
        for i in range(ws.m)
        if constructions._triangle_is_good(ws, f, x, i)
    ]


def test_find_good_triangle(cacerola):
    # only the lone interior point is an apex; case 2 of hull size 6
    # certifies through one of its good triangles
    ws = constructions._Workspace(cacerola)
    got = good_triangles(ws)
    assert got and {x for x, _ in got} == {6}
    (_, segs), *_ = constructions._ch6_case2(ws)
    assert segs in [constructions._good_triangle_blockers(ws.base_frame(), 6, i) for _, i in got]


def test_s_from_good_triangle(cacerola):
    ws = constructions._Workspace(cacerola)
    for x, i in good_triangles(ws):
        segs = constructions._good_triangle_blockers(ws.base_frame(), x, i)
        cert = certificate_from_blockers(cacerola, segs)
        assert cert.size == 9 and cert.verified
        assert cert.mu_lower_bound == comb(7, 2) - 9
        assert verify_blockers(cacerola, cert.blockers)


def test_good_triangle_blockers_match_relabelling(cacerola):
    # the label template equals the hand relabelling for every frame,
    # plain and mirrored, every hull edge and every interior point
    hull6 = [cacerola] + [
        ps for _, ps in random_instances([7, 8, 9], 40, 1000, base_seed=6600)
        if convex_hull(ps).m == 6
    ]
    assert len(hull6) >= 5
    checked = 0
    for ps in hull6:
        for f in constructions._Workspace(ps).frames():
            for x in f.interior:
                for i in range(6):
                    got = constructions._good_triangle_blockers(f, x, i)
                    assert got == oracle_good_triangle_blockers(f.hull, x, i)
                    checked += 1
    assert checked >= 500


def test_clean_sided_triangle_is_good():
    # whenever x sits in the stated quadrilateral and both segments joining
    # x to the edge ends are clean, the triangle qualifies
    from segvis.constructions import _Workspace, _triangle_is_good

    checked = 0
    for seed in range(30):
        ps = gen_random_general_position(8, seed=7000 + seed, bound=6000)
        coords = [(p.x, p.y) for p in ps.points]
        h = convex_hull(ps)
        if h.m < 6:
            continue
        ws = _Workspace(ps)
        f = ws.base_frame()
        for x in h.interior:
            for i in range(h.m):
                if not strictly_inside_convex(
                    [ps[f.H(i + h.m - 1)], ps[f.H(i)], ps[f.H(i + 1)], ps[f.H(i + 2)]],
                    ps[x],
                ):
                    continue
                if oracle_is_clean(coords, segment(x, f.H(i))) and oracle_is_clean(
                    coords, segment(x, f.H(i + 1))
                ):
                    checked += 1
                    assert _triangle_is_good(ws, f, x, i)
    assert checked > 0


def test_find_good_2set_convex():
    # the hull-8/9 case's good 2-set on two opposite hull edges
    for n in (8, 9):
        ps = gen_convex(n)
        ws = constructions._Workspace(ps)
        f = ws.base_frame()
        quad = (f.E(0), f.E(4), f.E(6), f.E(2))
        assert constructions._validate_good_2set(ws, *quad) is None
        ((_, segs),) = constructions._ch89(ws)
        assert segs == constructions._k4_segments(*quad[:2]) + list(quad[2:])
        cert = certificate_from_blockers(ps, segs)
        assert cert.size == 8 and cert.verified


def test_find_good_2set_needs_eight_points(cacerola):
    # a good 2-set spans eight distinct points: every lateral segment lies
    # in an open quadrant of the diagonal lines, which pass through or
    # separate the four base points, so the seven-point cacerola has none
    ws = constructions._Workspace(cacerola)
    segs = [ws.g.segment_of(v) for v in range(ws.g.n_vertices)]
    # base pairs that pass every check on the base segments themselves
    bases = [
        (uv, xy)
        for uv, xy in itertools.permutations(segs, 2)
        if not constructions._validate_good_2set(ws, uv, xy, uv, uv).startswith("base")
    ]
    assert bases
    for uv, xy in bases:
        for e_l, e_r in itertools.product(segs, repeat=2):
            assert constructions._validate_good_2set(ws, uv, xy, e_l, e_r) is not None
    # and the good 2-sets that the hull-8/9 case and the triangle-shape
    # instance use do cover eight points
    for ps, quad in (
        (gen_convex(8), None),
        (gen_random_general_position(8, seed=20014, bound=3000),
         ((1, 6), (4, 5), (0, 3), (2, 7))),
    ):
        ws = constructions._Workspace(ps)
        f = ws.base_frame()
        quad = quad or (f.E(0), f.E(4), f.E(6), f.E(2))
        assert constructions._validate_good_2set(ws, *quad) is None
        assert len({p for s in quad for p in s}) == 8


def test_good_2set_triangle_shape():
    # instance found by scanning: the K4 drawing's hull is a triangle
    ps = gen_random_general_position(8, seed=20014, bound=3000)
    uv, xy, e_l, e_r = (1, 6), (4, 5), (0, 3), (2, 7)
    ws = constructions._Workspace(ps)
    assert constructions._inner_point(ws, [*uv, *xy]) is not None
    assert constructions._validate_good_2set(ws, uv, xy, e_l, e_r) is None
    cert = certificate_from_blockers(ps, constructions._k4_segments(uv, xy) + [e_l, e_r])
    assert cert.verified and cert.size == 8


def test_s_from_good_2set_rejects_invalid():
    ps = gen_convex(8)
    ws = constructions._Workspace(ps)
    f = ws.base_frame()
    bad = (f.E(0), f.E(1), f.E(4), f.E(6))  # the first two share a hull point
    assert constructions._validate_good_2set(ws, *bad) == "base segments are not disjoint"


def mirrored(ps):
    return PointSet.from_coords([(p.x, -p.y) for p in ps.points])


def test_good_2set_verdicts_survive_mirroring():
    # a good 2-set is a property of its segments: every index quadruple gets
    # the same verdict on the y-mirrored point set, which negates every
    # orientation.  Laterals range over the segments crossed only inside
    # the K4 drawing, so each quadruple reaches the quadrant tests
    verdicts = set()
    for n in (8, 9):
        for seed in range(4):
            ps = gen_random_general_position(n, seed=9000 + 100 * n + seed, bound=2000)
            ws, wm = constructions._Workspace(ps), constructions._Workspace(mirrored(ps))
            g = ws.g
            segs = [g.segment_of(v) for v in range(g.n_vertices)]
            for uv, xy in itertools.permutations(segs, 2):
                base = constructions._validate_good_2set(ws, uv, xy, uv, uv)
                assert base == constructions._validate_good_2set(wm, uv, xy, uv, uv)
                if base.startswith("base"):
                    continue
                k4_mask = g.mask_of(constructions._k4_segments(uv, xy))
                lateral = [e for e in segs if not g.cross_mask[g.vertex(e)] & ~k4_mask]
                for e_l, e_r in itertools.product(lateral, repeat=2):
                    verdict = constructions._validate_good_2set(ws, uv, xy, e_l, e_r)
                    assert verdict == constructions._validate_good_2set(
                        wm, uv, xy, e_l, e_r
                    ), (n, seed, uv, xy, e_l, e_r)
                    verdicts.add(verdict and verdict.partition(" is ")[2])
    assert verdicts == {
        None,
        "not interior to a lateral quadrant",
        "not interior to the opposite lateral quadrant",
    }


def test_inner_point_matches_triangle_oracle():
    # on every 4-subset, plain and y-mirrored: the point strictly inside the
    # triangle of the other three (clockwise in one of its two orders), or
    # None in convex position
    instances = [
        gen_random_general_position(n, seed=9500 + 100 * n + seed, bound=2000)
        for n in (8, 9)
        for seed in range(3)
    ]
    instances += [hull3_instance(5, seed) for seed in range(2)]
    outcomes = set()
    for ps in instances + [mirrored(ps) for ps in instances]:
        ws = constructions._Workspace(ps)
        for four in itertools.combinations(range(ps.n), 4):
            inside = [
                t
                for t in four
                if any(
                    strictly_inside_convex([ps[p] for p in tri], ps[t])
                    for tri in itertools.permutations([p for p in four if p != t])
                )
            ]
            assert len(inside) <= 1
            got = constructions._inner_point(ws, list(four))
            assert got == (inside[0] if inside else None), four
            outcomes.add(got is None)
    assert outcomes == {True, False}


# -- hull-size builders -----------------------------------------------------------


def test_hull3_certificates():
    for seed in range(8):
        ps = hull3_instance(n_interior=2 + seed % 4, seed=seed)
        cert = build_certificate(ps)
        assert cert.strategy == "Hull3" and cert.size == 8 and cert.verified
        assert cert.mu_lower_bound == comb(ps.n, 2) - 8


def test_hull4_certificate_single_interior():
    ps = PointSet.from_coords([(0, 0), (100, 0), (100, 100), (0, 100), (52, 47)])
    cert = build_certificate(ps)
    assert cert.strategy == "Hull4" and cert.size == 9 and cert.verified
    assert (
        sum(1 for s in cert.blockers if 4 in s) == 4
    )  # the interior point joins every hull vertex


def test_hull4_tie_break_deterministic():
    # two interior points at the same exact distance from the bottom edge
    ps = PointSet.from_coords([(0, 0), (100, 0), (100, 100), (0, 100), (40, 30), (61, 30)])
    cert1 = build_certificate(ps)
    cert2 = build_certificate(ps)
    assert cert1.blockers == cert2.blockers
    assert cert1.verified


# interior points added to ngon(5), each set won by the hull-5 case named
HULL5_EXTRAS = [
    ([(25, 925), (-500, 325), (20, -380), (-540, -700)], 3),
    ([(25, 925), (20, -380), (-540, -700), (-700, 140)], 4),
    ([(-220, 320), (240, 280), (20, -380), (-540, -700), (-700, 140)], 5),
]


@pytest.mark.parametrize("extra,case", HULL5_EXTRAS)
def test_hull5_cases(extra, case):
    ps = PointSet.from_coords(ngon(5) + extra)
    cert = build_certificate(ps)
    assert cert.strategy == "Hull5Case" and cert.case == case
    assert cert.verified and cert.size <= 9


def test_hull5_case1_empty_ear():
    ps = PointSet.from_coords(ngon(5) + [(-275, 100)])
    cert = build_certificate(ps)
    assert (cert.strategy, cert.case) == ("Hull5Case", 1)
    assert cert.size == 9 and cert.verified


def test_hull5_case2():
    # forward wedges of two ears at cyclic distance two are occupied
    ps = PointSet.from_coords(ngon(5) + [(25, 925), (20, -380), (800, 100), (-500, 90), (-20, -100)])
    cert = build_certificate(ps)
    assert cert.strategy == "Hull5Case"
    assert cert.verified and cert.size <= 9


def test_hull6_cases(cacerola):
    convex6 = build_certificate(gen_convex(6))
    assert (convex6.strategy, convex6.case) == ("Hull6Case", 1)
    assert convex6.size == 9 and convex6.mu_lower_bound == comb(6, 2) - 9

    cac = build_certificate(cacerola)
    assert (cac.strategy, cac.case) == ("Hull6Case", 2)
    assert cac.size == 9 and cac.mu_lower_bound == 12


def test_hull6_case4_matches_oracle():
    # the one order rule against the case's per-branch closures, yields and
    # notes, on every hull-6 set of a window whose frames reach each branch
    # (each 14 to 25 times): u2 in the middle wedge with the forward wedge
    # occupied or empty (random:8:8225 has both), the middle wedge empty
    # with u2 in the forward or the backward wedge (8:8091, 8:8123), and u2
    # in a side wedge beside an occupied middle wedge (9:9012, 9:9239)
    sets = yields = 0
    for n in (8, 9):
        for seed in range(1000 * n, 1000 * n + 300):
            ps = gen_random_general_position(n, seed, 10000)
            if convex_hull(ps).m != 6:
                continue
            ws, ref = constructions._Workspace(ps), constructions._Workspace(ps)
            got = list(constructions._ch6_case4(ws))
            assert got == list(oracle_ch6_case4(ref)), seed
            assert ws.diagnostics == ref.diagnostics, seed
            sets += 1
            yields += len(got)
    assert (sets, yields) == (225, 94)


def test_hull7_case1_pure_hull():
    cert = build_certificate(gen_convex(7))
    assert (cert.strategy, cert.case) == ("Hull7Case", 1)
    assert cert.size == 7
    # the seven hull edges
    h = convex_hull(gen_convex(7)).hull
    assert set(cert.blockers) == {segment(h[k], h[(k + 1) % 7]) for k in range(7)}


@pytest.mark.parametrize(
    "extra,case",
    [
        ([(-180, -595), (-660, 95)], 4),
        ([(-180, -595), (-585, -235)], 6),
        ([(-180, -595)], 7),
        ([(-150, 320)], 5),
        ([(-150, 320), (15, -370)], 5),
    ],
)
def test_hull7_cases(extra, case):
    ps = PointSet.from_coords(ngon(7) + extra)
    cert = build_certificate(ps)
    assert cert.strategy == "Hull7Case" and cert.case == case, cert
    assert cert.verified and cert.size <= 9


def test_hull7_case3_close_pair():
    # two interior points whose segment crosses at most one hull diagonal
    ps = PointSet.from_coords(ngon(7) + [(15, -370), (40, -360)])
    cert = build_certificate(ps)
    assert cert.strategy == "Hull7Case" and cert.case == 3
    assert cert.verified and 8 <= cert.size <= 9


@pytest.mark.parametrize(
    "spec,mirrored,picks_u1,blockers,diagnostics",
    [
        (
            (9, 1273, 100), False, True,
            ((0, 7), (1, 2), (1, 3), (1, 6), (2, 3), (2, 6), (3, 6), (5, 8)),
            (),
        ),
        (
            (9, 258, 10000), False, False,
            ((0, 7), (1, 6), (2, 3), (2, 4), (2, 8), (3, 4), (3, 8), (4, 8)),
            (),
        ),
        (
            (9, 4141, 100), True, False,
            ((0, 1), (0, 4), (0, 6), (1, 4), (1, 6), (3, 8), (4, 6), (5, 7)),
            ("hull7 case 6 [start=5]: edge quad 4 is [3], expected {3, 2}",),
        ),
    ],
)
def test_hull7_case6_certificates_frozen(
    monkeypatch, spec, mirrored, picks_u1, blockers, diagnostics
):
    # neither CI sweep window certifies through case 6: these pin it in a
    # plain and a mirrored frame, with the rotating line meeting u1 or u2
    # first, and its quad-mismatch note
    swept = []
    first_swept = constructions._Frame.first_swept

    def recording(f, o, t, a, b):
        x = first_swept(f, o, t, a, b)
        swept.append((f.mirrored, x == a))
        return x

    monkeypatch.setattr(constructions._Frame, "first_swept", recording)
    n, seed, bound = spec
    cert = build_certificate(gen_random_general_position(n, seed=seed, bound=bound))
    assert (cert.strategy, cert.case) == ("Hull7Case", 6)
    assert cert.blockers == blockers and cert.diagnostics == diagnostics
    assert cert.verified and cert.mu_lower_bound == comb(n, 2) - len(blockers)
    # the frame that certifies is the last one to sweep
    assert swept[-1] == (mirrored, picks_u1)


def test_hull89_and_hull10plus():
    for n in (8, 9):
        cert = build_certificate(gen_convex(n))
        assert cert.strategy == "Hull89" and cert.size == 8
    for n in (10, 12):
        cert = build_certificate(gen_convex(n))
        assert cert.strategy == "Hull10Plus" and cert.size == 5
        h = convex_hull(gen_convex(n)).hull
        assert set(cert.blockers) == {
            segment(h[k], h[(k + 1) % n]) for k in (0, 2, 4, 6, 8)
        }


# -- dispatch and bounds ------------------------------------------------------------


def test_build_certificate_bounds_and_determinism():
    for n in (5, 7, 9, 11):
        ps = gen_random_general_position(n, seed=50 + n, bound=8000)
        c1 = build_certificate(ps)
        c2 = build_certificate(ps)
        assert c1.blockers == c2.blockers
        assert (c1.strategy, c1.case) == (c2.strategy, c2.case)
        assert c1.verified and c1.size <= 9
        assert c1.mu_lower_bound == comb(n, 2) - c1.size
        assert len(set(c1.blockers)) == c1.size


def test_build_certificate_small_sweep():
    fallbacks = 0
    for n in range(5, 12):
        for k in range(12):
            ps = gen_random_general_position(n, seed=3000 + 100 * n + k, bound=9000)
            cert = build_certificate(ps)
            assert cert.verified and cert.size <= 9
            if cert.strategy == "FallbackSearch":
                fallbacks += 1
    assert fallbacks == 0


def test_certificate_records_pinned():
    # every field of 800 certificates, diagnostics included: they name each
    # frame a case tried, so a change in frame order or region content moves
    # the digest
    digest = hashlib.sha256()
    for _, ps in random_instances(range(5, 13), 100, base_seed=500):
        c = build_certificate(ps)
        record = (c.strategy, c.case, c.blockers, c.mu_lower_bound, c.diagnostics)
        digest.update(repr(record).encode())
    assert digest.hexdigest() == (
        "6641a00e7d76e27b80ab54263931e9ea1d39030c83b2d94f8fcb17a4d1d7adb9"
    )


def case_yields(instances) -> tuple[int, str]:
    """Run every case of each instance's table entry to exhaustion and hash
    each (strategy, case, desc, segs) it yields, then the notes."""
    digest = hashlib.sha256()
    count = 0
    for ps in instances:
        ws = constructions._Workspace(ps)
        strategy, cases = constructions._CASE_TABLE.get(ws.m, constructions._HULL10_ENTRY)
        for case, gen in cases:
            for desc, segs in gen(ws):
                digest.update(repr((strategy, case, desc, segs)).encode())
                count += 1
        digest.update(repr(ws.diagnostics).encode())
    return count, digest.hexdigest()


def test_case_yields_pinned(monkeypatch):
    # every candidate of every case, not only the one that wins, with its
    # frame text and order, and every note a case writes; the hull-5 sets
    # reach cases 3 to 5, which the random window never does.  Then every
    # good 2-set is rejected, so each good-2-set case writes its desc
    window = [
        ps
        for n in range(5, 13)
        for bound in (100, 10000)
        for _, ps in random_instances([n], 50, bound, base_seed=900)
    ]
    hull5 = [PointSet.from_coords(ngon(5) + extra) for extra, _ in HULL5_EXTRAS]
    # hull-7 sets with frames where case 5 meets two points (675, 2230) or
    # case 6 finds a point in core_tip(4) (4908, 7190): those frames yield
    # nothing, since blocking that interior pair is case 3's candidate
    hull7 = [
        gen_random_general_position(10, seed, bound)
        for seed, bound in ((675, 100), (2230, 10000), (4908, 10000), (7190, 10000))
    ]
    assert case_yields(window) == (
        4341, "0a29761e11da9c3584cf906f84a52dfde316f3c2a7f938083a1a57527cf75dbb"
    )
    assert case_yields(hull5) == (
        5, "91ed1bca62028f70ee16a89f8f6a477ee18d967df391638e29f37c9e3eeebcbb"
    )
    assert case_yields(hull7) == (
        24, "7218f8a5816d1e668d6060e3247d59012620e705df5d26a4095870d2de904a3c"
    )
    monkeypatch.setattr(constructions, "_validate_good_2set", lambda *a: "forced")
    assert case_yields(window) == (
        3153, "fa945667ba886cd0470cc2767329ba8c08c924aa387b4532779d513facabb903"
    )


def test_build_certificate_computes_one_hull(monkeypatch):
    # the hull-7 lens instance exhausts its cases and falls back, scanning
    # the mirrored frames too: even then one call builds one workspace and
    # evaluates each (chord, hull point) side at most once, for all its
    # frames; the convex hull-6 and hull-10 cases never read regions, so
    # they evaluate none.  The monotone chain runs once per PointSet,
    # whether build_certificate or convex_hull reads the hull first, and
    # never again, through convex_hull or build_certificate
    cases = [
        (gen_random_general_position(8, seed=8076, bound=10000), "FallbackSearch", True),
        (gen_convex(6), "Hull6Case", False),
        (gen_convex(10), "Hull10Plus", False),
    ]
    calls = {}
    fills = []
    init = constructions._Workspace.__init__
    chain = geometry._hull_indices_clockwise
    chord_side = constructions._chord_side

    def counting(key, func):
        def wrapped(*args):
            calls[key] += 1
            return func(*args)

        return wrapped

    def recording(pts, interior, a, b, c):
        fills.append((a, b, c))
        return chord_side(pts, interior, a, b, c)

    monkeypatch.setattr(constructions._Workspace, "__init__", counting("workspace", init))
    monkeypatch.setattr(geometry, "_hull_indices_clockwise", counting("chain", chain))
    monkeypatch.setattr(constructions, "_chord_side", recording)

    def read_again(ps):
        assert convex_hull(ps) is convex_hull(ps)
        fills.clear()
        assert build_certificate(ps).verified
        assert len(fills) == len(set(fills))

    for source, strategy, reads_regions in cases:
        ps = PointSet(source.points)  # a fresh PointSet stores no hull yet
        calls.update(workspace=0, chain=0)
        fills.clear()
        cert = build_certificate(ps)
        assert cert.strategy == strategy and cert.verified
        assert calls == {"workspace": 1, "chain": 1}
        assert len(fills) == len(set(fills)) and bool(fills) == reads_regions
        hull_pts = set(convex_hull(ps).hull)
        assert all(a < b and {a, b, c} <= hull_pts for a, b, c in fills)
        read_again(ps)
        assert calls["workspace"] == 2 and calls["chain"] == 1

        ps = PointSet(source.points)
        calls.update(chain=0)
        hull = convex_hull(ps)
        assert calls["chain"] == 1
        read_again(ps)
        assert calls["chain"] == 1 and convex_hull(ps) is hull


def test_region_reads_evaluated_once(monkeypatch):
    # each read of "the interior points on H(k)'s side of the chord
    # H(i)H(j)" is evaluated once per build_certificate call, keyed by hull
    # points, and every frame, plain or mirrored, gets the stored frozenset:
    # the hull-7 lens instance (it falls back), a hull-6 instance that
    # reaches case 7 and a hull-5 instance that reaches case 2, all three
    # reading mirrored frames (276 reads of 35 sides, 251 of 6 and 20 of 5)
    cases = [
        (gen_random_general_position(8, seed=8076, bound=10000), 7),
        (gen_random_general_position(8, seed=8008, bound=10000), 6),
        (gen_random_general_position(11, seed=11023, bound=10000), 5),
    ]
    reads, evaluations = [], []
    side, chord_side = constructions._Frame.side, constructions._chord_side

    def reading(frame, i, j, k):
        region = side(frame, i, j, k)
        a, b, c = frame.H(i), frame.H(j), frame.H(k)
        reads.append((frame.mirrored, (min(a, b), max(a, b), c), region))
        return region

    def evaluating(pts, interior, a, b, c):
        evaluations.append((a, b, c))
        return chord_side(pts, interior, a, b, c)

    monkeypatch.setattr(constructions._Frame, "side", reading)
    monkeypatch.setattr(constructions, "_chord_side", evaluating)
    for ps, m in cases:
        reads.clear()
        evaluations.clear()
        assert convex_hull(ps).m == m
        assert build_certificate(ps).verified
        keys = {key for _, key, _ in reads}
        assert len(reads) > len(keys)
        assert sorted(evaluations) == sorted(keys)
        stored = {}
        for _, key, region in reads:
            assert stored.setdefault(key, region) is region
        plain = {key for mirrored, key, _ in reads if not mirrored}
        mirror = {key for mirrored, key, _ in reads if mirrored}
        assert plain & mirror


def _mirror_hull_instances():
    for bound in (60, 10000):
        for n in range(3, 16):
            for seed in range(4):
                yield gen_random_general_position(n, seed=100 * n + seed, bound=bound)
    for n in range(3, 20):
        yield gen_convex(n)
    for p, q in ((2, 6), (3, 6), (3, 7), (4, 8), (5, 9)):
        yield gen_double_chain(p, q)


def test_mirrored_frames_reverse_the_hull():
    # the mirrored frames reuse the one hull, reversed; a second monotone
    # chain over the y-mirrored points is the reference
    for ps in _mirror_hull_instances():
        ws = constructions._Workspace(ps)
        mirror_pts = [Point(p.x, -p.y) for p in ps.points]
        ref = tuple(geometry._hull_indices_clockwise(mirror_pts))
        mirrored = ws.frames()[ws.m:]
        assert [f.mirrored for f in mirrored] == [True] * ws.m
        assert [f.hull for f in mirrored] == [ref[r:] + ref[:r] for r in range(ws.m)]


def test_build_certificate_rejects_small_n():
    with pytest.raises(ValueError):
        build_certificate(gen_convex(4))


def test_hull_size_vs_blocker_size():
    # big hulls certify with 5 blockers, hulls of 8 or 9 with 8
    assert build_certificate(gen_convex(12)).size == 5
    assert build_certificate(gen_convex(8)).size == 8
    assert build_certificate(hull3_instance(2, seed=3)).size == 8


# -- explicit blockers, fallback, serialisation ----------------------------------


def test_double_chain_blocker():
    ps = gen_double_chain(3, 6)
    blockers = double_chain_blocker(3, 6)
    assert blockers == [(0, 1), (3, 4), (5, 6), (7, 8)]
    cert = certificate_from_blockers(ps, blockers)
    assert cert.verified and cert.mu_lower_bound == comb(9, 2) - 4
    with pytest.raises(ValueError):
        double_chain_blocker(3, 5)


def test_certificate_from_blockers_rejects_bad_set():
    ps = gen_convex(6)
    h = convex_hull(ps).hull
    with pytest.raises(ConstructionError):
        certificate_from_blockers(ps, [segment(h[0], h[1])])


@pytest.mark.parametrize(
    "blocker", [(1, 0), (0, 9), (0, 0), [0, 1], (0, 1, 2), (True, 2), "01", 9, -1]
)
@pytest.mark.parametrize("entry", ["certificate_from_blockers", "check_bounds_report"])
def test_explicit_blockers_must_be_segment_ids(entry, blocker):
    ps = gen_convex(6)
    with pytest.raises(ValueError, match=re.escape(repr(blocker))):
        if entry == "certificate_from_blockers":
            certificate_from_blockers(ps, [blocker])
        else:
            solver.check_bounds_report(ps, extra_blockers=[(0, 1), blocker])


@pytest.mark.parametrize("count", [0, 3, 5])
def test_good_2set_needs_four_entries(count):
    # the cases hand a good 2-set to _try_good_2set as exactly four entries,
    # two base segments and two laterals, and get back its eight blockers;
    # any other count is refused before a blocker set is built
    ps = gen_convex(8)
    ws = constructions._Workspace(ps)
    f = ws.base_frame()
    entries = (f.E(0), f.E(4), f.E(6), f.E(2), f.E(1))
    segs = constructions._try_good_2set(ws, *entries[:4], "four")
    assert segs == constructions._k4_segments(*entries[:2]) + list(entries[2:4])
    with pytest.raises(TypeError):
        constructions._try_good_2set(ws, *entries[:count], f"{count} entries")
    assert not ws.diagnostics


_GRAPH_ENTRIES = {
    "build_certificate": build_certificate,
    "certificate_from_blockers": lambda ps, g: certificate_from_blockers(ps, [(0, 1)], graph=g),
}


@pytest.mark.parametrize("other", [9, 8], ids=["convex9", "convex8"])
@pytest.mark.parametrize("entry", sorted(_GRAPH_ENTRIES))
def test_graph_of_another_point_set_is_rejected(entry, other):
    # a graph of another size, or of the same size over other points, used
    # to be verified against as if it were the set's own
    ps = gen_random_general_position(8, seed=8076, bound=10000)
    with pytest.raises(ValueError, match="another point set"):
        _GRAPH_ENTRIES[entry](ps, build_disjointness_graph(gen_convex(other)))


def test_graph_of_an_equal_point_set_is_accepted():
    ps = gen_random_general_position(8, seed=8076, bound=10000)
    twin = PointSet.from_coords(list(ps.points))
    assert build_certificate(ps, build_disjointness_graph(twin)) == build_certificate(ps)


def test_fallback_certifies_lens_instances():
    # hull-7 lens instances: no case applies; the minimum blocker sets
    # have 8 segments (mu = 20)
    for seed in (8076, 8304):
        ps = gen_random_general_position(8, seed=seed, bound=10000)
        cert = build_certificate(ps)
        assert cert.strategy == "FallbackSearch" and cert.verified
        assert cert.size == 8 and cert.mu_lower_bound == comb(8, 2) - 8
        assert verify_blockers(ps, cert.blockers)


def test_fallback_matches_oracle(no_cases):
    # with no case to try, every certificate is the lexicographically first
    # blocker set of minimum size
    for n in (5, 6):
        for seed in range(10):
            ps = gen_random_general_position(n, seed=seed, bound=10000)
            g = build_disjointness_graph(ps)
            cert = build_certificate(ps, g)
            assert cert.strategy == "FallbackSearch"
            expected = oracle_min_blockers(g, 9)
            assert cert.blockers == tuple(g.segment_of(v) for v in expected), (n, seed)


def test_fallback_certificate_frozen():
    # the lens instance's whole fallback record, diagnostics included
    cert = build_certificate(gen_random_general_position(8, seed=8076, bound=10000))
    assert cert.strategy == "FallbackSearch" and cert.case is None
    assert cert.blockers == (
        (0, 2), (0, 4), (0, 7), (1, 5), (2, 4), (2, 7), (3, 6), (4, 7),
    )
    assert cert.mu_lower_bound == 20 and cert.verified
    assert cert.diagnostics == (
        "good-2-set [case7 start=0]: (1, 7) is not interior to the opposite lateral quadrant",
        "good-2-set [case7 mirror,start=0]: (1, 3) is not interior to the opposite lateral quadrant",
        "Hull7Case: no case produced a verified blocker set",
        "falling back to the exact minimum-blocker search",
    )


def test_fallback_set_is_verified(monkeypatch, no_cases):
    # the exact search's set goes through the same verification as any case
    ps = gen_random_general_position(6, seed=3, bound=10000)
    g = build_disjointness_graph(ps)
    monkeypatch.setattr(constructions, "min_blocker_set", lambda g: (solver.FOUND, 1))
    with pytest.raises(ConstructionError, match="fallback blocker set failed verification"):
        build_certificate(ps, g)


def test_fallback_ignores_the_clock(monkeypatch):
    ps = gen_random_general_position(8, seed=8076, bound=10000)
    cert = build_certificate(ps)
    # a clock that jumps 100 s per reading gives the same certificate
    clock = itertools.count(step=100.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    assert build_certificate(ps) == cert


def test_fallback_node_bound(monkeypatch):
    monkeypatch.setattr(solver, "BLOCKER_SEARCH_NODES", 0)
    ps = gen_random_general_position(8, seed=8076, bound=10000)
    with pytest.raises(ConstructionError, match="fallback search ran out of search nodes"):
        build_certificate(ps)


def test_certificate_json(cacerola):
    cert = build_certificate(cacerola)
    data = certificate_json(cert)
    assert data["strategy"] == "Hull6Case" and data["case"] == 2
    assert data["size"] == 9 == len(data["S"])
    assert data["mu_lower_bound"] == 12
    assert data["verified"] is True
    assert all(isinstance(pair, list) and len(pair) == 2 for pair in data["S"])
