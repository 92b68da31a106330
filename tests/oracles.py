"""Independent brute-force oracles used to fix expected test values.

Everything here deliberately avoids the library's own predicate and search
code paths: intersections are solved with exact rational arithmetic,
shortest paths are enumerated outright, hulls come from
the supporting-line characterisation, mutual-visibility numbers from full
subset enumeration, and the random generator's collinearity test is a
cross product per placed pair.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction


def frac_segment_intersection(p1, p2, q1, q2):
    """Closed-segment intersection via exact rational line parameters.

    Returns None (no common point), or (t, u) parameters in [0, 1] of one
    common point.  Assumes general position (no collinear overlaps).
    """
    (x1, y1), (x2, y2) = p1, p2
    (x3, y3), (x4, y4) = q1, q2
    den = (x2 - x1) * (y4 - y3) - (y2 - y1) * (x4 - x3)
    if den == 0:
        return None
    t = Fraction((x3 - x1) * (y4 - y3) - (y3 - y1) * (x4 - x3), den)
    u = Fraction((x3 - x1) * (y2 - y1) - (y3 - y1) * (x2 - x1), den)
    if 0 <= t <= 1 and 0 <= u <= 1:
        return t, u
    return None


def oracle_segments_intersect(coords, a, b) -> bool:
    if set(a) & set(b):
        return True
    return (
        frac_segment_intersection(coords[a[0]], coords[a[1]], coords[b[0]], coords[b[1]])
        is not None
    )


def oracle_crosses(coords, a, b) -> bool:
    if set(a) & set(b):
        return False
    hit = frac_segment_intersection(
        coords[a[0]], coords[a[1]], coords[b[0]], coords[b[1]]
    )
    if hit is None:
        return False
    t, u = hit
    return 0 < t < 1 and 0 < u < 1


def oracle_is_clean(coords, a) -> bool:
    n = len(coords)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) == a or set((i, j)) & set(a):
                continue
            if oracle_crosses(coords, a, (i, j)):
                return False
    return True


def oracle_hull_edges(coords):
    """Hull edges by the supporting-line test: (a, b) is a hull edge iff all
    other points lie strictly on one side of the line through a and b."""
    n = len(coords)
    edges = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            (x1, y1), (x2, y2) = coords[a], coords[b]
            sides = set()
            for c in range(n):
                if c in (a, b):
                    continue
                s = (x2 - x1) * (coords[c][1] - y1) - (y2 - y1) * (coords[c][0] - x1)
                sides.add(s > 0 if s != 0 else None)
            if sides == {False}:  # everything strictly clockwise of a->b
                edges.append((a, b))
    return edges


def oracle_hull_cycle(coords):
    """Hull indices in clockwise order starting at the lowest hull index."""
    edges = dict(oracle_hull_edges(coords))
    start = min(edges)
    cycle = [start]
    while True:
        nxt = edges[cycle[-1]]
        if nxt == start:
            return cycle
        cycle.append(nxt)


def oracle_adjacency(coords):
    """Disjointness adjacency over all segment pairs, rational arithmetic."""
    n = len(coords)
    segs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    adj = {s: set() for s in segs}
    for s1, s2 in itertools.combinations(segs, 2):
        if not oracle_segments_intersect(coords, s1, s2):
            adj[s1].add(s2)
            adj[s2].add(s1)
    return segs, adj


def oracle_distances(segs, adj, source):
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return {s: dist.get(s, math.inf) for s in segs}


def layer_distances(g, a):
    """dist(a, v) for each vertex v, decoded from ``g.distance_layers[a]``;
    math.inf for a vertex in no layer.  Not itself an oracle: it reads the
    library's layers so that tests can hold them against one."""
    dist = [math.inf] * g.n_vertices
    for d, layer in enumerate(g.distance_layers[a]):
        for v in range(g.n_vertices):
            if layer >> v & 1:
                dist[v] = d
    return dist


def all_shortest_paths(g, a, b):
    """Every shortest a-b path in a DisjointnessGraph, as vertex tuples."""
    vertices = range(g.n_vertices)
    neighbours = {v: [w for w in vertices if g.adj[v] >> w & 1] for v in vertices}
    dist = oracle_distances(vertices, neighbours, a)
    target = dist[b] if dist[b] != math.inf else None
    if target is None:
        return []
    paths = []

    def extend(path):
        v = path[-1]
        if v == b:
            paths.append(tuple(path))
            return
        row = g.adj[v]
        for w in range(g.n_vertices):
            if row >> w & 1 and dist[w] == dist[v] + 1 and dist[w] <= target:
                extend(path + [w])

    extend([a])
    return paths


def oracle_pair_visible(g, u_indices, a, b) -> bool:
    """Naive verdict: some shortest a-b path is internally disjoint from U."""
    u = set(u_indices)
    if g.are_adjacent(a, b):
        return True
    paths = all_shortest_paths(g, a, b)
    if not paths:
        return False
    return any(all(v not in u for v in path[1:-1]) for path in paths)


def oracle_first_failing_pair(g, u_indices):
    """The lexicographically first pair of U that is not visible, or None."""
    ids = sorted(u_indices)
    return next(
        (
            (a, b)
            for a, b in itertools.combinations(ids, 2)
            if not oracle_pair_visible(g, ids, a, b)
        ),
        None,
    )


def oracle_is_mv_set(g, u_indices) -> bool:
    ids = sorted(u_indices)
    return all(
        oracle_pair_visible(g, ids, a, b) for a, b in itertools.combinations(ids, 2)
    )


def oracle_mu(g) -> int:
    """Largest mutual-visibility set size by full subset enumeration.

    Only viable for small graphs (meant for the ten-vertex cases).
    """
    best = 1
    nv = g.n_vertices
    for size in range(2, nv + 1):
        found = False
        for combo in itertools.combinations(range(nv), size):
            if oracle_is_mv_set(g, combo):
                found = True
                break
        if not found:
            return best
        best = size
    return best


def oracle_scan_level(g, k):
    """A level-k scan that tests candidates one by one.

    The enumerated side is the smaller family: the k-sets U themselves, or
    their complements S = V \\ U when |V| - k <= k.  Returns ("found", U
    mask) for its first set in lexicographic order whose U is a
    mutual-visibility set, else ("refuted", None).  The exact decision is
    the library's ``first_failing_pair``; a distance-2 pair of U with every
    common neighbour in U is rejected before it, which is sound and only
    saves time.
    """
    from segvis.visibility import first_failing_pair

    nv = g.n_vertices
    full = (1 << nv) - 1
    complement = nv - k <= k
    size = nv - k if complement else k
    d2 = []
    for a, b in itertools.combinations(range(nv), 2):
        common = g.adj[a] & g.adj[b]
        if common and not g.adj[a] >> b & 1:
            d2.append((1 << a | 1 << b, common))
    d2.sort(key=lambda t: t[1].bit_count())
    for combo in itertools.combinations(range(nv), size):
        mask = sum(1 << v for v in combo)
        s_mask = mask if complement else full & ~mask
        if any(ends & s_mask == 0 and common & s_mask == 0 for ends, common in d2):
            continue
        if first_failing_pair(g, full & ~s_mask) is None:
            return "found", full & ~s_mask
    return "refuted", None


def oracle_min_blockers(g, max_size):
    """The first blocker set by size, then lexicographically: each size's
    vertex subsets S in lexicographic order until V \\ S passes the
    library's ``first_failing_pair``.  Returns S as a sorted tuple of
    vertices, or None when no blocker set has at most ``max_size``."""
    from segvis.visibility import first_failing_pair

    full = (1 << g.n_vertices) - 1
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(g.n_vertices), size):
            if first_failing_pair(g, full & ~sum(1 << v for v in combo)) is None:
                return combo
    return None


def float_rotation_neighbors(coords, hull_cycle, i):
    """First/last point swept by the rotating hull-edge line, via float
    angles.  Valid for small integer coordinates (angles never tie under
    general position)."""
    m = len(hull_cycle)
    v = hull_cycle[i % m]
    nxt = hull_cycle[(i + 1) % m]
    prv = hull_cycle[(i - 1) % m]
    ox, oy = coords[v]
    base = math.atan2(coords[nxt][1] - oy, coords[nxt][0] - ox)
    best = []
    for c in range(len(coords)):
        if c in (v, nxt, prv):
            continue
        ang = math.atan2(coords[c][1] - oy, coords[c][0] - ox)
        cw = (base - ang) % (2 * math.pi)  # clockwise angle from the edge ray
        best.append((cw, c))
    best.sort()
    return best[0][1], best[-1][1]


def _sign(v):
    return (v > 0) - (v < 0)


def first_on_rotating_line(pts, center, toward, candidates):
    """First candidate hit by the full line through ``center`` and ``toward``
    as it rotates clockwise about ``center``: candidates folded onto the
    line's right side and compared by clockwise angle."""
    o = pts[center]
    dx, dy = pts[toward][0] - o[0], pts[toward][1] - o[1]

    def folded(c):
        ux, uy = pts[c][0] - o[0], pts[c][1] - o[1]
        side = _sign(dx * uy - dy * ux)
        if side == 0:
            raise ValueError("candidate collinear with rotating line")
        return (ux, uy) if side < 0 else (-ux, -uy)

    def cmp(c1, c2):
        u, w = folded(c1), folded(c2)
        s = _sign(u[0] * w[1] - u[1] * w[0])
        if s == 0:
            raise ValueError("angular tie on rotating line")
        return s

    return min(candidates, key=functools.cmp_to_key(cmp))


def strictly_inside_convex(poly, p):
    """Strict membership of p in a convex polygon given in clockwise order."""
    k = len(poly)
    for t in range(k):
        (x1, y1), (x2, y2) = poly[t], poly[(t + 1) % k]
        if _sign((x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)) != -1:
            return False
    return True


def oracle_edges(g):
    """Every (u, v) with u < v and u, v adjacent in g, by a plain double
    loop over vertex pairs."""
    return [
        (u, v)
        for u in range(g.n_vertices)
        for v in range(u + 1, g.n_vertices)
        if g.are_adjacent(u, v)
    ]


def oracle_good_triangle_blockers(hull_cw, x, i):
    """The nine blockers of the good triangle x, H(i), H(i+1) of a labelled
    hull ``hull_cw``, relabelled by hand so that the triangle sits on hull
    positions 2 and 3."""
    m = len(hull_cw)
    h = [hull_cw[(k + i - 2) % m] for k in range(m)]
    pairs = [
        (h[0], h[1]), (h[2], h[3]), (h[4], h[5]), (x, h[2]), (x, h[3]),
        (h[0], h[3]), (h[1], h[3]), (h[2], h[4]), (h[2], h[5]),
    ]
    return [(min(a, b), max(a, b)) for a, b in pairs]


def oracle_ch6_case4(ws):
    """Hull-6 case 4 as each order branch spelled it out: a closure per ear
    that lends the helper point u, tried in the branch's order.  Yields what
    ``constructions._ch6_case4`` yields and writes the same notes to ws."""
    from segvis.constructions import _try_good_2set

    for f in ws.frames():
        parts = [f.ear_fwd(1), f.ear_mid(1), f.ear_bwd(1)]
        if sum(1 for p in parts if p) < 2:
            continue
        u2 = f.furthest_from_line(f.ear(1), f.H(0), f.H(2))

        def via_fwd():
            u = f.furthest_from_line(f.ear(2), f.H(1), f.H(3))
            return f.template(((~0, 1), (3, 4), (~1, 2), (0, 5)), (u2, u))

        def via_bwd():
            u = f.furthest_from_line(f.ear(0), f.H(1), f.H(5))
            return f.template(((~0, 1), (4, 5), (2, 3), (~1, 0)), (u2, u))

        if u2 in f.ear_mid(1):
            order = [via_fwd, via_bwd] if f.ear_fwd(1) else [via_bwd]
        elif not f.ear_mid(1):
            order = [via_bwd, via_fwd] if u2 in f.ear_fwd(1) else [via_fwd, via_bwd]
        else:
            order = [via_fwd, via_bwd]
        for make in order:
            if make is via_fwd and not f.ear(2):
                continue
            if make is via_bwd and not f.ear(0):
                continue
            segs = _try_good_2set(ws, *make(), f"case4 {f.describe()}")
            if segs:
                yield f.describe(), segs


def oracle_regions(coords, hull_cw):
    """The interior regions of one labelled hull (see ``constructions._Frame``),
    decomposed by position: each interior point is tested against every ear
    triangle, wedge ray, edge quadrilateral and span triangle of this
    labelling, over the given (possibly mirrored) coordinates.  Returns a
    dict from region name to its tuple of regions by hull position
    (``center``: one region)."""
    m = len(hull_cw)
    interior = [p for p in range(len(coords)) if p not in hull_cw]

    def H(k):
        return hull_cw[k % m]

    def orient(i, j, k):
        (x1, y1), (x2, y2), (x3, y3) = coords[i], coords[j], coords[k]
        s = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        return (s > 0) - (s < 0)

    def inside(poly, p):
        # strictly inside a clockwise convex polygon
        return all(orient(a, b, p) == -1 for a, b in zip(poly, poly[1:] + poly[:1]))

    def members(poly):
        return frozenset(p for p in interior if inside(poly, p))

    ear = [members([H(k - 1), H(k), H(k + 1)]) for k in range(m)]
    fwd = [frozenset(p for p in ear[k] if orient(H(k), H(k + 2), p) == 1) for k in range(m)]
    bwd = [frozenset(p for p in ear[k] if orient(H(k), H(k - 2), p) == -1) for k in range(m)]
    fields = dict(
        ear=tuple(ear),
        ear_fwd=tuple(fwd),
        ear_mid=tuple(ear[k] - fwd[k] - bwd[k] for k in range(m)),
        ear_bwd=tuple(bwd),
    )
    if m == 6:
        fields["center"] = frozenset(interior).difference(*ear)
    if m == 7:
        quad = [members([H(k - 1), H(k), H(k + 1), H(k + 2)]) for k in range(7)]
        span = [members([H(k), H(k + 3), H(k + 4)]) for k in range(7)]
        core = [span[k] - (quad[(k + 2) % 7] | quad[(k + 4) % 7] | ear[k]) for k in range(7)]
        fields.update(
            edge_quad=tuple(quad),
            span_tri=tuple(span),
            core=tuple(core),
            core_tip=tuple(core[k] & quad[k] & quad[(k + 6) % 7] for k in range(7)),
            lens=tuple(
                (quad[(k + 2) % 7] & quad[(k + 4) % 7]) - (ear[(k + 3) % 7] | ear[(k + 4) % 7])
                for k in range(7)
            ),
        )
    return fields


def oracle_random_general_position(n, seed, bound, max_tries=20000):
    """The random generator's draws with a cross product per placed pair:
    the point list, or None when max_tries candidates do not suffice."""
    rng = random.Random(seed)
    pts = []
    tries = 0
    while len(pts) < n:
        tries += 1
        if tries > max_tries:
            return None
        cand = (rng.randint(0, bound), rng.randint(0, bound))
        if cand in pts:
            continue
        if all(
            (b[0] - a[0]) * (cand[1] - a[1]) != (b[1] - a[1]) * (cand[0] - a[0])
            for a, b in itertools.combinations(pts, 2)
        ):
            pts.append(cand)
    return pts
