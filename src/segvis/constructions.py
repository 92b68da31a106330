"""Blocker-set certificates for mutual-visibility lower bounds.

A *blocker set* S is a small set of segments whose complement is a
mutual-visibility set of the disjointness graph, certifying
mu(D(P)) >= C(n,2) - |S|.  ``build_certificate`` is the one dispatcher: it
builds one workspace (graph, hull and labelled frames), looks the hull size
up in ``_CASE_TABLE`` and walks that size's ordered case list; later cases
may assume the earlier ones did not apply.  Every case is written against a
fixed hull labelling; the workspace realises the "relabel without loss of
generality" steps by scanning all rotations of the clockwise hull order,
plain and y-mirrored (mirroring reverses the cyclic orientation, covering
the symmetric branches).  A frame answers only label questions, and
``first_swept``, its one chiral test, alone reads whether it is mirrored;
it is also the one rotating-line test: the hull-3 sweep folds it over the
candidates, on a plain and on a mirrored frame, for the first and the last
point the turning line meets.
The hull-4..7 cases locate interior points (triangles, ears, wedges,
cores, lenses) through frame methods, each written in that frame's labels
over one chord-side table per query.  Good triangles and good 2-sets are
checked only inside the cases that build them; a good 2-set is a property
of its segments, checked from the points' own orientations with no frame.
The one other way in, ``certificate_from_blockers``, verifies a caller's
blocker set.

Most cases are data, read by one loop (``_rows``).  A row is (guard,
picks, pairs): in a frame where the guard, a region test, holds, the picks
choose the points the row names, and pairs is a label template of small
ints, k >= 0 for H(k) and ~k for the k-th pick.  A four-pair template is a
good 2-set (uv, xy, e_l, e_r), checked before it is tried.  A case's rows
are scanned in order, each over every frame (or the base frame only)
before the next.  Seven cases stay code because they branch: the hull-3
rotation sweep, the hull-6 good triangle (case 2), the hull-6 wedge order
(case 4: two templates keyed by the ear that lends its helper point, in
an order its wedges choose) and the hull-7 interior pairs (case 3); hull-6
case 6 and hull-7 cases 5 and 6 pick a branch frame by frame, which rows,
each scanned over all frames before the next, would reorder.  All but
hull-7 case 3 spell their segments through ``_Frame.template``.  Hull-7
cases 5 and 6 leave out the paper's branches that block a pair of interior
points: that candidate is case 3's for the pair, case 3 has already tried
it, and ``attempt`` decides a candidate by its segments alone.

Every candidate S is verified against the graph before it is returned:
the case analyses are intricate, and verification turns a transcription
slip into a loud diagnostic instead of a wrong certificate.  Beneath the
dispatch sits an exact safety net, ``solver.min_blocker_set``: it
searches blocker sets of sizes 1, 2, ..., 9 and returns the
lexicographically first one of minimum size.  A fixed count of search
nodes bounds it, never the clock.  It should fire only where a case is missing, and the
set it finds is verified like any case's candidate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb

from .geometry import (
    Point,
    PointSet,
    SegmentId,
    _sign,
    convex_hull,
    cross,
    segment,
)
from .graph import DisjointnessGraph, build_disjointness_graph, iter_bits
from .solver import FOUND, REFUTED, min_blocker_set
from .visibility import first_failing_pair

STRATEGY_EXPLICIT = "ExplicitBlockers"
STRATEGY_HULL3 = "Hull3"
STRATEGY_HULL4 = "Hull4"
STRATEGY_HULL5 = "Hull5Case"
STRATEGY_HULL6 = "Hull6Case"
STRATEGY_HULL7 = "Hull7Case"
STRATEGY_HULL89 = "Hull89"
STRATEGY_HULL10 = "Hull10Plus"
STRATEGY_FALLBACK = "FallbackSearch"


class ConstructionError(RuntimeError):
    """A certificate construction failed in a way the theory forbids."""


@dataclass(frozen=True)
class Certificate:
    """A verified blocker set together with the strategy that produced it."""

    strategy: str
    case: int | None
    blockers: tuple[SegmentId, ...]
    verified: bool
    mu_lower_bound: int
    diagnostics: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.blockers)


def certificate_json(cert: Certificate) -> dict:
    return {
        "strategy": cert.strategy,
        "case": cert.case,
        "S": [list(s) for s in cert.blockers],
        "size": cert.size,
        "mu_lower_bound": cert.mu_lower_bound,
        "verified": cert.verified,
    }


def _orient(pts: list[Point], i: int, j: int, k: int) -> int:
    return _sign(cross(pts[i], pts[j], pts[k]))


def _chord_side(
    pts: list[Point], interior: tuple[int, ...], a: int, b: int, c: int
) -> frozenset[int]:
    """The interior points on c's side of the chord a -> b."""
    pa, pb = pts[a], pts[b]
    left = cross(pa, pb, pts[c]) > 0
    return frozenset(p for p in interior if (cross(pa, pb, pts[p]) > 0) == left)


# ---------------------------------------------------------------------------
# Labelled hull frames


class _Frame:
    """One labelling of a workspace's hull: a rotation of the clockwise
    order, plain or y-mirrored.

    A frame answers label questions only: H and E, the regions over
    ``side``, the point selectors and ``first_swept``.  Mirroring keeps
    every distance and both sides of every chord, so the point selectors
    and the chord-side table serve the mirrored frames unchanged.
    Mirroring y negates every cross product exactly, so ``first_swept``,
    the one chiral test, multiplies by the frame's sense.

    The interior regions that the hull-5..7 cases read are methods written
    in this frame's labels over ``side`` (H(k) is the hull point at
    position k, indices mod m), each computed only when a case reads it:

    - ``ear(k)``: points strictly inside the triangle H(k-1), H(k), H(k+1).
    - ``ear_fwd(k)`` / ``ear_bwd(k)``: the wedges of ``ear(k)`` that hug the
      hull edges (k, k+1) and (k-1, k).  The wedge of the ear at v towards
      its neighbour w is the part of the ear on w's side of the chord from
      v to w's other neighbour.  ``ear_mid(k)`` is the remainder, and
      ``ear_fwd(k) == ear_bwd(k+1)``.
    - ``center()`` (m = 6): interior points inside no ear.
    - m = 7: ``edge_quad(k)`` is the quadrilateral H(k-1) .. H(k+2) on the
      hull edge (k, k+1); ``span_tri(k)`` the triangle H(k), H(k+3),
      H(k+4); ``core(k) = span_tri(k) - (edge_quad(k+2) + edge_quad(k+4) +
      ear(k))``; ``core_tip(k) = core(k) & edge_quad(k) & edge_quad(k+6)``;
      and ``lens(k) = (edge_quad(k+2) & edge_quad(k+4)) - (ear(k+3) +
      ear(k+4))``.

    ``sides`` is the query's chord-side table, shared by all its frames and
    keyed by hull points (the chord's ends, ascending, then H(k)); a frame
    holds no reference to its workspace.

    A case row is written in these labels: its guard and picks read the
    regions and selectors, and ``template`` turns its label pairs into
    segments.  The seven cases that branch stay code over the same methods
    (see the module docstring)."""

    # every query makes 2m frames: slots make them cheaper to build and read
    __slots__ = ("pts", "hull", "m", "mirrored", "_sense", "interior", "_sides")

    def __init__(
        self,
        pts: list[Point],
        hull_cw: tuple[int, ...],
        mirrored: bool,
        interior: tuple[int, ...],
        sides: dict[tuple[int, int, int], frozenset[int]],
    ):
        self.pts = pts
        self.hull = hull_cw
        self.m = len(hull_cw)
        self.mirrored = mirrored
        self._sense = -1 if mirrored else 1
        self.interior = interior
        self._sides = sides

    def describe(self) -> str:
        return f"{'mirror,' if self.mirrored else ''}start={self.hull[0]}"

    # -- labelled accessors --------------------------------------------------

    def H(self, k: int) -> int:
        return self.hull[k % self.m]

    def E(self, k: int) -> SegmentId:
        return segment(self.H(k), self.H(k + 1))

    def template(self, pairs, picks) -> list[SegmentId]:
        """The segments of a label template: label k >= 0 is H(k), and a
        negative label ~k is the k-th of the picks."""
        hull, m = self.hull, self.m
        return [
            segment(picks[~a] if a < 0 else hull[a % m], picks[~b] if b < 0 else hull[b % m])
            for a, b in pairs
        ]

    def first_swept(self, o: int, t: int, a: int, b: int) -> int:
        """Whichever of a, b the full line through o and t meets first as it
        turns clockwise about o (the line sweeps both of its rays).  This is
        the one chiral test: a mirrored frame turns the other way."""
        pts = self.pts
        product = _orient(pts, o, t, a) * _orient(pts, o, t, b) * _orient(pts, o, a, b)
        return a if self._sense * product < 0 else b

    # -- regions (see the class docstring) -----------------------------------

    def side(self, i: int, j: int, k: int) -> frozenset[int]:
        """The interior points on H(k)'s side of the chord H(i)H(j)."""
        hull, m = self.hull, self.m
        a, b, c = hull[i % m], hull[j % m], hull[k % m]
        key = (a, b, c) if a < b else (b, a, c)
        region = self._sides.get(key)
        if region is None:
            region = self._sides[key] = _chord_side(self.pts, self.interior, *key)
        return region

    def ear(self, k: int) -> frozenset[int]:
        return self.side(k - 1, k + 1, k)

    def ear_fwd(self, k: int) -> frozenset[int]:
        return self.ear(k) & self.side(k, k + 2, k + 1)

    def ear_bwd(self, k: int) -> frozenset[int]:
        return self.ear(k) & self.side(k, k - 2, k - 1)

    def ear_mid(self, k: int) -> frozenset[int]:
        return self.ear(k) - self.side(k, k + 2, k + 1) - self.side(k, k - 2, k - 1)

    def center(self) -> frozenset[int]:
        return frozenset(self.interior).difference(*map(self.ear, range(self.m)))

    def edge_quad(self, k: int) -> frozenset[int]:
        return self.side(k - 1, k + 2, k)

    def span_tri(self, k: int) -> frozenset[int]:
        return self.side(k, k + 3, k + 4) & self.side(k, k + 4, k + 3)

    def core(self, k: int) -> frozenset[int]:
        return self.span_tri(k) - self.edge_quad(k + 2) - self.edge_quad(k + 4) - self.ear(k)

    def core_tip(self, k: int) -> frozenset[int]:
        return self.core(k) & self.edge_quad(k) & self.edge_quad(k + 6)

    def lens(self, k: int) -> frozenset[int]:
        return (self.edge_quad(k + 2) & self.edge_quad(k + 4)) - self.ear(k + 3) - self.ear(k + 4)

    # -- deterministic point selectors (exact, ties by lowest index) ---------

    def _line_key(self, a: int, b: int, p: int) -> int:
        return abs(cross(self.pts[a], self.pts[b], self.pts[p]))

    def closest_to_edge(self, cands, k: int) -> int:
        a, b = self.H(k), self.H(k + 1)
        return min(sorted(cands), key=lambda p: self._line_key(a, b, p))

    def furthest_from_line(self, cands, a: int, b: int) -> int:
        return max(sorted(cands), key=lambda p: self._line_key(a, b, p))

    def closest_to_point(self, cands, v: int) -> int:
        vx, vy = self.pts[v]
        return min(
            sorted(cands),
            key=lambda p: (self.pts[p][0] - vx) ** 2 + (self.pts[p][1] - vy) ** 2,
        )


# ---------------------------------------------------------------------------
# Workspace shared by all builders


class _Workspace:
    """One query's graph (built when not given), hull, frames and notes.

    ``build_certificate`` and ``certificate_from_blockers`` may pass a
    caller's graph, which must be the point set's own: one built from
    another point set raises a ValueError, whatever its size.
    The hull is the one ``convex_hull`` stores on the point set; the
    y-mirrored frames reuse it reversed.  All frames share one chord-side
    table keyed by hull points, so each side of a chord is evaluated once
    however many frames read it, and the table goes with the query.
    ``attempt`` is the one place a Certificate is built: it rejects
    duplicate or oversized blocker sets and verifies the rest with
    ``first_failing_pair``, for the case table and the fallback alike.
    """

    def __init__(self, ps: PointSet, g: DisjointnessGraph | None = None):
        if g is not None and g.pointset != ps:
            raise ValueError("the graph was built from another point set")
        self.ps = ps
        self.g = g if g is not None else build_disjointness_graph(ps)
        self.hull_data = convex_hull(ps)
        self.m = self.hull_data.m
        self.n = ps.n
        self.diagnostics: list[str] = []
        self._pts = list(ps.points)

    def note(self, msg: str) -> None:
        self.diagnostics.append(msg)

    @cached_property
    def _frame_list(self) -> list["_Frame"]:
        # Mirroring reverses the clockwise order; the cycle still starts at
        # the lowest index, so the mirrored hull needs no second hull pass.
        # The frames share one chord-side table, filled as cases read it.
        # They must not refer back to the workspace: that cycle would keep
        # each query's graph alive until the next garbage collection.
        pts, hull_data, sides = self._pts, self.hull_data, {}
        hull = hull_data.hull
        return [
            _Frame(pts, h[r:] + h[:r], mirrored, hull_data.interior, sides)
            for mirrored, h in ((False, hull), (True, hull[:1] + hull[:0:-1]))
            for r in range(self.m)
        ]

    def frames(self) -> list["_Frame"]:
        return self._frame_list

    def base_frame(self) -> _Frame:
        return self._frame_list[0]

    def verify(self, segs: list[SegmentId]) -> bool:
        g = self.g
        return first_failing_pair(g, g.full_mask & ~g.mask_of(segs)) is None

    def attempt(
        self, strategy: str, case: int | None, segs: list[SegmentId], desc: str
    ) -> Certificate | None:
        if len(set(segs)) != len(segs):
            self.note(f"{strategy}({case}) [{desc}]: duplicate blockers {segs}")
            return None
        if len(segs) > 9:
            self.note(f"{strategy}({case}) [{desc}]: blocker set larger than 9")
            return None
        if self.verify(segs):
            return Certificate(
                strategy=strategy,
                case=case,
                blockers=tuple(sorted(segs)),
                verified=True,
                mu_lower_bound=comb(self.n, 2) - len(segs),
                diagnostics=tuple(self.diagnostics),
            )
        self.note(f"{strategy}({case}) [{desc}]: candidate failed verification")
        return None

    def certify(self, strategy: str, segs: list[SegmentId], desc: str, what: str) -> Certificate:
        """``attempt`` for explicit blockers and the fallback; a
        ConstructionError says that ``what`` failed."""
        cert = self.attempt(strategy, None, segs, desc)
        if cert is None:
            raise ConstructionError(f"{what} failed verification: {self.diagnostics}")
        return cert


# ---------------------------------------------------------------------------
# Good triangles


def _triangle_is_good(ws: _Workspace, frame: _Frame, x: int, i: int) -> bool:
    if x not in frame.edge_quad(i):
        return False
    g = ws.g
    # label j - k is H(i - k): template reads a negative label as a pick
    j = i + frame.m
    tri_mask = g.mask_of(frame.template(((~0, i), (~0, i + 1), (i, i + 1)), (x,)))
    allowed = set(frame.template(((i, i + 2), (i, i + 3), (i + 1, j - 2), (i + 1, j - 1)), ()))
    # Segments meeting all three triangle sides = non-neighbours of all three.
    bad = g.full_mask & ~tri_mask
    for t in iter_bits(tri_mask):
        bad &= ~g.adj[t]
    return all(g.segment_of(v) in allowed for v in iter_bits(bad))


def _good_triangle_blockers(frame: _Frame, x: int, i: int) -> list[SegmentId]:
    # the triangle on hull edge i; label j - k is H(i - k), as above
    j = i + frame.m
    pairs = (
        (j - 2, j - 1), (i, i + 1), (i + 2, i + 3), (~0, i), (~0, i + 1),
        (j - 2, i + 1), (j - 1, i + 1), (i, i + 2), (i, i + 3),
    )
    return frame.template(pairs, (x,))


# ---------------------------------------------------------------------------
# Good 2-sets


def _k4_segments(uv: SegmentId, xy: SegmentId) -> list[SegmentId]:
    return [segment(a, b) for a, b in itertools.combinations((*uv, *xy), 2)]


def _segment_side(ws: _Workspace, line: SegmentId, seg_: SegmentId) -> int:
    """Side of a line taken by a segment that does not cross it: the sign of
    whichever endpoint is off the line (both, when neither lies on it)."""
    a, b = line
    s1 = _orient(ws._pts, a, b, seg_[0])
    s2 = _orient(ws._pts, a, b, seg_[1])
    if s1 and s2 and s1 != s2:
        raise ConstructionError("segment unexpectedly crosses a diagonal line")
    return s1 or s2


def _good_2set_diagonals(ws: _Workspace, uv: SegmentId, xy: SegmentId):
    u, v = uv
    x, y = xy
    g = ws.g
    pairs = [(segment(u, x), segment(v, y)), (segment(u, y), segment(v, x))]
    for d1, d2 in pairs:
        if g.cross_mask[g.vertex(d1)] >> g.vertex(d2) & 1:
            return d1, d2
    # Triangle case: one endpoint sits inside the triangle of the others.
    t = _inner_point(ws, [u, v, x, y])
    if t is None:
        raise ConstructionError("could not locate the diagonals of the 4-point drawing")
    partner = v if t == u else u if t == v else y if t == x else x
    d = [segment(t, c) for c in (u, v, x, y) if c != t and c != partner]
    return d[0], d[1]


def _inner_point(ws: _Workspace, four: list[int]) -> int | None:
    """The one of four points strictly inside the triangle of the other
    three, or None when the four are in convex position.  t is inside the
    triangle a, b, c when it has one orientation against all three edges."""
    pts = ws._pts
    for t in four:
        a, b, c = (p for p in four if p != t)
        s = _orient(pts, a, b, t)
        if s and s == _orient(pts, b, c, t) == _orient(pts, c, a, t):
            return t
    return None


def _quadrant_of(ws: _Workspace, d1: SegmentId, d2: SegmentId, s: SegmentId):
    """Open quadrant (sign pair) containing segment s, or None when s meets
    either diagonal line."""
    sides = []
    for d in (d1, d2):
        a, b = d
        s1 = _orient(ws._pts, a, b, s[0])
        s2 = _orient(ws._pts, a, b, s[1])
        if s1 == 0 or s1 != s2:
            return None
        sides.append(s1)
    return tuple(sides)


def _validate_good_2set(
    ws: _Workspace,
    uv: SegmentId,
    xy: SegmentId,
    e_l: SegmentId,
    e_r: SegmentId,
) -> str | None:
    """Return None when (uv, xy, e_l, e_r) is a good 2-set, else a reason."""
    g = ws.g
    hull_pts = set(ws.hull_data.hull)
    if not g.are_adjacent(g.vertex(uv), g.vertex(xy)):
        return "base segments are not disjoint"
    for s in (uv, xy):
        if not g.is_clean_vertex(g.vertex(s)):
            return f"base segment {s} is not clean"
        if not (set(s) & hull_pts):
            return f"base segment {s} has no hull endpoint"
    try:
        d1, d2 = _good_2set_diagonals(ws, uv, xy)
        q_uv = (_segment_side(ws, d1, uv), _segment_side(ws, d2, uv))
        q_xy = (_segment_side(ws, d1, xy), _segment_side(ws, d2, xy))
    except ConstructionError as exc:
        return str(exc)
    if 0 in q_uv or 0 in q_xy or q_xy != (-q_uv[0], -q_uv[1]):
        return "base segments do not sit in opposite quadrants"
    lateral = [(q_uv[0], -q_uv[1]), (-q_uv[0], q_uv[1])]
    ql = _quadrant_of(ws, d1, d2, e_l)
    qr = _quadrant_of(ws, d1, d2, e_r)
    if ql not in lateral:
        return f"{e_l} is not interior to a lateral quadrant"
    if qr not in lateral or qr == ql:
        return f"{e_r} is not interior to the opposite lateral quadrant"
    k4_mask = g.mask_of(_k4_segments(uv, xy))
    for e in (e_l, e_r):
        if g.cross_mask[g.vertex(e)] & ~k4_mask:
            return f"{e} is crossed outside the 4-point drawing"
    return None


def _try_good_2set(
    ws: _Workspace,
    uv: SegmentId,
    xy: SegmentId,
    e_l: SegmentId,
    e_r: SegmentId,
    desc: str,
):
    reason = _validate_good_2set(ws, uv, xy, e_l, e_r)
    if reason is not None:
        ws.note(f"good-2-set [{desc}]: {reason}")
        return None
    return _k4_segments(uv, xy) + [e_l, e_r]


# ---------------------------------------------------------------------------
# Case rows


def _rows(*rows, desc: str = "", base_only: bool = False):
    """A case written as data: rows (guard, picks, pairs), read in order,
    each over every frame (or over the base frame only) before the next.

    In a frame where ``guard`` holds (None: always), ``picks`` names the
    points the template refers to (None: none) and ``pairs`` is the label
    template that ``_Frame.template`` reads.  A four-pair template is a
    good 2-set (uv, xy, e_l, e_r): it is kept only when ``_try_good_2set``
    accepts it, which notes ``desc`` with the frame's text in place of
    ``{}``."""

    def case(ws: _Workspace):
        frames = [ws.base_frame()] if base_only else ws.frames()
        for guard, picks, pairs in rows:
            for f in frames:
                if guard is not None and not guard(f):
                    continue
                segs = f.template(pairs, picks(f) if picks else ())
                if len(segs) == 4:
                    segs = _try_good_2set(ws, *segs, desc.format(f.describe()))
                    if segs is None:
                        continue
                yield f.describe(), segs

    return case


# ---------------------------------------------------------------------------
# Hull-size 3 and 4


def _rotation_neighbours(ws: _Workspace, i: int) -> tuple[int, int]:
    """The first and last point other than H(i-1) met by the line through
    H(i) and H(i+1) as it turns clockwise about H(i): ``first_swept`` folded
    on the base frame, then on a mirrored one, which turns the other way."""
    f = ws.base_frame()
    o, t = f.H(i), f.H(i + 1)
    rest = [p for p in range(ws.n) if p not in (f.H(i - 1), o, t)]
    frames = (f, ws.frames()[f.m])
    return tuple(reduce(lambda a, b: fr.first_swept(o, t, a, b), rest) for fr in frames)


def _ch3(ws: _Workspace):
    """Triangular hulls: blocker set of size 8.

    Some hull vertex u admits rotation neighbours u-, u+ in convex position
    with the other two hull vertices; the sweep argument guarantees this,
    so exhausting all three vertices is a hard error rather than a fallback.
    The blocker set joins u to both neighbours and both neighbours to the
    opposite hull edge.
    """
    f = ws.base_frame()
    for i in range(3):
        picks = _rotation_neighbours(ws, i)
        if _inner_point(ws, [*picks, f.H(i + 1), f.H(i + 2)]) is None:
            pairs = (
                (i, ~0), (i, ~1), (~0, ~1), (i + 1, ~0), (i + 2, ~0), (i + 1, ~1),
                (i + 2, ~1), (i + 1, i + 2),
            )
            yield f"apex={f.H(i)}", f.template(pairs, picks)
            return
    raise ConstructionError(
        "no hull vertex yields rotation neighbours in convex position with "
        "the other two; this contradicts the sweep argument and signals a "
        "predicate bug"
    )


# Quadrilateral hulls, blocker set of size 9: the point closest to the edge
# H(2)H(3) in the triangle between that edge and the diagonal crossing.
_ch4 = _rows((
    lambda f: f.side(0, 2, 3) & f.side(1, 3, 2),
    lambda f: (f.closest_to_edge(f.side(0, 2, 3) & f.side(1, 3, 2), 2),),
    ((0, 1), (0, 2), (0, ~0), (0, 3), (1, 2), (1, ~0), (1, 3), (2, ~0), (3, ~0)),
))


# ---------------------------------------------------------------------------
# Hull size 5

_ch5_case1 = _rows((
    lambda f: not f.ear(0),
    None,
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (0, 3), (1, 3), (2, 4)),
))

_ch5_case2 = _rows((
    lambda f: f.ear_fwd(0) and f.ear_fwd(2) and f.ear(4),
    lambda f: (
        f.closest_to_edge(f.ear_fwd(0), 0),
        f.closest_to_edge(f.ear_fwd(2), 2),
        f.furthest_from_line(f.ear(4), f.H(0), f.H(3)),
    ),
    ((0, 1), (~0, 0), (~0, 1), (2, 3), (~1, 2), (~1, 3), (~2, 4)),
))

_ch5_case3 = _rows((
    lambda f: f.ear_fwd(0) and f.ear_bwd(0) and f.ear_mid(2) and f.ear_mid(3),
    lambda f: (
        f.closest_to_edge(f.ear_fwd(0), 0),
        f.closest_to_edge(f.ear_bwd(0), 4),
        f.closest_to_point(f.ear_mid(2), f.H(2)),
        f.closest_to_point(f.ear_mid(3), f.H(3)),
    ),
    ((0, 1), (~0, 0), (~0, 1), (4, 0), (~1, 4), (~1, 0), (~2, 2), (~3, 3)),
))

_ch5_case4 = _rows((
    lambda f: f.ear_fwd(0) and f.ear_mid(2) and f.ear_mid(3) and f.ear_mid(4),
    lambda f: (
        f.closest_to_edge(f.ear_fwd(0), 0),
        *(f.closest_to_point(f.ear_mid(k), f.H(k)) for k in (2, 3, 4)),
    ),
    ((0, 1), (~0, 0), (~0, 1), (~1, 2), (~2, 3), (~3, 4)),
))

_ch5_case5 = _rows((
    lambda f: all(f.ear_mid(k) for k in range(5)),
    lambda f: [f.closest_to_point(f.ear_mid(k), f.H(k)) for k in range(5)],
    ((~0, 0), (~1, 1), (~2, 2), (~3, 3), (~4, 4)),
), base_only=True)


# ---------------------------------------------------------------------------
# Hull size 6

_ch6_case1 = _rows((
    lambda f: not f.interior,
    None,
    ((0, 3), (1, 4), (2, 5), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
), base_only=True)


def _ch6_case2(ws: _Workspace):
    if ws.n != 7:
        return
    f = ws.base_frame()
    x = f.interior[0]
    for i in range(6):
        # Triangle between edge i and the two long diagonals at its ends.
        if x not in f.side(i, i + 3, i + 1) or x not in f.side(i + 1, i + 4, i):
            continue
        pos = (i if x in f.side(i + 2, i + 5, i) else i + 3) % 6
        if _triangle_is_good(ws, f, x, pos):
            yield f"{f.describe()},edge={pos}", _good_triangle_blockers(f, x, pos)
        else:
            ws.note(f"hull6 case 2: triangle at edge {pos} not good")
        return


_ch6_case3 = _rows((
    lambda f: f.ear(0) and f.ear(3),
    lambda f: (
        f.furthest_from_line(f.ear(0), f.H(1), f.H(5)),
        f.furthest_from_line(f.ear(3), f.H(2), f.H(4)),
    ),
    ((1, 2), (4, 5), (3, ~1), (0, ~0)),
), desc="case3 {}")


# Hull-6 case 4's good 2-sets, keyed by the ear k that lends the helper
# point u: the next ear (2) or the previous one (0)
_CH6_CASE4_PAIRS = {2: ((~0, 1), (3, 4), (~1, 2), (0, 5)), 0: ((~0, 1), (4, 5), (2, 3), (~1, 0))}


def _ch6_case4(ws: _Workspace):
    for f in ws.frames():
        fwd, mid = f.ear_fwd(1), f.ear_mid(1)
        if bool(fwd) + bool(mid) + bool(f.ear_bwd(1)) < 2:
            continue
        u2 = f.furthest_from_line(f.ear(1), f.H(0), f.H(2))
        # The next ear first, unless u2's wedge calls for the previous one.
        # u2 in a side wedge beside an occupied middle wedge is not spelled
        # out by the case analysis, so both ears are tried.
        order = (0,) if u2 in mid and not fwd else (0, 2) if not mid and u2 in fwd else (2, 0)
        for k in order:
            if not f.ear(k):
                continue
            u = f.furthest_from_line(f.ear(k), f.H(k - 1), f.H(k + 1))
            quad = f.template(_CH6_CASE4_PAIRS[k], (u2, u))
            segs = _try_good_2set(ws, *quad, f"case4 {f.describe()}")
            if segs:
                yield f.describe(), segs


_ch6_case5 = _rows((
    lambda f: f.ear_fwd(0) and f.ear_mid(2),
    lambda f: (
        f.furthest_from_line(f.ear_fwd(0), f.H(0), f.H(2)),
        f.furthest_from_line(f.ear(2), f.H(1), f.H(3)),
    ),
    ((~0, 1), (3, 4), (~1, 2), (0, 5)),
), desc="case5 {}")


def _ch6_case6(ws: _Workspace):
    for f in ws.frames():
        if not f.ear_fwd(0):
            continue
        if len(f.ear_fwd(0)) == 1:
            (x,) = f.ear_fwd(0)
            if _triangle_is_good(ws, f, x, 0):
                yield f.describe(), _good_triangle_blockers(f, x, 0)
            else:
                ws.note(f"hull6 case 6 [{f.describe()}]: lone-point triangle not good")
            continue
        pairs = ((0, 1), (2, 3), (4, 5), (0, 3), (1, 4), (2, 5), (1, 5), (0, 2), (~0, ~1))
        yield f.describe(), f.template(pairs, sorted(f.ear_fwd(0)))


# Rows 7a (a good 2-set), 7b and 7c, in order.
_ch6_case7 = _rows(
    (
        lambda f: f.ear_mid(0) and f.ear_mid(1),
        lambda f: (
            f.closest_to_point(f.ear_mid(0), f.H(0)),
            f.furthest_from_line(f.ear(1), f.H(0), f.H(2)),
        ),
        ((0, ~0), (2, 3), (4, 5), (1, ~1)),
    ),
    (
        lambda f: f.ear_mid(0) and f.ear_mid(2),
        lambda f: (
            f.closest_to_point(f.ear_mid(0), f.H(0)),
            f.closest_to_point(f.ear_mid(2), f.H(2)),
        ),
        ((0, 1), (1, 2), (4, 5), (0, ~0), (1, 4), (1, 5), (2, 4), (2, 5), (3, ~1)),
    ),
    (
        # the point of ear_mid(0) closest to H(0), then the least other
        # point of ear_mid(0) or the center
        lambda f: f.ear_mid(0) and len(f.ear_mid(0) | f.center()) > 1,
        lambda f: (
            u1 := f.closest_to_point(f.ear_mid(0), f.H(0)),
            min((f.ear_mid(0) | f.center()) - {u1}),
        ),
        ((0, 1), (2, 3), (4, 5), (0, 2), (0, 3), (1, 4), (2, 5), (1, 5), (~0, ~1)),
    ),
    desc="case7a {}",
)

_ch6_case8 = _rows((
    lambda f: len(f.center()) >= 2,
    lambda f: sorted(f.center()),
    ((0, 1), (2, 3), (4, 5), (0, 3), (1, 4), (2, 5), (~0, ~1)),
), base_only=True)


# ---------------------------------------------------------------------------
# Hull size 7

_ch7_case1 = _rows((
    lambda f: not f.interior,
    None,
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)),
), base_only=True)

_ch7_case2 = _rows((
    lambda f: f.ear(0),
    lambda f: (f.furthest_from_line(f.ear(0), f.H(1), f.H(6)),),
    ((1, 2), (5, 6), (0, ~0), (3, 4)),
), desc="case2 {}")


def _ch7_case3(ws: _Workspace):
    """For each interior pair, in order, whose segment crosses at most one
    segment spanned by two hull points: the hull edges, the pair and the
    segment it crosses, if any."""
    g = ws.g
    f = ws.base_frame()
    edges = [f.E(k) for k in range(7)]
    # the base hull order is clockwise, not sorted: segment() orders the ends
    spanned = g.mask_of(segment(a, b) for a, b in itertools.combinations(f.hull, 2))
    for x, y in itertools.combinations(f.interior, 2):
        pair = segment(x, y)
        crossed = g.cross_mask[g.vertex(pair)] & spanned
        if crossed & (crossed - 1) == 0:
            yield f"pair={x},{y}", edges + [pair] + [g.segment_of(v) for v in iter_bits(crossed)]


_ch7_case4 = _rows((
    lambda f: len(f.lens(0)) == 1 and len(f.lens(2)) == 1,
    lambda f: (*f.lens(0), *f.lens(2)),
    ((2, 3), (3, 4), (2, ~0), (4, ~0), (5, 6), (5, ~1), (6, ~1), (0, 1)),
))


def _ch7_case5(ws: _Workspace):
    for f in ws.frames():
        if not (f.core(0) and not f.lens(0)):
            continue
        meet = f.core(3) & f.edge_quad(2)
        # two or more points meeting: an interior pair, left to case 3
        if not meet:
            pairs = ((0, 1), (1, 2), (3, 4), (6, 0), (0, ~0), (2, ~0), (5, ~0), (0, 3), (0, 4))
            yield f"5.1 {f.describe()}", f.template(pairs, (min(f.core(0)),))
        elif len(meet) == 1:
            pairs = ((0, 1), (4, 5), (5, 6), (6, 0), (2, ~0), (3, ~0), (2, 3), (0, 3), (2, 5))
            yield f"5.2b {f.describe()}", f.template(pairs, tuple(meet))


def _ch7_case6(ws: _Workspace):
    for f in ws.frames():
        # a point of core_tip(4) pairs with lens(0): an interior pair, left to case 3
        if not (len(f.lens(0)) == 1 and len(f.lens(1)) == 1) or f.core_tip(4):
            continue
        (u1,) = f.lens(0)
        (u2,) = f.lens(1)
        quad5 = f.edge_quad(4)
        if quad5 != {u1, u2}:
            ws.note(
                f"hull7 case 6 [{f.describe()}]: edge quad 4 is {sorted(quad5)}, "
                f"expected {{{u1}, {u2}}}"
            )
            continue
        x = f.first_swept(f.H(3), f.H(5), u1, u2)
        if x == u1:
            quad = ((4, 5), (1, 2), (3, ~0), (0, 6))
        else:
            quad = ((0, 6), (3, 4), (5, ~0), (1, 2))
        segs = _try_good_2set(ws, *f.template(quad, (x,)), f"case6 {f.describe()}")
        if segs:
            yield f.describe(), segs


_ch7_case7 = _rows((
    lambda f: len(f.lens(0)) == 1,
    lambda f: tuple(f.lens(0)),
    ((2, 3), (5, 6), (0, 1), (4, ~0)),
), desc="case7 {}")


# ---------------------------------------------------------------------------
# Hull sizes 8 and above, and the case table

# Hull sizes 8 and 9: a good 2-set on two opposite hull edges.
_ch89 = _rows((None, None, ((0, 1), (4, 5), (6, 7), (2, 3))), desc="hull89", base_only=True)

# Hull size >= 10: five alternating hull edges, pairwise disjoint.
_ch10 = _rows((None, None, ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))), base_only=True)


#: Hull size -> (strategy, ordered (case, generator) list); any hull size
#: not listed takes _HULL10_ENTRY.
_CASE_TABLE = {
    3: (STRATEGY_HULL3, [(None, _ch3)]),
    4: (STRATEGY_HULL4, [(None, _ch4)]),
    5: (STRATEGY_HULL5, [
        (1, _ch5_case1), (2, _ch5_case2), (3, _ch5_case3), (4, _ch5_case4),
        (5, _ch5_case5),
    ]),
    6: (STRATEGY_HULL6, [
        (1, _ch6_case1), (2, _ch6_case2), (3, _ch6_case3), (4, _ch6_case4),
        (5, _ch6_case5), (6, _ch6_case6), (7, _ch6_case7), (8, _ch6_case8),
    ]),
    7: (STRATEGY_HULL7, [
        (1, _ch7_case1), (2, _ch7_case2), (3, _ch7_case3), (4, _ch7_case4),
        (5, _ch7_case5), (6, _ch7_case6), (7, _ch7_case7),
    ]),
    8: (STRATEGY_HULL89, [(None, _ch89)]),
    9: (STRATEGY_HULL89, [(None, _ch89)]),
}
_HULL10_ENTRY = (STRATEGY_HULL10, [(None, _ch10)])


# ---------------------------------------------------------------------------
# Exact fallback and the public entry point


def _fallback_certificate(ws: _Workspace) -> Certificate:
    ws.note("falling back to the exact minimum-blocker search")
    status, s_mask = min_blocker_set(ws.g)
    if status != FOUND:
        reason = (
            "found no blocker set of at most 9 segments, against mu >= C(n,2) - 9"
            if status == REFUTED
            else "ran out of search nodes (solver.BLOCKER_SEARCH_NODES)"
        )
        raise ConstructionError(f"fallback search {reason}; diagnostics: {ws.diagnostics}")
    segs = [ws.g.segment_of(v) for v in iter_bits(s_mask)]
    return ws.certify(STRATEGY_FALLBACK, segs, "minimum blocker set", "fallback blocker set")


def _require_ids(ps: PointSet, entries, what: str) -> None:
    """Raise a ValueError naming the first entry that is not a segment id
    (i, j) of ints, 0 <= i < j < n."""
    for e in entries:
        if not (type(e) is tuple and len(e) == 2 and all(type(i) is int for i in e)
                and 0 <= e[0] < e[1] < ps.n):
            raise ValueError(f"{what} {e!r} is not a segment id of this {ps.n}-point set")


def certificate_from_blockers(
    ps: PointSet, blockers, *, graph: DisjointnessGraph | None = None
) -> Certificate:
    """Package and verify an externally chosen blocker set.

    Every entry must be a segment id (i, j) of the point set, i < j, or a
    ValueError names it."""
    segs = list(blockers)
    _require_ids(ps, segs, "blocker")
    return _Workspace(ps, graph).certify(STRATEGY_EXPLICIT, segs, "explicit", "blocker set")


def double_chain_blocker(p: int, q: int) -> list[SegmentId]:
    """Size-4 blocker for a double chain: the first upper-chain edge plus
    three disjoint lower-chain edges (indices as laid out by the generator)."""
    if p < 2 or q < 6:
        raise ValueError("double-chain blocker needs p >= 2 and q >= 6")
    return [segment(0, 1), segment(p, p + 1), segment(p + 2, p + 3), segment(p + 4, p + 5)]


def build_certificate(
    ps: PointSet, graph: DisjointnessGraph | None = None
) -> Certificate:
    """Verified blocker set of size <= 9 for any n >= 5 point set, chosen by
    hull size.  Establishes mu(D(P)) >= C(n,2) - 9 constructively.

    The cases of the hull size are tried in order and the first verified
    candidate wins; when none verifies, the exact minimum-blocker search
    decides, and a ConstructionError says when it cannot."""
    if ps.n < 5:
        raise ValueError("certificates need n >= 5")
    ws = _Workspace(ps, graph)
    strategy, cases = _CASE_TABLE.get(ws.m, _HULL10_ENTRY)
    for case_no, gen in cases:
        for desc, segs in gen(ws):
            cert = ws.attempt(strategy, case_no, segs, desc)
            if cert is not None:
                return cert
    ws.note(f"{strategy}: no case produced a verified blocker set")
    return _fallback_certificate(ws)
