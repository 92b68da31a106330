"""Exact planar primitives for integer point sets in general position.

All predicates are sign computations of integer cross products; nothing in
this module touches floating point.  Coordinates are capped at ingestion so
the 2x2 determinants of coordinate differences stay within 128-bit signed
range (Python ints do not overflow, but the bound keeps the data portable
and is part of the input contract).  The cap also bounds the field width
of the graph build's packed orientations: a coordinate span of at most
2^31 bounds every orientation by span^2 <= 2^62, so every field fits in
64 bits.

The general-position check, at ingestion and in the random generator, runs
in O(n^2): two points lie on one line through a third exactly when their
directions from it, reduced by the gcd of the coordinates and signed so
that the first nonzero coordinate is positive, are equal, which is still
exact integer arithmetic.  Each PointSet computes its convex hull at most
once and keeps it (see ``convex_hull``).
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

MAX_COORD = 1 << 30

#: Canonical segment identifier: pair of point indices with i < j.
SegmentId = tuple[int, int]


class GeneralPositionError(ValueError):
    """Raised when a point collection has a collinear triple or duplicates."""


class CoordinateError(ValueError):
    """Raised for non-integer or out-of-bound coordinates."""


class GenerationError(RuntimeError):
    """Raised when a point-set generator cannot satisfy its contract."""


class Point(NamedTuple):
    x: int
    y: int


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def cross(o: Point, a: Point, b: Point) -> int:
    """Twice the signed area of triangle o, a, b (positive = ccw turn)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _validate_coord(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise CoordinateError(f"coordinate {v!r} is not an integer")
    if abs(v) > MAX_COORD:
        raise CoordinateError(f"|{v}| exceeds the coordinate bound 2^30")
    return v


@dataclass(frozen=True)
class PointSet:
    """Immutable point configuration, validated to be in general position."""

    points: tuple[Point, ...]

    def __post_init__(self):
        for p in self.points:
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise ValueError(f"point {p!r} is not an [x, y] pair")
        pts = tuple(
            Point(_validate_coord(p[0]), _validate_coord(p[1])) for p in self.points
        )
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts):
            raise GeneralPositionError("duplicate points")
        bad = _find_collinear_triple(pts)
        if bad is not None:
            raise GeneralPositionError(f"collinear triple at indices {bad}")

    @classmethod
    def from_coords(cls, coords: Iterable[Sequence[int]]) -> "PointSet":
        return cls(tuple(coords))

    @property
    def n(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def coords(self) -> list[list[int]]:
        return [[p.x, p.y] for p in self.points]

    @cached_property
    def _hull(self) -> "HullData":
        # read through convex_hull; a frozen dataclass without slots keeps
        # the value in the instance dict, outside the compared fields
        hull = _hull_indices_clockwise(self.points)
        on_hull = set(hull)
        interior = tuple(i for i in range(self.n) if i not in on_hull)
        return HullData(hull=tuple(hull), interior=interior)


def _direction(dx: int, dy: int) -> tuple[int, int]:
    """The direction of a nonzero (dx, dy), reduced by the gcd and signed so
    that its first nonzero coordinate is positive: two vectors get the same
    direction exactly when they are parallel."""
    g = gcd(dx, dy)
    if dx < 0 or not dx and dy < 0:
        g = -g
    return dx // g, dy // g


def _find_collinear_triple(pts: Sequence[Point]):
    """The lexicographically first collinear (i, j, k), i < j < k, or None,
    for pairwise distinct points (callers reject duplicates first).

    Points j and k lie on one line with i exactly when their directions
    from i are equal, so each i takes one pass over the later points.  The
    first i with a repeated direction gives the triple, with its least
    (j, k), which need not be the first repeat met: (2, 7) can be met
    after (5, 6)."""
    for i, (px, py) in enumerate(pts):
        keys = [_direction(x - px, y - py) for x, y in pts[i + 1:]]
        if len(set(keys)) < len(keys):
            first: dict[tuple[int, int], int] = {}
            best = None
            for k, key in enumerate(keys, i + 1):
                j = first.setdefault(key, k)
                if j != k and (best is None or (j, k) < best):
                    best = (j, k)
            return (i, *best)
    return None


def segment(i: int, j: int) -> SegmentId:
    """Canonical (sorted) segment id for a pair of distinct point indices."""
    if i == j:
        raise ValueError("segment endpoints must be distinct")
    return (i, j) if i < j else (j, i)


def all_segments(n: int) -> list[SegmentId]:
    """All C(n,2) segment ids in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class HullData:
    """Convex hull of a point set: indices in clockwise cyclic order.

    The cycle starts at the smallest hull index so the representation is
    unique.  ``interior`` lists the non-hull indices in ascending order.
    """

    hull: tuple[int, ...]
    interior: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.hull)


def _hull_indices_clockwise(pts: Sequence[Point]) -> list[int]:
    # Monotone chain; general position means no collinear hull decisions.
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    if len(order) < 3:
        raise ValueError("hull needs at least 3 points")

    def build(seq):
        chain: list[int] = []
        for i in seq:
            while len(chain) > 1 and cross(pts[chain[-2]], pts[chain[-1]], pts[i]) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    ccw = lower[:-1] + upper[:-1]
    cw = [ccw[0]] + list(reversed(ccw[1:]))
    start = cw.index(min(cw))
    return cw[start:] + cw[:start]


def convex_hull(ps: PointSet) -> HullData:
    """Hull indices clockwise (starting at the lowest index on the hull).

    The hull is computed on the first call for a PointSet and stored on it;
    every later call, for any caller, returns the stored value."""
    return ps._hull


# ---------------------------------------------------------------------------
# Generators


def gen_convex(n: int) -> PointSet:
    """n integer points in strictly convex (hence general) position.

    Points are taken on the parabola y = x^2, which contains no three
    collinear points; both properties are re-verified and a failure is a
    construction bug, not an input error.
    """
    if n < 3:
        raise ValueError("gen_convex needs n >= 3")
    ps = PointSet.from_coords([(k, k * k) for k in range(n)])
    if convex_hull(ps).m != n:
        raise GenerationError("convex generator produced a non-convex set")
    return ps


def gen_double_chain(p: int, q: int) -> PointSet:
    """Two convex chains, each strictly on one side of every line spanned by
    the other chain.

    Indices 0..p-1 are the upper chain left to right, p..p+q-1 the lower
    chain left to right.  The defining separation property is verified
    exhaustively after generation.
    """
    if p < 1 or q < 1:
        raise ValueError("gen_double_chain needs p, q >= 1")
    xs_a = [2 * k - (p - 1) for k in range(p)]
    xs_b = [2 * k - (q - 1) for k in range(q)]
    span = max(abs(x) for x in xs_a + xs_b)
    margin = span * span + 1
    upper = [(x, x * x + margin) for x in xs_a]
    lower = [(x, -(x * x) - margin) for x in xs_b]
    ps = PointSet.from_coords(upper + lower)
    _check_double_chain(ps, p, q)
    return ps


def _check_double_chain(ps: PointSet, p: int, q: int) -> None:
    upper = list(range(p))
    lower = list(range(p, p + q))
    for chain, other, want in ((upper, lower, 1), (lower, upper, -1)):
        for a in chain:
            for i, b1 in enumerate(other):
                for b2 in other[i + 1 :]:
                    side = _sign(cross(ps[b1], ps[b2], ps[a]))
                    # b1 is left of b2, so "above the line b1->b2" is ccw.
                    if side != want:
                        raise GenerationError(
                            f"double-chain separation fails for point {a} "
                            f"against line {b1}-{b2}"
                        )
    for chain in (upper, lower):
        if len(chain) >= 3:
            for i in range(len(chain) - 2):
                a, b, c = chain[i : i + 3]
                if cross(ps[a], ps[b], ps[c]) == 0:
                    raise GenerationError("chain not strictly convex")


def cacerola_points() -> PointSet:
    """The fixed seven-point configuration used by the golden suite."""
    return PointSet.from_coords(
        [
            (121, 204),
            (175, 196),
            (216, 82),
            (189, 51),
            (44, 96),
            (36, 140),
            (127, 135),
        ]
    )


def gen_random_general_position(
    n: int, seed: int, bound: int, max_tries: int = 20000
) -> PointSet:
    """Rejection-sample n distinct integer points in [0, bound]^2 with no
    collinear triple.  Deterministic for a given (n, seed, bound)."""
    if n < 3:
        raise ValueError("need n >= 3")
    if bound < n:
        raise ValueError("bound must be at least n")
    if bound > MAX_COORD:
        raise ValueError(f"bound {bound} exceeds the coordinate bound 2^30")
    rng = random.Random(seed)
    pts: list[Point] = []
    # seen[i]: the directions from pts[i] to the points placed after it; a
    # candidate is collinear with pts[i] and a later point exactly when its
    # direction from pts[i] is among them
    seen: list[set[tuple[int, int]]] = []
    tries = 0
    while len(pts) < n:
        tries += 1
        if tries > max_tries:
            raise GenerationError(
                f"could not place {n} points in general position after {max_tries} tries"
            )
        cand = Point(rng.randint(0, bound), rng.randint(0, bound))
        if cand in pts:
            continue
        dirs = [_direction(cand.x - x, cand.y - y) for x, y in pts]
        if any(map(set.__contains__, seen, dirs)):
            continue
        for directions, d in zip(seen, dirs):
            directions.add(d)
        seen.append(set())
        pts.append(cand)
    return PointSet(tuple(pts))


# ---------------------------------------------------------------------------
# Point-set files: JSON {"points": [[x, y], ...]} and CSV "x,y" per line.
# Both round-trip bit-exactly.


def load_pointset(path: str | Path) -> PointSet:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                for row in reader:
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    if len(row) != 2:
                        raise ValueError("expected 'x,y'")
                    rows.append((int(row[0]), int(row[1])))
            except (csv.Error, ValueError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
        return PointSet.from_coords(rows)
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise ValueError(f"{path}: expected an object with a 'points' array")
    return PointSet.from_coords(data["points"])


def save_pointset(ps: PointSet, path: str | Path) -> None:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for pt in ps.points:
                writer.writerow([pt.x, pt.y])
        return
    with open(path, "w") as fh:
        json.dump({"points": ps.coords()}, fh)
        fh.write("\n")
