"""Exact mutual-visibility numbers by exhaustive subset refutation.

Every subset of a mutual-visibility set is one (downward closure), so one
exhaustive refutation of level k, the sets U of k vertices, shows mu < k.
Each candidate U first meets a quick reject: a pair of U at distance 2 none
of whose common neighbours lies in S = V \\ U cannot be visible, so S must
hit T_p = {a, b} | (N(a) & N(b)) for every such pair p = (a, b).  That is a
d-Hitting Set condition, and one engine decides every level with the
bounded search tree for d-Hitting Set (Niedermeier & Rossmanith, J.
Discrete Algorithms 2003): it branches on the vertices of one T_p that S
does not hit yet, the i-th branch taking the i-th vertex into S and keeping
the earlier ones out.  The branches partition the candidates, so a closed
branch settles a known ``math.comb`` of them, and a refuted level settles
exactly C(|V|, k), whatever the order.  Every candidate that passes the
quick reject goes to the single exact check,
``visibility.first_failing_pair``.  On a connected graph in which every
source has eccentricity at most 2 (diameter 2, as almost every D(P) has),
the quick reject is already exact: every non-adjacent pair of U is then at
distance 2, and the exact check's cover test fails it exactly when S
misses N(a) & N(b), that is, misses T_p.  The exact check then confirms
each candidate without rejecting any.

Order matters only for the one set a search reports: the lexicographically
first passing set of a level, on the smaller of its two families (the sets
U or their complements S).  Existence queries find it one position at a
time, so it is the set a one-by-one scan in that order would pass first.
``mu_exact`` requires a starting witness, the certificate's, and ascends
from it by existence queries until it refutes the level above mu;
``min_blocker_set``, the exact search beneath the certificate case table,
ascends over blocker sizes 1..9.  Each orders only the set it reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Optional

from .geometry import PointSet
from .graph import DisjointnessGraph, bit_columns, build_disjointness_graph, is_connected
from .visibility import VertexSet, first_failing_pair, require_sized_for

REFUTED = "refuted"
FOUND = "found"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class MuResult:
    """Outcome of an exact (or budget-bracketed) mutual-visibility search.

    ``mu`` is None exactly when the search-node budget ran out before the
    decisive level was refuted; the bracket [mu_lower, mu_upper] is then
    still valid, and depends on the input and the budget alone.  (A budget
    spent while ordering the witness leaves ``mu`` exact and the witness the
    passing set the search met first.)  ``sets_examined`` is the number of
    candidates the refutation of ``refuted_size`` settles: every size-k set
    of that level, whether the quick reject dismissed it within a closed
    branch or the exact check tested it alone.  On a spent budget it counts
    the candidates of the level then searched that closed branches settled
    before the budget ran out: a part of that level's C(|V|, k), 0 only if
    none of its nodes closed.
    """

    mu: Optional[int]
    mu_lower: int
    mu_upper: int
    witness: VertexSet
    refuted_size: Optional[int]
    sets_examined: int
    elapsed_s: float

    @property
    def refutation_exhaustive(self) -> bool:
        return self.refuted_size is not None


def default_upper_bound(g: DisjointnessGraph) -> int:
    """Sound a-priori upper bound for mu: C(n,2)-4 once n >= 9 (no three
    removed segments can block every intersecting pair), else one less than
    the vertex count (the full vertex set never verifies)."""
    nv = g.n_vertices
    return comb(g.n_points, 2) - 4 if g.n_points >= 9 else nv - 1


# ---------------------------------------------------------------------------
# The branching engine


class _Probes:
    """The quick reject as a hitting-set instance.

    A pair p = (a, b) at distance 2 is visible only through a, b or a common
    neighbour lying in S = V \\ U, so U fails whenever S misses
    T_p = {a, b} | (N(a) & N(b)).  ``T`` lists the T_p masks, smallest
    first, so that a search looks at the hardest pairs first; ``miss[v]``
    is the bitmask of the pairs whose T_p does not hold v.
    """

    def __init__(self, g: DisjointnessGraph):
        self.g = g
        nv = g.n_vertices
        adj = g.adj
        ts = []
        for a, layers in enumerate(g.distance_layers):
            if len(layers) < 3:
                continue
            adj_a = adj[a]
            # the partners b > a at distance 2 from a
            rest = layers[2] & -(2 << a)
            while rest:
                low = rest & -rest
                ts.append(adj_a & adj[low.bit_length() - 1] | (1 << a) | low)
                rest ^= low
        ts.sort(key=int.bit_count)  # stable: pairs of one size stay in (a, b) order
        self.T = ts
        every = (1 << len(ts)) - 1
        self.miss = [every ^ hit for hit in bit_columns(ts, nv)]


#: Unhit pairs a search node looks at to choose its branching T_p.  Up to
#: n = 18, 64 pairs gave about the node counts of 8 in four times the time.
_SCAN = 8


class _Engine:
    """Existence and lexicographic-first searches on one graph.

    Every search run through one engine draws on one budget of
    ``node_budget`` search nodes (None: no limit); ``nodes`` counts the
    nodes spent so far.  The budget counts nodes, never the clock.
    """

    def __init__(self, probes: _Probes, node_budget: Optional[int] = None):
        self.probes = probes
        self.limit = node_budget
        self.nodes = 0

    def exists(self, s_in: int, allowed: int, r: int) -> tuple[str, Optional[int], int]:
        """Is U = V \\ S a mutual-visibility set for some S made of
        ``s_in`` and r vertices of ``allowed``?

        Returns (status, S mask or None, settled): FOUND with the first such
        S the search meets, REFUTED, or EXHAUSTED once the budget is spent.
        ``settled`` counts the choices of the r vertices that closed
        branches decided; it is C(|allowed|, r) when refuted.
        """
        g = self.probes.g
        T, miss = self.probes.T, self.probes.miss
        full = g.full_mask
        unhit = (1 << len(T)) - 1
        rest = s_in
        while rest:
            low = rest & -rest
            unhit &= miss[low.bit_length() - 1]
            rest ^= low
        nodes, limit = self.nodes, self.limit
        scan = range(_SCAN)
        settled = 0
        # A node still adds r vertices of ``allowed`` to S, and ``unhit``
        # holds the pairs whose T_p S misses so far.  Its i-th child takes
        # the i-th vertex of the branching set into S and keeps the earlier
        # ones out, so the children, plus the candidates that miss the
        # branched T_p, partition the node's C(|allowed|, r) candidates.
        # Children go straight onto the stack, highest first, so the lowest
        # is popped next.  An r = 2 node's children, most of all nodes, run
        # in place instead: ``twigs`` holds their branch vertices, taken
        # lowest first as pops would take them, with no tuple stacked.
        stack = [(s_in, allowed, r, unhit)] if r >= 0 else []
        twigs = 0
        while twigs or stack:
            if nodes == limit:
                self.nodes = nodes
                return EXHAUSTED, None, settled
            nodes += 1
            if twigs:  # the next child of the last r = 2 node
                low = twigs & -twigs
                twigs ^= low
                s, allowed, unhit = s2 | low, cut | twigs, unhit2 & miss[low.bit_length() - 1]
            else:
                s, allowed, r, unhit = stack.pop()
            rest = unhit
            if r == 1:
                # The last vertex must lie in every unhit T_p: intersect
                # the first few, then check the rest for each candidate.
                last = allowed
                for _ in scan:
                    if not (rest and last):
                        break
                    low = rest & -rest
                    last &= T[low.bit_length() - 1]
                    rest ^= low
                while last:
                    low = last & -last
                    if not unhit & miss[low.bit_length() - 1]:
                        if first_failing_pair(g, full & ~(s | low)) is None:
                            self.nodes = nodes
                            return FOUND, s | low, settled
                    last ^= low
                settled += allowed.bit_count()
                continue
            if not r:  # only a root: S is complete
                if not unhit and first_failing_pair(g, full & ~s) is None:
                    self.nodes = nodes
                    return FOUND, s, settled
                settled += 1
                continue
            m = allowed.bit_count()
            if m < r:  # only a root: no candidate at all
                continue
            branch, width = allowed, m
            if unhit:
                # Branch on the unhit T_p with the fewest allowed vertices
                # among the first few.  Those whose allowed vertices are
                # disjoint need a new vertex each: more than r is dead.
                width = g.n_vertices + 1
                used = packed = 0
                for _ in scan:
                    low = rest & -rest
                    t = T[low.bit_length() - 1] & allowed
                    if not t & used:
                        used |= t
                        packed += 1
                    w = t.bit_count()
                    if w < width:
                        branch, width = t, w
                    rest ^= low
                    if not (rest and w):
                        break
                if not width or packed > r:
                    settled += comb(m, r)
                    continue
            settled += comb(m - width, r)
            while width > m - r + 1:  # only the lowest m - r + 1 leave a child enough
                branch ^= 1 << branch.bit_length() - 1
                width -= 1
            if r == 2:  # its children run next, in place, as r = 1 nodes
                twigs, cut, s2, unhit2, r = branch, allowed ^ branch, s, unhit, 1
                continue
            allowed ^= branch
            while branch:
                x = branch.bit_length() - 1
                branch ^= 1 << x
                stack.append((s | 1 << x, allowed, r - 1, unhit & miss[x]))
                allowed |= 1 << x
        self.nodes = nodes
        return REFUTED, None, settled

    def first(self, side: str, size: int, s_known: int) -> Optional[int]:
        """The lexicographically first passing set of a level, given the S
        mask of one passing set of it; returns its S mask, or None once the
        budget is spent.

        ``side`` names the enumerated side (S itself, or U = V \\ S) and
        ``size`` its size.  Position by position, the least x such that
        some passing set extends prefix + x is taken; the known set bounds
        x, and each success gives a new known set.
        """
        full = self.probes.g.full_mask
        nv = self.probes.g.n_vertices
        direct = side == "direct"
        known = full & ~s_known if direct else s_known
        prefix = 0
        for j in range(size):
            ahead = known & ~prefix
            y = (ahead & -ahead).bit_length() - 1
            for x in range(prefix.bit_length(), y):
                if direct:  # the vertices U skips before x join S
                    s_in = ((1 << x) - 1) & ~prefix
                    r = (nv - x - 1) - (size - j - 1)
                else:
                    s_in = prefix | 1 << x
                    r = size - j - 1
                status, s_mask, _ = self.exists(s_in, full & -(2 << x), r)
                if status == EXHAUSTED:
                    return None
                if status == FOUND:
                    known = full & ~s_mask if direct else s_mask
                    y = x
                    break
            prefix |= 1 << y
        return full & ~prefix if direct else prefix


def _level_plan(nv: int, k: int) -> tuple[str, int]:
    """The enumerated side of level k, the smaller family, and its size:
    S itself ("complement") or U ("direct")."""
    s = nv - k
    if s < 0 or k < 0:
        raise ValueError("level outside 0..|V|")
    return ("complement", s) if s <= k else ("direct", k)


# ---------------------------------------------------------------------------
# Public operations


def refute_size(g: DisjointnessGraph, k: int) -> bool:
    """True iff no mutual-visibility set of size k exists (exhaustive)."""
    if not 0 < k <= g.n_vertices:
        raise ValueError("k must be within 1..|V|")
    status, _, _ = _Engine(_Probes(g)).exists(0, g.full_mask, g.n_vertices - k)
    return status == REFUTED


def refutation_count(g: DisjointnessGraph, k: int) -> int:
    """Number of candidate sets a full level-k refutation settles: C(|V|, k),
    the same whichever side is enumerated."""
    side, size = _level_plan(g.n_vertices, k)
    return comb(g.n_vertices, size)


#: Search nodes ``min_blocker_set`` may spend over all its levels: about
#: 30 times the most any known fallback instance needs (1,729,
#: random:9:9827), and more than twice what the whole search takes on any
#: measured instance up to n = 18 (20,198, random:18:3).
BLOCKER_SEARCH_NODES = 50_000

#: Search nodes ``check_bounds_report``, and so ``segvis bounds``, allows
#: the exact search by default: about twice the most any measured instance
#: up to n = 32 needs (250,537, convex:32; random:18:3 needs 21,088).
BOUNDS_SEARCH_NODES = 500_000


def min_blocker_set(g: DisjointnessGraph, max_size: int = 9) -> tuple[str, Optional[int]]:
    """The lexicographically first blocker set of minimum size.

    S is a blocker set when V \\ S is a mutual-visibility set, and every
    superset of a blocker set is one, so the ascent over sizes 1, 2, ...
    meets the smallest size first.  Returns (FOUND, mask of S), the S the
    search met first if the budget runs out while ordering it; (REFUTED,
    None) when no blocker set has at most ``max_size`` vertices; or
    (EXHAUSTED, None) when ``BLOCKER_SEARCH_NODES`` search nodes did not
    settle it.  The bound counts nodes, so the outcome never depends on the
    clock.
    """
    engine = _Engine(_Probes(g), BLOCKER_SEARCH_NODES)
    for size in range(1, max_size + 1):
        status, s_mask, _ = engine.exists(0, g.full_mask, size)
        if status == FOUND:
            first = engine.first("complement", size, s_mask)
            return FOUND, s_mask if first is None else first
        if status == EXHAUSTED:
            return EXHAUSTED, None
    return REFUTED, None


def mu_exact(
    g: DisjointnessGraph,
    *,
    witness_hint: VertexSet,
    threads: int = 1,
    node_budget: Optional[int] = None,
) -> MuResult:
    """Exact mu of a connected disjointness graph, from a starting witness.

    ``witness_hint`` is required: a mutual-visibility set, verified before
    use (the certificate's complement of its blockers).  The search
    ascends: existence searches find a passing set one level above another
    until a level is refuted; downward closure makes that single exhaustive
    refutation cover every larger size.  The lexicographically first set of
    the last found level is the witness (the set the search met first, if
    the budget runs out while ordering it), or the hint itself if no level
    above it was found.  ``node_budget`` caps the search nodes of all the
    levels together, as ``BLOCKER_SEARCH_NODES`` does for
    ``min_blocker_set``; once they are spent the bracket found so far is
    returned with ``mu`` = None.

    The search is serial.  ``threads`` is kept only so that existing
    callers passing ``threads=1`` keep working; any other value raises
    ValueError.
    """
    if threads != 1:
        raise ValueError("mu_exact is serial; threads must be 1")
    if not is_connected(g):
        raise ValueError("mu_exact needs a connected graph (n >= 5)")
    start = time.monotonic()
    require_sized_for(g, witness_hint)
    failing = first_failing_pair(g, witness_hint.mask)
    if failing is not None:
        raise ValueError(f"witness hint is not a mutual-visibility set: {failing}")
    nv = g.n_vertices
    full = g.full_mask

    def result(mu, lower, upper, refuted, examined):
        return MuResult(
            mu=mu,
            mu_lower=lower,
            mu_upper=upper,
            witness=VertexSet(nv, witness),
            refuted_size=refuted,
            sets_examined=examined,
            elapsed_s=time.monotonic() - start,
        )

    engine = _Engine(_Probes(g), node_budget)
    witness = witness_hint.mask
    for s in range(nv - len(witness_hint) - 1, -1, -1):
        status, s_mask, settled = engine.exists(0, full, s)
        if status == EXHAUSTED:
            # level nv - s was not refuted, so only the a-priori bound holds
            return result(None, nv - s - 1, default_upper_bound(g), None, settled)
        if status == REFUTED:
            mu = nv - s - 1
            if mu > len(witness_hint):
                first = engine.first(*_level_plan(nv, mu), full & ~witness)
                if first is not None:
                    witness = full & ~first
            return result(mu, mu, mu, mu + 1, settled)
        witness = full & ~s_mask
    raise RuntimeError("the full vertex set verified; graph corrupt")


def check_bounds_report(
    ps: PointSet,
    *,
    extra_blockers=None,
    node_budget: Optional[int] = BOUNDS_SEARCH_NODES,
) -> dict:
    """Certificate lower bound vs exact value vs a-priori upper bound.

    The exact computation ascends from the certificate witness under a
    budget of ``node_budget`` search nodes; if the decisive refutation level
    does not fit the budget the report carries the bracket instead of an
    exact value.  ``extra_blockers`` lets a caller supply a stronger known
    blocker set (it is verified before use).  Any bound violation is
    flagged as a critical defect.
    """
    from .constructions import build_certificate, certificate_from_blockers

    if ps.n < 5:
        raise ValueError("bounds report needs n >= 5")
    g = build_disjointness_graph(ps)
    cert = build_certificate(ps, g)
    if extra_blockers is not None:
        alt = certificate_from_blockers(ps, extra_blockers, graph=g)
        if alt.mu_lower_bound > cert.mu_lower_bound:
            cert = alt
    lower = cert.mu_lower_bound
    upper = default_upper_bound(g)
    report = {
        "n": ps.n,
        "vertices": g.n_vertices,
        "certificate_strategy": cert.strategy,
        "certificate_case": cert.case,
        "certificate_size": cert.size,
        "mu_lower": lower,
        "mu_upper": upper,
        "mu": None,
        "refuted": None,
        "sets_examined": None,
        "consistent": True,
        "defects": [],
    }
    witness = _witness_from_blockers(g, cert.blockers)
    res = mu_exact(g, witness_hint=witness, node_budget=node_budget)
    report["refuted"] = res.refuted_size
    report["sets_examined"] = res.sets_examined
    if res.mu is not None:
        report["mu"] = res.mu
        if res.mu < lower:
            report["defects"].append("exact value below certificate bound")
        if res.mu > upper:
            report["defects"].append("exact value above theoretical upper bound")
    else:
        report["mu_lower"] = max(lower, res.mu_lower)
        report["mu_upper"] = min(upper, res.mu_upper)
    if report["mu_lower"] > report["mu_upper"]:
        report["defects"].append("lower bound exceeds upper bound")
    report["consistent"] = not report["defects"]
    return report


def _witness_from_blockers(g: DisjointnessGraph, blockers) -> VertexSet:
    return VertexSet(g.n_vertices, g.full_mask & ~g.mask_of(blockers))


def mu_report_json(res: MuResult, g: DisjointnessGraph) -> dict:
    return {
        "n": g.n_points,
        "vertices": g.n_vertices,
        "mu": res.mu,
        "mu_lower": res.mu_lower,
        "mu_upper": res.mu_upper,
        "witness": sorted(res.witness.indices()),
        "refuted": res.refuted_size,
        "sets_examined": res.sets_examined,
        "elapsed_ms": int(res.elapsed_s * 1000),
    }
