"""Exact mutual-visibility numbers by exhaustive subset refutation.

The search exploits downward closure: every subset of a mutual-visibility
set is one, so candidate sizes can be bracketed by refuting a single level
exhaustively.  A level k is scanned through whichever of the k-subsets or
their complements is the smaller family, in lexicographic order.  Each
candidate U first meets a quick reject: a pair of U at distance 2 none of
whose common neighbours lies outside U cannot be visible.  The scan walks
the level depth first and counts whole subtrees of quick-rejected
candidates with ``math.comb`` instead of visiting them; the candidates
that survive go, in order, to the single exact check,
``visibility.first_failing_pair``.  A level's count is therefore the
number of candidates it covers, whether rejected in bulk or one by one,
and equals that of a one-by-one scan.

Run over the complements of levels |V| - 1, |V| - 2, ..., the same walk is
``min_blocker_set``, the exact search beneath the certificate case table.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from .geometry import PointSet
from .graph import DisjointnessGraph, bit_columns, build_disjointness_graph, is_connected, iter_bits
from .visibility import VertexSet, first_failing_pair

REFUTED = "refuted"
FOUND = "found"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class MuResult:
    """Outcome of an exact (or budget-bracketed) mutual-visibility search.

    ``mu`` is None exactly when the walk-node budget ran out first; the
    bracket [mu_lower, mu_upper] is then still valid, and depends on the
    input and the budget alone.  ``sets_examined`` is the number of
    candidates the refutation of ``refuted_size`` covers: every size-k set
    of that level, whether the quick reject dismissed it within a subtree
    counted in bulk or the exact check tested it alone.
    """

    mu: Optional[int]
    mu_lower: int
    mu_upper: int
    witness: Optional[VertexSet]
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
# Per-graph probe tables


class _Expired(Exception):
    def __init__(self, covered: int):
        self.covered = covered


def _stop_check(nodes: Optional[Iterator[int]]):
    """The check a walk runs at every node: it raises ``_Expired(covered)``
    once the iterator ``nodes``, one item per walk node still allowed, runs
    dry.  Without ``nodes`` it does nothing."""
    if nodes is None:
        return lambda covered: None

    def check(covered: int) -> None:
        if next(nodes, None) is None:
            raise _Expired(covered)

    return check


class _Probes:
    """Distance-2 quick reject in front of the exact blocker-set check.

    A pair p = (a, b) at distance 2 is visible only through a, b or a common
    neighbour lying in S = V \\ U, so U fails whenever S misses
    T_p = {a, b} | (N(a) & N(b)).  ``T`` lists the T_p masks in the order of
    their top (highest) vertex; ``hit_by[v]`` is the bitmask of pairs whose
    T_p holds v, and ``first[v]`` the number of pairs whose top lies below
    v: the vertices >= v can hit exactly the pairs numbered first[v] on.
    """

    def __init__(self, g: DisjointnessGraph):
        self.g = g
        nv = g.n_vertices
        ts = []
        for a in range(nv):
            adj_a = g.adj[a]
            # distance 2: b > a is no neighbour of a but shares one with it
            for b in iter_bits(g.full_mask & ~adj_a & -(2 << a)):
                n2 = adj_a & g.adj[b]
                if n2:
                    ts.append(n2 | (1 << a) | (1 << b))
        ts.sort(key=int.bit_length)
        self.T = ts
        self.hit_by = bit_columns(ts, nv)
        self.first = [bisect_right(ts, v, key=int.bit_length) for v in range(nv + 1)]


# ---------------------------------------------------------------------------
# Level scans

# A level-k scan enumerates candidate sets U of size k through the smaller
# of (k-subsets, complements); the canonical order is the lexicographic
# order of the enumerated side.  The walk skips a subtree as soon as some
# pair's T_p can no longer meet S, which the quick reject would have done
# to every candidate in it, so the first passing set and its 1-based index
# are those of a one-by-one scan.


def _level_plan(nv: int, k: int, side: Optional[str] = None) -> tuple[str, int]:
    s = nv - k
    if s < 0 or k < 0:
        raise ValueError("level outside 0..|V|")
    if side is None:
        side = "complement" if s <= k else "direct"
    return side, (s if side == "complement" else k)


def _walk(root) -> Optional[tuple[int, int]]:
    """Depth-first walk whose nodes are generators: a node yields its
    children, as generators, or a found (mask, index) pair.  The explicit
    stack keeps levels of any size clear of the recursion limit."""
    stack = [root]
    while stack:
        item = next(stack[-1], None)
        if item is None:
            stack.pop()
        elif type(item) is tuple:
            return item
        else:
            stack.append(item)
    return None


def _scan_level(
    probes: _Probes,
    k: int,
    *,
    nodes: Optional[Iterator[int]] = None,
    side: Optional[str] = None,
) -> tuple[str, Optional[int], int]:
    """Scan every size-k set; returns (status, passing U mask or None, count).

    ``count`` is the number of candidates the scan covered, in the order of
    the enumerated side: every size-k set when refuted, up to and including
    the passing set when found.  Each walk node takes one item of
    ``nodes`` when that is given; once it runs dry the scan returns
    EXHAUSTED with the count covered so far.  ``side`` fixes the enumerated
    side; by default it is the smaller family.
    """
    g = probes.g
    nv = g.n_vertices
    full = g.full_mask
    T, hit_by, first = probes.T, probes.hit_by, probes.first
    side, size = _level_plan(nv, k, side)
    check = _stop_check(nodes)

    def passes(u_mask: int) -> bool:
        return first_failing_pair(g, u_mask) is None

    # A walk node chooses r more elements of the enumerated side from
    # start..nv-1.  ``before`` candidates precede its subtree, and
    # before + comb(nv - start, r) - comb(nv - x, r) precede its child x.
    # ``unhit`` holds the pairs whose T_p no vertex of S meets yet.

    def complement_last(start, s_mask, unhit, before):
        # S is the enumerated set, all but its last element chosen.  That
        # element must lie in every unhit T_p: try the vertices of the
        # lowest one.  A plain call, as leaves are most of the walk.
        check(before)
        lowest = T[(unhit & -unhit).bit_length() - 1] if unhit else full
        last = lowest >> start
        while last:
            low = last & -last
            last ^= low
            x = start + low.bit_length() - 1
            if not unhit & ~hit_by[x] and passes(full & ~(s_mask | 1 << x)):
                return full & ~(s_mask | 1 << x), before + x - start + 1
        return None

    def complement(start, r, s_mask, unhit, before):
        # S is the enumerated set; r >= 2.
        check(before)
        base = before + comb(nv - start, r)
        # No element above the lowest unhit pair's top vertex can hit it.
        # Up to that top, every pair x leaves unhit has its top above x (x
        # hits the pairs whose top it is), so no child is dead on arrival.
        lowest = T[(unhit & -unhit).bit_length() - 1] if unhit else full
        stop = min(nv - r, lowest.bit_length() - 1)
        for x in range(start, stop + 1):
            rest = unhit & ~hit_by[x]
            child_before = base - comb(nv - x, r)
            if r > 2:
                yield complement(x + 1, r - 1, s_mask | 1 << x, rest, child_before)
            else:
                found = complement_last(x + 1, s_mask | 1 << x, rest, child_before)
                if found:
                    yield found

    def direct(start, r, u_mask, unhit, before):
        # U is the enumerated set; the vertices it skips, and those left
        # after its last element, form S.
        check(before)
        base = before + comb(nv - start, r)
        for x in range(start, nv - r + 1):
            # [start, x) joined S and x joins U; S can still gain from
            # (x, nv) unless the remaining r - 1 elements take all of it.
            # So every unhit pair must be numbered first[x + 1] or later,
            # and none may be left once (x, nv) is taken (first[nv] pairs).
            reach = first[x + 1] if x < nv - r else first[nv]
            if not unhit or (unhit & -unhit).bit_length() > reach:
                if r == 1:
                    if passes(u_mask | 1 << x):
                        yield u_mask | 1 << x, before + x - start + 1
                else:
                    yield direct(
                        x + 1, r - 1, u_mask | 1 << x, unhit, base - comb(nv - x, r)
                    )
            unhit &= ~hit_by[x]

    if size == 0:
        u_mask = full if side == "complement" else 0
        return (FOUND, u_mask, 1) if passes(u_mask) else (REFUTED, None, 1)
    unhit = (1 << len(T)) - 1
    try:
        if side == "direct":
            found = _walk(direct(0, size, 0, unhit, 0))
        elif size == 1:
            found = complement_last(0, 0, unhit, 0)
        else:
            found = _walk(complement(0, size, 0, unhit, 0))
    except _Expired as expired:
        return EXHAUSTED, None, expired.covered
    if found:
        return (FOUND, *found)
    return REFUTED, None, comb(nv, size)


# ---------------------------------------------------------------------------
# Public operations


def refute_size(g: DisjointnessGraph, k: int) -> bool:
    """True iff no mutual-visibility set of size k exists (exhaustive)."""
    if not 0 < k <= g.n_vertices:
        raise ValueError("k must be within 1..|V|")
    status, _, _ = _scan_level(_Probes(g), k)
    return status == REFUTED


def refutation_count(g: DisjointnessGraph, k: int) -> int:
    """Number of candidate sets a full level-k scan covers: C(|V|, size)
    for the enumerated side, counted in bulk or one by one alike."""
    side, size = _level_plan(g.n_vertices, k)
    return comb(g.n_vertices, size)


#: Walk nodes ``min_blocker_set`` may visit over all its levels: about 15
#: times the most any known fallback instance needs (130,432, random:9:9827).
BLOCKER_SEARCH_NODES = 2_000_000

#: Walk nodes ``check_bounds_report``, and so ``segvis bounds``, allows the
#: exact search by default: about twice the most any measured instance up
#: to n = 18 needs (973,817, random:18:3; convex:18 needs 448,153).
BOUNDS_SEARCH_NODES = 2_000_000


def min_blocker_set(g: DisjointnessGraph, max_size: int = 9) -> tuple[str, Optional[int]]:
    """The lexicographically first blocker set of minimum size.

    S is a blocker set when V \\ S is a mutual-visibility set, and every
    superset of a blocker set is one, so the complement-side scans of the
    levels |V| - 1, |V| - 2, ... meet the smallest size first.  Returns
    (FOUND, mask of S), (REFUTED, None) when no blocker set has at most
    ``max_size`` vertices, or (EXHAUSTED, None) when ``BLOCKER_SEARCH_NODES``
    walk nodes did not settle it.  The bound counts nodes, so the outcome
    never depends on the clock.
    """
    probes = _Probes(g)
    nodes = iter(range(BLOCKER_SEARCH_NODES))
    for s in range(1, max_size + 1):
        status, u_mask, _ = _scan_level(
            probes, g.n_vertices - s, nodes=nodes, side="complement"
        )
        if status == FOUND:
            return FOUND, g.full_mask & ~u_mask
        if status == EXHAUSTED:
            return EXHAUSTED, None
    return REFUTED, None


def mu_exact(
    g: DisjointnessGraph,
    *,
    witness_hint: Optional[VertexSet] = None,
    threads: int = 1,
    node_budget: Optional[int] = None,
) -> MuResult:
    """Exact mu of a connected disjointness graph.

    With a verified starting witness the search ascends: it confirms the
    witness, then refutes one level above it; downward closure makes that
    single exhaustive refutation cover every larger size.  Without a
    witness it descends from a sound upper bound, refuting level by level.
    ``node_budget`` caps the walk nodes of all the levels scanned together,
    as ``BLOCKER_SEARCH_NODES`` does for ``min_blocker_set``; once they are
    spent the bracket found so far is returned with ``mu`` = None.

    The search is serial.  ``threads`` is kept only so that existing
    callers passing ``threads=1`` keep working; any other value raises
    ValueError.
    """
    if threads != 1:
        raise ValueError("mu_exact is serial; threads must be 1")
    if not is_connected(g):
        raise ValueError("mu_exact needs a connected graph (n >= 5)")
    start = time.monotonic()
    nodes = iter(range(node_budget)) if node_budget is not None else None
    upper = default_upper_bound(g)
    nv = g.n_vertices

    def result(mu, lower, up, witness, refuted, examined):
        return MuResult(
            mu=mu,
            mu_lower=lower,
            mu_upper=up,
            witness=witness,
            refuted_size=refuted,
            sets_examined=examined,
            elapsed_s=time.monotonic() - start,
        )

    if witness_hint is not None:
        failing = first_failing_pair(g, witness_hint.mask)
        if failing is not None:
            raise ValueError(f"witness hint is not a mutual-visibility set: {failing}")
    probes = _Probes(g)

    if witness_hint is not None:
        witness = witness_hint
        k = len(witness) + 1
        while k <= nv:
            status, wit_mask, examined = _scan_level(probes, k, nodes=nodes)
            if status == EXHAUSTED:
                # level k was not refuted, so only the a-priori bound holds
                return result(None, len(witness), upper, witness, None, examined)
            if status == REFUTED:
                size = len(witness)
                return result(size, size, size, witness, k, examined)
            witness = VertexSet(nv, wit_mask)
            k += 1
        raise RuntimeError("the full vertex set verified; graph corrupt")

    prev_examined = 0
    k = upper
    while k >= 1:
        status, wit_mask, examined = _scan_level(probes, k, nodes=nodes)
        if status == EXHAUSTED:
            return result(None, 1, k, None, None, examined)
        if status == FOUND:
            witness = VertexSet(nv, wit_mask)
            refuted = k + 1 if k < upper else None
            return result(k, k, k, witness, refuted, prev_examined)
        prev_examined = examined
        k -= 1
    raise RuntimeError("no mutual-visibility set of any size; graph corrupt")


def check_bounds_report(
    ps: PointSet,
    *,
    extra_blockers=None,
    node_budget: Optional[int] = BOUNDS_SEARCH_NODES,
) -> dict:
    """Certificate lower bound vs exact value vs a-priori upper bound.

    The exact computation ascends from the certificate witness under a
    budget of ``node_budget`` walk nodes; if the decisive refutation level
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
        "witness": sorted(res.witness.indices()) if res.witness is not None else None,
        "refuted": res.refuted_size,
        "sets_examined": res.sets_examined,
        "elapsed_ms": int(res.elapsed_s * 1000),
    }
