"""Exact mutual-visibility numbers by exhaustive subset refutation.

The search exploits downward closure: every subset of a mutual-visibility
set is one, so candidate sizes can be bracketed by refuting a single level
exhaustively.  A level k is scanned through whichever of the k-subsets or
their complements is the smaller family.  Each candidate U first meets a
quick reject: a pair of U at distance 2 none of whose common neighbours
lies outside U cannot be visible, and pairs with few common neighbours are
tried first.  Candidates that survive it go to the single exact check,
``visibility.first_failing_pair``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb
from typing import Optional

from .geometry import PointSet
from .graph import DisjointnessGraph, build_disjointness_graph, is_connected
from .visibility import VertexSet, first_failing_pair

REFUTED = "refuted"
FOUND = "found"
TIMEOUT = "timeout"


@dataclass(frozen=True)
class MuResult:
    """Outcome of an exact (or budget-bracketed) mutual-visibility search.

    ``mu`` is None exactly when the time budget expired first; the bracket
    [mu_lower, mu_upper] is then still valid.  ``sets_examined`` counts the
    candidates scanned during the refutation of ``refuted_size``.
    """

    mu: Optional[int]
    mu_lower: int
    mu_upper: int
    witness: Optional[VertexSet]
    refuted_size: Optional[int]
    refutation_exhaustive: bool
    sets_examined: int
    elapsed_s: float


def default_upper_bound(g: DisjointnessGraph) -> int:
    """Sound a-priori upper bound for mu: C(n,2)-4 once n >= 9 (no three
    removed segments can block every intersecting pair), else one less than
    the vertex count (the full vertex set never verifies)."""
    nv = g.n_vertices
    return comb(g.n_points, 2) - 4 if g.n_points >= 9 else nv - 1


# ---------------------------------------------------------------------------
# Per-graph probe tables


class _Probes:
    """Distance-2 quick reject in front of the exact blocker-set check."""

    def __init__(self, g: DisjointnessGraph):
        self.g = g
        nv = g.n_vertices
        d2 = []
        for a in range(nv):
            for b in range(a + 1, nv):
                n2 = g.adj[a] & g.adj[b]
                if n2 and not g.are_adjacent(a, b):  # distance 2
                    d2.append(((1 << a) | (1 << b), n2, n2.bit_count()))
        # Pairs with few common neighbours fail most candidate sets; front-load them.
        d2.sort(key=lambda t: t[2])
        self.d2 = [(pb, n2) for pb, n2, _ in d2]

    def failing_pair_exists(self, s_mask: int) -> bool:
        """Does the complement of s_mask contain a pair with no witness
        path through s_mask?"""
        for pair_bits, n2 in self.d2:
            if pair_bits & s_mask == 0 and n2 & s_mask == 0:
                return True
        return first_failing_pair(self.g, self.g.full_mask & ~s_mask) is not None


# ---------------------------------------------------------------------------
# Level scans

# A level-k scan enumerates candidate sets U of size k through the smaller
# of (k-subsets, complements); the canonical order is the lexicographic
# order of the enumerated side.


def _level_plan(nv: int, k: int) -> tuple[str, int]:
    s = nv - k
    if s < 0 or k < 0:
        raise ValueError("level outside 0..|V|")
    side = "complement" if s <= k else "direct"
    return side, (s if side == "complement" else k)


def _scan_level(
    probes: _Probes, k: int, deadline: Optional[float]
) -> tuple[str, Optional[int], int]:
    """Scan every size-k set; returns (status, passing U mask or None, count)."""
    g = probes.g
    nv = g.n_vertices
    full = g.full_mask
    side, size = _level_plan(nv, k)
    examined = 0
    for combo in itertools.combinations(range(nv), size):
        if deadline is not None and examined % 4096 == 0 and time.monotonic() > deadline:
            return TIMEOUT, None, examined
        examined += 1
        mask = 0
        for v in combo:
            mask |= 1 << v
        s_mask = mask if side == "complement" else full & ~mask
        if not probes.failing_pair_exists(s_mask):
            return FOUND, full & ~s_mask, examined
    return REFUTED, None, examined


# ---------------------------------------------------------------------------
# Public operations


def refute_size(g: DisjointnessGraph, k: int) -> bool:
    """True iff no mutual-visibility set of size k exists (exhaustive)."""
    if not 0 < k <= g.n_vertices:
        raise ValueError("k must be within 1..|V|")
    status, _, _ = _scan_level(_Probes(g), k, None)
    return status == REFUTED


def refutation_count(g: DisjointnessGraph, k: int) -> int:
    """Number of candidate sets a full level-k scan examines."""
    side, size = _level_plan(g.n_vertices, k)
    return comb(g.n_vertices, size)


def mu_exact(
    g: DisjointnessGraph,
    *,
    witness_hint: Optional[VertexSet] = None,
    threads: int = 1,
    time_budget_s: Optional[float] = None,
) -> MuResult:
    """Exact mu of a connected disjointness graph.

    With a verified starting witness the search ascends: it confirms the
    witness, then refutes one level above it; downward closure makes that
    single exhaustive refutation cover every larger size.  Without a
    witness it descends from a sound upper bound, refuting level by level.
    On timeout the bracket found so far is returned with ``mu`` = None.

    The search is serial.  ``threads`` is kept only so that existing
    callers passing ``threads=1`` keep working; any other value raises
    ValueError.
    """
    if threads != 1:
        raise ValueError("mu_exact is serial; threads must be 1")
    if not is_connected(g):
        raise ValueError("mu_exact needs a connected graph (n >= 5)")
    start = time.monotonic()
    deadline = start + time_budget_s if time_budget_s is not None else None
    probes = _Probes(g)
    upper = default_upper_bound(g)
    nv = g.n_vertices

    def result(mu, lower, up, witness, refuted, exhaustive, examined):
        return MuResult(
            mu=mu,
            mu_lower=lower,
            mu_upper=up,
            witness=witness,
            refuted_size=refuted,
            refutation_exhaustive=exhaustive,
            sets_examined=examined,
            elapsed_s=time.monotonic() - start,
        )

    if witness_hint is not None:
        failing = first_failing_pair(g, witness_hint.mask)
        if failing is not None:
            raise ValueError(f"witness hint is not a mutual-visibility set: {failing}")
        witness = witness_hint
        k = len(witness) + 1
        while k <= nv:
            status, wit_mask, examined = _scan_level(probes, k, deadline)
            if status == TIMEOUT:
                return result(
                    None, len(witness), min(upper, k), witness, None, False, examined
                )
            if status == REFUTED:
                size = len(witness)
                return result(size, size, size, witness, k, True, examined)
            witness = VertexSet(nv, wit_mask)
            k += 1
        raise RuntimeError("the full vertex set verified; graph corrupt")

    prev_examined = 0
    k = upper
    while k >= 1:
        status, wit_mask, examined = _scan_level(probes, k, deadline)
        if status == TIMEOUT:
            return result(None, 1, k, None, None, False, examined)
        if status == FOUND:
            witness = VertexSet(nv, wit_mask)
            refuted = k + 1 if k < upper else None
            return result(
                k, k, k, witness, refuted, refuted is not None, prev_examined
            )
        prev_examined = examined
        k -= 1
    raise RuntimeError("no mutual-visibility set of any size; graph corrupt")


def check_bounds_report(
    ps: PointSet,
    *,
    extra_blockers=None,
    exact_time_budget_s: Optional[float] = 30.0,
) -> dict:
    """Certificate lower bound vs exact value vs a-priori upper bound.

    The exact computation ascends from the certificate witness under a time
    budget; if the decisive refutation level does not fit the budget the
    report carries the bracket instead of an exact value.  ``extra_blockers``
    lets a caller supply a stronger known blocker set (it is verified before
    use).  Any bound violation is flagged as a critical defect.
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
    res = mu_exact(g, witness_hint=witness, time_budget_s=exact_time_budget_s)
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
