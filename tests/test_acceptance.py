"""Acceptance suite: one test per criterion, each printing a PASS line.

Budgets and counts are asserted exactly as stated; expected values marked
as derived were fixed by the independent oracles in oracles.py.
"""

import itertools
import random
import time
from dataclasses import dataclass
from math import comb

import pytest

from segvis.constructions import build_certificate, certificate_from_blockers, double_chain_blocker
from segvis.geometry import (
    cacerola_points,
    convex_hull,
    gen_convex,
    gen_double_chain,
    gen_random_general_position,
    segment,
)
from segvis.golden import run_golden_suite
from segvis.graph import build_disjointness_graph, diameter, diameter_bounds
from segvis.solver import _witness_from_blockers, mu_exact, refutation_count, refute_size
from segvis.visibility import VertexSet, is_mutual_visibility_set, is_mutually_visible

from oracles import oracle_adjacency, oracle_pair_visible

PER_N = 200
NS = range(5, 13)

@dataclass
class Sweep:
    instances: list  # (n, seed, pointset, graph)
    build_time: float


@pytest.fixture(scope="module")
def sweep():
    t0 = time.monotonic()
    instances = []
    for n in NS:
        for k in range(PER_N):
            seed = 1000 * n + k
            ps = gen_random_general_position(n, seed=seed, bound=10000)
            instances.append((n, seed, ps, build_disjointness_graph(ps)))
    return Sweep(instances, time.monotonic() - t0)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_01_cacerola_exact():
    t0 = time.monotonic()
    ps = cacerola_points()
    g = build_disjointness_graph(ps)
    cert = build_certificate(ps, g)
    res = mu_exact(g, witness_hint=_witness_from_blockers(g, cert.blockers), threads=1)
    elapsed = time.monotonic() - t0
    assert res.mu == 12
    assert res.refuted_size == 13 and res.refutation_exhaustive
    assert res.sets_examined == comb(21, 13) == 203490
    assert elapsed <= 60.0
    report(1, f"mu=12, refuted 13 over 203490 subsets in {elapsed:.2f}s")


def test_criterion_02_diameter_sweep(sweep):
    t0 = time.monotonic()
    violations = []
    for n, seed, ps, g in sweep.instances:
        d = diameter(g)
        lo, hi = diameter_bounds(n)
        if not (lo <= d <= hi):
            violations.append((n, seed, d))
    assert diameter(build_disjointness_graph(cacerola_points())) == 3
    elapsed = sweep.build_time + (time.monotonic() - t0)
    assert not violations
    assert elapsed <= 60.0
    report(2, f"{len(sweep.instances)} instances, 0 violations, {elapsed:.2f}s")


def is_known_hull7_template_gap(ps) -> bool:
    """Triage signature of the one known construction defect: a hull of
    seven with a single interior point inside exactly one lens region (all
    ears and cores empty).  There the final hull-7 case's blocker template
    fails its quadrant condition in both mirror orientations, because the
    protected segment to the lens point crosses the line of a long diagonal
    the case's crossing claim does not account for.  No good 2-set exists in
    such instances at all, so the exact fallback is the sanctioned route."""
    from segvis.constructions import _Workspace

    if convex_hull(ps).m != 7:
        return False
    f = _Workspace(ps).base_frame()
    if any(f.ear(k) or f.core(k) for k in range(7)):
        return False
    occupied = [f.lens(k) for k in range(7) if f.lens(k)]
    return len(occupied) == 1 and len(occupied[0]) == 1


def test_criterion_03_constructive_lower_bound(sweep):
    fallbacks = []
    for n, seed, ps, g in sweep.instances:
        cert = build_certificate(ps, g)
        assert cert.verified, (n, seed)
        assert cert.size <= 9, (n, seed)
        assert cert.mu_lower_bound >= comb(n, 2) - 9
        if cert.strategy == "FallbackSearch":
            fallbacks.append((n, seed, ps))
    # Fallback invocations are logged as defects for triage; every one must
    # belong to the single known template gap, so anything new fails here.
    for n, seed, ps in fallbacks:
        print(f"DEFECT (triaged): fallback on n={n} seed={seed}: hull-7 lens gap")
        assert is_known_hull7_template_gap(ps), (n, seed)
    report(
        3,
        f"{len(sweep.instances)} verified certificates, "
        f"{len(fallbacks)} fallback(s), all in the known hull-7 lens class",
    )


def test_criterion_04_convex_ten():
    t0 = time.monotonic()
    ps = gen_convex(10)
    g = build_disjointness_graph(ps)
    cert = build_certificate(ps, g)
    assert cert.size == 5 and cert.mu_lower_bound == comb(10, 2) - 5 == 40
    res = mu_exact(g, witness_hint=_witness_from_blockers(g, cert.blockers))
    elapsed = time.monotonic() - t0
    assert res.mu == 40
    assert res.refuted_size == 41
    assert res.sets_examined == comb(45, 41) == 148995
    assert elapsed <= 600.0
    report(4, f"mu(C10)=40, refuted 41 over 148995 subsets in {elapsed:.2f}s")


def test_criterion_05_double_chain():
    t0 = time.monotonic()
    ps = gen_double_chain(3, 6)
    g = build_disjointness_graph(ps)
    blockers = double_chain_blocker(3, 6)
    cert = certificate_from_blockers(ps, blockers, graph=g)
    assert cert.verified and cert.size == 4
    res = mu_exact(g, witness_hint=_witness_from_blockers(g, blockers))
    elapsed = time.monotonic() - t0
    assert res.mu == 32 == comb(9, 2) - 4
    assert res.refuted_size == 33
    assert res.sets_examined == comb(36, 33) == 7140
    assert elapsed <= 60.0
    report(5, f"mu(C_3,6)=32, refuted 33 over 7140 subsets in {elapsed:.2f}s")


def test_criterion_06_upper_bound_nine_points():
    t0 = time.monotonic()
    target = comb(9, 2) - 3
    for k in range(20):
        ps = gen_random_general_position(9, seed=60000 + k, bound=10000)
        g = build_disjointness_graph(ps)
        assert refutation_count(g, target) == comb(36, 3)
        assert refute_size(g, target), f"seed {60000 + k}"
    elapsed = time.monotonic() - t0
    assert elapsed <= 300.0
    report(6, f"refuted size {target} on 20 nine-point instances in {elapsed:.2f}s")


def test_criterion_07_oracle_equivalence():
    rng = random.Random(2024)
    graphs = [build_disjointness_graph(cacerola_points())]
    for n, seed in ((5, 71), (6, 72), (7, 73), (7, 74)):
        graphs.append(
            build_disjointness_graph(gen_random_general_position(n, seed=seed, bound=5000))
        )
    assert all(g.n_vertices <= 21 for g in graphs)
    subsets = 0
    disagreements = 0
    while subsets < 1000:
        g = graphs[subsets % len(graphs)]
        size = rng.randint(2, min(10, g.n_vertices))
        ids = sorted(rng.sample(range(g.n_vertices), size))
        u = VertexSet.from_indices(g.n_vertices, ids)
        subsets += 1
        for a, b in itertools.combinations(ids, 2):
            fast = is_mutually_visible(g, u, a, b).visible
            slow = oracle_pair_visible(g, ids, a, b)
            if fast != slow:
                disagreements += 1
    assert disagreements == 0
    report(7, f"restricted BFS matches path enumeration on {subsets} subsets")


def test_criterion_08_downward_closure():
    rng = random.Random(515)
    graphs = []
    for n, seed in ((5, 81), (6, 82), (7, 83)):
        graphs.append(
            build_disjointness_graph(gen_random_general_position(n, seed=seed, bound=5000))
        )
    graphs.append(build_disjointness_graph(cacerola_points()))
    verified_cases = 0
    violations = 0
    while verified_cases < 500:
        g = graphs[verified_cases % len(graphs)]
        size = rng.randint(2, min(8, g.n_vertices))
        ids = sorted(rng.sample(range(g.n_vertices), size))
        u = VertexSet.from_indices(g.n_vertices, ids)
        if not is_mutual_visibility_set(g, u)[0]:
            continue
        verified_cases += 1
        sub = sorted(rng.sample(ids, rng.randint(0, len(ids))))
        if not is_mutual_visibility_set(g, VertexSet.from_indices(g.n_vertices, sub))[0]:
            violations += 1
    assert violations == 0
    report(8, "500 verified sets; every sampled subset verified")


def test_criterion_09_structural():
    ps = gen_convex(5)
    g = build_disjointness_graph(ps)
    segs, adj = oracle_adjacency([(p.x, p.y) for p in ps.points])
    oracle_edges = sum(len(v) for v in adj.values()) // 2
    assert g.n_vertices == 10
    # Brute force fixes the edge count at 10: the five hull edges have degree
    # C(3,2) = 3 and each diagonal crosses the other diagonals it does not
    # share an endpoint with, keeping only its opposite hull edge.
    assert g.n_edges == oracle_edges == 10
    assert sorted(g.degree(v) for v in range(10)) == [1] * 5 + [3] * 5
    hull = convex_hull(ps)
    for k in range(5):
        e = segment(hull.hull[k], hull.hull[(k + 1) % 5])
        assert g.degree(g.vertex(e)) == comb(3, 2)
    for n, seed in ((6, 91), (8, 92), (10, 93), (12, 94)):
        psr = gen_random_general_position(n, seed=seed, bound=9000)
        gr = build_disjointness_graph(psr)
        h = convex_hull(psr)
        for k in range(h.m):
            e = segment(h.hull[k], h.hull[(k + 1) % h.m])
            assert gr.degree(gr.vertex(e)) == comb(n - 2, 2)
    report(9, "D(C5) structure matches brute force; hull-edge degrees C(n-2,2)")


def test_criterion_10_determinism(tmp_path):
    import json

    from segvis.cli import main

    rows1 = run_golden_suite()
    rows2 = run_golden_suite()
    assert json.dumps(rows1, sort_keys=True) == json.dumps(rows2, sort_keys=True)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["reproduce", "--format", "json", "--out", str(out1)]) == 0
    assert main(["reproduce", "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert all(r["pass"] for r in rows1)
    report(10, "golden suite byte-identical across runs and fully green")
