from math import comb

import pytest

from segvis.constructions import build_certificate, double_chain_blocker
from segvis.geometry import gen_convex, gen_double_chain, gen_random_general_position
from segvis.graph import build_disjointness_graph
from segvis.solver import (
    _witness_from_blockers,
    check_bounds_report,
    default_upper_bound,
    mu_exact,
    mu_report_json,
    refutation_count,
    refute_size,
)
from segvis.visibility import VertexSet, is_mutual_visibility_set

from oracles import oracle_mu


def certificate_witness(ps, g):
    return _witness_from_blockers(g, build_certificate(ps, g).blockers)


def test_refute_size_singletons_never_refuted(cacerola_graph):
    assert refute_size(cacerola_graph, 1) is False


def test_refute_size_cacerola_13(cacerola_graph):
    assert refute_size(cacerola_graph, 13) is True
    assert refutation_count(cacerola_graph, 13) == 203490


def test_refutation_monotone():
    g = build_disjointness_graph(gen_convex(5))
    # mu = 5 by full enumeration; every level above must also refute
    assert refute_size(g, 6)
    for k in range(7, 11):
        assert refute_size(g, k)
    assert not refute_size(g, 5)


def test_mu_exact_cacerola(cacerola, cacerola_graph):
    res = mu_exact(cacerola_graph, witness_hint=certificate_witness(cacerola, cacerola_graph))
    assert res.mu == 12
    assert res.refuted_size == 13
    assert res.refutation_exhaustive
    assert res.sets_examined == 203490
    assert len(res.witness) == 12
    assert is_mutual_visibility_set(cacerola_graph, res.witness)[0]


def test_mu_exact_paths_agree(cacerola, cacerola_graph):
    asc = mu_exact(cacerola_graph, witness_hint=certificate_witness(cacerola, cacerola_graph))
    desc = mu_exact(cacerola_graph)
    assert asc.mu == desc.mu == 12
    assert asc.refuted_size == desc.refuted_size == 13


def test_mu_exact_convex5_matches_brute_force():
    g = build_disjointness_graph(gen_convex(5))
    assert oracle_mu(g) == 5  # frozen by full enumeration over all subsets
    res = mu_exact(g)
    assert res.mu == 5 and res.refuted_size == 6


def test_mu_exact_random_small_vs_oracle():
    for seed in (2, 5):
        ps = gen_random_general_position(5, seed=seed, bound=1500)
        g = build_disjointness_graph(ps)
        assert mu_exact(g).mu == oracle_mu(g)


def test_mu_exact_convex7():
    ps = gen_convex(7)
    g = build_disjointness_graph(ps)
    res = mu_exact(g, witness_hint=certificate_witness(ps, g))
    assert res.mu == comb(7, 2) - 7 == 14  # value fixed by exhaustive refutation
    assert res.sets_examined == comb(21, 6)


def test_mu_exact_rejects_disconnected():
    g = build_disjointness_graph(gen_convex(4))
    with pytest.raises(ValueError):
        mu_exact(g)


def test_mu_exact_rejects_bad_witness(cacerola_graph):
    full = VertexSet.full(cacerola_graph.n_vertices)
    with pytest.raises(ValueError):
        mu_exact(cacerola_graph, witness_hint=full)


def test_mu_exact_is_serial(cacerola_graph):
    # threads survives only as a keyword that accepts 1
    with pytest.raises(ValueError):
        mu_exact(cacerola_graph, threads=2)


def test_mu_bound_relations():
    for n, seed in ((6, 3), (7, 4)):
        ps = gen_random_general_position(n, seed=seed, bound=4000)
        g = build_disjointness_graph(ps)
        cert = build_certificate(ps, g)
        res = mu_exact(g, witness_hint=_witness_from_blockers(g, cert.blockers))
        assert res.mu >= cert.mu_lower_bound
        assert res.mu <= default_upper_bound(g)


def test_timeout_brackets(cacerola_graph):
    res = mu_exact(cacerola_graph, time_budget_s=1e-9)
    assert res.mu is None
    assert res.mu_lower <= res.mu_upper
    assert not res.refutation_exhaustive


def test_mu_report_json(cacerola, cacerola_graph):
    res = mu_exact(cacerola_graph, witness_hint=certificate_witness(cacerola, cacerola_graph))
    data = mu_report_json(res, cacerola_graph)
    assert data["n"] == 7 and data["vertices"] == 21
    assert data["mu"] == 12 and data["refuted"] == 13
    assert data["sets_examined"] == 203490
    assert len(data["witness"]) == 12
    assert isinstance(data["elapsed_ms"], int)


def test_check_bounds_report_cacerola(cacerola):
    report = check_bounds_report(cacerola)
    assert report["mu_lower"] == 12 and report["mu"] == 12
    assert report["consistent"] and not report["defects"]


def test_check_bounds_report_double_chain():
    ps = gen_double_chain(3, 6)
    report = check_bounds_report(ps, extra_blockers=double_chain_blocker(3, 6))
    assert report["mu"] == comb(9, 2) - 4 == 32
    assert report["mu_upper"] == 32  # the asymptotic bound is attained
    assert report["consistent"]


def test_check_bounds_report_brackets_on_budget():
    ps = gen_random_general_position(12, seed=8, bound=9000)
    report = check_bounds_report(ps, exact_time_budget_s=1e-9)
    assert report["mu"] is None
    assert report["mu_lower"] >= comb(12, 2) - 9
    assert report["mu_lower"] <= report["mu_upper"]
    assert report["consistent"]
