import hashlib
import inspect
import itertools
import random
import sys
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segvis.constructions import build_certificate, double_chain_blocker
from segvis.geometry import (
    cacerola_points,
    gen_convex,
    gen_double_chain,
    gen_random_general_position,
)
from segvis.graph import bit_columns, build_disjointness_graph, iter_bits
from segvis.solver import (
    EXHAUSTED,
    FOUND,
    REFUTED,
    _Engine,
    _level_plan,
    _Probes,
    _witness_from_blockers,
    check_bounds_report,
    default_upper_bound,
    mu_exact,
    min_blocker_set,
    mu_report_json,
    refutation_count,
    refute_size,
)
from segvis.visibility import VertexSet, first_failing_pair, is_mutual_visibility_set

from oracles import oracle_mu, oracle_scan_level


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


def test_scan_level_matches_one_by_one_scan():
    # Every level of small random graphs, plus the refuted levels of two
    # golden instances: an existence search, then the ordering of its set,
    # must report the oracle's status and first passing set, and a refuted
    # level must settle all C(|V|, k) candidates.
    cases = []
    for n, seeds in ((5, range(10)), (6, range(10)), (7, range(2))):
        for seed in seeds:
            ps = gen_random_general_position(n, seed=seed, bound=3000)
            g = build_disjointness_graph(ps)
            cases.append((g, range(1, g.n_vertices + 1)))
    cases.append((build_disjointness_graph(cacerola_points()), [13]))
    cases.append((build_disjointness_graph(gen_double_chain(3, 6)), [33]))
    seen = set()
    for g, levels in cases:
        engine = _Engine(_Probes(g))
        nv = g.n_vertices
        for k in levels:
            status, s_mask, settled = engine.exists(0, g.full_mask, nv - k)
            if status == FOUND:
                s_mask = engine.first(*_level_plan(nv, k), s_mask)
                got = (FOUND, g.full_mask & ~s_mask)
            else:
                assert settled == comb(nv, k)
                got = (status, None)
            expected = oracle_scan_level(g, k)
            assert got == expected, (g.pointset.coords, k)
            seen.add((_level_plan(nv, k)[0], expected[0]))
    assert {("direct", "found"), ("complement", "found"),
            ("complement", "refuted")} <= seen
    assert (expected, settled) == (("refuted", None), 7140)  # double-chain:3,6, the last case


def test_scan_level_stops_mid_walk():
    # 50 search nodes settle 1,428,471 of the C(36, 6) = 1,947,792
    # candidates of level 30, on every run; without a budget the level's
    # first passing set is found
    ps = gen_random_general_position(9, seed=60000, bound=10000)
    g = build_disjointness_graph(ps)
    probes = _Probes(g)
    for _ in range(2):
        assert _Engine(probes, 50).exists(0, g.full_mask, 6) == (EXHAUSTED, None, 1428471)
    engine = _Engine(probes)
    status, s_mask, _ = engine.exists(0, g.full_mask, 6)
    assert status == FOUND
    assert g.full_mask & ~engine.first(*_level_plan(g.n_vertices, 30), s_mask) == 68635389823


def test_engine_node_sequence_pinned():
    # Every search's outcome and node count, budgeted or not, every found
    # level's first set, and then a last-vertex root and an r = 0 root on
    # the budget that is left: a step that visits other nodes, or the same
    # nodes in another order, changes the digest.  S starts empty, with
    # three forced-in vertices, or with all or all but the last vertex of
    # the minimum blocker set; allowed is every other vertex or those above
    # the lowest third.
    graphs = [
        cacerola_points(),
        gen_convex(10),
        gen_double_chain(3, 6),
        gen_random_general_position(9, seed=60000, bound=10000),
        gen_random_general_position(10, seed=5, bound=10000),
        gen_random_general_position(11, seed=5, bound=10000),
    ]
    graphs += [
        gen_random_general_position(n, seed=seed, bound=3000)
        for n in range(5, 9)
        for seed in range(5)
    ]
    digest = hashlib.sha256()
    for ps in graphs:
        g = build_disjointness_graph(ps)
        probes = _Probes(g)
        nv, full = g.n_vertices, g.full_mask
        _, blocker = min_blocker_set(g)
        forced = _mask(random.Random(nv).sample(range(nv), 3))
        for s_in in (0, forced, blocker & ~(1 << blocker.bit_length() - 1), blocker):
            for allowed in (full & ~s_in, full & ~s_in & -(1 << nv // 3)):
                for r in range(min(9, nv) + 1):
                    for budget in (None, 1, 7, 50, 333):
                        engine = _Engine(probes, budget)
                        out = engine.exists(s_in, allowed, r)
                        if out[0] == FOUND and allowed == full:
                            out += (engine.first(*_level_plan(nv, nv - r), out[1]),)
                        out += (engine.nodes, engine.exists(s_in, allowed, 1), engine.nodes)
                        out += (engine.exists(s_in, allowed, 0), engine.nodes)
                        digest.update(repr(out).encode())
    assert digest.hexdigest() == (
        "1ae006e3fedb9b476bcae5ce37774602f9dc57792045a11ce258daa417a9bdc2"
    )


def _mask(vertices):
    return sum(1 << v for v in vertices)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(5, 7), seed=st.integers(0, 10**6), data=st.data())
def test_exists_matches_brute_force(n, seed, data):
    # S = forced-in vertices plus r free ones: the search finds a passing S
    # exactly when enumeration does, and settles every choice when not
    g = build_disjointness_graph(gen_random_general_position(n, seed=seed, bound=3000))
    nv = g.n_vertices
    vertex = st.integers(0, nv - 1)
    forced_in = data.draw(st.sets(vertex, max_size=10), label="forced in")
    forced_out = data.draw(st.sets(vertex, max_size=6), label="forced out") - forced_in
    free = [v for v in range(nv) if v not in forced_in | forced_out]
    r = data.draw(st.integers(0, min(len(free) + 1, 4)), label="r")
    s_in = _mask(forced_in)
    passing = {
        s_in | _mask(c)
        for c in itertools.combinations(free, r)
        if first_failing_pair(g, g.full_mask & ~(s_in | _mask(c))) is None
    }
    status, s_mask, settled = _Engine(_Probes(g)).exists(s_in, _mask(free), r)
    if passing:
        assert status == FOUND and s_mask in passing
    else:
        assert (status, s_mask, settled) == (REFUTED, None, comb(len(free), r))


def test_refuted_levels_settle_every_candidate():
    # A closed branch settles C(|allowed|, r) candidates.  On a refuted
    # level they add up to C(|V|, k), with or without a budget that runs
    # out; one that runs out settles a part of them, the same on every run.
    cases = [
        build_disjointness_graph(gen_random_general_position(n, seed=seed, bound=3000))
        for n, seed in ((5, 1), (6, 2), (7, 3), (8, 4))
    ]
    cases.append(build_disjointness_graph(cacerola_points()))
    refuted = 0
    for g in cases:
        probes = _Probes(g)
        nv = g.n_vertices
        for k in range(1, nv + 1):
            status, _, count = _Engine(probes).exists(0, g.full_mask, nv - k)
            if status != REFUTED:
                continue
            refuted += 1
            assert count == comb(nv, k)
            for budget in (1, 4, 16):
                cut = _Engine(probes, budget).exists(0, g.full_mask, nv - k)
                assert cut == _Engine(probes, budget).exists(0, g.full_mask, nv - k)
                assert cut[:2] == (REFUTED, None) and cut[2] == count or (
                    cut[:2] == (EXHAUSTED, None) and cut[2] < count
                )
    assert refuted >= 20


def test_min_blocker_set_frozen():
    # the lexicographically first minimum blocker sets of the instances that
    # reach the fallback (sizes 8, 8, 7 and 6), frozen
    expected = {
        (8, 8076): 17974346,
        (8, 8304): 134744126,
        (9, 9827): 8632009746,
        (9, 9921): 4296573984,
    }
    for (n, seed), mask in expected.items():
        g = build_disjointness_graph(gen_random_general_position(n, seed=seed, bound=10000))
        assert min_blocker_set(g) == (FOUND, mask), (n, seed)


def test_min_blocker_set_refutes_small_sizes():
    # no single segment blocks a 6-point set: the search proves it
    g = build_disjointness_graph(gen_random_general_position(6, seed=9, bound=2000))
    assert min_blocker_set(g, max_size=1) == (REFUTED, None)


def test_mu_exact_cacerola(cacerola, cacerola_graph):
    res = mu_exact(cacerola_graph, witness_hint=certificate_witness(cacerola, cacerola_graph))
    assert res.mu == 12
    assert res.refuted_size == 13
    assert res.refutation_exhaustive
    assert res.sets_examined == 203490
    assert len(res.witness) == 12
    assert is_mutual_visibility_set(cacerola_graph, res.witness)[0]


def test_mu_exact_paths_agree(cacerola, cacerola_graph):
    # the ascent from the certificate's witness and from a single vertex
    # refute the same level
    for start in (
        certificate_witness(cacerola, cacerola_graph),
        VertexSet(cacerola_graph.n_vertices, 1),
    ):
        res = mu_exact(cacerola_graph, witness_hint=start)
        assert (res.mu, res.refuted_size, res.sets_examined) == (12, 13, 203490)


def test_mu_exact_convex5_matches_brute_force():
    ps = gen_convex(5)
    g = build_disjointness_graph(ps)
    assert oracle_mu(g) == 5  # frozen by full enumeration over all subsets
    res = mu_exact(g, witness_hint=certificate_witness(ps, g))
    assert res.mu == 5 and res.refuted_size == 6


def test_mu_exact_random_small_vs_oracle():
    for seed in (2, 5):
        ps = gen_random_general_position(5, seed=seed, bound=1500)
        g = build_disjointness_graph(ps)
        assert mu_exact(g, witness_hint=certificate_witness(ps, g)).mu == oracle_mu(g)


def test_mu_exact_convex7():
    ps = gen_convex(7)
    g = build_disjointness_graph(ps)
    res = mu_exact(g, witness_hint=certificate_witness(ps, g))
    assert res.mu == comb(7, 2) - 7 == 14  # value fixed by exhaustive refutation
    assert res.sets_examined == comb(21, 6)


def test_mu_exact_rejects_disconnected():
    g = build_disjointness_graph(gen_convex(4))
    with pytest.raises(ValueError):
        mu_exact(g, witness_hint=VertexSet(g.n_vertices, 1))


def test_mu_exact_rejects_bad_witness(cacerola_graph):
    full = VertexSet.full(cacerola_graph.n_vertices)
    with pytest.raises(ValueError):
        mu_exact(cacerola_graph, witness_hint=full)


def test_mu_exact_is_serial(cacerola, cacerola_graph):
    # threads survives only as a keyword that accepts 1
    with pytest.raises(ValueError):
        mu_exact(
            cacerola_graph, witness_hint=certificate_witness(cacerola, cacerola_graph), threads=2
        )


def test_mu_exact_needs_a_witness(cacerola_graph):
    with pytest.raises(TypeError):
        mu_exact(cacerola_graph)


def test_mu_bound_relations():
    for n, seed in ((6, 3), (7, 4)):
        ps = gen_random_general_position(n, seed=seed, bound=4000)
        g = build_disjointness_graph(ps)
        cert = build_certificate(ps, g)
        res = mu_exact(g, witness_hint=_witness_from_blockers(g, cert.blockers))
        assert res.mu >= cert.mu_lower_bound
        assert res.mu <= default_upper_bound(g)


def test_timeout_brackets(cacerola, cacerola_graph):
    # the ascent's one node is spent in level 13, above the certificate
    # witness (12), so only the a-priori bound |V| - 1 holds above it
    witness = certificate_witness(cacerola, cacerola_graph)
    res = mu_exact(cacerola_graph, witness_hint=witness, node_budget=1)
    assert (res.mu, res.mu_lower, res.mu_upper) == (None, 12, 20)
    assert res.refuted_size is None and not res.refutation_exhaustive


def test_ascent_timeout_keeps_a_sound_upper_bound():
    # Swaps find levels 37 to 39 above the certificate witness (36) in 28
    # search nodes; none finds level 40, whose own search runs from node 44
    # to 124 and is cut by the budget.  That level is not refuted, so
    # mu_upper may not drop below the a-priori bound (mu is 40 here, exact
    # from 235 nodes on).
    ps = gen_random_general_position(10, seed=5, bound=10000)
    g = build_disjointness_graph(ps)
    witness = certificate_witness(ps, g)
    res = mu_exact(g, witness_hint=witness, node_budget=100)
    assert res.mu is None
    assert len(witness) < res.mu_lower == len(res.witness) < 40
    assert is_mutual_visibility_set(g, res.witness)[0]
    assert res.mu_upper == default_upper_bound(g) >= 40
    assert 0 < res.sets_examined < comb(45, 5)


def test_budget_spent_in_a_swap_examines_no_set():
    # 124 search nodes find level 40 of random:10:5 and leave none for the
    # swaps of level 41, so no node of that level's own search ran
    ps = gen_random_general_position(10, seed=5, bound=10000)
    g = build_disjointness_graph(ps)
    res = mu_exact(g, witness_hint=certificate_witness(ps, g), node_budget=124)
    assert (res.mu, res.mu_lower, res.mu_upper, res.sets_examined) == (None, 40, 41, 0)
    assert len(res.witness) == 40 and is_mutual_visibility_set(g, res.witness)[0]


def test_whole_run_node_counts():
    # The search nodes a whole mu run spends, as the README lists them: a
    # budget of that many gives the unbudgeted result, one fewer does not.
    def outcome(res):
        return res.mu, res.mu_lower, res.mu_upper, res.witness, res.refuted_size, res.sets_examined

    for ps, nodes in (
        (gen_convex(10), 30),
        (gen_convex(16), 1509),
        (gen_random_general_position(16, seed=5, bound=10000), 9298),
    ):
        g = build_disjointness_graph(ps)
        witness = certificate_witness(ps, g)
        exact = outcome(mu_exact(g, witness_hint=witness))
        assert outcome(mu_exact(g, witness_hint=witness, node_budget=nodes)) == exact
        assert outcome(mu_exact(g, witness_hint=witness, node_budget=nodes - 1)) != exact


def test_swap_shrinks_a_redundant_witness():
    # double-chain:3,6's certificate blocks 9 segments where 4 suffice: the
    # first pair a < b of S, in lexicographic order, that some lowest vertex
    # v can replace gives the passing set S - {a, b} + {v}, one search node
    # per pair tried
    ps = gen_double_chain(3, 6)
    g = build_disjointness_graph(ps)
    s_known = g.full_mask & ~certificate_witness(ps, g).mask
    expected = tried = None
    for tried, (a, b) in enumerate(itertools.combinations(iter_bits(s_known), 2), 1):
        rest = s_known & ~(1 << a | 1 << b)
        passing = [
            rest | 1 << v
            for v in iter_bits(g.full_mask & ~rest)
            if first_failing_pair(g, g.full_mask & ~(rest | 1 << v)) is None
        ]
        if passing:
            expected = passing[0]
            break
    engine = _Engine(_Probes(g))
    assert engine.swap(s_known) == (FOUND, expected)
    assert expected.bit_count() == s_known.bit_count() - 1
    assert engine.nodes == tried


def test_swap_refutes_a_maximum_witness_pair_by_pair():
    # convex:10's certificate witness is a maximum mutual-visibility set
    # (mu = 40 of 45): each of the C(5, 2) pairs of its blockers costs one
    # search node and none can be replaced, and a budget of k nodes stops
    # the swap after k pairs
    ps = gen_convex(10)
    g = build_disjointness_graph(ps)
    s_known = g.full_mask & ~certificate_witness(ps, g).mask
    assert s_known.bit_count() == 5
    engine = _Engine(_Probes(g))
    assert engine.swap(s_known) == (REFUTED, None)
    assert engine.nodes == comb(5, 2)
    for budget in range(comb(5, 2)):
        engine = _Engine(_Probes(g), budget)
        assert engine.swap(s_known) == (EXHAUSTED, None)
        assert engine.nodes == budget


def test_ascent_outputs_pinned():
    # (mu, refuted, sets_examined, witness mask) of the unbudgeted runs on
    # the perfbench mu instances, random:16:5 and double-chain:9,9, as an
    # ascent by whole-level searches alone gives them: however a level is
    # found, the decisive refutation and the lexicographically first
    # witness are the same
    cases = {
        "cacerola": (cacerola_points(), 12, 13, 203490, 0x2D6F6),
        "convex:10": (gen_convex(10), 40, 41, 148995, 0x1BF7FEFFFCFF),
        "double-chain:3,6": (gen_double_chain(3, 6), 32, 33, 7140, 0x7BFDFFFFE),
        "random:9:60000": (
            gen_random_general_position(9, seed=60000, bound=10000),
            30, 31, 376992, 0xFFAFCEF7F,
        ),
        "random:10:5": (
            gen_random_general_position(10, seed=5, bound=10000),
            40, 41, 148995, 0x1F7FFAFFFCFF,
        ),
        "random:11:5": (
            gen_random_general_position(11, seed=5, bound=10000),
            50, 51, 341055, 0x5BFFFFF7DFFFDF,
        ),
        "random:16:5": (
            gen_random_general_position(16, seed=5, bound=10000),
            115, 116, 8214570, 0xFF7FFFFFDFFFFFFFFFFBFFFFDFFFFE,
        ),
        "double-chain:9,9": (
            gen_double_chain(9, 9),
            149, 150, 585276, 0x1FFFFFFFFDFFFFFFFFFFFFFBFFFFFFDFFFFFFFE,
        ),
    }
    for name, (ps, mu, refuted, examined, mask) in cases.items():
        g = build_disjointness_graph(ps)
        res = mu_exact(g, witness_hint=certificate_witness(ps, g))
        assert (res.mu, res.refuted_size, res.sets_examined, res.witness.mask) == (
            mu, refuted, examined, mask,
        ), name


def test_columns_transposes_bit_matrix():
    rng = random.Random(4)
    for n_rows, n_cols in ((0, 5), (1, 1), (3, 8), (17, 9), (40, 23)):
        rows = [rng.getrandbits(n_cols) for _ in range(n_rows)]
        expected = [
            sum(1 << p for p, row in enumerate(rows) if row >> v & 1) for v in range(n_cols)
        ]
        assert bit_columns(rows, n_cols) == expected


def test_deep_levels_need_no_recursion():
    # Levels 32 and 33 of a 66-vertex graph (mu = 61) walk 32 and 33
    # elements deep, on the direct and the complement side; a walk that
    # recursed once per element would overflow the lowered limit.
    g = build_disjointness_graph(gen_random_general_position(12, seed=5, bound=10000))
    assert g.n_vertices == 66
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 25)
    try:
        assert refute_size(g, 32) is False
        assert refute_size(g, 33) is False
    finally:
        sys.setrecursionlimit(limit)


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
    report = check_bounds_report(ps, node_budget=1)
    assert report["mu"] is None
    assert report["mu_lower"] >= comb(12, 2) - 9
    assert report["mu_lower"] <= report["mu_upper"]
    assert report["mu_upper"] == comb(12, 2) - 4  # no level above was refuted
    assert report["consistent"]
