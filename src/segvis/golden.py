"""Golden reproduction suite: fixed instances with known exact answers.

Each row recomputes a published value from scratch and compares.  All row
values are integers or strings, never timings, so two runs of the suite
produce byte-identical serialisations.
"""

from __future__ import annotations

from math import comb

from .constructions import build_certificate, certificate_from_blockers, double_chain_blocker
from .geometry import cacerola_points, gen_convex, gen_double_chain
from .graph import build_disjointness_graph, diameter
from .solver import _witness_from_blockers, mu_exact
from .visibility import VertexSet, is_mutual_visibility_set

#: A size-12 mutual-visibility set of the seven-point reference instance,
#: recomputed by the exact solver (the complement of the hull-6 case-2
#: blocker set); stored as segment endpoint pairs.
CACEROLA_VISIBLE_12 = (
    (0, 2), (0, 3), (0, 5), (0, 6),
    (1, 2), (1, 3), (1, 5), (1, 6),
    (2, 4), (2, 6), (3, 4), (3, 6),
)


def _row(name: str, expected, computed) -> dict:
    return {
        "name": name,
        "expected": expected,
        "computed": computed,
        "pass": expected == computed,
    }


def run_golden_suite() -> list[dict]:
    rows = []

    cac = cacerola_points()
    g = build_disjointness_graph(cac)
    rows.append(_row("cacerola vertices", 21, g.n_vertices))
    rows.append(_row("cacerola diameter", 3, int(diameter(g))))
    cert = build_certificate(cac, g)
    rows.append(
        _row(
            "cacerola certificate",
            {"strategy": "Hull6Case", "case": 2, "size": 9, "bound": 12},
            {
                "strategy": cert.strategy,
                "case": cert.case,
                "size": cert.size,
                "bound": cert.mu_lower_bound,
            },
        )
    )
    visible = VertexSet.from_indices(
        g.n_vertices, [g.vertex(s) for s in CACEROLA_VISIBLE_12]
    )
    ok, _ = is_mutual_visibility_set(g, visible)
    rows.append(_row("cacerola stored 12-set verifies", True, ok))
    res = mu_exact(g, witness_hint=_witness_from_blockers(g, cert.blockers))
    rows.append(
        _row(
            "cacerola mu",
            {"mu": 12, "refuted": 13, "sets_examined": 203490},
            {"mu": res.mu, "refuted": res.refuted_size, "sets_examined": res.sets_examined},
        )
    )

    g9 = build_disjointness_graph(gen_convex(9))
    rows.append(_row("convex:9 diameter", 2, int(diameter(g9))))

    c10 = gen_convex(10)
    g10 = build_disjointness_graph(c10)
    cert10 = build_certificate(c10, g10)
    rows.append(
        _row(
            "convex:10 certificate",
            {"strategy": "Hull10Plus", "size": 5},
            {"strategy": cert10.strategy, "size": cert10.size},
        )
    )
    res10 = mu_exact(g10, witness_hint=_witness_from_blockers(g10, cert10.blockers))
    rows.append(
        _row(
            "convex:10 mu",
            {"mu": 40, "refuted": 41, "sets_examined": comb(45, 4)},
            {
                "mu": res10.mu,
                "refuted": res10.refuted_size,
                "sets_examined": res10.sets_examined,
            },
        )
    )

    dc = gen_double_chain(3, 6)
    gdc = build_disjointness_graph(dc)
    blocker = double_chain_blocker(3, 6)
    cdc = certificate_from_blockers(dc, blocker, graph=gdc)
    rows.append(_row("double-chain:3,6 blocker verifies", True, cdc.verified))
    resdc = mu_exact(gdc, witness_hint=_witness_from_blockers(gdc, blocker))
    rows.append(
        _row(
            "double-chain:3,6 mu",
            {"mu": 32, "refuted": 33, "sets_examined": comb(36, 3)},
            {
                "mu": resdc.mu,
                "refuted": resdc.refuted_size,
                "sets_examined": resdc.sets_examined,
            },
        )
    )

    c8 = gen_convex(8)
    cert8 = build_certificate(c8)
    rows.append(
        _row(
            "convex:8 certificate",
            {"strategy": "Hull89", "size": 8, "bound": 20},
            {"strategy": cert8.strategy, "size": cert8.size, "bound": cert8.mu_lower_bound},
        )
    )

    c12 = gen_convex(12)
    cert12 = build_certificate(c12)
    rows.append(
        _row(
            "convex:12 certificate",
            {"strategy": "Hull10Plus", "size": 5, "bound": 61},
            {
                "strategy": cert12.strategy,
                "size": cert12.size,
                "bound": cert12.mu_lower_bound,
            },
        )
    )
    return rows
