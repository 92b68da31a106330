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


def _mu(g, blockers, **expected) -> tuple[dict, dict]:
    """The expected mu row and g's own, searched from the witness that
    blockers leave."""
    res = mu_exact(g, witness_hint=_witness_from_blockers(g, blockers))
    return expected, {"mu": res.mu, "refuted": res.refuted_size, "sets_examined": res.sets_examined}


def _cert(cert, **expected) -> tuple[dict, dict]:
    """The expected certificate fields and cert's own, in the same key order."""
    fields = {
        "strategy": cert.strategy,
        "case": cert.case,
        "size": cert.size,
        "bound": cert.mu_lower_bound,
    }
    return expected, {key: fields[key] for key in expected}


def run_golden_suite() -> list[dict]:
    cac = cacerola_points()
    g = build_disjointness_graph(cac)
    cert = build_certificate(cac, g)
    visible = VertexSet.from_indices(g.n_vertices, [g.vertex(s) for s in CACEROLA_VISIBLE_12])
    c10 = gen_convex(10)
    g10 = build_disjointness_graph(c10)
    cert10 = build_certificate(c10, g10)
    dc = gen_double_chain(3, 6)
    gdc = build_disjointness_graph(dc)
    blocker = double_chain_blocker(3, 6)
    cert_dc = certificate_from_blockers(dc, blocker, graph=gdc)
    cert8, cert12 = (build_certificate(gen_convex(n)) for n in (8, 12))
    rows = [
        ("cacerola vertices", 21, g.n_vertices),
        ("cacerola diameter", 3, int(diameter(g))),
        ("cacerola certificate", *_cert(cert, strategy="Hull6Case", case=2, size=9, bound=12)),
        ("cacerola stored 12-set verifies", True, is_mutual_visibility_set(g, visible)[0]),
        ("cacerola mu", *_mu(g, cert.blockers, mu=12, refuted=13, sets_examined=203490)),
        ("convex:9 diameter", 2, int(diameter(build_disjointness_graph(gen_convex(9))))),
        ("convex:10 certificate", *_cert(cert10, strategy="Hull10Plus", size=5)),
        ("convex:10 mu", *_mu(g10, cert10.blockers, mu=40, refuted=41, sets_examined=comb(45, 4))),
        ("double-chain:3,6 blocker verifies", True, cert_dc.verified),
        ("double-chain:3,6 mu", *_mu(gdc, blocker, mu=32, refuted=33, sets_examined=comb(36, 3))),
        ("convex:8 certificate", *_cert(cert8, strategy="Hull89", size=8, bound=20)),
        ("convex:12 certificate", *_cert(cert12, strategy="Hull10Plus", size=5, bound=61)),
    ]
    return [
        {"name": name, "expected": expected, "computed": computed, "pass": expected == computed}
        for name, expected, computed in rows
    ]
