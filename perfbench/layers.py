"""One instance through the program's public layers, and the checks of its
outputs.

``run_instance`` calls the layers a workload uses, each through
``tracer.call`` so that a traced pass records one span per call.  Nothing
inside the program is instrumented: a span covers one public call.
``check_instance`` then judges the outputs (outside the timed region) and
returns the problems found.
"""

from __future__ import annotations

from math import comb
from time import perf_counter

from segvis import (
    ConstructionError,
    PointSet,
    VertexSet,
    build_certificate,
    build_disjointness_graph,
    convex_hull,
    diameter,
    is_mutual_visibility_set,
    mu_exact,
    refutation_count,
    to_dot,
    to_json_dict,
)

#: Allowed diameters by n, as ``segvis sweep`` checks them; (2, 2) above 8.
DIAMETER_RANGE = {5: (2, 4), 6: (2, 3), 7: (2, 3), 8: (2, 3)}

#: Span names of the program calls ``run_instance`` makes.
LAYERS = (
    "geometry.ingest", "geometry.hull", "graph.build", "graph.distance",
    "graph.export", "constructions.certify", "solver.mu",
)
STRATEGIES = (
    "FiveDisjointClean", "ExplicitBlockers", "GoodTriangle", "Good2Set",
    "Hull3", "Hull4", "Hull5Case", "Hull6Case", "Hull7Case", "Hull89",
    "Hull10Plus", "FallbackSearch",
)
FALLBACK = "FallbackSearch"
FAILED_ATTEMPT = "candidate failed verification"

#: (mu, refuted size, sets examined) recorded for the mu workload's
#: instances; the translated random instances share their untranslated
#: values.  The first four are the golden table's.
MU_REFERENCE = {
    "cacerola": [12, 13, 203490],
    "convex:10": [40, 41, 148995],
    "double-chain:3,6": [32, 33, 7140],
    "random:9:60000": [30, 31, 376992],
    "random:10:5": [40, 41, 148995],
    "random:11:5": [50, 51, 341055],
}


class NullTracer:
    def call(self, parent, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans kept in memory as [id, parent, name, start, end]; one instance
    span is the parent of the layer spans of that instance."""

    def __init__(self):
        self.spans: list[list] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([sid, None, name, perf_counter(), None])
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter()

    def call(self, parent, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([len(self.spans), parent, name, start, perf_counter()])


def _blocker_mask(g, blockers) -> int:
    mask = 0
    for s in blockers:
        mask |= 1 << g.vertex(s)
    return mask


def _solve(g, cert):
    witness = VertexSet(g.n_vertices, g.full_mask & ~_blocker_mask(g, cert.blockers))
    return mu_exact(g, witness_hint=witness, threads=1)


def _export(g):
    return to_json_dict(g), to_dot(g)


def run_instance(workload: str, inst, tracer, sid) -> dict:
    """Run the layers of ``workload`` on one instance; the dict holds every
    output, or the exception that stopped the pipeline under ``error``."""
    out: dict = {}
    call = tracer.call
    try:
        ps = out["ps"] = call(sid, "geometry.ingest", PointSet.from_coords, inst.coords)
        out["hull"] = call(sid, "geometry.hull", convex_hull, ps)
        g = out["g"] = call(sid, "graph.build", build_disjointness_graph, ps)
        out["diameter"] = call(sid, "graph.distance", diameter, g)
        try:
            cert = out["cert"] = call(sid, "constructions.certify", build_certificate, ps, g)
        except ConstructionError as exc:
            out["certify_error"] = str(exc)
            raise
        if workload == "mu":
            out["mu"] = call(sid, "solver.mu", _solve, g, cert)
        if workload == "large":
            out["export"] = call(sid, "graph.export", _export, g)
    except Exception as exc:  # any exception fails the instance, not the run
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def attempts_of(out: dict) -> int:
    """1 plus the failed verifications the certificate layer recorded."""
    if "cert" in out:
        return 1 + sum(FAILED_ATTEMPT in d for d in out["cert"].diagnostics)
    if "certify_error" in out:
        return 1 + out["certify_error"].count(FAILED_ATTEMPT)
    return 0


def is_fallback(out: dict) -> bool:
    if "cert" in out:
        return out["cert"].strategy == FALLBACK
    return "fallback search" in out.get("certify_error", "")


def digest(out: dict) -> tuple:
    """Every deterministic output of an instance, for exact comparison
    between passes."""
    if "error" in out:
        return ("error", out["error"])
    cert = out["cert"]
    d = (
        out["hull"].hull, out["g"].n_edges, out["diameter"],
        cert.strategy, cert.case, cert.blockers, attempts_of(out),
    )
    if "mu" in out:
        r = out["mu"]
        d += (r.mu, r.refuted_size, r.sets_examined, r.witness.mask)
    if "export" in out:
        data, dot = out["export"]
        d += (len(data["edges"]), len(dot))
    return d


def check_instance(workload: str, inst, out: dict) -> tuple[list[str], dict]:
    """Problems with one instance's outputs, and the visibility layer's
    figures: the time and pair count of re-verifying the certificate."""
    vis = {"verify_s": 0.0, "pairs": 0}
    if "error" in out:
        return [out["error"]], vis
    problems = []
    ps, g, cert = out["ps"], out["g"], out["cert"]
    n = ps.n
    hull = out["hull"]
    if sorted(hull.hull + hull.interior) != list(range(n)) or hull.m < 3:
        problems.append(f"hull {hull} does not partition the points")
    if g.n_vertices != comb(n, 2):
        problems.append(f"{g.n_vertices} vertices, expected C({n},2)")
    lo, hi = DIAMETER_RANGE.get(n, (2, 2)) if workload != "mu" else (2, 4)
    if not lo <= out["diameter"] <= hi:
        problems.append(f"diameter {out['diameter']} outside [{lo}, {hi}]")

    size = len(cert.blockers)
    if not cert.verified or size > 9 or len(set(cert.blockers)) != size:
        problems.append(f"certificate {cert.strategy} size {size} verified={cert.verified}")
    if cert.mu_lower_bound != comb(n, 2) - size:
        problems.append(f"bound {cert.mu_lower_bound} != C({n},2) - {size}")
    if not all(0 <= i < j < n for i, j in cert.blockers):
        problems.append(f"blockers {cert.blockers} are not segments of the set")
    else:
        u = VertexSet(g.n_vertices, g.full_mask & ~_blocker_mask(g, cert.blockers))
        start = perf_counter()
        ok, failing = is_mutual_visibility_set(g, u)
        vis["verify_s"] = perf_counter() - start
        if ok:
            vis["pairs"] = comb(len(u), 2)
        else:
            problems.append(f"certificate complement fails at pair {failing.a}, {failing.b}")

    if "mu" in out:
        problems += _check_mu(inst, g, cert, out["mu"])
    if "export" in out:
        problems += _check_export(g, *out["export"])
    return problems, vis


def _check_mu(inst, g, cert, res) -> list[str]:
    problems = []
    got = [res.mu, res.refuted_size, res.sets_examined]
    want = MU_REFERENCE[inst.name.split("+")[0]]
    if got != want:
        problems.append(f"(mu, refuted, sets_examined) = {got}, expected {want}")
    if res.mu is None or res.mu_lower != res.mu or res.mu_upper != res.mu:
        return problems + [f"mu not exact: [{res.mu_lower}, {res.mu_upper}]"]
    if res.mu < cert.mu_lower_bound:
        problems.append(f"mu {res.mu} below the certificate bound {cert.mu_lower_bound}")
    if res.refuted_size != res.mu + 1 or not res.refutation_exhaustive:
        problems.append(f"refuted size {res.refuted_size} for mu {res.mu}")
    elif res.sets_examined != refutation_count(g, res.refuted_size):
        problems.append(f"{res.sets_examined} sets examined, refutation_count disagrees")
    if res.witness is None or len(res.witness) != res.mu:
        problems.append("witness missing or of the wrong size")
    elif not is_mutual_visibility_set(g, res.witness)[0]:
        problems.append("witness is not a mutual-visibility set")
    return problems


def _check_export(g, data, dot) -> list[str]:
    problems = []
    if data["vertices"] != [list(s) for s in g.vertices] or len(data["edges"]) != g.n_edges:
        problems.append("JSON export disagrees with the graph")
    if not all(g.are_adjacent(u, v) for u, v in data["edges"]):
        problems.append("JSON export lists a non-edge")
    if not dot.startswith("graph disjointness {") or dot.count("\n") != g.n_vertices + g.n_edges + 2:
        problems.append("DOT export has the wrong shape")
    return problems
