"""segvis benchmark: end-to-end and per-layer metrics on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Workloads (inputs made from --seed by ``inputs.py``; one process,
``threads=1``):

  sweep  default ``segvis sweep`` family, n = 5..12, plus the hull-7 lens
         instance random:8:8076; ingest, hull, graph, diameter, certificate.
  mu     exact mu ascending from the certificate witness, as ``segvis mu``
         does, on the four golden instances and two random ones.
  large  n = 32 and 48, bound 2^20; ingest, hull, graph, diameter,
         certificate, JSON and DOT export.

A pass runs every instance of the workload once.  Passes repeat until the
next one would end after --seconds (at least one pass; two with --trace 1),
and time figures are medians over passes.  The program calls are timed per
instance; the output checks run between instances, outside the timed
region.  The first pass checks every output in full; a later pass must
reproduce the first pass's outputs exactly.

--trace 0 reports the end-to-end metrics (tracing off), times at the
reference speed (see ``SpeedProbe``):
  wall_s       time in the program for one pass
  cpu_s        process CPU time, self plus children, over the same calls
  setup_s      median over fresh interpreters of start-up, ``import segvis``
               and making the workload's coordinate lists; SETUP_RUNS of
               them before each pass and after the last, so that the
               samples spread over the run
  peak_rss_mb  peak resident memory of this process
The figures as timed, before the speed correction, are printed as raw_*
lines and kept in the run record.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: self time per layer span, work counters, ``trace.overhead_s``
(traced minus untraced wall_s) and ``trace.coverage`` (layer spans over
traced wall_s, which must reach 0.9).  Spans go to
perfbench/results/spans-<workload>-seed<seed>.json.

The last line of stdout is the result object: correct, attempted, failed
(instances whose output failed a check, exceptions included) and metrics.
failed_share = failed / attempted is printed with the report above it.
Work counters must repeat exactly between passes and between runs of the
same source (kept in perfbench/results/counters-*.json); a difference makes
the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_RUNS = 2
COVERAGE_FLOOR = 0.9
PROBE_INTERVAL_S = 0.1
PROBE_SETS = 1800  # subsets the reference loop scans
#: The reference loop's time on an idle 2-vCPU Xeon at 2.0 GHz under
#: CPython 3.11.7; the end-to-end times are given at this speed.
REFERENCE_S = 0.0018
#: Fixed 64-bit rows the reference loop tests subsets against.
REFERENCE_ROWS = [(k * 2654435761 >> 7) & (1 << 64) - 1 for k in range(64)]
SETUP_PROBES = 8  # reference samples taken before and after each set-up run


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "mu", "large"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def source_hash() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "segvis").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _row_covers(mask: int) -> bool:
    rest = mask
    while rest:
        bit = rest & -rest
        if REFERENCE_ROWS[bit.bit_length() - 1] & mask == mask:
            return True
        rest ^= bit
    return False


def reference_loop() -> int:
    """Fixed work of the kind the program does (subsets enumerated with
    itertools, kept as bit masks, scanned bit by bit against a table), so
    that contention slows it about as much as the workloads: on each
    workload, pass time over this loop's mean time varied by 2-3% (standard
    deviation of the log over 13-31 passes) where a plain arithmetic loop
    left 4-4.5% and the raw pass time 11%."""
    covered = 0
    for combo in itertools.islice(itertools.combinations(range(40), 4), PROBE_SETS):
        mask = 0
        for v in combo:
            mask |= 1 << v
        covered += _row_covers(mask)
    return covered


class SpeedProbe:
    """Samples the host's speed while the workload runs.

    On a shared cloud host, other tenants' load on the same physical cores
    slows any code by 1.3-2x, in bursts of a fraction of a second whose
    share drifts over minutes; between 40 s runs of the same work that
    alone moves the time of a pass by a quarter or more.  While the probe runs, a
    SIGALRM handler times the fixed ``reference_loop`` every
    PROBE_INTERVAL_S.  Its own time is taken out of every timed region
    (``spent_*``), and ``factor`` turns a time measured between two
    instants into one at the reference speed: REFERENCE_S over the mean
    sample between those instants.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def sample(self) -> None:
        c = time.process_time()
        t = time.perf_counter()
        reference_loop()
        d = time.perf_counter() - t
        self.samples.append((t, d))
        self.spent_wall += d
        self.spent_cpu += time.process_time() - c

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def factor(self, start: float, end: float) -> float:
        inside = [d for t, d in self.samples if start <= t < end]
        return REFERENCE_S / statistics.fmean(inside or [d for _, d in self.samples])


def measure_setup(workload: str, seed: int, probe: SpeedProbe) -> list[tuple[float, float, float]]:
    """(seconds, from, to) of SETUP_RUNS fresh interpreters, with the span
    of the reference samples the probe takes just before and after each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    runs = []
    probe.stop()
    for _ in range(SETUP_RUNS):
        before = time.perf_counter()
        for _ in range(SETUP_PROBES):
            probe.sample()
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        took = time.perf_counter() - start
        for _ in range(SETUP_PROBES):
            probe.sample()
        runs.append((took, before, time.perf_counter()))
    probe.start()
    return runs


def self_times(spans) -> dict:
    """Per span name: duration minus the part covered by child spans."""
    child = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for sid, _, name, start, end in spans:
        out[name] += end - start - child[sid]
    return out


def run_pass(layers, workload, instances, traced, first, probe):
    """One pass over the instances.  ``first`` holds the (digest, ok) of each
    instance from the first pass, or None while this is the first pass,
    which alone checks outputs in full and counts work; equal digests make
    a later pass's work equal."""
    tracer = layers.Tracer() if traced else layers.NullTracer()
    res = {
        "wall_s": 0.0, "cpu_s": 0.0, "failed": 0, "problems": [],
        "counters": Counter(), "check_s": 0.0, "verify_s": 0.0, "fallback_s": 0.0,
        "start": time.perf_counter(),
    }
    seen = []
    counters = res["counters"]
    for idx, inst in enumerate(instances):
        sid = tracer.begin("instance") if traced else None
        spent_wall, spent_cpu = probe.spent_wall, probe.spent_cpu
        c0 = cpu_now()
        t0 = time.perf_counter()
        out = layers.run_instance(workload, inst, tracer, sid)
        t1 = time.perf_counter()
        c1 = cpu_now()
        t1 -= probe.spent_wall - spent_wall
        c1 -= probe.spent_cpu - spent_cpu
        if traced:
            tracer.end(sid)
            if layers.is_fallback(out):
                res["fallback_s"] += sum(
                    s[4] - s[3] for s in tracer.spans[sid:]
                    if s[1] == sid and s[2] == "constructions.certify"
                )
        res["wall_s"] += t1 - t0
        res["cpu_s"] += c1 - c0

        d = layers.digest(out)
        if first is None:
            c = time.perf_counter()
            problems, vis = layers.check_instance(workload, inst, out)
            res["check_s"] += time.perf_counter() - c
            res["verify_s"] += vis["verify_s"]
            counters["visibility.pairs"] += vis["pairs"]
            if "g" in out:
                counters["graph.pairs"] += out["g"].n_vertices * (out["g"].n_vertices - 1) // 2
            counters["constructions.attempts"] += layers.attempts_of(out)
            counters["constructions.fallbacks"] += layers.is_fallback(out)
            if "cert" in out:
                counters["constructions.certificates"] += 1
                counters["constructions.strategy." + out["cert"].strategy] += 1
            if "mu" in out:
                counters["solver.candidates"] += out["mu"].sets_examined
            ok = not problems
            seen.append((d, ok))
        else:
            problems = [] if d == first[idx][0] else ["output differs from the first pass"]
            ok = first[idx][1] and not problems
        if not ok:
            res["failed"] += 1
            res["problems"] += [f"{inst.name}: {p}" for p in problems or ["failed in the first pass"]]
    if traced:
        res["self_s"] = self_times(tracer.spans)
        res["spans"] = tracer.spans
    res["first"] = seen if first is None else first
    res["end"] = time.perf_counter()
    return res


def check_counters(workload, seed, counters) -> list[str]:
    """Compare the work counters with an earlier run of the same sources."""
    path = RESULTS / f"counters-{workload}-seed{seed}-{source_hash()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counters:
            diff = sorted(k for k in set(earlier) | set(counters) if earlier.get(k) != counters.get(k))
            return [f"work counters differ from an earlier run of the same sources: {diff}"]
        return []
    path.write_text(json.dumps(counters, indent=1, sort_keys=True) + "\n")
    return []


def layer_metrics(layers, passes, counters) -> dict:
    traced = [p for p in passes if "self_s" in p]
    plain = [p for p in passes if "self_s" not in p]
    med = statistics.median

    def layer_s(name):
        return med(p["self_s"].get(name, 0.0) for p in traced)

    m = {}
    for name in layers.LAYERS:
        m[name + "_s"] = (layer_s(name), "s")
    m["graph.pairs"] = (counters.get("graph.pairs", 0), "count")
    attempts = counters.get("constructions.attempts", 0)
    m["constructions.attempts"] = (attempts, "count")
    m["constructions.hit_ratio"] = (
        counters.get("constructions.certificates", 0) / attempts if attempts else 0.0, "ratio")
    m["constructions.fallbacks"] = (counters.get("constructions.fallbacks", 0), "count")
    m["constructions.fallback_s"] = (med(p["fallback_s"] for p in traced), "s")
    for name in layers.STRATEGIES:
        m["constructions.strategy." + name] = (counters.get("constructions.strategy." + name, 0), "count")
    m["visibility.verify_s"] = (passes[0]["verify_s"], "s")
    m["visibility.pairs"] = (counters.get("visibility.pairs", 0), "count")
    candidates = counters.get("solver.candidates", 0)
    mu_s = m["solver.mu_s"][0]
    m["solver.candidates"] = (candidates, "count")
    m["solver.candidates_per_s"] = (candidates / mu_s if mu_s else 0.0, "1/s")
    traced_wall = med(p["wall_s"] for p in traced)
    m["trace.overhead_s"] = (traced_wall - med(p["wall_s"] for p in plain), "s")
    covered = med(sum(p["self_s"].get(name, 0.0) for name in layers.LAYERS) / p["wall_s"] for p in traced)
    m["trace.coverage"] = (covered, "share")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "segvis").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import segvis  # noqa: F401  (fails early when the sources are absent)
        import layers
        from inputs import INSTANCES
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    instances = INSTANCES[args.workload](args.seed)
    if args.setup_probe:
        return 0

    RESULTS.mkdir(exist_ok=True)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "sources_sha256_16": source_hash(), "instances": len(instances),
        "threads": 1,
    }
    print("run " + json.dumps(meta, sort_keys=True))

    passes = []
    setup = []
    first = None
    probe = SpeedProbe()  # left stopped in traced runs: spans are timed as they are
    start = time.perf_counter()
    min_passes = 2 if args.trace else 1
    try:
        if not args.trace:
            probe.start()
        while True:
            t = time.perf_counter()
            if not args.trace:
                setup += measure_setup(args.workload, args.seed, probe)
            traced = bool(args.trace) and len(passes) % 2 == 1
            p = run_pass(layers, args.workload, instances, traced, first, probe)
            took = time.perf_counter() - t - p["check_s"]  # later passes only compare outputs
            first = p["first"]
            passes.append(p)
            if len(passes) >= min_passes and time.perf_counter() + took > start + args.seconds:
                break
        if not args.trace:
            setup += measure_setup(args.workload, args.seed, probe)
    finally:
        probe.stop()

    counters = dict(passes[0]["counters"])
    problems = [q for p in passes for q in p["problems"]]
    problems += check_counters(args.workload, args.seed, counters)
    failed = sum(p["failed"] for p in passes)
    attempted = len(instances) * len(passes)

    if args.trace:
        metrics = layer_metrics(layers, passes, counters)
        if metrics["trace.coverage"][0] < COVERAGE_FLOOR:
            problems.append(f"layer spans cover {metrics['trace.coverage'][0]:.3f} of traced wall_s")
        spans = [
            {"pass": i, "id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
            for i, p in enumerate(passes) if "spans" in p for s in p["spans"]
        ]
        (RESULTS / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        med = statistics.median
        factors = [probe.factor(p["start"], p["end"]) for p in passes]
        setup_factors = [probe.factor(a, b) for _, a, b in setup]
        raw = {
            "raw_wall_s": med(p["wall_s"] for p in passes),
            "raw_cpu_s": med(p["cpu_s"] for p in passes),
            "raw_setup_s": med(s for s, _, _ in setup),
            "probe_mean_s": statistics.fmean(d for _, d in probe.samples),
            "probe_samples": len(probe.samples),
        }
        metrics = {
            "wall_s": (med(p["wall_s"] * f for p, f in zip(passes, factors)), "s"),
            "cpu_s": (med(p["cpu_s"] * f for p, f in zip(passes, factors)), "s"),
            "setup_s": (med(s * f for (s, _, _), f in zip(setup, setup_factors)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    correct = failed == 0 and not problems
    record = {
        **meta, "passes": len(passes), "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted, "correct": correct,
        "problems": problems[:50], "setup_runs_s": [s for s, _, _ in setup],
        "counters": counters, "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_traced": ["self_s" in p for p in passes],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if not args.trace:
        record["pass_factor"] = factors
        record["setup_factor"] = setup_factors
        record["raw"] = raw
    (RESULTS / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    for q in problems[:20]:
        print("problem " + q)
    print(f"passes {len(passes)}  attempted {attempted}  failed {failed}  failed_share {failed / attempted:.4f} share")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    if not args.trace:
        for name, value in raw.items():
            print(f"{name:36s} {value:>16.6g}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
