"""Seeded coordinate lists for the benchmark workloads.

The benchmark makes every input itself, so the program under test only
ever receives integer coordinate lists.  The random generator reproduces
``segvis sweep``'s sampler (rejection sampling from ``random.Random(seed)``)
draw for draw, so an instance seed here names the same point set as
``segvis ... --gen random:N:SEED``.

A benchmark seed picks one of ``VARIANTS`` variants of each workload.  Every
variant was run once on the commit that added the benchmark; the
reference values and the absence of failures below hold for all of them.
The family is bounded on purpose: sweep windows further out reach more
hull-7 lens instances, each a fallback search of 5-17 s (2-vCPU Xeon VM),
and one of them, random:8:8304, exhausts the search.  Such draws would swamp
the run-to-run spread; LENS_INSTANCE keeps the defect in every pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 64

SWEEP_N = range(5, 13)
SWEEP_COUNT = 40  # instances per n in one pass: three passes fit in 40 s
SWEEP_BOUND = 10000
#: The hull-7 lens instance that no hull-7 case covers; it reaches the
#: fallback search.  Every sweep pass keeps it.
LENS_INSTANCE = (8, 8076)

LARGE_N = (32, 48)
LARGE_BOUND = 1 << 20

MU_RANDOM = ((10, 5), (11, 5))  # (n, instance seed), bound SWEEP_BOUND
MU_SHIFT = 1 << 20  # largest translation applied to MU_RANDOM

CACEROLA = [[121, 204], [175, 196], [216, 82], [189, 51], [44, 96], [36, 140], [127, 135]]


@dataclass(frozen=True)
class Instance:
    name: str
    coords: list


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def random_coords(n: int, seed: int, bound: int) -> list:
    """n distinct points of [0, bound]^2, no three collinear."""
    rng = random.Random(seed)
    pts: list = []
    while len(pts) < n:
        cand = (rng.randint(0, bound), rng.randint(0, bound))
        if cand in pts:
            continue
        if all(
            _cross(pts[i], pts[j], cand) != 0
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        ):
            pts.append(cand)
    return [list(p) for p in pts]


def convex_coords(n: int) -> list:
    return [[k, k * k] for k in range(n)]


def double_chain_coords(p: int, q: int) -> list:
    xs_a = [2 * k - (p - 1) for k in range(p)]
    xs_b = [2 * k - (q - 1) for k in range(q)]
    span = max(abs(x) for x in xs_a + xs_b)
    margin = span * span + 1
    return [[x, x * x + margin] for x in xs_a] + [[x, -(x * x) - margin] for x in xs_b]


def sweep_instances(seed: int) -> list[Instance]:
    """The default ``segvis sweep`` family (instance seed v + 1000n + k),
    with the window of k shifted by the variant v, plus the lens instance."""
    v = seed % VARIANTS
    out = []
    for n in SWEEP_N:
        seeds = [v + 1000 * n + k for k in range(SWEEP_COUNT)]
        if n == LENS_INSTANCE[0] and LENS_INSTANCE[1] not in seeds:
            seeds.append(LENS_INSTANCE[1])
        for s in seeds:
            out.append(Instance(f"random:{n}:{s}", random_coords(n, s, SWEEP_BOUND)))
    return out


def mu_instances(seed: int) -> list[Instance]:
    """The four golden instances, then random:10:5 and random:11:5 moved
    by a seeded translation.  A translation keeps every orientation test,
    label and hull order, so the program does the same work for every
    seed; fresh random instances at this size vary 0.5-7 s each in exact
    mu, which no run-to-run bound could absorb."""
    rng = random.Random(seed % VARIANTS)
    out = [
        Instance("cacerola", CACEROLA),
        Instance("convex:10", convex_coords(10)),
        Instance("double-chain:3,6", double_chain_coords(3, 6)),
        Instance("random:9:60000", random_coords(9, 60000, SWEEP_BOUND)),
    ]
    for n, s in MU_RANDOM:
        dx, dy = rng.randint(0, MU_SHIFT), rng.randint(0, MU_SHIFT)
        coords = [[x + dx, y + dy] for x, y in random_coords(n, s, SWEEP_BOUND)]
        out.append(Instance(f"random:{n}:{s}+({dx},{dy})", coords))
    return out


def large_instances(seed: int) -> list[Instance]:
    """random:N:1000N:2^20 for each N in LARGE_N, points listed in a seeded
    order.  Relabelling changes every vertex number and bitset the program
    handles but not the geometry, so the work stays put; fresh random sets
    differ by their crossing counts and hull sizes."""
    rng = random.Random(seed % VARIANTS)
    out = []
    for n in LARGE_N:
        coords = random_coords(n, 1000 * n, LARGE_BOUND)
        rng.shuffle(coords)
        out.append(Instance(f"random:{n}:{1000 * n}:{LARGE_BOUND}/{seed % VARIANTS}", coords))
    return out


INSTANCES = {"sweep": sweep_instances, "mu": mu_instances, "large": large_instances}
