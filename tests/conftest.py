import math

import pytest
from hypothesis import settings

import segvis.constructions as constructions
from segvis.geometry import PointSet, cacerola_points, gen_random_general_position
from segvis.graph import build_disjointness_graph

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


def ngon(m: int, radius: int = 1000) -> list[tuple[int, int]]:
    """Near-regular integer m-gon, clockwise from the top vertex."""
    pts = []
    for k in range(m):
        ang = math.pi / 2 - 2 * math.pi * k / m
        pts.append((round(radius * math.cos(ang)), round(radius * math.sin(ang))))
    return pts


@pytest.fixture(scope="session")
def cacerola():
    return cacerola_points()


@pytest.fixture(scope="session")
def cacerola_graph(cacerola):
    return build_disjointness_graph(cacerola)


@pytest.fixture
def no_cases(monkeypatch):
    """An empty certificate case table: every instance falls back."""
    monkeypatch.setattr(constructions, "_CASE_TABLE", {})
    monkeypatch.setattr(constructions, "_HULL10_ENTRY", ("Hull10Plus", []))


def random_instances(ns, count, bound=10000, base_seed=0):
    for n in ns:
        for k in range(count):
            seed = base_seed + 1000 * n + k
            yield seed, gen_random_general_position(n, seed=seed, bound=bound)


def hull3_instance(n_interior: int, seed: int) -> PointSet:
    """Triangle hull with n_interior strictly interior points."""
    import random

    rng = random.Random(seed)
    corners = [(0, 0), (4000, 0), (1500, 4200)]
    pts = list(corners)
    while len(pts) < 3 + n_interior:
        cand = (rng.randint(400, 3400), rng.randint(200, 2500))
        trial = pts + [cand]
        try:
            ps = PointSet.from_coords(trial)
        except Exception:
            continue
        from segvis.geometry import convex_hull

        if convex_hull(ps).m == 3:
            pts = trial
    return PointSet.from_coords(pts)
