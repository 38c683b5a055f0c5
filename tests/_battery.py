"""Seeded random convenient supports shared by the property tests, the
supports of the golden `--json` corpus, the benchmark's rounds, and a
reference edge walk."""

import sys
from math import gcd
from pathlib import Path
from random import Random

from newton_monodromy.frontend import load_support, parse_polynomial
from newton_monodromy.newton import SupportSet

SEED = 20260816


def random_supports(count: int, seed: int = SEED, dims=(2, 3)):
    """Yield `count` random convenient supports, reproducibly.

    Every support carries a pure power 2..6 on each axis, plus up to
    five extra points with coordinates <= 6.  Points of degree < 2
    (the origin, lone linear monomials) are never emitted: they would
    describe a function that is not singular at 0.
    """
    rng = Random(seed)
    for _ in range(count):
        n = rng.choice(dims)
        pts = set()
        for i in range(n):
            e = [0] * n
            e[i] = rng.randint(2, 6)
            pts.add(tuple(e))
        for _ in range(rng.randint(0, 5)):
            p = tuple(rng.randint(0, 6) for _ in range(n))
            if sum(p) >= 2:
                pts.add(p)
        yield SupportSet(tuple("xyzw"[:n]), tuple(sorted(pts)))


def golden_supports():
    """The supports of the inputs of `tests/test_golden.py`."""
    from test_golden import CASES, GOLDEN

    for argv in CASES.values():
        if argv[0] == "--support":
            yield load_support(str(GOLDEN / argv[1]))
        else:
            yield parse_polynomial(argv[0])


def workload_round(name: str, seed: int = 1):
    """The cases of one round of a benchmark workload (perfbench/workloads.py)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return next(WORKLOADS[name].rounds(seed, None))


def edge_points(a, b):
    """The lattice points of the segment [a, b], walked by primitive step."""
    diff = [y - x for x, y in zip(a, b)]
    g = gcd(*diff)
    return [tuple(x + j * (t // g) for x, t in zip(a, diff)) for j in range(g + 1)]
