"""Seeded random convenient supports shared by the property tests, the
supports of the golden `--json` corpus, the benchmark's rounds, an
explicit walk of the tables the answer builds, and a reference edge
walk."""

import sys
from math import gcd
from pathlib import Path
from random import Random

from newton_monodromy.ehrhart import Character
from newton_monodromy.frontend import load_support, parse_polynomial
from newton_monodromy.newton import SupportSet, newton_polyhedron

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


def table_pairs(supports, lowest: int = 1):
    """Yield the (polytope, character) pair of every Hodge table that the
    answer's recursion builds on the supports, walked explicitly rather
    than recorded from the answer: for each orbit representative of
    compact faces, its cone under its character and, if the face has
    dimension >= 1, the face under the trivial character; after each of
    these, the polytope of each of its faces of dimension >= lowest
    under the same character.  Its faces of dimension >= 1 are the
    strata the recursion builds tables for; lowest=0 adds the vertices.
    No memo cuts the walk short, so a pair may come more than once."""
    for support in supports:
        np_ = newton_polyhedron(support)
        trivial = Character.trivial(np_.n)
        for face, _ in np_.representatives():
            roots = [(face.delta, face.char)]
            if face.dim >= 1:
                roots.append((face.poly, trivial))
            for poly, char in roots:
                yield poly, char
                for sub, sdim in poly.face_lattice.items():
                    if sdim >= lowest:
                        yield poly.face_polytope(sub), char


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
