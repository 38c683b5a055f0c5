"""Acceptance suite: end-to-end guarantees on fixed input families.

Every test drops all caches first so its wall-clock budget is measured
cold, asserts exact integer and Fraction values with no tolerances, and
prints a single PASS line with its timing.  A failure anywhere is a
failure of the engine, never of the budget machinery.
"""

import time
from fractions import Fraction as F
from itertools import product

from newton_monodromy import (
    SupportSet,
    brieskorn_pham_spectrum,
    clear_caches,
    fastpath_top,
    fastpath_unipotent,
    jordan_blocks,
    kouchnirenko_mu,
    motivic_milnor_table,
    newton_polyhedron,
    validate,
)

from _battery import random_supports
from _buckets import as_fractions

ZERO = F(0)


def _np(points):
    pts = tuple(sorted(tuple(p) for p in points))
    names = tuple("xyzw"[: len(pts[0])])
    return newton_polyhedron(SupportSet(names, pts))


def _finish(num, label, t0, budget):
    dt = time.monotonic() - t0
    assert dt < budget, f"criterion {num} took {dt:.2f}s, budget {budget}s"
    print(f"criterion {num} ({label}): PASS in {dt:.2f}s (budget {budget}s)")


def test_criterion_1_cusp():
    clear_caches()
    t0 = time.monotonic()
    np_ = _np([(2, 0), (0, 3)])
    spec = jordan_blocks(np_)
    assert spec.mu == 2
    assert spec.blocks == {(F(1, 6), 1): 1, (F(5, 6), 1): 1}
    assert spec.multiplicities == {F(1, 6): 1, F(5, 6): 1}
    assert ZERO not in spec.multiplicities
    assert not any(ev == ZERO for ev, _ in spec.blocks)
    mt = motivic_milnor_table(np_)
    assert as_fractions(mt.total, mt.modulus) == {
        (0, 0, ZERO): 1,
        (1, 0, F(5, 6)): -1,
        (0, 1, F(1, 6)): -1,
    }
    _finish(1, "cusp x^2+y^3", t0, 1.0)


def test_criterion_2_quadratic_node():
    clear_caches()
    t0 = time.monotonic()
    np_ = _np([(2, 0), (0, 2)])
    spec = jordan_blocks(np_)
    assert spec.mu == 1
    assert spec.blocks == {(ZERO, 1): 1}
    assert spec.multiplicities == {ZERO: 1}
    mt = motivic_milnor_table(np_)
    assert as_fractions(mt.total, mt.modulus) == {(0, 0, ZERO): 1, (1, 1, ZERO): -1}
    _finish(2, "node x^2+y^2", t0, 1.0)


def test_criterion_3_fermat_cubic():
    clear_caches()
    t0 = time.monotonic()
    spec = jordan_blocks(_np([(3, 0), (0, 3)]))
    assert spec.mu == 4
    assert spec.multiplicities[ZERO] == 2
    assert spec.blocks[(ZERO, 1)] == 2
    assert all(size == 1 for _, size in spec.blocks)
    _finish(3, "cubic x^3+y^3", t0, 1.0)


def test_criterion_4_brieskorn_pham_grid():
    clear_caches()
    t0 = time.monotonic()
    grid = list(product(range(2, 6), repeat=2)) + list(
        product(range(2, 6), repeat=3)
    )
    for exps in grid:
        n = len(exps)
        pts = tuple(
            tuple(e if j == i else 0 for j in range(n))
            for i, e in enumerate(exps)
        )
        spec = jordan_blocks(_np(pts))
        assert spec.multiplicities == brieskorn_pham_spectrum(exps), exps
        assert all(size == 1 for _, size in spec.blocks), exps
        mu = 1
        for e in exps:
            mu *= e - 1
        assert spec.mu == mu == kouchnirenko_mu(pts), exps
    _finish(4, f"Brieskorn-Pham grid, {len(grid)} cases", t0, 60.0)


def test_criterion_5_mixed_quintic():
    clear_caches()
    t0 = time.monotonic()
    np_ = _np([(5, 0), (2, 2), (0, 5)])
    spec = jordan_blocks(np_)
    assert spec.mu == 11
    assert spec.block_sizes(F(1, 2)) == {2: 1}
    assert spec.block_sizes(ZERO) == {1: 1}
    assert fastpath_top(np_, F(1, 2)) == (1, 0)
    for ev in spec.multiplicities:
        if ev == ZERO:
            continue
        want = (spec.blocks.get((ev, 2), 0), spec.blocks.get((ev, 1), 0))
        assert fastpath_top(np_, ev) == want, ev
    assert fastpath_unipotent(np_) == (spec.blocks.get((ZERO, 1), 0), 0)
    _finish(5, "mixed x^5+x^2y^2+y^5", t0, 5.0)


def test_criterion_6_quartic_surface():
    clear_caches()
    t0 = time.monotonic()
    np_ = _np([(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 2)])
    assert fastpath_unipotent(np_) == (0, 6)
    mt = motivic_milnor_table(np_)
    n = np_.n
    sgn = (-1) ** (n - 1)

    def degree_sum(table, degrees):
        return sum(
            v
            for (p, q, a), v in table.items()
            if a == ZERO and p + q in degrees
        )

    routes = []
    for k in range(1, n + 1):
        via_total = sgn * degree_sum(mt.total, {n - 1 + k, n + k})
        via_first = sgn * degree_sum(mt.first, {n - 2 - k, n - 1 - k})
        assert via_total == via_first, k
        routes.append(via_total)
    assert routes == [6, 0, 0]
    report = validate(np_)
    assert report.ok, [c for c in report.checks if c.status == "fail"]
    _finish(6, "quartic surface with interior face", t0, 30.0)


def test_criterion_7_septic_surface():
    clear_caches()
    t0 = time.monotonic()
    pts = [(7, 0, 0), (0, 7, 0), (0, 0, 7), (2, 2, 2)]
    np_ = _np(pts)
    assert fastpath_top(np_, F(1, 2)) == (1, 0)
    spec = jordan_blocks(np_)
    assert spec.block_sizes(F(1, 2)) == {1: 18, 3: 1}
    assert spec.blocks.get((F(1, 2), 3), 0) == 1
    assert spec.blocks.get((F(1, 2), 2), 0) == 0
    assert spec.mu == kouchnirenko_mu(pts) == 167
    _finish(7, "septic surface, size-3 block at -1", t0, 60.0)


def test_criterion_8_random_battery():
    clear_caches()
    t0 = time.monotonic()
    failures = []
    count = 0
    for support in random_supports(200):
        count += 1
        report = validate(newton_polyhedron(support))
        if not report.ok:
            bad = [
                (c.name, c.detail)
                for c in report.checks
                if c.status == "fail"
            ]
            failures.append((support.points, bad))
    assert count == 200
    assert not failures, failures[:3]
    _finish(8, "random battery, 200 supports", t0, 600.0)
