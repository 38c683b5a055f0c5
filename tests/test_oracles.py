"""Independent oracles and the validation battery."""

import inspect
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb
from random import Random

import pytest

from newton_monodromy import oracles
from newton_monodromy.monodromy import jordan_blocks
from newton_monodromy.newton import SupportSet, newton_polyhedron
from newton_monodromy.oracles import (
    brieskorn_pham_exponents,
    brieskorn_pham_spectrum,
    kouchnirenko_cost,
    kouchnirenko_mu,
    validate,
    varchenko_multiplicities,
)

F = Fraction

CHECK_NAMES = [
    "face-data",
    "hodge-tables-build",
    "boundary-and-row-sums",
    "conjugation-symmetry",
    "ehrhart-shift-identity",
    "pyramid-identity",
    "global-unipotent-identity",
    "fan-refinement",
    "jordan-blocks-consistent",
    "two-route-unipotent",
    "unit-class-normalization",
    "steenbrink-saito-symmetry",
    "block-counts-sane",
    "pseudo-prime-row-sums",
    "prime-face-closed-formula",
    "fastpath-top",
    "fastpath-unipotent",
    "quasi-homogeneous-semisimple",
    "kouchnirenko-mu",
    "brieskorn-pham-spectrum",
]


def _np(points):
    pts = tuple(sorted(tuple(p) for p in points))
    return newton_polyhedron(SupportSet(tuple("xyzw"[: len(pts[0])]), pts))


def test_kouchnirenko_values():
    assert kouchnirenko_mu([(2, 0), (0, 3)]) == 2
    assert kouchnirenko_mu([(3, 0), (0, 3)]) == 4
    assert kouchnirenko_mu([(5, 0), (2, 2), (0, 5)]) == 11
    assert kouchnirenko_mu([(4, 0), (2, 2), (0, 4)]) == 9
    assert kouchnirenko_mu([(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 2)]) == 27
    assert kouchnirenko_mu([(3, 0, 0), (0, 4, 0), (0, 0, 5)]) == 24
    assert kouchnirenko_mu([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]) == 1


def test_kouchnirenko_rejects_bad_support():
    with pytest.raises(ValueError, match="empty"):
        kouchnirenko_mu([])
    with pytest.raises(ValueError, match="origin"):
        kouchnirenko_mu([(0, 0), (2, 0), (0, 3)])
    with pytest.raises(ValueError, match="convenient"):
        kouchnirenko_mu([(2, 0), (1, 1)])


def test_kouchnirenko_rejects_non_integer_exponents():
    """A fractional exponent is refused, not truncated to x^2 + y^3."""
    for half in (2.5, F(5, 2)):
        with pytest.raises(ValueError, match="bad support point"):
            kouchnirenko_mu([(half, 0), (0, 3)])


def _fermat(n, e):
    return [tuple(e if i == j else 0 for j in range(n)) for i in range(n)]


@pytest.mark.parametrize(
    "points,mu",
    [(_fermat(3, e), (e - 1) ** 3) for e in (8, 12, 16, 20)]
    + [
        ([(7, 0, 0), (0, 7, 0), (0, 0, 7), (2, 2, 2)], 167),
        (_fermat(4, 4), 81),
        (_fermat(4, 5) + [(1, 1, 1, 1)], 131),
        (_fermat(4, 6) + [(2, 2, 1, 1)], 625),
    ],
)
def test_kouchnirenko_mu_on_exponent_ladder(points, mu):
    assert kouchnirenko_mu(points) == mu


def test_kouchnirenko_runs_within_default_limit_on_large_exponents():
    """The cost counts fibres, so x^80 + y^80 + z^80 is no longer
    skipped by validate's default limit."""
    points = _fermat(3, 80)
    limit = inspect.signature(validate).parameters["heavy_limit"].default
    assert limit == 50_000_000
    assert kouchnirenko_cost(points, 3) <= limit
    assert kouchnirenko_mu(points) == 79**3 == 493039


def _pyramid_inequalities(tight, k):
    """The facet inequalities u.x >= b of conv({0} union tight), by brute
    force over vertex subsets, and the pyramid's largest coordinates."""
    verts = [(0,) * k] + [tuple(p) for p in tight]
    ineqs = {}
    for subset in combinations(verts, k):
        base = subset[0]
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in subset[1:]]
        nrm = oracles._nullspace_generator(diffs, k)
        if nrm is None:
            continue
        for u in (nrm, tuple(-x for x in nrm)):
            b = sum(a * x for a, x in zip(u, base))
            if all(sum(a * x for a, x in zip(u, v)) >= b for v in verts):
                ineqs[u] = min(b, ineqs.get(u, b))
    return sorted(ineqs.items()), [max(v[j] for v in verts) for j in range(k)]


def _box_filter_count(ineqs, top, t):
    """Reference: every point of the box 0 <= x <= top tested against
    every inequality u.x >= t*b."""
    return sum(
        all(sum(a * y for a, y in zip(u, x)) >= t * b for u, b in ineqs)
        for x in product(*(range(m + 1) for m in top))
    )


def _random_tight_sets(seed=11):
    """Per k = 1..4: point sets on one hyperplane with a positive normal
    (as the oracle's facets are, often with more than k points), and
    unconstrained clouds, whose pyramids have facets through the origin
    with zero or negative last normal coordinates."""
    rng = Random(seed)
    width = {1: 9, 2: 6, 3: 4, 4: 2}
    for k in (1, 2, 3, 4):
        w = width[k]
        box = list(product(range(w + 1), repeat=k))
        for _ in range(4 if k < 4 else 2):
            u = [rng.randint(1, 3) for _ in range(k)]
            level = sum(a * x for a, x in zip(u, rng.choice(box[1:])))
            plane = [p for p in box if sum(a * x for a, x in zip(u, p)) == level]
            yield k, rng.sample(plane, rng.randint(min(k, len(plane)), len(plane)))
        for _ in range(4 if k < 4 else 2):
            yield k, rng.sample(box[1:], k + rng.randint(0, 3))
    yield 3, [(1, 2, 0), (1, 2, 3), (3, 1, 1), (0, 0, 2)]


def test_fibre_counts_match_box_filter():
    """The fibre counter gives the box filter's count on every dilate,
    and so the same volumes.  The counts are compared one by one: an
    error that shifts a facet changes counts but can leave the k-th
    finite difference, the volume, as it was."""
    seen = set()
    for k, tight in _random_tight_sets():
        ineqs, maxc = _pyramid_inequalities(tight, k)
        counts = [1]
        for t in range(1, k + 1):
            top = [t * m for m in maxc]
            counts.append(_box_filter_count(ineqs, top, t))
            assert oracles._fibre_count(ineqs, top, t) == counts[t], (k, tight, t)
        want = sum((-1) ** (k - t) * comb(k, t) * counts[t] for t in range(k + 1))
        assert oracles._pyramid_normalized_volume(tight, k) == want, (k, tight)
        seen.add(k)
    assert seen == {1, 2, 3, 4}


def test_kouchnirenko_cost_scales_with_input():
    small = kouchnirenko_cost([(2, 0), (0, 3)], 2)
    big = kouchnirenko_cost([(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 2)], 3)
    assert isinstance(small, int) and small > 0
    assert big > small


def test_varchenko_multiplicities_values():
    assert varchenko_multiplicities([(2, 0), (0, 3)]) == {F(1, 6): 1, F(5, 6): 1}
    assert varchenko_multiplicities([(2, 0), (0, 2)]) == {F(0): 1}
    assert varchenko_multiplicities([(5, 0), (2, 2), (0, 5)]) == {
        F(0): 1, F(1, 10): 2, F(3, 10): 2, F(1, 2): 2, F(7, 10): 2, F(9, 10): 2
    }
    assert varchenko_multiplicities([(3, 0, 0), (0, 4, 0), (0, 0, 5)]) == (
        brieskorn_pham_spectrum((3, 4, 5))
    )
    with pytest.raises(ValueError, match="convenient"):
        varchenko_multiplicities([(2, 0), (1, 1)])


def test_brieskorn_pham_spectrum_small_cases():
    assert brieskorn_pham_spectrum((2, 3)) == {F(1, 6): 1, F(5, 6): 1}
    assert brieskorn_pham_spectrum((2, 2)) == {F(0): 1}
    assert brieskorn_pham_spectrum((3, 3)) == {F(0): 2, F(1, 3): 1, F(2, 3): 1}
    with pytest.raises(ValueError, match=">= 2"):
        brieskorn_pham_spectrum((1, 3))


def test_brieskorn_pham_spectrum_total_is_product():
    for a in range(2, 6):
        for b in range(2, 6):
            assert sum(brieskorn_pham_spectrum((a, b)).values()) == (a - 1) * (b - 1)


def _brieskorn_pham_walk(exps):
    """Reference: one Fraction sum per exponent tuple (k1, ..., kn)."""
    counts = {}
    for ks in product(*(range(1, a) for a in exps)):
        val = sum(F(k, a) for k, a in zip(ks, exps)) % 1
        counts[val] = counts.get(val, 0) + 1
    return counts


def test_brieskorn_pham_spectrum_matches_tuple_walk():
    cases = [e for n in (1, 2, 3) for e in product(range(2, 8), repeat=n)]
    cases += [(2, 3, 5, 7), (20, 20, 20)]
    for exps in cases:
        assert brieskorn_pham_spectrum(exps) == _brieskorn_pham_walk(exps), exps


def test_brieskorn_pham_spectrum_matches_engine():
    assert brieskorn_pham_spectrum((2, 3)) == jordan_blocks(_np([(2, 0), (0, 3)])).multiplicities
    assert brieskorn_pham_spectrum((3, 3)) == jordan_blocks(_np([(3, 0), (0, 3)])).multiplicities


def test_brieskorn_pham_exponents():
    assert brieskorn_pham_exponents(_np([(2, 0), (0, 3)])) == [2, 3]
    assert brieskorn_pham_exponents(_np([(5, 0), (2, 2), (0, 5)])) is None
    assert brieskorn_pham_exponents(
        _np([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
    ) == [2, 2, 2, 2]


def test_validate_cusp_all_green():
    report = validate(_np([(2, 0), (0, 3)]))
    assert report.ok
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert all(c.status in ("pass", "skip") for c in report.checks)
    by_name = {c.name: c for c in report.checks}
    assert by_name["kouchnirenko-mu"].detail == "mu = 2"
    assert by_name["brieskorn-pham-spectrum"].status == "pass"
    assert by_name["pseudo-prime-row-sums"].status == "pass"
    assert "jordan-blocks-consistent: pass (mu = 2)" in report.summary()


def test_validate_two_edge_polygon():
    report = validate(_np([(5, 0), (2, 2), (0, 5)]))
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["prime-face-closed-formula"].status == "pass"
    assert by_name["quasi-homogeneous-semisimple"].status == "skip"
    assert by_name["brieskorn-pham-spectrum"].status == "skip"


def test_validate_heavy_limit_skips_volume_oracle():
    report = validate(_np([(2, 0), (0, 3)]), heavy_limit=0)
    by_name = {c.name: c for c in report.checks}
    assert by_name["kouchnirenko-mu"].status == "skip"
    assert "over limit" in by_name["kouchnirenko-mu"].detail
    assert report.ok


def test_validate_catches_injected_corruption(monkeypatch):
    """A table corrupted behind the validator's back must be flagged.

    The injected entries keep every row sum intact, so the first check
    to notice is the conjugation symmetry."""
    real = oracles.hodge_table

    def corrupted(poly, char):
        table = dict(real(poly, char))
        if poly.dim == 2:
            table[(0, 0, F(1, 7))] = table.get((0, 0, F(1, 7)), 0) + 1
            table[(0, 1, F(1, 7))] = table.get((0, 1, F(1, 7)), 0) - 1
        return table

    monkeypatch.setattr(oracles, "hodge_table", corrupted)
    report = validate(_np([(2, 0), (0, 3)]))
    assert not report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["boundary-and-row-sums"].status == "pass"
    assert by_name["conjugation-symmetry"].status == "fail"
    assert "conjugation" in by_name["conjugation-symmetry"].detail


def test_validate_catches_a_moved_multiplicity(monkeypatch):
    """One unit of multiplicity moved, with its size-1 block, from 1/10
    to 3/10 keeps mu and every block count sane; only the comparison
    with Varchenko's multiplicities can notice."""
    real = oracles.jordan_blocks
    one, three = F(1, 10), F(3, 10)

    def moved(np_):
        spec = real(np_)
        blocks, mults = dict(spec.blocks), dict(spec.multiplicities)
        blocks[(one, 1)] -= 1
        blocks[(three, 1)] += 1
        mults[one] -= 1
        mults[three] += 1
        return replace(spec, blocks=blocks, multiplicities=mults)

    monkeypatch.setattr(oracles, "jordan_blocks", moved)
    report = validate(_np([(5, 0), (2, 2), (0, 5)]))
    by_name = {c.name: c for c in report.checks}
    assert by_name["block-counts-sane"].status == "pass"
    assert by_name["kouchnirenko-mu"].status == "fail"
    assert "Varchenko" in by_name["kouchnirenko-mu"].detail
    assert not report.ok


def test_validation_report_summary_format():
    report = validate(_np([(2, 0), (0, 3)]))
    lines = report.summary().splitlines()
    assert len(lines) == len(CHECK_NAMES)
    for line, name in zip(lines, CHECK_NAMES):
        assert line.startswith(f"{name}: ")
