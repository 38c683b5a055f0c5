"""Independent oracles and the validation battery."""

import inspect
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd
from random import Random

import pytest

from newton_monodromy import monodromy, oracles
from newton_monodromy.hodge import _count_chains
from newton_monodromy.monodromy import jordan_blocks
from newton_monodromy.newton import SupportSet, newton_polyhedron
from newton_monodromy.polytope import make_polytope

from _battery import golden_supports, random_supports
from newton_monodromy.oracles import (
    _chains_form_a_sphere,
    brieskorn_pham_exponents,
    brieskorn_pham_spectrum,
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
    n = len(pts[0])
    names = "xyzw"[:n] if n <= 4 else [f"x{i}" for i in range(1, n + 1)]
    return newton_polyhedron(SupportSet(tuple(names), pts))


def _check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


# two powers on the x- and on the z-axis, the higher one dominated
REPEATED_AXIS_POWERS = [(3, 0, 0), (6, 0, 0), (0, 4, 0), (0, 0, 5), (0, 0, 7), (1, 1, 1)]


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


def _price(points, n=None):
    """The Varchenko oracle's search price on a support: the k-subsets of
    each section's undominated points."""
    _, sections = oracles._search_sections(points, n)
    return sum(comb(len(low), size) for size, low in sections)


def test_kouchnirenko_runs_within_default_limit_on_large_exponents():
    """The price counts the subsets the lower-facet search eliminates, not
    lattice points, so x^80 + y^80 + z^80 is well within validate's
    default limit."""
    points = _fermat(3, 80)
    limit = inspect.signature(validate).parameters["heavy_limit"].default
    assert limit == 100_000
    assert _price(points) <= limit
    assert kouchnirenko_mu(points) == 79**3 == 493039


def _fraction_nullspace_generator(rows, k):
    """Reference: the nullspace generator by Fraction Gauss-Jordan
    elimination."""
    mat = [[F(x) for x in r] for r in rows]
    pivot_cols = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
    if r != k - 1:
        return None
    (free,) = [c for c in range(k) if c not in pivot_cols]
    sol = [F(0)] * k
    sol[free] = F(1)
    for ri, c in enumerate(pivot_cols):
        sol[c] = -mat[ri][free]
    scale = 1
    for x in sol:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in sol]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _random_matrices(seed=3):
    """Integer (k-1) x k matrices for k = 1..6: full rank ones, ones made
    rank-deficient by a row that is a combination of the others, ones
    with a zero row, and sparse ones with zero columns."""
    rng = Random(seed)
    for k in range(1, 7):
        for _ in range(60):
            rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k - 1)]
            kind = rng.randrange(4)
            if kind == 1 and k >= 3:
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
            elif kind == 2 and k >= 2:
                rows[rng.randrange(k - 1)] = [0] * k
            elif kind == 3:
                rows = [[x if rng.random() < 0.4 else 0 for x in r] for r in rows]
            yield k, rows


def test_integer_nullspace_matches_fraction_elimination():
    """The fraction-free elimination finds the Fraction one's generator,
    up to sign, and gives None exactly when it does."""
    seen = {True: 0, False: 0}
    for k, rows in _random_matrices():
        got = oracles._nullspace_generator(rows, k)
        want = _fraction_nullspace_generator(rows, k)
        assert (got is None) == (want is None), (k, rows)
        if want is not None:
            assert got in (want, tuple(-x for x in want)), (k, rows)
            assert all(sum(a * x for a, x in zip(r, got)) == 0 for r in rows)
            assert gcd(*got) == 1
        seen[want is None] += 1
    assert seen[True] >= 50 and seen[False] >= 200


def _fraction_det(rows):
    """Reference: the determinant by Fraction Gaussian elimination."""
    mat = [[F(x) for x in r] for r in rows]
    det = F(1)
    for c in range(len(mat)):
        pr = next((i for i in range(c, len(mat)) if mat[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            f = mat[i][c] / mat[c][c]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return det


def test_det_matches_fraction_elimination():
    """The Bareiss determinant equals the Fraction one on the nullspace
    test's matrices for k = 1..5, each made square by one more random
    row: full rank ones, and singular ones from a combined or zero row."""
    rng = Random(29)
    singular = regular = 0
    for k, rows in _random_matrices():
        if k > 5:
            continue
        square = rows + [[rng.randint(-4, 4) for _ in range(k)]]
        want = _fraction_det(square)
        got = oracles._det(square)
        assert type(got) is int and got == want, square
        singular += want == 0
        regular += want != 0
    assert singular >= 50 and regular >= 150


def _pyramid_inequalities(tight, k):
    """The facet inequalities u.x >= b of conv({0} union tight), by brute
    force over vertex subsets, and the pyramid's largest coordinates."""
    verts = [(0,) * k] + [tuple(p) for p in tight]
    ineqs = {}
    for subset in combinations(verts, k):
        base = subset[0]
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in subset[1:]]
        nrm = _fraction_nullspace_generator(diffs, k)
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


def _forward_difference_volume(tight, k):
    """Reference: the normalized volume of conv({0} union tight) as the
    k-th forward difference of its lattice counts over the dilates 0..k,
    each count by the box filter."""
    ineqs, maxc = _pyramid_inequalities(tight, k)
    counts = [_box_filter_count(ineqs, [t * m for m in maxc], t) for t in range(k + 1)]
    return sum((-1) ** (k - t) * comb(k, t) * c for t, c in enumerate(counts))


def _random_tight_sets(seed=11):
    """Per k = 1..5: point sets on one hyperplane with a positive normal
    (as the oracle's facets are, often with more than k points), and
    unconstrained clouds.  Only sets whose pyramid conv({0} union set) is
    full-dimensional are kept: some k of their points have a nonzero
    determinant."""
    rng = Random(seed)
    width = {1: 9, 2: 6, 3: 4, 4: 2, 5: 1}
    for k in (1, 2, 3, 4, 5):
        w = width[k]
        box = list(product(range(w + 1), repeat=k))
        sets = []
        for _ in range(4 if k < 4 else 2):
            u = [rng.randint(1, 3) for _ in range(k)]
            level = sum(a * x for a, x in zip(u, rng.choice(box[1:])))
            plane = [p for p in box if sum(a * x for a, x in zip(u, p)) == level]
            sets.append(rng.sample(plane, rng.randint(min(k, len(plane)), len(plane))))
        for _ in range(4 if k < 4 else 2):
            sets.append(rng.sample(box[1:], k + rng.randint(0, 3)))
        for tight in sets:
            if any(_fraction_det(rows) for rows in combinations(tight, k)):
                yield k, tight
    yield 3, [(1, 2, 0), (1, 2, 3), (3, 1, 1), (0, 0, 2)]
    yield 4, [(3, 1, 2, 0), (2, 1, 3, 1), (3, 1, 2, 3), (3, 1, 1, 2)]
    # lifted with 0 to the heights 1, 2, 4, ... these would put three
    # points on a line and four on a plane; the oracle's base is larger
    yield 1, [(1,), (3,)]
    yield 2, [(1, 0), (0, 1), (1, 2)]


def _lower_facet_vertices(supports):
    """(k, the facet's points, its vertices by _facet_vertices) per lower
    facet of every coordinate section of the supports."""
    for pts in supports:
        for size, sub in oracles._coordinate_sections(pts, len(pts[0])):
            low = oracles._undominated(sub)
            facets = oracles._lower_facets(low, size)
            verts = oracles._facet_vertices(low, size)
            for (_u, b, tight), (m, v) in zip(facets, verts, strict=True):
                assert m == b
                yield size, tight, v


def test_pyramid_volume_matches_forward_differences():
    """The determinant, or the sum of determinants over the lifted
    triangulation, gives the box filter's forward-difference volume: on
    the random tight sets, and on the vertices of every lower facet of
    random supports."""
    for k, tight in _random_tight_sets():
        want = _forward_difference_volume(tight, k)
        assert oracles._pyramid_normalized_volume(tight, k) == want > 0, (k, tight)
    facets = 0
    supports = [sorted(s.points) for s in random_supports(40)]
    for size, tight, verts in _lower_facet_vertices(supports):
        got = oracles._pyramid_normalized_volume(verts, size)
        assert got == _forward_difference_volume(tight, size) > 0, tight
        facets += 1
    assert facets >= 100


def test_random_tight_sets_reach_both_volume_paths():
    """At every k some tight set has exactly k points, a simplex read off
    one determinant, and some has more, a pyramid triangulated by
    lifting."""
    sizes = {}
    for k, tight in _random_tight_sets():
        sizes.setdefault(k, set()).add(len(tight) == k)
    assert sizes == {k: {True, False} for k in (1, 2, 3, 4, 5)}


def _pyramid_vertices(tight, k):
    """Reference: the points of tight that the facets of the pyramid
    conv({0} union tight) through them, intersected, hold alone."""
    pts = [(0,) * k, *tight]
    ineqs, _ = _pyramid_inequalities(tight, k)
    faces = [{p for p in pts if sum(a * x for a, x in zip(u, p)) == b} for u, b in ineqs]
    return tuple(
        p for p in tight if set.intersection(*(f for f in faces if p in f)) == {p}
    )


NON_SIMPLE_4_FACE = _fermat(5, 7) + [(2, 1, 1, 1, 1), (1, 2, 1, 1, 1)]
DENSE_QUARTIC = sorted(p for p in product(range(5), repeat=4) if sum(p) == 4)


def test_facet_vertices_match_the_pyramid_facets():
    """The vertices read off the section's facets, lower and coordinate,
    are those the pyramid's own facets give, on every lower facet of
    random supports, the golden corpus, the cone over a non-simple
    4-face, and facets with points inside an edge or a triangle."""
    supports = [sorted(s.points) for s in random_supports(40)]
    supports += [sorted(s.points) for s in golden_supports()]
    supports += [
        NON_SIMPLE_4_FACE,
        [(4, 0), (3, 1), (2, 2), (0, 4)],
        [(6, 0, 0), (0, 6, 0), (0, 0, 6), (2, 2, 2), (3, 3, 0), (1, 4, 1)],
    ]
    dropped = lifted = 0
    for size, tight, verts in _lower_facet_vertices(supports):
        assert verts == _pyramid_vertices(tight, size), tight
        dropped += len(verts) < len(tight)
        lifted += len(verts) > size
    assert dropped >= 4 and lifted >= 3


def _counted_eliminations(monkeypatch):
    """The list that every later _nullspace_generator call appends its k
    to."""
    calls = []
    real = oracles._nullspace_generator

    def counted(rows, k):
        calls.append(k)
        return real(rows, k)

    monkeypatch.setattr(oracles, "_nullspace_generator", counted)
    return calls


@pytest.mark.parametrize(
    "points,mu,lifted",
    [(DENSE_QUARTIC, 81, 0), (NON_SIMPLE_4_FACE, 5032, 3 * comb(7, 6))],
    ids=["all-35-quartic-monomials", "cone-over-a-non-simple-4-face"],
)
def test_lifted_search_is_the_only_unpriced_work(monkeypatch, points, mu, lifted):
    """The oracle makes its price in eliminations, plus C(|V| + 1, k + 1)
    for each facet of more than k vertices V, whose lifted pyramid is
    searched again.  Every facet of the 35 quartic monomials reduces to
    its axis powers, so none is lifted; the cone over a non-simple 4-face
    has three facets of six vertices in R^5."""
    volume = oracles._pyramid_normalized_volume
    shapes = []

    def recorded(verts, k):
        shapes.append((len(verts), k))
        return volume(verts, k)

    monkeypatch.setattr(oracles, "_pyramid_normalized_volume", recorded)
    calls = _counted_eliminations(monkeypatch)
    assert kouchnirenko_mu(points) == mu
    extra = sum(comb(size + 1, k + 1) for size, k in shapes if size > k)
    assert extra == lifted
    assert len(calls) == _price(points) + lifted


def _two_orientation_hyperplanes(pts, k):
    """Reference: every k-subset's normal tried in both orientations,
    each against every point."""
    found = {}
    for subset in combinations(pts, k):
        base = subset[0]
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in subset[1:]]
        nrm = oracles._nullspace_generator(diffs, k)
        if nrm is None:
            continue
        for u in (nrm, tuple(-x for x in nrm)):
            if u in found:
                continue
            b = sum(a * x for a, x in zip(u, base))
            if all(sum(a * x for a, x in zip(u, p)) >= b for p in pts):
                found[u] = b
    return found


def test_supporting_hyperplanes_match_two_orientation_search():
    """One test per hyperplane finds what testing each orientation of
    every subset's normal found, on full-dimensional, coplanar and
    collinear clouds."""
    rng = Random(23)
    kinds = set()
    for _ in range(120):
        k = rng.randint(1, 4)
        kind = rng.choice(["cloud", "coplanar", "collinear"])
        if kind == "cloud":
            pts = {tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(k + 3)}
        elif kind == "coplanar":
            u = [rng.randint(-2, 3) for _ in range(k)]
            level = rng.randint(0, 6)
            box = product(range(5), repeat=k)
            plane = [p for p in box if sum(a * x for a, x in zip(u, p)) == level]
            pts = set(rng.sample(plane, min(len(plane), k + 2)))
        else:
            a = [rng.randint(0, 3) for _ in range(k)]
            d = [rng.randint(-2, 2) for _ in range(k)]
            steps = range(rng.randint(1, 4))
            pts = {tuple(x + j * y for x, y in zip(a, d)) for j in steps}
        pts = sorted(pts)
        want = _two_orientation_hyperplanes(pts, k)
        assert oracles._supporting_hyperplanes(pts, k) == want, (k, pts)
        kinds.add((kind, bool(want)))
    assert {("cloud", True), ("coplanar", True), ("collinear", False)} <= kinds


def _unfiltered_lower_facets(pts, k):
    """Reference: the lower facets searched over every point of pts."""
    return [
        (u, b, tuple(sorted(p for p in pts if sum(a * x for a, x in zip(u, p)) == b)))
        for u, b in sorted(oracles._supporting_hyperplanes(pts, k).items())
        if all(x > 0 for x in u)
    ]


def test_lower_facets_match_unfiltered_search():
    """Dropping the dominated points before the search changes no lower
    facet: on random supports, on repeated axis powers and on points
    above a pure power, in every coordinate section."""
    supports = [sorted(s.points) for s in random_supports(40)]
    supports += [
        [(2, 0), (5, 0), (0, 3), (0, 4), (1, 1)],
        [(2, 0), (3, 1), (2, 2), (0, 3), (1, 5)],
        REPEATED_AXIS_POWERS,
        [(3, 0, 0), (3, 1, 0), (4, 0, 2), (0, 4, 0), (0, 0, 5), (2, 2, 2)],
    ]
    dropped = 0
    for pts in supports:
        for size, sub in oracles._coordinate_sections(pts, len(pts[0])):
            want = _unfiltered_lower_facets(sub, size)
            low = oracles._undominated(sub)
            assert want and oracles._lower_facets(low, size) == want, sub
            dropped += any(
                q != p and all(x >= y for x, y in zip(p, q)) for p in sub for q in sub
            )
    assert dropped >= 10


def test_varchenko_multiplicities_infers_the_dimension():
    points = [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 2)]
    assert varchenko_multiplicities(points, None) == varchenko_multiplicities(points, 3)
    assert oracles._search_sections(points, None) == oracles._search_sections(points, 3)
    assert _price(points) == _price(points, 3) == 10


def test_kouchnirenko_mu_rejects_an_infinite_exponent():
    with pytest.raises(ValueError, match=r"bad support point \(inf, 0\)"):
        kouchnirenko_mu([(float("inf"), 0), (0, 2)])


def test_varchenko_price_grows_with_input():
    """More variables and higher exponents mean more undominated points
    in more sections, so more subsets to search."""
    small = _price([(2, 0), (0, 3)])
    big = _price([(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 2)])
    assert isinstance(small, int) and small > 0
    assert big > small
    assert _price(_fermat(4, 5) + [(1, 1, 1, 1)]) > big
    cubes = [_price(_fermat(n, 3) + [(1,) * n]) for n in (6, 7, 8)]
    assert cubes == sorted(set(cubes))


@pytest.mark.parametrize(
    "points",
    [
        [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 2)],
        REPEATED_AXIS_POWERS,
        _fermat(8, 3) + [(1,) * 8],
    ],
    ids=["x^4+y^4+z^4+x^2y^2z^2", "repeated-axis-powers", "cubes-8"],
)
def test_search_price_is_the_search_work(monkeypatch, points):
    """Where every lower facet is a simplex, no pyramid is searched
    again, so the oracle makes exactly as many eliminations as its price
    says.  Just under the price validate skips the check without one
    elimination and names the price and the limit; at the price it runs
    the check and passes."""
    price = _price(points)
    sections = oracles._search_sections(points, None)[1]
    for size, low in sections:
        for _u, _b, tight in oracles._lower_facets(low, size):
            assert len(tight) == size, tight
    calls = _counted_eliminations(monkeypatch)
    varchenko_multiplicities(points)
    assert len(calls) == price
    np_ = _np(points)
    jordan_blocks(np_)
    calls.clear()
    check = _check(validate(np_, heavy_limit=price - 1), "kouchnirenko-mu")
    assert calls == []
    assert check.status == "skip"
    assert check.detail == f"search price {price} subsets over limit {price - 1}"
    check = _check(validate(np_, heavy_limit=price), "kouchnirenko-mu")
    assert check.status == "pass" and len(calls) == price


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


def test_brieskorn_pham_spectrum_rejects_non_integers_and_no_exponents():
    """2.5 is not truncated to 2, and no exponents is not the spectrum
    {0: 1} of the empty product."""
    for bad in ([2.5, 3], [F(7, 2), 3], []):
        with pytest.raises(ValueError, match="nonempty list of integers"):
            brieskorn_pham_spectrum(bad)
    assert brieskorn_pham_spectrum([2.0, F(3)]) == brieskorn_pham_spectrum((2, 3))


def test_brieskorn_pham_spectrum_rejects_an_infinite_exponent():
    with pytest.raises(ValueError, match=r"exponents \[2, inf\]"):
        brieskorn_pham_spectrum([2, float("inf")])


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


SEGMENT = [(0, 0), (2, 2)]
TRIANGLE = [(0, 0), (2, 0), (0, 3)]
SQUARE = [(0, 0), (2, 0), (0, 2), (2, 2)]
OCTAHEDRON = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
]


def _lattice(points):
    poly = make_polytope(points)
    return dict(poly.face_lattice), poly.dim


def _sphere(lat, m):
    """_chains_form_a_sphere on a lattice and the chains counted on it."""
    return _chains_form_a_sphere(lat, m, _count_chains(lat, m))


def _first_edge(lat):
    return min((f for f, d in lat.items() if d == 1), key=sorted)


def _diagonal(lat):
    """The first pair of vertices that is not an edge."""
    vertices = sorted(v for f, d in lat.items() if d == 0 for v in f)
    pairs = map(frozenset, combinations(vertices, 2))
    return next(p for p in pairs if lat.get(p) != 1)


def test_chains_form_a_sphere_on_polytopes():
    """The octahedron's normal fan is not simplicial, its chains of faces
    are; the golden corpus reaches cones over quadrilaterals too."""
    for points in (SEGMENT, TRIANGLE, SQUARE, OCTAHEDRON):
        assert _sphere(*_lattice(points)), points
    polys = {
        poly
        for support in golden_supports()
        for f in newton_polyhedron(support).faces
        for poly in ([f.delta, f.poly] if f.dim >= 1 else [f.delta])
    }
    assert {poly.dim for poly in polys} == {1, 2, 3, 4}
    for poly in polys:
        assert _sphere(poly.face_lattice, poly.dim), poly


def test_chains_form_a_sphere_fails_on_a_wrong_lattice():
    # a triangle with one edge dropped is a path, no circle
    lat, m = _lattice(TRIANGLE)
    del lat[_first_edge(lat)]
    assert not _sphere(lat, m)
    # a square with a diagonal edge added
    lat, m = _lattice(SQUARE)
    lat[_diagonal(lat)] = 1
    assert not _sphere(lat, m)
    # an edge of a triangle labelled a vertex: the chains still count a
    # circle, the face dimensions do not
    lat, m = _lattice(TRIANGLE)
    lat[_first_edge(lat)] = 0
    assert not _sphere(lat, m)
    # an edge of the octahedron moved onto a diagonal through its centre,
    # which lies in no facet: the face dimensions still count a sphere,
    # the chains do not
    lat, m = _lattice(OCTAHEDRON)
    diagonal = _diagonal(lat)
    del lat[_first_edge(lat)]
    lat[diagonal] = 1
    assert sum((-1) ** d for d in lat.values() if d < m) == 2
    assert not _sphere(lat, m)


def test_fan_refinement_checks_the_strata_sums_chain_counts(monkeypatch):
    """fan-refinement sums the chain counts that hodge._chains hands the
    strata sum, so a miscount there fails it even on a right lattice: one
    chain edge > vertex too many, ending at a vertex of each polytope."""
    real = oracles._chains

    def one_chain_too_many(shape):
        chains = {face: dict(ends) for face, ends in real(shape).items()}
        vertex = min((f for f, d in shape.face_lattice.items() if d == 0), key=sorted)
        chains[vertex][1] = chains[vertex].get(1, 0) + 1
        return chains

    monkeypatch.setattr(oracles, "_chains", one_chain_too_many)
    report = validate(_np([(2, 0), (0, 3)]))
    by_name = {c.name: c for c in report.checks}
    assert by_name["fan-refinement"].status == "fail"
    assert all(c.status != "fail" for c in report.checks if c.name != "fan-refinement")


def test_validate_reports_a_wrong_face_lattice(monkeypatch):
    """A face lattice missing a facet reaches the fan-refinement check,
    which fails with the polytope named; the report is still whole."""
    real = oracles._chains_form_a_sphere

    def facet_dropped(lattice, m, chains):
        lattice = dict(lattice)
        facet = min((f for f, d in lattice.items() if d == m - 1), key=sorted)
        del lattice[facet]
        return real(lattice, m, _count_chains(lattice, m))

    monkeypatch.setattr(oracles, "_chains_form_a_sphere", facet_dropped)
    report = validate(_np([(2, 0), (0, 3)]))
    assert [c.name for c in report.checks] == CHECK_NAMES
    by_name = {c.name: c for c in report.checks}
    assert by_name["fan-refinement"].status == "fail"
    assert "chains of faces are no sphere on" in by_name["fan-refinement"].detail
    assert "fan-refinement: fail" in report.summary()
    assert not report.ok
    assert all(c.status != "fail" for c in report.checks if c.name != "fan-refinement")


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
    """Every search price exceeds a limit of 0."""
    report = validate(_np([(2, 0), (0, 3)]), heavy_limit=0)
    by_name = {c.name: c for c in report.checks}
    assert by_name["kouchnirenko-mu"].status == "skip"
    assert "over limit" in by_name["kouchnirenko-mu"].detail
    assert report.ok


def test_validate_catches_injected_corruption(monkeypatch):
    """A table corrupted behind the validator's back must be flagged.

    The injected entries keep every row sum intact, so the first check
    to notice is the conjugation symmetry.  The tables are keyed by
    residues mod the modulus d' of the table's buckets, and the entries
    go to d' + 1, which no bucket of that modulus has, as 1/7 is no
    value of a character of order 6."""
    real = oracles.hodge_table

    def corrupted(poly, char):
        table = dict(real(poly, char))
        if poly.dim == 2:
            bad = oracles.restricted(poly, char)[0] + 1
            table[(0, 0, bad)] = table.get((0, 0, bad), 0) + 1
            table[(0, 1, bad)] = table.get((0, 1, bad), 0) - 1
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
    real = oracles._read_blocks
    one, three = F(1, 10), F(3, 10)

    def moved(mt):
        spec = real(mt)
        blocks, mults = dict(spec.blocks), dict(spec.multiplicities)
        blocks[(one, 1)] -= 1
        blocks[(three, 1)] += 1
        mults[one] -= 1
        mults[three] += 1
        return replace(spec, blocks=blocks, multiplicities=mults)

    monkeypatch.setattr(oracles, "_read_blocks", moved)
    report = validate(_np([(5, 0), (2, 2), (0, 5)]))
    by_name = {c.name: c for c in report.checks}
    assert by_name["block-counts-sane"].status == "pass"
    assert by_name["kouchnirenko-mu"].status == "fail"
    assert "Varchenko" in by_name["kouchnirenko-mu"].detail
    assert not report.ok


def test_validate_names_the_varchenko_mu_on_a_mismatch(monkeypatch):
    """One extra size-1 block with its unit of multiplicity keeps every
    block count sane but raises mu, which kouchnirenko-mu names against
    Varchenko's."""
    real = oracles._read_blocks
    ev = F(1, 10)

    def extra_block(mt):
        spec = real(mt)
        blocks, mults = dict(spec.blocks), dict(spec.multiplicities)
        blocks[(ev, 1)] += 1
        mults[ev] += 1
        return replace(spec, mu=spec.mu + 1, blocks=blocks, multiplicities=mults)

    monkeypatch.setattr(oracles, "_read_blocks", extra_block)
    report = validate(_np([(5, 0), (2, 2), (0, 5)]))
    by_name = {c.name: c for c in report.checks}
    assert by_name["block-counts-sane"].status == "pass"
    assert by_name["kouchnirenko-mu"].status == "fail"
    assert by_name["kouchnirenko-mu"].detail == "engine mu 12 != Varchenko mu 11"
    assert not report.ok


def test_validate_catches_an_off_closed_formula_count(monkeypatch):
    """One closed-formula count off by one, at a single eigenvalue and
    size, fails prime-face-closed-formula and nothing before it."""
    real = oracles._prime_face_counts

    def off(np_):
        formula = dict(real(np_))
        counts = formula[F(3, 10)] = dict(formula[F(3, 10)])
        counts[2] += 1
        return formula

    monkeypatch.setattr(oracles, "_prime_face_counts", off)
    report = validate(_np([(5, 0), (2, 2), (0, 5)]))
    by_name = {c.name: c for c in report.checks}
    assert by_name["block-counts-sane"].status == "pass"
    assert by_name["prime-face-closed-formula"].status == "fail"
    assert "eigenvalue 3/10, size >= 2" in by_name["prime-face-closed-formula"].detail
    assert not report.ok


def test_validate_catches_a_dropped_eigenvalue_by_the_closed_formula(monkeypatch):
    """An eigenvalue other than 1 dropped from the spectrum, with its
    multiplicity and its blocks, is still carried by a face's cone, and
    the closed formula counts blocks there, so prime-face-closed-formula
    fails: it checks every eigenvalue the faces carry, not only the
    spectrum's."""
    real = oracles._read_blocks
    dropped = []

    def dropping(mt):
        spec = real(mt)
        ev = next(a for a in spec.sorted_eigenvalues() if a != 0)
        dropped.append(ev)
        mults = {a: m for a, m in spec.multiplicities.items() if a != ev}
        blocks = {key: c for key, c in spec.blocks.items() if key[0] != ev}
        mu = sum(mults.values())
        return replace(spec, mu=mu, blocks=blocks, multiplicities=mults)

    monkeypatch.setattr(oracles, "_read_blocks", dropping)
    report = validate(_np([(5, 0), (2, 2), (0, 5)]))
    by_name = {c.name: c for c in report.checks}
    assert by_name["block-counts-sane"].status == "pass"
    assert by_name["prime-face-closed-formula"].status == "fail"
    (ev,) = dropped
    assert f"closed formula at eigenvalue {ev}, size >= 1" in (
        by_name["prime-face-closed-formula"].detail
    )
    assert not report.ok


def test_validate_catches_a_perturbed_row_sum(monkeypatch):
    """One anti-diagonal sum of one pseudo-prime cone, read by residue
    from _row_sums, off by one fails pseudo-prime-row-sums, and the
    detail names the cone and the bucket."""
    real = oracles._row_sums
    seen = []

    def perturbed(poly, char):
        rows = dict(real(poly, char))
        if not seen and rows:
            a = min(rows)
            rows[a] = (rows[a][0] + 1,) + rows[a][1:]
            seen.append((poly, a, oracles.restricted(poly, char)[0]))
        return rows

    monkeypatch.setattr(oracles, "_row_sums", perturbed)
    np_ = _np([(5, 0), (2, 2), (0, 5)])
    report = validate(np_)
    by_name = {c.name: c for c in report.checks}
    assert by_name["boundary-and-row-sums"].status == "pass"
    assert by_name["pseudo-prime-row-sums"].status == "fail"
    (poly, a, d), = seen
    face = next(f for f in np_.faces if f.delta is poly)
    assert by_name["pseudo-prime-row-sums"].detail == (
        f"anti-diagonal formula fails on {face.points}, bucket {a}/{d}, p+q=0"
    )
    assert not report.ok


def test_validate_catches_a_shifted_row_target(monkeypatch):
    """One row-sum target of boundary_values moved by +1 behind the
    validator's back fails boundary-and-row-sums, naming the row and the
    bucket residue."""
    real = oracles.boundary_values
    seen = []

    def shifted(poly, char):
        bv, targets, alphas = real(poly, char)
        if not seen:
            targets = dict(targets)
            key = min(targets)
            targets[key] += 1
            seen.append(key)
        return bv, targets, alphas

    monkeypatch.setattr(oracles, "boundary_values", shifted)
    report = validate(_np([(5, 0), (2, 2), (0, 5)]))
    by_name = {c.name: c for c in report.checks}
    assert by_name["boundary-and-row-sums"].status == "fail"
    (p, a), = seen
    assert f"row sum p={p} bucket residue {a} on face" in (
        by_name["boundary-and-row-sums"].detail
    )
    assert by_name["conjugation-symmetry"].status == "pass"
    assert not report.ok


def test_validate_runs_the_oracle_on_five_variables():
    """x1^6 + ... + x5^6 + x1*...*x5 (61 compact faces) is within the
    default limit, and the oracle agrees with the engine."""
    names = tuple(f"x{i}" for i in range(1, 6))
    points = tuple(sorted(_fermat(5, 6) + [(1,) * 5]))
    report = validate(newton_polyhedron(SupportSet(names, points)))
    by_name = {c.name: c for c in report.checks}
    assert by_name["kouchnirenko-mu"].status == "pass"
    assert by_name["kouchnirenko-mu"].detail == "mu = 1829"
    assert report.ok


def test_validate_assembles_the_motivic_table_once(monkeypatch):
    """validate reads the Jordan blocks off the motivic table that its
    later checks use, so the table is assembled once per call."""
    real = monodromy.motivic_milnor_table
    calls = []

    def counted(np_):
        calls.append(np_)
        return real(np_)

    monkeypatch.setattr(monodromy, "motivic_milnor_table", counted)
    monkeypatch.setattr(oracles, "motivic_milnor_table", counted)
    assert validate(_np([(5, 0), (2, 2), (0, 5)])).ok
    assert len(calls) == 1


def test_validate_reads_each_table_key_and_shape_once(monkeypatch):
    """x1^3 + ... + x8^3 + x1*...*x8 has 255 compact faces, but their
    cones have few (shape, restriction) keys and the cones and faces few
    shapes.  After a warm answer, validate rebuilds the boundary values
    once per cone key and checks the chains once per shape.  The search
    price of the Varchenko oracle, 263 subsets, is within the default
    limit, so kouchnirenko-mu runs and passes."""
    names = tuple(f"x{i}" for i in range(1, 9))
    points = tuple(sorted(_fermat(8, 3) + [(1,) * 8]))
    np_ = newton_polyhedron(SupportSet(names, points))
    assert len(np_.faces) == 255
    assert _price(points) == 263
    jordan_blocks(np_)
    cone_keys = {
        (f.delta.shape, oracles.restricted(f.delta, f.char)) for f in np_.faces
    }
    shapes = {f.delta.shape for f in np_.faces}
    shapes |= {f.poly.shape for f in np_.faces if f.dim >= 1}

    real_bv, real_chains = oracles.boundary_values, oracles._chains_form_a_sphere
    bv_keys, lattices = [], []

    def counted_bv(poly, char):
        bv_keys.append((poly.shape, oracles.restricted(poly, char)))
        return real_bv(poly, char)

    def counted_chains(lattice, m, chains):
        lattices.append(lattice)
        return real_chains(lattice, m, chains)

    monkeypatch.setattr(oracles, "boundary_values", counted_bv)
    monkeypatch.setattr(oracles, "_chains_form_a_sphere", counted_chains)
    report = validate(np_)
    assert set(bv_keys) == cone_keys and len(bv_keys) == len(cone_keys)
    assert sorted(map(id, lattices)) == sorted(id(s.face_lattice) for s in shapes)
    skipped = {"quasi-homogeneous-semisimple", "brieskorn-pham-spectrum"}
    assert [(c.name, c.status) for c in report.checks] == [
        (name, "skip" if name in skipped else "pass") for name in CHECK_NAMES
    ]


def _tampered_report(np_, **fields):
    """validate's report on np_ with some orbit data replaced, by name:
    {check: (status, detail)}."""
    report = validate(replace(np_, **fields))
    return {c.name: (c.status, c.detail) for c in report.checks}


def test_face_data_checks_the_symmetry_orbits():
    """x^4 + y^4 + z^3 + x*y*z is fixed by the swap (x y) alone.  Orbit
    data the swaps do not bear out fails face-data: a wrong orbit size,
    two vertices that are no images of each other in one orbit, and a
    swap that moves the support."""
    np_ = _np([(4, 0, 0), (0, 4, 0), (0, 0, 3), (1, 1, 1)])
    assert np_.swaps == ((0, 1),)
    assert validate(np_).ok
    rep, orbits = list(np_.representative), list(np_.orbits)

    orbits[0] = (orbits[0][0], orbits[0][1] + 1)
    got = _tampered_report(np_, orbits=tuple(orbits))
    assert got["face-data"] == ("fail", "orbit sizes do not count the faces")

    a, b = (f.index for f in np_.faces if f.points in [((0, 0, 3),), ((1, 1, 1),)])
    assert (rep[a], rep[b]) == (a, b)
    rep[b] = a
    merged = tuple(sorted(Counter(rep).items()))
    got = _tampered_report(np_, representative=tuple(rep), orbits=merged)
    assert got["face-data"] == ("fail", "an orbit is not connected by swaps")

    got = _tampered_report(np_, swaps=((0, 1), (1, 2)))
    assert got["face-data"] == ("fail", "swap (1, 2) moves the support")


def test_validation_report_summary_format():
    report = validate(_np([(2, 0), (0, 3)]))
    lines = report.summary().splitlines()
    assert len(lines) == len(CHECK_NAMES)
    for line, name in zip(lines, CHECK_NAMES):
        assert line.startswith(f"{name}: ")
