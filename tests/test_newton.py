"""Newton polyhedra: compact faces, facets, characters, twists."""

from collections import Counter
from fractions import Fraction
from math import comb
from random import Random

import pytest

from newton_monodromy import intlinalg as ila
from newton_monodromy import newton
from newton_monodromy.ehrhart import Character, restricted
from newton_monodromy.errors import (
    InputError,
    InternalConsistencyError,
    NotConvenientError,
)
from newton_monodromy.newton import SupportSet, _face_character, newton_polyhedron
from newton_monodromy.polytope import cone_rays, make_polytope

from _battery import golden_supports, random_supports

F = Fraction


def _np(points, variables=None):
    pts = tuple(tuple(p) for p in points)
    if variables is None:
        variables = tuple("xyzw"[: len(pts[0])])
    return newton_polyhedron(SupportSet(variables, pts))


def test_cusp_faces():
    np_ = _np([(2, 0), (0, 3)])
    assert np_.n == 2
    assert [f.dim for f in np_.faces] == [0, 0, 1]
    assert [f.points for f in np_.faces] == [
        (((0, 3)),),
        (((2, 0)),),
        ((0, 3), (2, 0)),
    ]
    v3, v2, edge = np_.faces
    assert (v3.distance, v3.char) == (3, Character(3, (0, 1)))
    assert (v2.distance, v2.char) == (2, Character(2, (1, 0)))
    assert (edge.distance, edge.char) == (6, Character(6, (3, 2)))
    assert [f.twist for f in np_.faces] == [0, 0, 0]
    assert [f.interior_touching for f in np_.faces] == [False, False, True]
    assert v2.axes == frozenset({0})
    assert edge.axes == frozenset({0, 1})
    assert [f.index for f in np_.faces] == [0, 1, 2]


def test_cusp_facets():
    np_ = _np([(2, 0), (0, 3)])
    assert [f.normal for f in np_.facets] == [(0, 1), (1, 0), (3, 2)]
    assert [f.offset for f in np_.facets] == [0, 0, 6]
    assert [f.compact for f in np_.facets] == [False, False, True]
    # the compact facet carries both support points
    assert np_.facets[2].tight == frozenset({0, 1})


def test_face_character_is_trivial_on_the_face():
    np_ = _np([(5, 0), (2, 2), (0, 5)])
    for f in np_.faces:
        for p in f.points:
            assert f.char.value(p) == F(0)
        assert f.char.modulus == f.distance


def _kernel_face_character(poly, delta):
    """Reference: the primitive form on delta's lattice that vanishes at 0
    and is constant on the face, solved as the one-dimensional kernel of
    the face's vertices in delta's chart, then lifted to Z^n."""
    rows = [delta.chart.to_chart(v) + (-1,) for v in poly.vertices]
    (gen,) = ila.kernel_basis(rows, delta.dim + 1)
    w, c = gen[:-1], gen[-1]
    if c < 0:
        w, c = tuple(-x for x in w), -c
    assert c > 0
    return c, Character(c, ila.solve_integer(list(delta.chart.basis), w))


def test_face_character_is_the_kernel_solve():
    """The far facet of each cone gives the form the kernel solve gives,
    on every compact face of the golden corpus and the random battery."""
    faces = 0
    for support in [*golden_supports(), *random_supports(40)]:
        for f in newton_polyhedron(support).faces:
            assert (f.distance, f.char) == _kernel_face_character(f.poly, f.delta)
            faces += 1
    assert faces > 250


def test_a_full_dimensional_cone_lifts_its_far_facet_by_negation():
    """A cone of full dimension has the identity as chart basis, so the
    Hermite solve that lifts its far facet's form returns -u; the face
    character reads -u without the solve, on every such cone of the
    golden corpus and the random battery."""
    cones = 0
    for support in [*golden_supports(), *random_supports(40)]:
        for f in newton_polyhedron(support).faces:
            delta = f.delta
            if delta.dim < delta.ambient_dim:
                continue
            n = delta.ambient_dim
            assert delta.chart.basis == tuple(
                tuple(int(i == j) for j in range(n)) for i in range(n)
            )
            [(u, c)] = [(u, b) for u, b in delta.cfacets if b]
            neg = tuple(-x for x in u)
            assert ila.solve_integer(list(delta.chart.basis), neg) == neg
            assert (f.distance, f.char) == (c, Character(c, neg))
            cones += 1
    assert cones > 40


def test_each_distance_is_its_cone_modulus(monkeypatch):
    """The restriction of a face's character to its cone's lattice has
    the face's distance as modulus, on every compact face of the golden
    corpus and the random battery; a face character that would break
    this is refused."""
    faces = 0
    for support in [*golden_supports(), *random_supports(40)]:
        for f in newton_polyhedron(support).faces:
            assert restricted(f.delta, f.char)[0] == f.distance
            faces += 1
    assert faces > 250

    real = newton._face_character

    def doubled(poly, delta):
        dist, char = real(poly, delta)
        return 2 * dist, char

    monkeypatch.setattr(newton, "_face_character", doubled)
    with pytest.raises(InternalConsistencyError, match="does not restrict to modulus"):
        _np([(2, 0), (0, 3)])


def test_face_character_needs_a_pyramid():
    """The unit square has two facets missing 0, so it is no cone over
    the segment (1,0)-(0,1), though a kernel solve finds the form x + y."""
    segment = make_polytope([(1, 0), (0, 1)])
    square = make_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert _kernel_face_character(segment, square) == (1, Character(1, (1, 1)))
    with pytest.raises(InternalConsistencyError, match="2 facets missing the apex"):
        _face_character(segment, square)


def test_two_edge_boundary():
    np_ = _np([(5, 0), (2, 2), (0, 5)])
    assert [f.dim for f in np_.faces] == [0, 0, 0, 1, 1]
    inner = np_.faces[1]
    assert inner.points == ((2, 2),)
    assert inner.distance == 2
    assert inner.twist == 1
    assert inner.interior_touching is True
    lo, hi = np_.faces[3], np_.faces[4]
    assert lo.points == ((0, 5), (2, 2))
    assert (lo.distance, lo.char) == (10, Character(10, (3, 2)))
    assert hi.points == ((2, 2), (5, 0))
    assert (hi.distance, hi.char) == (10, Character(10, (2, 3)))
    assert lo.twist == hi.twist == 0


def test_quasi_homogeneous_flag():
    assert _np([(2, 0), (0, 3)]).is_quasi_homogeneous
    assert _np([(3, 0), (0, 3)]).is_quasi_homogeneous
    assert _np([(4, 0), (2, 2), (0, 4)]).is_quasi_homogeneous
    assert not _np([(5, 0), (2, 2), (0, 5)]).is_quasi_homogeneous


def test_brieskorn_pham_surface_faces():
    np_ = _np([(3, 0, 0), (0, 4, 0), (0, 0, 5)])
    assert len(np_.faces) == 7
    (top,) = np_.faces_of_dim(2)
    assert (top.distance, top.char) == (60, Character(60, (20, 15, 12)))
    assert top.twist == 0 and top.interior_touching
    for e in np_.faces_of_dim(1):
        assert e.twist == 0 and not e.interior_touching
        assert len(e.axes) == 2


def test_origin_in_support_rejected():
    with pytest.raises(InputError, match="origin is in the support"):
        _np([(0, 0), (2, 0), (0, 3)])


def test_not_convenient():
    with pytest.raises(
        NotConvenientError,
        match=r"support is not convenient: no monomial on the y axis",
    ):
        _np([(2, 0), (1, 1)])
    # a mixed monomial does not cover either axis
    with pytest.raises(NotConvenientError) as ei:
        _np([(0, 3), (1, 1)])
    assert ei.value.axis_name == "x"


def test_not_singular_at_origin_rejected():
    with pytest.raises(InputError, match="lone monomial y"):
        _np([(2, 0), (0, 1)])
    with pytest.raises(InputError, match="lone monomial x"):
        _np([(1, 0), (0, 4), (2, 2)])


def test_malformed_support_rejected():
    with pytest.raises(InputError, match="negative exponent"):
        SupportSet(("x", "y"), ((2, -1), (0, 3)))
    with pytest.raises(InputError, match=r"non-integer exponent .*\(0, 3\.5\)"):
        SupportSet(("x", "y"), ((2, 0), (0, 3.5)))
    with pytest.raises(InputError, match="non-integer exponent"):
        SupportSet(("x", "y"), ((2, 0), (0, True)))
    with pytest.raises(InputError, match="arity"):
        SupportSet(("x", "y"), ((2, 0), (0, 3, 1)))
    with pytest.raises(InputError, match="at least two variables"):
        SupportSet(("x",), ((2,),))
    with pytest.raises(InputError, match="empty support"):
        SupportSet(("x", "y"), ())
    with pytest.raises(InputError, match="duplicate support point"):
        SupportSet(("x", "y"), ((2, 0), (2, 0)))


def test_face_order_is_by_dim_then_points():
    np_ = _np([(4, 0), (2, 2), (0, 4)])
    keyed = [(f.dim, f.points) for f in np_.faces]
    assert keyed == sorted(keyed)


def _argmin(u, pts):
    vals = [sum(a * b for a, b in zip(u, p)) for p in pts]
    low = min(vals)
    return frozenset(p for p, v in zip(pts, vals) if v == low)


def test_compact_faces_checked_without_the_closure():
    """The compact faces against facts that do not go through the
    facet-intersection closure: their Euler characteristic is that of
    the ball the compact boundary is, each face is the argmin over the
    support of the summed normals of the facets through it (a strictly
    positive vector), and the argmin of seeded random strictly positive
    weights is a listed face."""
    rng = Random(16)
    for support in [*random_supports(40), *golden_supports()]:
        np_ = newton_polyhedron(support)
        pts = support.points
        assert sum((-1) ** f.dim for f in np_.faces) == 1, pts
        listed = {frozenset(f.points) for f in np_.faces}
        assert len(listed) == len(np_.faces)
        for f in np_.faces:
            ids = {i for i, p in enumerate(pts) if p in f.points}
            through = [g.normal for g in np_.facets if ids <= g.tight]
            u = tuple(map(sum, zip(*through)))
            assert all(x > 0 for x in u), (pts, f.points)
            assert _argmin(u, pts) == frozenset(f.points), (pts, f.points)
        for _ in range(100):
            u = tuple(rng.randint(1, 30) for _ in range(support.n))
            assert _argmin(u, pts) in listed, (pts, u)


# Symmetry orbits of compact faces: the coordinate swaps that fix the
# support, and the orbits of the group they generate.


def test_eleven_variable_cubes_have_55_swaps_and_11_orbits(monkeypatch):
    """Every swap of x1^3 + ... + x11^3 + x1*...*x11 fixes the support,
    and the 2,047 faces fall into 11 orbits, one per number k of cube
    points, of C(11, k) faces each; found with no walk over the 11!
    permutations, which is refused here."""
    import itertools

    def refuse(*args, **kwargs):
        raise AssertionError("a walk over permutations")

    monkeypatch.setattr(itertools, "permutations", refuse)
    n = 11
    cubes = [tuple(3 if i == j else 0 for j in range(n)) for i in range(n)]
    names = tuple(f"x{i}" for i in range(1, n + 1))
    np_ = newton_polyhedron(SupportSet(names, tuple(sorted(cubes + [(1,) * n]))))
    assert len(np_.faces) == 2047
    assert np_.swaps == tuple((i, j) for i in range(n) for j in range(i + 1, n))
    assert len(np_.swaps) == 55
    assert len(np_.orbits) == 11
    assert sorted(size for _, size in np_.orbits) == sorted(
        comb(n, k) for k in range(1, n + 1)
    )
    for face, r in zip(np_.faces, np_.representative):
        rep = np_.faces[r]
        assert r <= face.index
        assert (rep.dim, len(rep.points)) == (face.dim, len(face.points))


def _swapped(points, i, j):
    out = []
    for p in points:
        q = list(p)
        q[i], q[j] = p[j], p[i]
        out.append(tuple(q))
    return tuple(sorted(out))


def test_orbits_of_a_support_fixed_by_one_swap():
    """x^4 + y^4 + z^3 + x*y*z is fixed by (x y) but not by (y z) or
    (x z): each orbit is a face and its image under (x y), represented
    by the lower index of the two."""
    np_ = _np([(4, 0, 0), (0, 4, 0), (0, 0, 3), (1, 1, 1)])
    assert np_.swaps == ((0, 1),)
    by_points = {f.points: f.index for f in np_.faces}
    want = []
    for f in np_.faces:
        image = by_points[_swapped(f.points, 0, 1)]
        want.append(min(f.index, image))
    assert np_.representative == tuple(want)
    assert np_.orbits == tuple(sorted(Counter(want).items()))
    assert {size for _, size in np_.orbits} == {1, 2}


def _convenient_supports(count, seed=20261020):
    """Random convenient supports of 2-5 variables: a pure power 2..7 on
    each axis and up to six more points of degree >= 2, coordinates <= 5."""
    rng = Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        pts = {tuple(rng.randint(2, 7) if j == i else 0 for j in range(n)) for i in range(n)}
        for _ in range(rng.randint(0, 6)):
            p = tuple(rng.randint(0, 5) for _ in range(n))
            if sum(p) >= 2:
                pts.add(p)
        yield SupportSet(tuple(f"x{i}" for i in range(n)), tuple(sorted(pts)))


def test_written_down_start_gives_the_facets_of_the_search():
    """The double description from the axis rows and the first support
    row, whose inverse is written down, finds the facets that it finds
    from the rows independent_rows picks, support rows first: the
    extreme rays of a cone are unique."""
    arities = set()
    for support in _convenient_supports(300):
        n = support.n
        arities.add(n)
        rows = [p + (1,) for p in support.points]
        rows += [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]
        want = sorted((r[:-1], -r[-1]) for r in cone_rays(rows, n + 1) if any(r[:-1]))
        got = [(f.normal, f.offset) for f in newton_polyhedron(support).facets]
        assert got == want, support
    assert arities == {2, 3, 4, 5}
