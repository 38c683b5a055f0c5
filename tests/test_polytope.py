"""Exact polytope geometry: hulls, face lattices, charts, primeness."""

import gc
import itertools
import types
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newton_monodromy import clear_caches, ehrhart, polytope
from newton_monodromy import intlinalg as ila
from newton_monodromy.ehrhart import Character, relint_counts
from newton_monodromy.errors import InputError, InternalConsistencyError
from newton_monodromy.monodromy import fastpath_unipotent, jordan_blocks
from newton_monodromy.frontend import parse_polynomial
from newton_monodromy.newton import newton_polyhedron
from newton_monodromy.polytope import Chart, Polytope, Shape, cone_rays, make_polytope

from _battery import edge_points, golden_supports, random_supports, workload_round


def _interned():
    """The polytopes that _intern keeps in the engine's store."""
    intern = polytope._intern.__wrapped__
    return [v for k, v in polytope._MEMO.items() if k[0] is intern]


def _shapes():
    """The shapes the engine's store holds, one per tuple of chart points."""
    return [v for v in polytope._MEMO.values() if isinstance(v, Shape)]


def test_cone_rays_quadrant():
    rays = set(cone_rays([(1, 0), (0, 1)], 2))
    assert rays == {(1, 0), (0, 1)}


def test_cone_rays_halfplane_cut():
    # {x >= 0, y >= 0, x - y >= 0} is the cone between (1,0) and (1,1)
    rays = set(cone_rays([(1, 0), (0, 1), (1, -1)], 2))
    assert rays == {(1, 0), (1, 1)}


def test_cone_rays_rejects_unpointed():
    with pytest.raises(ValueError):
        cone_rays([(1, 0, 0), (0, 1, 0)], 3)


def test_cone_rays_octant_redundant_constraint():
    rays = set(cone_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3))
    assert rays == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_cone_rays_verifies_a_given_start():
    """A start is the scaled inverse of the first dim rows: the right one
    gives the rays of the search, and one wrong column, a zero or a
    missing column, or a zero determinant raises before any ray."""
    rows = [(1, 0, 0), (0, 1, 0), (2, 3, 1), (1, 1, 1), (0, 0, 1)]
    det, cols = ila.scaled_inverse_columns(rows[:3])
    want = cone_rays(rows, 3)
    assert cone_rays(rows, 3, (det, cols)) == want
    assert cone_rays(rows, 3, (-det, [tuple(-x for x in c) for c in cols])) == want
    for j in range(3):
        for bad in ([x + 1 for x in cols[j]], [-x for x in cols[j]], [0, 0, 0]):
            with pytest.raises(InternalConsistencyError, match="starting cone"):
                cone_rays(rows, 3, (det, cols[:j] + [tuple(bad)] + cols[j + 1 :]))
    for start in [(det, cols[:2]), (0, cols), (2 * det, cols)]:
        with pytest.raises(InternalConsistencyError, match="starting cone"):
            cone_rays(rows, 3, start)


def _scan_rows(p, k, relint):
    """The rows of lattice_scan as int tuples."""
    return p.lattice_scan(k, relint)[1]


def test_point_polytope():
    p = make_polytope([(3, 5)])
    assert p.dim == 0
    assert p.vertices == ((3, 5),)
    assert p.face_lattice == {frozenset({0}): 0}


def test_segment_chart_and_length():
    p = make_polytope([(0, 0), (2, 2)])
    assert p.dim == 1
    # the chart basis is a saturated lattice basis, so (1,1) is one step
    assert p.cpoints == ((0,), (2,))
    assert _scan_rows(p, 1, relint=False) == [(0,), (1,), (2,)]
    assert _scan_rows(p, 1, relint=True) == [(1,)]


def test_square_with_redundant_point():
    p = make_polytope([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    assert p.dim == 2
    assert set(p.vertices) == {(0, 0), (2, 0), (0, 2), (2, 2)}
    lat = p.face_lattice
    dims = sorted(lat.values())
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    assert len(_scan_rows(p, 1, relint=False)) == 9
    assert len(_scan_rows(p, 1, relint=True)) == 1
    assert len(_scan_rows(p, 2, relint=True)) == 9


def test_cube_face_lattice_counts():
    pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    p = make_polytope(pts)
    lat = p.face_lattice
    by_dim = {}
    for _, d in lat.items():
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 8, 1: 12, 2: 6, 3: 1}


def test_face_lattice_is_read_only():
    """The face lattice is cached on the interned instance, so a caller
    that could edit it would corrupt every later table of the polytope."""
    for pts in ([(3, 5)], [(0, 0), (2, 0), (0, 3)]):
        lat = make_polytope(pts).face_lattice
        top = max(lat, key=len)
        with pytest.raises(TypeError):
            lat[top] = 0
        with pytest.raises(AttributeError):
            lat.pop(top)
        assert make_polytope(pts).face_lattice[top] == len(pts) - 1


def test_face_polytope_inherits_ambient_points():
    p = make_polytope([(0, 0), (2, 0), (0, 3)])
    edges = p.shape.faces_of_dim(1)
    assert len(edges) == 3
    hyp = [f for f in edges if p.face_points(f) == ((0, 3), (2, 0))]
    assert len(hyp) == 1
    q = p.face_polytope(hyp[0])
    assert q.dim == 1 and q.ambient_dim == 2


def test_edge_steps_lattice_lengths():
    # An edge of lattice length g has g - 1 relative-interior points.
    p = make_polytope([(0, 0), (2, 0), (0, 3)])
    trivial = Character.trivial(2)
    lengths = sorted(
        sum(relint_counts(p.face_polytope(e), trivial, 1).values()) + 1
        for e in p.shape.faces_of_dim(1)
    )
    assert lengths == [1, 2, 3]


def _box_filter(p, k, relint):
    """Reference scan: every point of the bounding box that satisfies
    every facet inequality, in itertools.product order."""
    lo_off = 1 if relint else 0
    ranges = [range(lo, hi + 1) for lo, hi in p.bounding_box(k)]
    return [
        y
        for y in itertools.product(*ranges)
        if all(
            sum(a * x for a, x in zip(u, y)) + k * b >= lo_off
            for u, b in p.cfacets
        )
    ]


def _random_polytopes(seed=7):
    """Five random lattice polytopes of each dimension 1..4, some of
    them embedded in one ambient dimension more."""
    rng = Random(seed)
    width = {1: 300, 2: 15, 3: 6, 4: 3}
    for d in (1, 2, 3, 4):
        made = 0
        while made < 5:
            n = d + rng.randint(0, 1)
            pts = [
                tuple(rng.randint(0, width[d]) for _ in range(n))
                for _ in range(d + 1 + rng.randint(0, 2))
            ]
            p = make_polytope(pts)
            if p.dim == d:
                made += 1
                yield p


def test_lattice_scan_equals_a_box_filter():
    """The fibre walk returns exactly the rows of a plain box filter, in
    the same order, on boxes small and large, tagged "py"."""
    kinds = set()
    for p in _random_polytopes():
        for k in (1, 2, 3):
            for relint in (False, True):
                kind, rows = p.lattice_scan(k, relint)
                kinds.add(kind)
                assert rows == _box_filter(p, k, relint), (p, k, relint)
    assert kinds == {"py"}
    tet = make_polytope([(0, 0, 0), (3, 0, 0), (0, 4, 0), (0, 0, 5)])
    assert _scan_rows(tet, 1, relint=True) == [(1, 1, 1), (1, 1, 2)]


def test_lattice_scan_is_exact_with_huge_normals():
    """A sliver with a facet normal of size 2^45: the exact walk lists
    its few points, with no fixed-width arithmetic to overflow."""
    n = 2 ** 45
    p = make_polytope([(0, 0), (0, 1), (1, n)])
    for k in (1, 2, 3):
        # the fibre x = j of k*P runs from y = n*j to y = k + (n-1)*j
        kind, pts = p.lattice_scan(k, relint=False)
        assert kind == "py"
        assert pts == [
            (j, y) for j in range(k + 1) for y in range(n * j, k + (n - 1) * j + 1)
        ]
        kind, pts = p.lattice_scan(k, relint=True)
        assert kind == "py"
        assert pts == [
            (j, y) for j in range(1, k) for y in range(n * j + 1, k + (n - 1) * j)
        ]


@pytest.mark.parametrize(
    "points,expected",
    [
        ([(0, 0), (1, 0), (0, 1), (1, 1)], "prime"),
        ([(0, 0), (2, 0), (0, 3)], "pseudo_prime"),
        ([(4, 0, 0), (0, 6, 0), (0, 0, 12)], "pseudo_prime"),
        # (2,2) lies inside conv{0,(5,0),(0,5)}, so the hull is the
        # unimodular corner triangle, unlike the Newton boundary cone
        ([(0, 0), (5, 0), (2, 2), (0, 5)], "prime"),
        ([(0, 0), (5, 0), (2, 2)], "pseudo_prime"),
        ([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)], "prime"),
        ([(7,)], "prime"),
        ([(0, 0), (4, 2)], "prime"),
    ],
)
def test_primeness(points, expected):
    assert make_polytope(points).shape.primeness == expected


def test_primeness_neither_in_dim_4():
    # the 4-dimensional cross-polytope has edges on four 2-faces, not three
    pts = []
    for i in range(4):
        for s in (1, -1):
            pts.append(tuple(s if j == i else 0 for j in range(4)))
    assert make_polytope(pts).shape.primeness == "neither"


@pytest.mark.parametrize("bad", [1.5, 1.0, Fraction(3, 2), Fraction(1), True, "1"])
def test_make_polytope_refuses_non_integer_coordinates(bad):
    """A coordinate that is not an int raises InputError naming its
    point: a float or a Fraction is not truncated, and True is not 1."""
    with pytest.raises(InputError, match=r"non-integer coordinate in point \(.*\)"):
        make_polytope([(0, 0), (bad, 0), (0, 2)])
    assert make_polytope([[0, 0], [1, 0], (0, 2)]).vertices == ((0, 0), (0, 2), (1, 0))


@pytest.mark.parametrize(
    "points, problem",
    [
        ([], "a polytope needs at least one point"),
        ([(1, 2), (3,)], r"points of lengths \[1, 2\] in one polytope"),
    ],
)
def test_make_polytope_refuses_no_points_and_mixed_lengths(points, problem):
    """No points, or points of different lengths, raise InputError naming
    the problem, not a bare ValueError from deep inside the chart."""
    with pytest.raises(InputError, match=problem):
        make_polytope(points)


def test_interning_and_cache_clear():
    a = make_polytope([(0, 0), (1, 0), (0, 1)])
    b = make_polytope([(0, 1), (1, 0), (0, 0)])
    assert a is b
    clear_caches()
    c = make_polytope([(0, 0), (1, 0), (0, 1)])
    assert c is not a
    assert isinstance(c, Polytope)


def test_internal_interning_reaches_the_make_polytope_instances():
    """Face polytopes and the Newton polyhedron's compact faces intern
    their already sorted point tuples without make_polytope's
    normalization, and reach the very instances make_polytope returns:
    on each golden input, cold, every face of every polytope the answer
    builds is make_polytope of the face's points, and each compact face's
    poly and delta are make_polytope of its points, given unsorted and as
    lists, without and with the origin."""
    checked = 0
    for support in golden_supports():
        clear_caches()
        np_ = newton_polyhedron(support)
        fastpath_unipotent(np_)
        jordan_blocks(np_)
        origin = [0] * support.n
        for f in np_.faces:
            points = [list(p) for p in reversed(f.points)]
            assert f.poly is make_polytope(points)
            assert f.delta is make_polytope([*points, origin])
            assert f.delta.points[0] == tuple(origin)
        for poly in _interned():
            for face in poly.face_lattice:
                assert poly.face_polytope(face) is make_polytope(poly.face_points(face))
                checked += 1
    clear_caches()
    assert checked > 500, checked


# ---------------------------------------------------------------------------
# The rank-based geometry that the integer combinatorics replaced, kept as
# a differential oracle: a Fraction solve per chart point, a rank test per
# point for vertices, per face for dimensions and per ray pair for the
# adjacency of the double description.


def _rank_to_chart(chart, v):
    if not chart.basis:
        if tuple(v) != chart.origin:
            raise InternalConsistencyError(f"point {v} is not the chart origin")
        return ()
    target = ila.vec_sub(v, chart.origin)
    cols = [[b[i] for b in chart.basis] for i in range(len(chart.origin))]
    sol = ila.solve_rational(cols, target)
    if sol is None or any(x.denominator != 1 for x in sol):
        raise InternalConsistencyError(f"point {v} is not in the chart lattice")
    return tuple(int(x) for x in sol)


def _rank_cone_rays(constraints, dim):
    rows = [tuple(int(x) for x in a) for a in constraints if any(a)]
    base_idx = ila.independent_rows(rows)
    base = [rows[i] for i in base_idx]
    det_val, cols = ila.scaled_inverse_columns(base)
    sgn = 1 if det_val > 0 else -1
    rays = [ila.primitive(tuple(sgn * x for x in c)) for c in cols]
    processed = list(base)
    zero_sets = [
        frozenset(i for i, a in enumerate(processed) if ila.dot(a, r) == 0)
        for r in rays
    ]
    for ridx, a in enumerate(rows):
        if ridx in base_idx:
            continue
        vals = [ila.dot(a, r) for r in rays]
        aidx = len(processed)
        new_rays = []
        for p in (i for i, v in enumerate(vals) if v > 0):
            for m in (i for i, v in enumerate(vals) if v < 0):
                common = zero_sets[p] & zero_sets[m]
                if ila.frac_rank([processed[i] for i in common]) != dim - 2:
                    continue
                w = tuple(vals[p] * xm - vals[m] * xp for xp, xm in zip(rays[p], rays[m]))
                new_rays.append(ila.primitive(w))
        processed.append(a)
        rays = [r for r, v in zip(rays, vals) if v >= 0]
        rays += [w for w in dict.fromkeys(new_rays) if w not in rays]
        zero_sets = [
            frozenset(i for i, c in enumerate(processed) if ila.dot(c, r) == 0)
            for r in rays
        ]
    return tuple(sorted(rays))


def _rank_geometry(poly):
    """(cpoints, cfacets, vertex_ids, facet_vertex_sets, face_lattice) of
    poly by the rank-based methods."""
    cpoints = tuple(_rank_to_chart(poly.chart, p) for p in poly.points)
    if poly.dim == 0:
        return cpoints, (), (0,), (), {frozenset({0}): 0}
    rays = _rank_cone_rays([y + (1,) for y in cpoints], poly.dim + 1)
    cfacets = tuple(sorted((r[:-1], r[-1]) for r in rays if any(r[:-1])))
    vids = tuple(
        i
        for i, y in enumerate(cpoints)
        if ila.frac_rank([u for u, b in cfacets if ila.dot(u, y) + b == 0]) == poly.dim
    )
    fsets = tuple(
        frozenset(i for i in vids if ila.dot(u, cpoints[i]) + b == 0)
        for u, b in cfacets
    )
    faces = {frozenset(vids)} | set(fsets)
    while True:
        more = {f & g for f in faces for g in fsets if f & g} - faces
        if not more:
            break
        faces |= more
    lattice = {}
    for f in faces:
        pts = [cpoints[i] for i in sorted(f)]
        diffs = [ila.vec_sub(p, pts[0]) for p in pts[1:]]
        lattice[f] = ila.frac_rank(diffs) if diffs else 0
    return cpoints, cfacets, vids, fsets, lattice


def _geometry(poly):
    return (
        poly.cpoints,
        poly.cfacets,
        poly.shape.vertex_ids,
        poly.shape.facet_vertex_sets,
        dict(poly.face_lattice),
    )


def test_integer_geometry_matches_the_rank_based_one_on_the_engine_polytopes():
    """Every polytope that the answer path builds for 40 battery supports
    and the golden inputs (the compact faces, their cones and every face
    of those) has the same chart points, facets, vertices, facet vertex
    sets and face lattice as the rank-based methods give."""
    clear_caches()
    for support in list(random_supports(40)) + list(golden_supports()):
        np_ = newton_polyhedron(support)
        fastpath_unipotent(np_)
        jordan_blocks(np_)
    polys = _interned()
    clear_caches()
    assert len(polys) > 300
    assert {p.dim for p in polys} == {0, 1, 2, 3, 4}
    for poly in polys:
        assert _geometry(poly) == _rank_geometry(poly), poly


@st.composite
def _point_sets(draw):
    """Lattice point sets in Z^2..Z^4 of every intrinsic dimension: an
    origin plus small integer combinations of up to n random direction
    vectors, which may be dependent (lower-dimensional sets), and which
    give points inside the hull (non-vertices) and charts whose Hermite
    pivots exceed 1."""
    n = draw(st.integers(2, 4))
    coord = st.integers(-3, 3)
    origin = draw(st.tuples(*[coord] * n))
    dirs = draw(st.lists(st.tuples(*[coord] * n), min_size=0, max_size=n))
    combos = draw(
        st.lists(
            st.tuples(*[st.integers(0, 2)] * len(dirs)), min_size=1, max_size=8
        )
    )
    return [
        tuple(o + sum(c * d[i] for c, d in zip(combo, dirs)) for i, o in enumerate(origin))
        for combo in combos
    ]


@settings(max_examples=300, deadline=None)
@given(_point_sets())
@example([(0, 0), (2, 1)])
@example([(0, 0, 0), (4, 2, 0), (2, 1, 0), (0, 3, 3), (1, 2, 1)])
@example([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)])
def test_integer_geometry_matches_the_rank_based_one(points):
    poly = Polytope(tuple(sorted(set(points))))
    assert _geometry(poly) == _rank_geometry(poly)
    for p in poly.points:
        assert poly.chart.to_chart(p) == _rank_to_chart(poly.chart, p)


def _general_route(shape):
    """A fresh shape of the same chart points made to take the general
    route: facets and their points by cone_rays, faces by
    intersection_closure, vertices as its one-point faces, dimensions by
    the loop over subfaces and top simplices by the pulling recursion."""
    general = Shape(shape.cpoints)
    general.simplex = False
    poly = types.SimpleNamespace(
        shape=general,
        face_lattice=general.face_lattice,
        vertex_ids=general.vertex_ids,
    )
    return general, poly


def _assert_simplex_route_matches_the_general_one(shape):
    """The simplex route's geometry of shape is the Boolean one, and, for
    dim >= 1 (a point is always a simplex, so the general route does not
    treat it), the general route's."""
    assert shape.simplex
    n = len(shape.cpoints)
    simplex = types.SimpleNamespace(shape=shape, vertex_ids=shape.vertex_ids)
    assert shape.vertex_ids == tuple(range(n))
    assert all(len(f) == n - 1 for f in shape.facet_vertex_sets)
    assert len(shape.face_lattice) == 2**n - 1
    assert ehrhart._top_simplices(simplex) == [tuple(range(n))]
    if not shape.dim:
        assert shape.cfacets == () and dict(shape.face_lattice) == {frozenset({0}): 0}
        return
    general, poly = _general_route(shape)
    rows = [y + (1,) for y in shape.cpoints]
    # the rows (y, 1) are independent, and the rank-based double
    # description agrees with the facets read off their scaled inverse
    assert ila.independent_rows(rows) == list(range(n))
    rays = _rank_cone_rays(rows, n)
    assert shape.cfacets == tuple(sorted((r[:-1], r[-1]) for r in rays))
    assert shape.cfacets == general.cfacets
    assert shape.vertex_ids == general.vertex_ids
    assert shape.facet_vertex_sets == general.facet_vertex_sets
    assert dict(shape.face_lattice) == dict(general.face_lattice)
    assert ehrhart._top_simplices(simplex) == ehrhart._top_simplices(poly)
    assert shape.primeness == general.primeness


def test_simplex_route_matches_the_general_one_on_the_engine_shapes():
    """Every simplex shape that the answer reaches on one seeded battery
    round (120 supports) and the golden inputs has the facets, vertices,
    facet vertex sets, face lattice and top simplices of the general
    route.  Most shapes are simplices; the others, which have more chart
    points than dim + 1, take the general route."""
    clear_caches()
    for support in [*random_supports(120), *golden_supports()]:
        np_ = newton_polyhedron(support)
        fastpath_unipotent(np_)
        jordan_blocks(np_)
    shapes = _shapes()
    clear_caches()
    simplices = [s for s in shapes if s.simplex]
    assert len(simplices) > 0.8 * len(shapes)
    assert {s.dim for s in simplices} == {0, 1, 2, 3, 4}
    for shape in simplices:
        _assert_simplex_route_matches_the_general_one(shape)
    assert all(len(s.cpoints) > s.dim + 1 for s in shapes if not s.simplex)


def _brute_force_facets(cpoints):
    """(u, b) with u.y + b >= 0 on every point and = 0 on a dim-subset
    of them that spans a hyperplane: the one primitive integer kernel
    vector of the subset's rows (y, 1), by Hermite reduction, turned to
    the side of the points, over every dim-subset whose hyperplane
    leaves all the points on one side."""
    d = len(cpoints[0])
    rows = [y + (1,) for y in cpoints]
    facets = set()
    for subset in itertools.combinations(rows, d):
        kernel = ila.kernel_basis(subset, d + 1)
        if len(kernel) != 1:
            continue
        values = [ila.dot(kernel[0], r) for r in rows]
        if all(v >= 0 for v in values):
            facets.add(kernel[0])
        elif all(v <= 0 for v in values):
            facets.add(tuple(-x for x in kernel[0]))
    return tuple(sorted((f[:-1], f[-1]) for f in facets))


def _answered_shapes(texts_or_supports, cold=True):
    """The shapes the answer builds on each input, cold or with memos
    kept across the inputs, by chart points."""
    shapes = {}
    clear_caches()
    for item in texts_or_supports:
        if cold:
            clear_caches()
        support = parse_polynomial(item) if isinstance(item, str) else item
        np_ = newton_polyhedron(support)
        fastpath_unipotent(np_)
        jordan_blocks(np_)
        shapes.update((s.cpoints, s) for s in _shapes())
    clear_caches()
    return shapes


def test_simplex_facets_from_the_shared_inverse_match_a_brute_force():
    """Every simplex shape that the answer reaches on the golden inputs,
    on a seed-1 round of each benchmark workload and on the random
    battery has the facets that a search over its dim-subsets finds.
    Its facets are read off the shared scaled inverse, with no double
    description."""
    shapes = _answered_shapes([*golden_supports(), *random_supports(120)])
    for name in ("battery", "ladder", "sweep"):
        cases = [case.text for case in workload_round(name)]
        shapes.update(_answered_shapes(cases, cold=name != "sweep"))
    simplices = [s for s in shapes.values() if s.simplex and s.dim]
    assert {s.dim for s in simplices} == {1, 2, 3, 4}
    assert len(simplices) > 250
    for shape in simplices:
        assert shape.cfacets == _brute_force_facets(shape.cpoints), shape


def test_a_battery_round_inverts_each_simplex_once(monkeypatch):
    """A cold seed-1 battery answer round: one scaled inverse per simplex
    shape, shared by its facets, its primeness and its box walks under
    every restriction, none for the Newton polyhedron, whose starting
    cone is written down, and none twice.  Every elimination left is of
    a shape's rows (y, 1): a simplex's, or some of a non-simplex's for
    its double description and its top simplices."""
    inverted, searched = [], []
    real_inverse, real_search = ila.scaled_inverse_columns, ila.independent_rows

    def inverse(rows):
        inverted.append(tuple(map(tuple, rows)))
        return real_inverse(rows)

    def search(rows):
        searched.append(rows)
        return real_search(rows)

    monkeypatch.setattr(ila, "scaled_inverse_columns", inverse)
    monkeypatch.setattr(ila, "independent_rows", search)
    simplices = others = 0
    for case in workload_round("battery"):
        clear_caches()
        inverted.clear()
        searched.clear()
        np_ = newton_polyhedron(parse_polynomial(case.text))
        fastpath_unipotent(np_)
        jordan_blocks(np_)
        rows = {s: frozenset(y + (1,) for y in s.cpoints) for s in _shapes()}
        simplex_rows = {tuple(y + (1,) for y in s.cpoints) for s in rows if s.simplex}
        assert all(v == 1 for v in Counter(inverted).values()), case.text
        assert all(
            m in simplex_rows or any(set(m) <= rows[s] for s in rows if not s.simplex)
            for m in inverted
        ), case.text
        assert len(searched) <= sum(not s.simplex for s in rows), case.text
        simplices += sum(m in simplex_rows for m in inverted)
        others += sum(not s.simplex for s in rows)
    clear_caches()
    assert simplices > 800 and others


_REEVE = [[(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, r)] for r in (1, 2, 3, 7)]


@pytest.mark.parametrize(
    "points",
    [
        *_REEVE,
        [(0, 0), (3, 6)],  # a segment of lattice length 3
        [(1, 2, 3), (5, 2, 3)],
        [(0, 0, 0), (2, 0, 2), (0, 2, 2)],  # a triangle in Z^3
        [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 3)],
        [(0, 0, 0, 0), (3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 5, 0), (0, 0, 0, 4)],
        [
            (0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (1, 2, 3, 4, 5),
        ],
        [  # a 5-simplex in Z^6: a chart of middle rank
            (0, 0, 0, 0, 0, 0),
            (2, 1, 0, 0, 0, 0),
            (0, 3, 1, 0, 0, 0),
            (0, 0, 2, 1, 0, 0),
            (0, 0, 0, 1, 2, 0),
            (1, 1, 1, 1, 1, 1),
        ],
    ],
)
def test_simplex_route_matches_the_general_one(points):
    poly = make_polytope(points)
    assert poly.dim == len(points) - 1
    _assert_simplex_route_matches_the_general_one(poly.shape)


def test_simplex_route_covers_a_negative_orientation():
    """The scaled inverse of the rows (y, 1) has a negative determinant
    here, so the facets are its columns negated."""
    shape = make_polytope([(0, 0), (0, 1), (1, 0)]).shape
    assert ila.det([y + (1,) for y in shape.cpoints]) < 0
    assert shape.cfacets == (((-1, -1), 1), ((0, 1), 0), ((1, 0), 0))
    _assert_simplex_route_matches_the_general_one(shape)


def test_non_simplices_take_the_general_route():
    """A square and a triangle with a lattice point on an edge have more
    chart points than dim + 1: the square's faces are no Boolean lattice
    and the edge point of the triangle is no vertex."""
    square = make_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not square.shape.simplex
    assert sorted(square.face_lattice.values()) == [0] * 4 + [1] * 4 + [2]
    assert len(square.cfacets) == 4
    assert ehrhart._top_simplices(square) == [(0, 1, 3), (0, 2, 3)]
    triangle = make_polytope([(0, 0), (2, 0), (0, 2), (1, 0)])
    assert not triangle.shape.simplex
    assert triangle.vertices == ((0, 0), (0, 2), (2, 0))
    assert len(triangle.face_lattice) == 7
    assert all(len(f) == 2 for f in triangle.shape.facet_vertex_sets)
    for poly in (square, triangle):
        assert _geometry(poly) == _rank_geometry(poly)


def test_double_description_skips_rays_that_are_not_adjacent():
    """A 4-simplex with the lattice points of its edges: on the way to its
    five facets, the double description meets ray pairs that share
    enough tight points to pass the counting filter but span no 2-face.
    Combining them would leave redundant rays among the facets."""
    verts = [(0, 4, 4, 2), (2, 0, 0, 4), (2, 0, 2, 2), (2, 2, 0, 2), (4, 2, 4, 2)]
    pts = sorted({p for a, b in itertools.combinations(verts, 2) for p in edge_points(a, b)})
    assert len(pts) == 15
    poly = make_polytope(pts)
    assert len(poly.cfacets) == 5
    assert poly.vertices == tuple(verts)
    assert _geometry(poly) == _rank_geometry(poly)


def test_chart_with_a_hermite_pivot_above_one():
    """The segment (0,0)-(2,1) spans the lattice Z(2,1), whose Hermite
    basis row has pivot 2: the chart divides there, and raises on a
    point off the lattice or off the affine hull."""
    p = make_polytope([(0, 0), (2, 1)])
    assert p.chart == Chart((0, 0), ((2, 1),))
    assert p.cpoints == ((0,), (1,))
    assert p.chart.to_chart((-4, -2)) == (-2,)
    for off in ((1, Fraction(1, 2)), (1, 0), (0, 1), (2, 2)):
        with pytest.raises(InternalConsistencyError):
            p.chart.to_chart(off)


def test_chart_raises_off_the_lattice_and_off_the_affine_hull():
    """A triangle in a plane of Z^3 whose lattice has index 2 in the
    sublattice its edges span: a half-integral point of the plane is
    off the lattice, and points above the plane are off the hull."""
    p = make_polytope([(0, 0, 0), (2, 0, 2), (0, 2, 2)])
    assert p.dim == 2
    assert p.chart.to_chart((1, 1, 2)) == tuple(
        _rank_to_chart(p.chart, (1, 1, 2))
    )
    off_lattice = (Fraction(1, 2), 0, Fraction(1, 2))
    for v in (off_lattice, (0, 0, 1), (1, 0, 0), (2, 2, 2)):
        with pytest.raises(InternalConsistencyError):
            p.chart.to_chart(v)
    point = make_polytope([(3, 5)])
    assert point.chart.to_chart((3, 5)) == ()
    with pytest.raises(InternalConsistencyError):
        point.chart.to_chart((3, 6))


def test_no_polytope_outlives_clear_caches():
    """Without the cyclic collector, every polytope and every shape that
    an answer built is freed once clear_caches() empties the store: no
    polytope sits in a reference cycle, not even one whose stored face
    polytope is itself, and no shape is kept by a memo key."""
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, (Polytope, Shape))]
    ids = {id(o) for o in before}
    gc.disable()
    try:
        for text in ("x^2 + y^3", "x^5 + x^2*y^2 + y^5", "x^3 + y^4 + z^5 + x*y*z"):
            np_ = newton_polyhedron(parse_polynomial(text))
            fastpath_unipotent(np_)
            jordan_blocks(np_)
            for face in np_.faces:
                for f in face.delta.face_lattice:
                    face.delta.face_polytope(f)
        del np_, face
        clear_caches()
        left = [
            o
            for o in gc.get_objects()
            if isinstance(o, (Polytope, Shape)) and id(o) not in ids
        ]
    finally:
        gc.enable()
    assert not left, left
