"""Exact polytope geometry: hulls, face lattices, charts, primeness."""

import itertools
from random import Random

import pytest

from newton_monodromy import clear_caches
from newton_monodromy.ehrhart import Character, relint_counts
from newton_monodromy.polytope import Polytope, cone_rays, make_polytope


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
    edges = p.faces_of_dim(1)
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
        for e in p.faces_of_dim(1)
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


def test_lattice_scan_paths_agree():
    """The fibre walk returns exactly the rows of a plain box filter, in
    the same order, on boxes small and large."""
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


def test_lattice_scan_huge_coordinates_fall_back_to_python():
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
    assert make_polytope(points).primeness == expected


def test_primeness_neither_in_dim_4():
    # the 4-dimensional cross-polytope has edges on four 2-faces, not three
    pts = []
    for i in range(4):
        for s in (1, -1):
            pts.append(tuple(s if j == i else 0 for j in range(4)))
    assert make_polytope(pts).primeness == "neither"


def test_interning_and_cache_clear():
    a = make_polytope([(0, 0), (1, 0), (0, 1)])
    b = make_polytope([(0, 1), (1, 0), (0, 0)])
    assert a is b
    clear_caches()
    c = make_polytope([(0, 0), (1, 0), (0, 1)])
    assert c is not a
    assert isinstance(c, Polytope)
