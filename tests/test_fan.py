"""Normal fans and stellar refinement: the Hodge tests' reference.

The completeness, simpliciality and subset-closure predicates live here,
since only these tests ask them of a fan."""

from collections import Counter

import pytest

from newton_monodromy.fan import cone_dim, normal_fan, simplicial_refinement
from newton_monodromy.polytope import make_polytope


def is_simplicial(cone) -> bool:
    return len(cone) == cone_dim(cone)


def euler_count_ok(cones, dim: int) -> bool:
    """The alternating count of the nonzero cones of a complete fan in
    R^dim is the Euler characteristic of the (dim-1)-sphere."""
    return sum((-1) ** (cone_dim(c) - 1) for c in cones if c) == 1 + (-1) ** (dim - 1)


def subset_closed(cones) -> bool:
    """For a simplicial fan: every generator subset of a cone is a cone."""
    return all(c - {g} in cones for c in cones for g in c)


def test_cone_dim_and_simpliciality():
    assert cone_dim(frozenset()) == 0
    assert is_simplicial(frozenset())
    assert cone_dim(frozenset({(1, 0), (0, 1)})) == 2
    assert is_simplicial(frozenset({(1, 0), (0, 1)}))
    # two opposite rays span a line: rank 1, two generators
    assert cone_dim(frozenset({(1, 0), (-1, 0)})) == 1
    assert not is_simplicial(frozenset({(1, 0), (-1, 0)}))


def test_normal_fan_square():
    sq = make_polytope([(0, 0), (2, 0), (0, 2), (2, 2)])
    fan = normal_fan(sq)
    dims = Counter(cone_dim(c) for c in fan)
    assert dims == {0: 1, 1: 4, 2: 4}
    assert all(is_simplicial(c) for c in fan)
    assert euler_count_ok(fan, 2)
    assert subset_closed(fan)


def test_normal_fan_triangle():
    tri = make_polytope([(0, 0), (2, 0), (0, 3)])
    fan = normal_fan(tri)
    assert Counter(cone_dim(c) for c in fan) == {0: 1, 1: 3, 2: 3}
    assert euler_count_ok(fan, 2)


def test_normal_fan_segment():
    seg = make_polytope([(0, 0), (2, 2)])
    fan = normal_fan(seg)
    assert Counter(cone_dim(c) for c in fan) == {0: 1, 1: 2}
    assert euler_count_ok(fan, 1)


def test_normal_fan_point_rejected():
    with pytest.raises(ValueError):
        normal_fan(make_polytope([(1, 1)]))


def test_octahedron_fan_needs_refinement():
    octa = make_polytope(
        [
            (1, 0, 0), (-1, 0, 0),
            (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1),
        ]
    )
    fan = normal_fan(octa)
    # six vertex cones, each over a square
    assert Counter(cone_dim(c) for c in fan) == {0: 1, 1: 8, 2: 12, 3: 6}
    assert euler_count_ok(fan, 3)
    assert sum(1 for c in fan if not is_simplicial(c)) == 6

    ref = simplicial_refinement(fan)
    assert all(is_simplicial(c) for c in ref)
    # one new ray per square cone, four triangles replacing each square
    assert Counter(cone_dim(c) for c in ref) == {0: 1, 1: 14, 2: 36, 3: 24}
    assert euler_count_ok(ref, 3)
    assert subset_closed(ref)


def test_refinement_is_identity_on_simplicial_fans():
    sq = make_polytope([(0, 0), (2, 0), (0, 2), (2, 2)])
    fan = normal_fan(sq)
    assert simplicial_refinement(fan) == fan


def test_refinement_is_deterministic():
    octa = make_polytope(
        [
            (1, 0, 0), (-1, 0, 0),
            (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1),
        ]
    )
    fan = normal_fan(octa)
    assert simplicial_refinement(fan) == simplicial_refinement(set(fan))
