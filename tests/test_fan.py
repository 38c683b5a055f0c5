"""Normal fans, stellar refinement, and the completeness counter."""

from collections import Counter
from random import Random

import pytest

from newton_monodromy.fan import (
    cone_dim,
    euler_count_ok,
    is_simplicial,
    normal_fan,
    simplicial_refinement,
    subset_closed,
)
from newton_monodromy.intlinalg import frac_rank
from newton_monodromy.polytope import make_polytope


def test_cone_dim_and_simpliciality():
    assert cone_dim(frozenset()) == 0
    assert is_simplicial(frozenset())
    assert cone_dim(frozenset({(1, 0), (0, 1)})) == 2
    assert is_simplicial(frozenset({(1, 0), (0, 1)}))
    # two opposite rays span a line: rank 1, two generators
    assert cone_dim(frozenset({(1, 0), (-1, 0)})) == 1
    assert not is_simplicial(frozenset({(1, 0), (-1, 0)}))


def test_cone_dim_matches_elimination():
    """Up to two generators cone_dim reads the rank without elimination;
    it must agree with frac_rank on any integer vectors, primitive or
    not, including a zero vector, an opposite pair (u, -u) and a
    non-primitive parallel pair (u, 2u)."""
    rng = Random(14)
    cases = []
    for dim in range(1, 5):
        zero = (0,) * dim
        for _ in range(300):
            u = tuple(rng.randint(-3, 3) for _ in range(dim))
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
            neg = tuple(-x for x in u)
            twice = tuple(2 * x for x in u)
            cases += [(), (zero,), (u,), (u, v), (zero, u), (u, zero), (u, neg),
                      (u, twice), (twice, u), (zero, zero), (u, twice, neg)]
            for k in (3, 4):
                cases.append(
                    tuple(tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(k))
                )
    ranks = Counter()
    for gens in cases:
        want = frac_rank(list(gens))
        assert cone_dim(gens) == want, gens
        assert cone_dim(frozenset(gens)) == frac_rank(list(set(gens))), gens
        ranks[len(gens), want] += 1
    # every rank a set of that size can have occurs
    assert {(k, r) for k, r in ranks if k <= 2} == {
        (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)
    }


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
