"""Hodge-Deligne tables of nondegenerate torus hypersurfaces."""

from fractions import Fraction

import pytest

from newton_monodromy.ehrhart import Character
from newton_monodromy.errors import InputError
from newton_monodromy.hodge import (
    clear_hodge_cache,
    hodge_table,
    lefschetz_twist,
    pseudo_prime_row_sums,
)
from newton_monodromy.polytope import make_polytope

F = Fraction


def _torus_factor(table, j):
    """(L - 1)^j times a table, the table of a j-dimensional torus."""
    return {k: (-1) ** j * v for k, v in lefschetz_twist(table, j).items()}


def test_twist_and_torus_factor_expansions():
    unit = {(0, 0, F(0)): 1}
    assert lefschetz_twist(unit, 0) == unit
    assert lefschetz_twist(unit, 1) == {(0, 0, F(0)): 1, (1, 1, F(0)): -1}
    assert _torus_factor(unit, 1) == {(1, 1, F(0)): 1, (0, 0, F(0)): -1}
    assert _torus_factor(unit, 2) == {
        (2, 2, F(0)): 1,
        (1, 1, F(0)): -2,
        (0, 0, F(0)): 1,
    }


def test_table_segment_length_two():
    seg = make_polytope([(0, 0), (2, 2)])
    got = hodge_table(seg, Character(2, (1, 0)))
    assert got == {(0, 0, F(0)): 1, (0, 0, F(1, 2)): 1}


def test_table_primitive_segment():
    seg = make_polytope([(2, 0), (0, 3)])
    got = hodge_table(seg, Character.trivial(2))
    assert got == {(0, 0, F(0)): 1}


def test_table_length_three_segment():
    seg = make_polytope([(0, 0), (0, 3)])
    got = hodge_table(seg, Character(3, (0, 1)))
    assert got == {(0, 0, F(0)): 1, (0, 0, F(1, 3)): 1, (0, 0, F(2, 3)): 1}


def test_table_cusp_cone():
    delta = make_polytope([(0, 0), (2, 0), (0, 3)])
    got = hodge_table(delta, Character(6, (3, 2)))
    assert got == {
        (0, 0, F(0)): -2,
        (0, 0, F(1, 3)): -1,
        (0, 0, F(1, 2)): -1,
        (0, 0, F(2, 3)): -1,
        (0, 1, F(1, 6)): -1,
        (1, 0, F(5, 6)): -1,
        (1, 1, F(0)): 1,
    }


def test_table_fermat_cubic_cone():
    tri = make_polytope([(0, 0), (3, 0), (0, 3)])
    got = hodge_table(tri, Character(3, (1, 1)))
    assert got == {
        (0, 0, F(0)): -4,
        (0, 0, F(1, 3)): -2,
        (0, 0, F(2, 3)): -2,
        (0, 1, F(1, 3)): -1,
        (1, 0, F(2, 3)): -1,
        (1, 1, F(0)): 1,
    }


def test_table_total_is_signed_volume():
    tri = make_polytope([(0, 0), (3, 0), (0, 3)])
    assert sum(hodge_table(tri, Character(3, (1, 1))).values()) == -9
    assert sum(hodge_table(tri, Character.trivial(2)).values()) == -9


def test_table_conjugation_symmetry():
    tri = make_polytope([(0, 0), (2, 0), (0, 3)])
    t = hodge_table(tri, Character(6, (3, 2)))
    for (p, q, a), v in t.items():
        c = F(0) if a == 0 else 1 - a
        assert t.get((q, p, c), 0) == v


def test_anti_diagonal_sums_match_table():
    delta = make_polytope([(0, 0), (2, 0), (0, 3)])
    char = Character(6, (3, 2))
    table = hodge_table(delta, char)
    for alpha, want in [
        (F(1, 6), {0: 0, 1: -1}),
        (F(5, 6), {0: 0, 1: -1}),
        (F(1, 2), {0: -1, 1: 0}),
    ]:
        got = pseudo_prime_row_sums(delta, char, alpha)
        assert got == want
        direct = {
            r: sum(v for (p, q, a), v in table.items() if a == alpha and p + q == r)
            for r in range(delta.dim)
        }
        assert got == direct


def test_anti_diagonal_gates():
    cross = make_polytope(
        [
            (1, 0, 0, 0), (-1, 0, 0, 0),
            (0, 1, 0, 0), (0, -1, 0, 0),
            (0, 0, 1, 0), (0, 0, -1, 0),
            (0, 0, 0, 1), (0, 0, 0, -1),
        ]
    )
    assert cross.primeness == "neither"
    with pytest.raises(InputError, match="pseudo-prime"):
        pseudo_prime_row_sums(cross, Character.trivial(4), F(1, 2))
    delta = make_polytope([(0, 0), (2, 0), (0, 3)])
    with pytest.raises(InputError, match="nontrivial"):
        pseudo_prime_row_sums(delta, Character(6, (3, 2)), F(0))


def test_tables_are_memoized():
    clear_hodge_cache()
    tri = make_polytope([(0, 0), (2, 0), (0, 3)])
    char = Character(6, (3, 2))
    a = hodge_table(tri, char)
    b = hodge_table(tri, char)
    assert a is b
    clear_hodge_cache()
    assert hodge_table(tri, char) is not a
    assert hodge_table(tri, char) == a
