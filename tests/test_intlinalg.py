"""Exact integer linear algebra used by the geometry layer."""

from fractions import Fraction
from random import Random

import pytest

from newton_monodromy.intlinalg import (
    det,
    dot,
    frac_rank,
    independent_rows,
    kernel_basis,
    primitive,
    row_hnf,
    saturation_basis,
    scaled_inverse_columns,
    solve_integer,
    solve_rational,
    vec_gcd,
    xgcd,
)


@pytest.mark.parametrize(
    "a,b",
    [(0, 0), (0, 5), (5, 0), (12, 18), (-12, 18), (12, -18), (-7, -3), (1, 1)],
)
def test_xgcd_bezout(a, b):
    g, s, t = xgcd(a, b)
    assert g == s * a + t * b
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def test_vec_gcd_and_primitive():
    assert vec_gcd((4, -6, 10)) == 2
    assert vec_gcd((0, 0)) == 0
    assert primitive((4, -6, 10)) == (2, -3, 5)
    assert primitive((0, 7, 0)) == (0, 1, 0)
    with pytest.raises(ValueError):
        primitive((0, 0, 0))


def test_frac_rank():
    assert frac_rank([]) == 0
    assert frac_rank([(0, 0)]) == 0
    assert frac_rank([(2, 4), (1, 2)]) == 1
    assert frac_rank([(2, 4), (1, 3)]) == 2
    assert frac_rank([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2


def test_independent_rows_picks_a_basis():
    rows = [(2, 4), (1, 2), (0, 1)]
    idx = independent_rows(rows)
    assert len(idx) == 2
    assert frac_rank([rows[i] for i in idx]) == 2


def test_row_hnf_canonical():
    """HNF is a canonical basis: unimodular changes do not affect it."""
    assert row_hnf([(1, 0), (0, 1)]) == ((1, 0), (0, 1))
    assert row_hnf([(0, 1), (1, 0)]) == ((1, 0), (0, 1))
    assert row_hnf([(2, 4), (6, 8)]) == row_hnf([(6, 8), (2, 4)])
    assert row_hnf([(2, 4), (6, 8)]) == row_hnf([(2, 4), (8, 12)])
    assert row_hnf([(0, 0)]) == ()
    h = row_hnf([(2, 4), (6, 8)])
    assert all(r[next(j for j, x in enumerate(r) if x)] > 0 for r in h)


def test_row_hnf_pivots_reduce_entries_above():
    h = row_hnf([(1, 5), (0, 3)])
    # the entry above the second pivot lies in [0, 3)
    assert h == ((1, 2), (0, 3))


def test_kernel_basis_orthogonal_and_saturated():
    rows = [(1, 1, -1)]
    ker = kernel_basis(rows, 3)
    assert len(ker) == 2
    for v in ker:
        assert dot(rows[0], v) == 0
    # saturated: doubling the defining row must not change the kernel
    assert ker == kernel_basis([(2, 2, -2)], 3)


def test_kernel_of_empty_matrix_is_everything():
    assert kernel_basis([], 2) == ((1, 0), (0, 1))


def test_saturation_basis():
    sat = saturation_basis([(2, 0), (0, 2)], 2)
    assert row_hnf(sat) == ((1, 0), (0, 1))
    sat = saturation_basis([(2, 4)], 2)
    assert sat == ((1, 2),)
    assert saturation_basis([], 3) == ()


def test_solve_rational():
    x = solve_rational([(2, 0), (0, 4)], (1, 2))
    assert x == (Fraction(1, 2), Fraction(1, 2))
    assert solve_rational([(1, 0), (0, 1), (1, 1)], (1, 1, 3)) is None
    with pytest.raises(ValueError):
        solve_rational([(1, 1), (2, 2)], (1, 2))


def test_solve_integer():
    rows = [(2, 3)]
    x = solve_integer(rows, (1,))
    assert x is not None and 2 * x[0] + 3 * x[1] == 1
    assert solve_integer([(2, 4)], (1,)) is None
    assert solve_integer([(1, 0), (0, 1)], (5, -7)) == (5, -7)
    # inconsistent over Q, not just over Z
    assert solve_integer([(1, 0), (1, 0)], (0, 1)) is None


def test_det():
    assert det([]) == 1
    assert det([(3,)]) == 3
    assert det([(1, 2), (3, 4)]) == -2
    assert det([(2, 0, 0), (0, 3, 0), (0, 0, 4)]) == 24
    assert det([(1, 2), (2, 4)]) == 0


def test_scaled_inverse_columns():
    a = [(1, 2), (3, 4)]
    d, cols = scaled_inverse_columns(a)
    assert d == -2
    for j, c in enumerate(cols):
        got = tuple(dot(row, c) for row in a)
        want = tuple(d if i == j else 0 for i in range(2))
        assert got == want
    with pytest.raises(ValueError):
        scaled_inverse_columns([(1, 2), (2, 4)])


def _rref(rows):
    """Reference: reduced row echelon form over Q by plain Fraction
    Gauss-Jordan.  Returns (rows, pivot columns, determinant factor);
    the factor is the signed product of the pivots, which equals the
    determinant of a square input of full rank."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots, factor = [], Fraction(1)
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            factor = -factor
        factor *= a[r][c]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots, factor


def _random_matrix(rng, m, k, bound):
    """An m x k integer matrix; about half of them are made rank
    deficient by overwriting a row with a combination of two others."""
    a = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.5:
        i, j, t = (rng.randrange(m) for _ in range(3))
        s, u = rng.randint(-3, 3), rng.randint(-3, 3)
        a[t] = [s * x + u * y for x, y in zip(a[i], a[j])]
    return a


@pytest.mark.parametrize("bound", [20, 2**40])
def test_elimination_matches_fraction_reference(bound):
    rng = Random(bound)
    for _ in range(300):
        m, k = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, m, k, bound)
        _, pivots, _ = _rref(a)
        assert frac_rank(a) == len(pivots)

        greedy = []
        for i in range(m):
            if len(_rref([a[j] for j in greedy + [i]])[1]) > len(greedy):
                greedy.append(i)
        assert independent_rows(a) == greedy

        rhs = [rng.randint(-bound, bound) for _ in range(m)]
        if rng.random() < 0.5:
            x0 = [rng.randint(-5, 5) for _ in range(k)]
            rhs = [dot(r, x0) for r in a]
        red, aug_pivots, _ = _rref([r + [b] for r, b in zip(a, rhs)])
        if len(pivots) < k:
            with pytest.raises(ValueError):
                solve_rational(a, rhs)
        elif k in aug_pivots:
            assert solve_rational(a, rhs) is None
        else:
            assert solve_rational(a, rhs) == tuple(red[i][k] for i in range(k))

        sq = _random_matrix(rng, m, m, bound)
        eye = [[int(i == j) for j in range(m)] for i in range(m)]
        red, pivots, factor = _rref([r + e for r, e in zip(sq, eye)])
        full = pivots[-1] < m
        assert det(sq) == (factor if full else 0)
        if not full:
            with pytest.raises(ValueError):
                scaled_inverse_columns(sq)
            continue
        d, cols = scaled_inverse_columns(sq)
        assert d == factor
        assert cols == [
            tuple(d * red[i][m + j] for i in range(m)) for j in range(m)
        ]


def _euclid_row_hnf(rows):
    """Reference: row HNF by Euclidean quotient-and-swap steps."""
    a = [list(map(int, r)) for r in rows if any(r)]
    if not a:
        return ()
    r = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            while a[i][c]:
                q = a[r][c] // a[i][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                a[r], a[i] = a[i], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return tuple(tuple(row) for row in a[:r] if any(row))


def _column_reduce(rows, n):
    """Reference: unimodular column reduction of an m x n matrix.

    Returns (pivots, cols, U): the (row, column) pivots in order, the
    reduced columns, and U with original_matrix . U[j] = cols[j]."""
    m = len(rows)
    cols = [[int(rows[i][j]) for i in range(m)] for j in range(n)]
    U = [[int(i == j) for i in range(n)] for j in range(n)]
    free = list(range(n))
    pivots = []
    for i in range(m):
        nz = [j for j in free if cols[j][i]]
        if not nz:
            continue
        j0 = nz[0]
        for j in nz[1:]:
            g, s, t = xgcd(cols[j0][i], cols[j][i])
            aa, bb = cols[j0][i] // g, cols[j][i] // g
            for v in (cols, U):
                v[j0], v[j] = (
                    [s * x + t * y for x, y in zip(v[j0], v[j])],
                    [-bb * x + aa * y for x, y in zip(v[j0], v[j])],
                )
        free.remove(j0)
        pivots.append((i, j0))
    return pivots, cols, U


def _column_kernel_basis(rows, n):
    """Reference: the HNF of the transforms of the unpivoted columns."""
    if not rows:
        return _euclid_row_hnf([[int(i == j) for j in range(n)] for i in range(n)])
    pivots, _cols, U = _column_reduce(rows, n)
    pivot_cols = {j for _, j in pivots}
    return _euclid_row_hnf([U[j] for j in range(n) if j not in pivot_cols])


def _column_saturation_basis(vectors, n):
    vecs = [v for v in vectors if any(v)]
    return _column_kernel_basis(_column_kernel_basis(vecs, n), n) if vecs else ()


def _column_solve_integer(rows, rhs):
    """Reference: substitution through the pivots of the column
    reduction, then a check of the unpivoted rows."""
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    pivots, cols, U = _column_reduce(rows, n)
    z = [0] * n
    for i, j in pivots:
        acc = rhs[i] - sum(cols[jj][i] * z[jj] for jj in range(n) if jj != j)
        if acc % cols[j][i]:
            return None
        z[j] = acc // cols[j][i]
    if any(sum(cols[j][i] * z[j] for j in range(n)) != rhs[i] for i in range(m)):
        return None
    return tuple(sum(z[j] * U[j][t] for j in range(n)) for t in range(n))


def test_hermite_routines_match_column_reduction_reference():
    """row_hnf, kernel_basis, saturation_basis and solve_integer agree
    exactly with the Euclid HNF and the column reduction on random
    systems, down to the particular solution solve_integer picks."""
    rng = Random(2024)
    solved = unsolvable = 0
    for _ in range(2000):
        m, n = rng.randint(0, 5), rng.randint(1, 5)
        a = _random_matrix(rng, m, n, 6)
        assert row_hnf(a) == _euclid_row_hnf(a), a
        assert kernel_basis(a, n) == _column_kernel_basis(a, n), a
        assert saturation_basis(a, n) == _column_saturation_basis(a, n), a
        rhs = [rng.randint(-6, 6) for _ in range(m)]
        if rng.random() < 0.5:
            x0 = [rng.randint(-4, 4) for _ in range(n)]
            rhs = [dot(r, x0) for r in a]
        x = solve_integer(a, rhs)
        assert x == _column_solve_integer(a, rhs), (a, rhs)
        if x is None:
            unsolvable += 1
        else:
            solved += 1
            assert [dot(r, x) for r in a] == rhs
    assert solved > 500 and unsolvable > 200
