"""Exact linear algebra over the integers and rationals.

All matrices here are tiny (dimension at most eight or so), dense, and
exact: entries are Python ints or Fractions, never floats.  Rank,
independent rows, rational solves, determinants and scaled inverses all
come from one fraction-free Gauss-Jordan elimination (Bareiss), which
keeps every entry an integer minor of the input; unimodular work over Z
(Hermite forms, integer kernels and solves) uses column reduction by
extended gcds.

Conventions: a "matrix" is a sequence of equal-length rows.  Functions
return tuples so results are hashable and safely shareable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v) -> tuple[int, ...]:
    """v divided by gcd(v), as a tuple.  The zero vector is rejected."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v, strict=True))


def vec_sub(u, v) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(u, v, strict=True))


def _gauss_jordan(rows):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss).

    Returns (a, pivots, d, sign): a is the reduced matrix, pivots the
    pivot columns in order, d the last pivot (1 if there is none) and
    sign the parity of the row swaps.  Columns without a pivot are
    skipped.  Row i < len(pivots) has the entry d in column pivots[i],
    every other entry of a pivot column is 0, and the remaining rows are
    zero.  Every entry is an integer minor of the input (Sylvester's
    identity), so each division below is exact; for a nonsingular
    square matrix, det = sign * d.  Entries must be integers: a
    Fraction raises TypeError rather than being truncated.
    """
    a = [list(map(index, r)) for r in rows]
    m = len(a)
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pr = a[r]
        p = pr[c]
        for i in range(m):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pr)]
        pivots.append(c)
        prev = p
    return a, pivots, prev, sign


def frac_rank(rows) -> int:
    """Rank over the rationals."""
    return len(_gauss_jordan(rows)[1])


def independent_rows(rows) -> list[int]:
    """Indices of a maximal linearly independent subset, greedily in order."""
    return _gauss_jordan(list(zip(*rows)))[1]


def row_hnf(rows) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form of the lattice spanned by the rows.

    Row-style HNF: pivots positive, entries above a pivot reduced into
    [0, pivot), zero rows dropped.  The result is the canonical basis of
    the row lattice, which makes it usable as a dictionary key.
    """
    a = [list(map(int, r)) for r in rows if any(r)]
    if not a:
        return ()
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            # Euclidean loop on the pivot column; magnitudes strictly shrink.
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


def _column_reduce(rows, n: int):
    """Unimodular column reduction of an m x n integer matrix.

    Returns (pivots, cols, U):
      pivots: list of (row_index, column_index) in elimination order;
      cols:   transformed columns, cols[j][i] = entry at row i, col j;
      U:      U[j] is transformed column j expressed in original
              coordinates, so  original_matrix . U[j] = cols[j].

    The transform is a product of elementary unimodular column
    operations; columns never touched by a pivot keep zeros in every
    processed row.
    """
    m = len(rows)
    cols = [[int(rows[i][j]) for i in range(m)] for j in range(n)]
    U = [[int(i == j) for i in range(n)] for j in range(n)]
    free = list(range(n))
    pivots: list[tuple[int, int]] = []
    for i in range(m):
        nz = [j for j in free if cols[j][i]]
        if not nz:
            continue
        j0 = nz[0]
        for j in nz[1:]:
            a, b = cols[j0][i], cols[j][i]
            g, s, t = xgcd(a, b)
            aa, bb = a // g, b // g
            c0 = [s * x + t * y for x, y in zip(cols[j0], cols[j])]
            c1 = [-bb * x + aa * y for x, y in zip(cols[j0], cols[j])]
            u0 = [s * x + t * y for x, y in zip(U[j0], U[j])]
            u1 = [-bb * x + aa * y for x, y in zip(U[j0], U[j])]
            cols[j0], cols[j] = c0, c1
            U[j0], U[j] = u0, u1
        free.remove(j0)
        pivots.append((i, j0))
    return pivots, cols, U


def kernel_basis(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the integer kernel {x in Z^n : A x = 0}.

    The kernel of an integer matrix is a saturated sublattice, so the
    HNF rows returned here are a genuine lattice basis of it.
    """
    if not rows:
        return row_hnf([[int(i == j) for j in range(n)] for i in range(n)])
    pivots, _cols, U = _column_reduce(rows, n)
    pivot_cols = {j for _, j in pivots}
    ker = [tuple(U[j]) for j in range(n) if j not in pivot_cols]
    return row_hnf(ker)


def saturation_basis(vectors, n: int) -> tuple[tuple[int, ...], ...]:
    """Basis of span_Q(vectors) intersected with Z^n (the saturation).

    Computed as the kernel of the kernel; both kernels are saturated, so
    the double kernel is exactly the saturation of the span.
    """
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        return ()
    return kernel_basis(kernel_basis(vecs, n), n)


def solve_rational(rows, rhs):
    """Solve A x = rhs exactly over Q.

    A is given by rows (m x k) and must have full column rank k.
    Returns a tuple of Fractions, or None if the system is inconsistent.
    """
    k = len(rows[0]) if rows else 0
    a, pivots, d, _ = _gauss_jordan(
        [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    )
    if pivots[:k] != list(range(k)):
        raise ValueError("matrix does not have full column rank")
    if len(pivots) > k:
        return None
    return tuple(Fraction(a[i][k], d) for i in range(k))


def solve_integer(rows, rhs):
    """One integer solution x of A x = rhs, or None if none exists.

    A is m x n (rows), rhs has length m.  Underdetermined systems are
    fine; any solution is returned.
    """
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    pivots, cols, U = _column_reduce(rows, n)
    z = [0] * n
    solved_rows = set()
    for i, j in pivots:
        acc = rhs[i]
        for jj in range(n):
            if jj != j and z[jj]:
                acc -= cols[jj][i] * z[jj]
        if acc % cols[j][i]:
            return None
        z[j] = acc // cols[j][i]
        solved_rows.add(i)
    for i in range(m):
        if i in solved_rows:
            continue
        acc = sum(cols[j][i] * z[j] for j in range(n) if z[j])
        if acc != rhs[i]:
            return None
    x = [0] * n
    for j in range(n):
        if z[j]:
            for t in range(n):
                x[t] += z[j] * U[j][t]
    return tuple(x)


def det(rows) -> int:
    """Integer determinant of a square integer matrix."""
    _, pivots, d, sign = _gauss_jordan(rows)
    return sign * d if len(pivots) == len(rows) else 0


def scaled_inverse_columns(rows):
    """(det, columns of det * A^{-1}) for a nonsingular square integer A.

    The scaled inverse columns are integer vectors: column j satisfies
    A . c_j = det * e_j.  Raises ValueError on a singular matrix.
    Reducing [A | I] gives [d I | d A^{-1}] with det = sign * d.
    """
    n = len(rows)
    a, pivots, d, sign = _gauss_jordan(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    )
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    cols = [tuple(sign * a[i][n + j] for i in range(n)) for j in range(n)]
    return sign * d, cols
