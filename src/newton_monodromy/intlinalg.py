"""Exact linear algebra over the integers and rationals.

All matrices here are tiny (dimension at most eight or so), dense, and
exact: entries are Python ints or Fractions, never floats.  Rank,
independent rows, rational solves, determinants and scaled inverses all
come from one fraction-free Gauss-Jordan elimination (Bareiss), which
keeps every entry an integer minor of the input.  Over Z there is one
Hermite reduction by extended gcds: it gives Hermite normal forms, and
on [A^T | I] it gives integer kernels (the transforms of the zero rows)
and integer solves (forward substitution through the pivot rows).

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


def _hermite(a, n: int):
    """Hermite reduction of the integer rows a, in place, pivoting on
    their first n columns only.

    Each pivot comes from extended-gcd steps of the first remaining row
    nonzero in the pivot column against every later such row; it is made
    positive and moved up past the earlier pivots (the other rows keep
    their order), and the entries above it are reduced into [0, pivot).
    Returns (a, rank); rows past the rank are zero in the first n
    columns, and columns past n carry the transform of an appended I.
    """
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        pr = a[p]
        for i in range(p + 1, len(a)):
            row = a[i]
            if row[c]:
                g, s, t = xgcd(pr[c], row[c])
                x, y = pr[c] // g, row[c] // g
                pr, a[i] = (
                    [s * u + t * v for u, v in zip(pr, row)],
                    [x * v - y * u for u, v in zip(pr, row)],
                )
        if pr[c] < 0:
            pr = [-u for u in pr]
        a.pop(p)
        a.insert(r, pr)
        for i in range(r):
            q = a[i][c] // pr[c]
            if q:
                a[i] = [u - q * v for u, v in zip(a[i], pr)]
        r += 1
    return a, r


def _hermite_transposed(rows, n: int):
    """_hermite of [A^T | I] on its first m columns, for the m x n
    matrix A given by rows: row j is column j of A, then e_j."""
    a = [[index(r[j]) for r in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    return _hermite(a, len(rows))


def row_hnf(rows) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form of the lattice spanned by the rows.

    Row-style HNF: pivots positive, entries above a pivot reduced into
    [0, pivot), zero rows dropped.  The result is the canonical basis of
    the row lattice, which makes it usable as a dictionary key.
    """
    a = [list(map(index, r)) for r in rows]
    a, rank = _hermite(a, len(a[0]) if a else 0)
    return tuple(map(tuple, a[:rank]))


def kernel_basis(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the integer kernel {x in Z^n : A x = 0}.

    Reducing [A^T | I] on A^T leaves rows (0 | x) past the rank whose x
    span the kernel; the kernel of an integer matrix is a saturated
    sublattice, so their HNF rows are a genuine lattice basis of it.
    """
    a, rank = _hermite_transposed(rows, n)
    return row_hnf([row[len(rows) :] for row in a[rank:]])


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
    fine; the solution returned is the one in the lattice spanned by the
    transforms of the pivot rows of [A^T | I], found by forward
    substitution through them.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    a, rank = _hermite_transposed(rows, n)
    b = list(rhs[:m])
    x = [0] * n
    for row in a[:rank]:
        c = next(i for i in range(m) if row[i])
        q, rest = divmod(b[c], row[c])
        if rest:
            return None
        b = [u - q * v for u, v in zip(b, row)]
        x = [u + q * v for u, v in zip(x, row[m:])]
    return None if any(b) else tuple(x)


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
