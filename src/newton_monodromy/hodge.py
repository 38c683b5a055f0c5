"""Equivariant Hodge-Deligne tables of nondegenerate torus hypersurfaces.

hodge_table(poly, char) returns the table e^{p,q}_alpha of the
hypersurface cut out, inside the torus of poly's intrinsic lattice, by
a generic Laurent polynomial with Newton polytope poly, graded by the
finite mu_d-action that char encodes.  Entries live at 0 <= p, q <= dim-1
and character buckets alpha in [0,1).  Every bucket of one table is
alpha = r/d' for d' = restricted(poly, char)[0], so a table is a mapping
{(p, q, r): int} keyed by the residue r in range(d'), zero entries
dropped: the conjugate bucket of r is (-r) % d', and the table of a
stratum, whose own modulus divides d', has its residues multiplied by
ehrhart.residue_step before they are merged.

The computation is the classical one: closed formulas for both extreme
rows and for the high range p+q > dim-1, a stratification of the
closure by chains of faces (the cones of a simplicial refinement),
Poincare duality for that closure, and row-sum targets to recover the
middle anti-diagonal.  One assembly serves every dimension, filling
each bucket in one pass: the low range p+q < dim-1 reads the closed-form
high range through duality, and each row's middle entry is what its
target leaves.  A segment (dimension 1) takes the same path; its strata
are all vertices, so the strata sum is empty and its one entry per
bucket is the row target.  The extreme rows, the high range and the row
targets (boundary_values) are kept sparse, nonzero entries only (the
high range is then just the a = 0 diagonal), and memoized once per
(shape, restriction) as read-only mappings, so the table and validate's
boundary check read one entry.  Every table is cross-checked before it
is cached: it must agree with the boundary rows at every boundary
position, conjugation symmetry e^{p,q}_alpha = e^{q,p}_{-alpha} must
hold, and the total must equal the signed normalized volume.

A table reads its polytope only through its chart points and its
character only at lattice points of the polytope and of its faces, so
hodge_table, boundary_values and _row_sums are decorated with
ehrhart.memoized, which keys them by the polytope's Shape and the
character's restriction to its lattice: the cone over a face is built
once, whichever compact face's height character reaches it, and once
for all its translates.  _chains, which reads the lattice alone, goes
through polytope.cached once per shape.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from math import comb
from types import MappingProxyType

from . import ehrhart
from .ehrhart import Character, memoized, residue_step, restricted
from .errors import InputError, InternalConsistencyError
from .polytope import cached


def _merge(
    acc: dict, table: dict, scale: int = 1, step: int = 1, twist: int = 0
) -> None:
    """acc += scale * (1 - L)^twist * table, each bucket residue r of
    table read as r * step; L shifts (p, q) by (1, 1)."""
    terms = [(i, scale * (-1) ** i * comb(twist, i)) for i in range(twist + 1)]
    _merge_terms(acc, table, terms, step)


def _merge_terms(acc: dict, table: dict, terms, step: int = 1) -> None:
    """acc += (sum of c * L^i over the pairs (i, c) of terms) * table,
    each bucket residue r of table read as r * step."""
    for (p, q, r), v in table.items():
        r *= step
        for i, c in terms:
            key = (p + i, q + i, r)
            acc[key] = acc.get(key, 0) + c * v


def _clean(table: dict) -> dict:
    return {k: v for k, v in table.items() if v}


def lefschetz_twist(table: dict, k: int) -> dict:
    """Multiply a table by (1 - L)^k, k >= 0; L shifts (p, q) by (1, 1)."""
    if k < 0:
        raise ValueError(f"twist exponent {k} is negative")
    out: dict = {}
    _merge(out, table, twist=k)
    return _clean(out)


def read_eigenvalue(ev) -> Fraction:
    """An eigenvalue (or bucket) argument as an exact Fraction.

    Accepts an int, a Fraction, or a string that Fraction reads ('1/10',
    '0.1').  A float is refused: Fraction(0.1) is not 1/10, so a float
    would silently name another eigenvalue.  So is a bool, which is no
    eigenvalue though Python counts it an int."""
    if isinstance(ev, Fraction):
        return ev
    if isinstance(ev, int) and not isinstance(ev, bool):
        return Fraction(ev)
    if isinstance(ev, str):
        try:
            return Fraction(ev)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(
        f"eigenvalue {ev!r} is not exact: pass a Fraction or a string 'a/b'"
    )


@memoized
def boundary_values(poly, char: Character):
    """Directly computable table entries and row-sum targets, sparse.

    Returns (bv, targets, alphas), every bucket a residue r mod d':
      bv[(p, q, r)]    the nonzero entries of the extreme rows p = 0 /
                       q = 0 and of the whole high range p + q > dim - 1
                       (there only the r = 0 diagonal p = q is nonzero);
      targets[(p, r)]  the nonzero values of sum_q e^{p,q}_r;
      alphas           every bucket seen, closed under conjugation.
    An absent key stands for 0.  The triple is memoized once per
    (shape, restriction), bv and targets as read-only mappings and
    alphas as a frozenset, so hodge_table and validate's boundary check
    share one entry and clear_caches drops it.

    The extreme rows count lattice points by character bucket with
    ehrhart.relint_counts, summed over the faces of each dimension:
    row p >= 1 reads the relative-interior points of the (p+1)-faces, and
    row 0 the points of the 1-skeleton, i.e. the vertices (dimension 0)
    plus the edge interiors (dimension 1).
    """
    bv, targets, alphas = _boundary_rows(poly, char)
    return MappingProxyType(bv), MappingProxyType(targets), frozenset(alphas)


def _boundary_rows(poly, char: Character):
    """The triple of boundary_values, built sparse: bv from the nonzero
    face counts, each entry with its conjugate, and targets from the
    buckets of p_alpha and the a = 0 binomial term.  Zero entries are
    not stored."""
    m = poly.dim
    d = restricted(poly, char)[0]
    sign = (-1) ** (m - 1)
    lsum = {k: Counter() for k in range(m + 1)}
    for face, fdim in poly.face_lattice.items():
        sub = poly.face_polytope(face)
        step = residue_step(d, sub, char)
        for r, c in ehrhart.relint_counts(sub, char, 1).items():
            lsum[fdim][r * step] += c
    skel = lsum[0] + lsum[1]
    pa = ehrhart.p_alpha(poly, char)
    alphas = {0} | set(pa)
    for part in lsum.values():
        alphas |= set(part)
    alphas |= {-a % d for a in alphas}

    # (0, 0, a) reads the 1-skeleton's count in the conjugate bucket,
    # less 1 at a = 0; row p reads the (p+1)-faces' count in the bucket
    # and column p the same count in the conjugate bucket
    bv = {}
    if skel[0] != 1:
        bv[(0, 0, 0)] = sign * (skel[0] - 1)
    for r, c in skel.items():
        if r and c:
            bv[(0, 0, -r % d)] = sign * c
    for p in range(1, m):
        for r, c in lsum[p + 1].items():
            if c:
                bv[(p, 0, r)] = bv[(0, p, -r % d)] = sign * c
    # the high range p + q > m - 1 vanishes off the a = 0 diagonal
    for p in range((m + 1) // 2, m):
        bv[(p, p, 0)] = (-1) ** (m + p + 1) * comb(m, p + 1)

    targets = {}
    for a in pa.keys() | {0}:
        tup = pa.get(a)
        for p in range(m):
            t = (-1) ** (m + 1) * (tup[m - p] if tup else 0)
            if a == 0:
                t += (-1) ** (p + m + 1) * comb(m, p + 1)
            if t:
                targets[(p, a)] = t
    return bv, targets, alphas


def _boundary_mismatch(table, bv, alphas, m):
    """The first key at which table contradicts the sparse boundary rows,
    or None.  Every entry of bv is compared, and so is every entry of
    table at a boundary position (p = 0, q = 0 or p + q > m - 1) in a
    bucket of alphas, against bv's value there or 0: together, every
    boundary position of every bucket in alphas, as a dense bv would
    list them."""
    for k, v in bv.items():
        if table.get(k, 0) != v:
            return k
    for k, v in table.items():
        p, q, a = k
        if (not p or not q or p + q >= m) and a in alphas and v != bv.get(k, 0):
            return k
    return None


def _count_chains(lattice, m: int) -> dict:
    """{F: {k: number of chains F_0 > ... > F_k = F}} over the proper
    faces F of an m-polytope's face lattice {face: dim}, the cones of the
    barycentric subdivision of its normal fan.  Faces are visited by
    descending vertex count, so F's chains extend those of the faces above."""
    chains: dict = {}
    for face in sorted((f for f, d in lattice.items() if d < m), key=len, reverse=True):
        ends = {0: 1}
        for above, counts in chains.items():
            if face < above:
                for k, c in counts.items():
                    ends[k + 1] = ends.get(k + 1, 0) + c
        chains[face] = MappingProxyType(ends)
    return chains


@cached
def _chains(shape) -> Mapping:
    """_count_chains of the shape's lattice, which is all it reads, once
    per shape as a read-only mapping."""
    return MappingProxyType(_count_chains(shape.face_lattice, shape.dim))


def _strata_sum(poly, char: Character, m: int) -> dict:
    """Sum over torus orbits of the boundary strata of the closure.

    The closure lives in the toric variety of the barycentric subdivision
    of the normal fan, one orbit per chain F_0 > ... > F_k of proper faces
    (_chains).  The orbit meets the closure in the hypersurface of F_k,
    empty for a vertex, times a torus of dimension j = m - k - 1 - dim F_k,
    whose table is (L - 1)^j.  A face F's chain counts c_k fold into one
    polynomial sum_k c_k (L - 1)^(m - k - 1 - dim F), so F's table is
    merged once, with that polynomial's coefficients.
    """
    d = restricted(poly, char)[0]
    lat = poly.face_lattice
    S: dict = {}
    for face, ends in _chains(poly.shape).items():
        fdim = lat[face]
        if not fdim:
            continue
        top = m - 1 - fdim
        weights = [0] * (top + 1)  # weights[i]: the coefficient of L^i
        for k, c in ends.items():
            j = top - k
            for i in range(j + 1):
                weights[i] += c * (-1) ** (j - i) * comb(j, i)
        sub = poly.face_polytope(face)
        terms = [(i, w) for i, w in enumerate(weights) if w]
        _merge_terms(S, hodge_table(sub, char), terms, residue_step(d, sub, char))
    return _clean(S)


@memoized
def hodge_table(poly, char: Character) -> Mapping[tuple, int]:
    """e^{p,q}_r of the nondegenerate hypersurface with this Newton
    polytope, graded by char, as a read-only mapping keyed by (p, q, r)
    with r the bucket residue mod d' = restricted(poly, char)[0].

    Every dimension m >= 1 goes through the one assembly; in dimension 1
    the strata sum is empty and the table is the row targets, which
    _post_checks compares with the boundary values."""
    m = poly.dim
    if m < 1:
        raise InputError("hypersurface table needs dim >= 1")
    d = restricted(poly, char)[0]
    bv, targets, seen = boundary_values(poly, char)
    S = _strata_sum(poly, char, m)
    alphas = seen | {a for (_, _, a) in S}
    alphas |= {-a % d for a in alphas}
    table = {}
    for a in alphas:
        c = -a % d
        for p in range(m):
            mid = m - 1 - p
            row = 0
            for q in range(m):
                if p + q > m - 1:
                    v = bv.get((p, q, a), 0)
                elif q < mid:
                    # Poincare duality for the closure (table + S): its
                    # (p, q, a) entry is its (dim-1-p, dim-1-q, -a) entry,
                    # which lies in the closed-form high range
                    dual = (mid, m - 1 - q, c)
                    v = bv.get(dual, 0) + S.get(dual, 0) - S.get((p, q, a), 0)
                else:
                    continue
                table[(p, q, a)] = v
                row += v
            table[(p, mid, a)] = targets.get((p, a), 0) - row
    _post_checks(poly, d, table, bv, seen, m)
    return _clean(table)


def _post_checks(poly, d, table, bv, alphas, m):
    k = _boundary_mismatch(table, bv, alphas, m)
    if k is not None:
        raise InternalConsistencyError(
            f"assembled table contradicts boundary value at {k} mod {d}: "
            f"{table.get(k, 0)} != {bv.get(k, 0)}"
        )
    for (p, q, a), v in table.items():
        if table.get((q, p, -a % d), 0) != v:
            raise InternalConsistencyError(
                f"conjugation symmetry broken at {(p, q, a)} mod {d}"
            )
    total = sum(table.values())
    want = (-1) ** (m - 1) * ehrhart.normalized_volume(poly)
    if total != want:
        raise InternalConsistencyError(
            f"table total {total} does not match signed volume {want}"
        )


@memoized
def _row_sums(poly, char: Character) -> Mapping[int, tuple[int, ...]]:
    """Per nontrivial bucket residue r in which some face G has a nonzero
    sigma(G)_r = phi_0 + ... + phi_dim(G) (p_alpha without its top
    coefficient), the anti-diagonal sums (s_0, ..., s_{dim-1}),
    s_k = sum_{p+q=k} e^{p,q}_r, by inclusion-exclusion over the face
    lattice: s_k is (-1)^(dim+k) times the sum over (k+1)-faces F and
    faces G of F of (-1)^dim(G) sigma(G)_r.  So each face G that carries a
    nontrivial bucket enters row k once, times the number of
    (k+1)-faces containing it, counted with one subset test per face
    pair.  A read-only mapping of tuples."""
    m = poly.dim
    d = restricted(poly, char)[0]
    lat = poly.face_lattice
    phis = {}
    for face, fdim in lat.items():
        sub = poly.face_polytope(face)
        step = residue_step(d, sub, char)
        # sigma of the face: phi_0 + ... + phi_dim per bucket
        phis[face] = {
            r * step: (-1) ** fdim * v
            for r, tup in ehrhart.p_alpha(sub, char).items()
            if r and (v := sum(tup[: sub.dim + 1]))
        }
    acc: dict = {a: [0] * m for part in phis.values() for a in part}
    for sub, part in phis.items():
        if not part:
            continue
        above = [0] * m  # above[k]: the (k+1)-faces containing sub
        for face, fdim in lat.items():
            if fdim and sub <= face:
                above[fdim - 1] += 1
        for a, v in part.items():
            rows = acc[a]
            for k, c in enumerate(above):
                rows[k] += c * v
    return {
        a: tuple((-1) ** (m + r) * rows[r] for r in range(m))
        for a, rows in sorted(acc.items())
    }


def pseudo_prime_row_sums(poly, char: Character, alpha: Fraction) -> dict[int, int]:
    """Anti-diagonal sums sum_{p+q=r} e^{p,q}_alpha of the hypersurface
    table, obtained by inclusion-exclusion over the face lattice without
    building the table itself.  Valid for every nontrivial bucket alpha
    when the polytope is pseudo-prime (in particular when it is prime);
    both conditions are enforced, and alpha must lie in (0, 1), given as
    read_eigenvalue reads it.  A bucket no face carries has all sums zero."""
    if poly.shape.primeness == "neither":
        raise InputError("anti-diagonal formula needs a pseudo-prime polytope")
    alpha = read_eigenvalue(alpha)
    if not 0 < alpha.numerator < alpha.denominator:
        raise InputError("anti-diagonal formula needs a nontrivial bucket in (0, 1)")
    r = ehrhart.residue(alpha, restricted(poly, char)[0])
    rows = _row_sums(poly, char).get(r, (0,) * poly.dim)
    return dict(enumerate(rows))
