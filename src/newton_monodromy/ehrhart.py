"""Character-graded lattice point counts of dilated polytopes.

A Character is a finite-order homomorphism Z^n -> Q/Z given by
v -> (coeffs . v)/modulus mod 1.  Interior points of the k-th dilate of
a polytope are bucketed by character value; once the character kills
every vertex, the generating series of each bucket is a polynomial of
degree at most dim+1 over (1-t)^(dim+1) (equivariant Ehrhart theory,
Stapledon 2011), and those coefficient vectors (called phi here) drive
the whole Hodge recursion downstream.  They are read off the top
(full-dimensional) simplices tau of a pulling triangulation, made
half-open (Koeppe-Verdoolaege 2008) so that their cones partition the
interior of the cone over P; each tau contributes the lattice points
of its half-open fundamental parallelepiped, NVol(tau) of them
(Beck-Robins, ch. 3).  No dilate is scanned.  The triangulation cones
from vertex 0, the chart origin, so every tau holds it, and
_box_counts walks the group of tau's parallelepiped, read off the
memoized scaled inverse of tau's rows (y, 1), with the apex folded
into a floor: a point's height is one more than the floor of the other
coordinates' sum, and its bucket is the restriction's form w at its
group coordinates, w vanishing on the vertices.  The group is walked
in flat blocks of at most _BLOCK points, each packed into fixed-width
fields of one int per generator and one for the bucket form, so that
every step of the walk is a few int operations per block, and each
block's packed keys are counted by one Counter.update.

relint_counts is the engine's one lattice-point counter: the
boundary rows of the Hodge tables (faces of every dimension, vertices
included), the largest-block shortcuts and the check of phi_1 all count
relative-interior points through it, and it reads them off
Polytope.lattice_scan in the polytope's own chart.

Every value these counts read is the character's value at a lattice
point of the polytope's affine hull, so it depends only on the
character's restriction to that lattice (restricted), and it lies in
(1/d')Z for the restriction's modulus d'.  A bucket is therefore the
integer residue r mod d' of the value r/d': relint_counts and p_alpha
here, and the tables and row sums in hodge, key by residues, and a
caller that merges the buckets of a face into those of a larger
polytope multiplies them by d' / d'_sub (hodge._faces).

The engine's one store, polytope._MEMO, holds everything computed from
an interned polytope: the restrictions, the volumes, and the results of
every function decorated with memoized.  Those results are keyed by the
polytope's Shape (its chart points, shared by every polytope that
reaches them) and the restriction, not by the instance nor by the
ambient character.
A face G of a cone conv(0 u gamma) is reached under the height
character of every compact face above it, and those all restrict to
the same triple on G; a translate of G reached from another cone has
G's shape, and under the same triple the same counts.  So each count
and table is built once per (shape, restriction).  restricted itself
stays per instance: it reads the instance's chart basis.  The store
hands out immutable values only, so a caller cannot corrupt it.

Convention: the 0-th dilate counts as empty in every bucket, even for a
point polytope.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce, wraps
from itertools import product
from math import gcd
from operator import index, mul
from types import MappingProxyType

from . import intlinalg as ila
from .errors import InputError, InternalConsistencyError
from .polytope import _MEMO, cached, scaled_inverse


@dataclass(frozen=True)
class Character:
    """Finite-order character of Z^n, v -> exp(2*pi*i*(coeffs.v)/modulus).

    Instances normalize themselves: coefficients are reduced mod the
    modulus and the common gcd with the modulus is divided out, so equal
    characters compare and hash equal.  A non-integer or a bool raises
    TypeError.
    The hash, that of (modulus, coeffs) as the generated one would be, is
    taken once: every memo key holds a character.
    """

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(isinstance(x, bool) for x in (self.modulus, *self.coeffs)):
            raise TypeError(f"a bool in the character {self.modulus}, {self.coeffs}")
        d = index(self.modulus)
        if d < 1:
            raise ValueError("character modulus must be positive")
        cs = tuple(index(c) % d for c in self.coeffs)
        g = reduce(gcd, cs, d)
        if g > 1:
            d //= g
            cs = tuple(c // g for c in cs)
        object.__setattr__(self, "modulus", d)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "_hash", hash((d, cs)))

    def __hash__(self):
        return self._hash

    @staticmethod
    def trivial(n: int) -> "Character":
        return Character(1, (0,) * n)

    @property
    def is_trivial(self) -> bool:
        return self.modulus == 1

    def value(self, v) -> Fraction:
        """Character value of an ambient lattice point, in [0, 1)."""
        return Fraction(ila.dot(self.coeffs, v) % self.modulus, self.modulus)

    def is_trivial_at(self, v) -> bool:
        """Whether the character value at an ambient lattice point is 0."""
        return ila.dot(self.coeffs, v) % self.modulus == 0


@cached
def restricted(poly, char: Character) -> tuple[int, tuple[int, ...], int]:
    """The character's restriction to the polytope's affine lattice.

    The chart point y of the k-th dilate stands for the ambient point
    k*origin + sum_j y_j basis_j, of value (k*o + w.y)/d mod 1, where
    d = char.modulus, w_j = char.coeffs . basis_j and
    o = char.coeffs . origin.  Returns the triple (d', w', o') in lowest
    terms: w and o reduced mod d, and g = gcd(d, w_1, ..., o) divided
    out of all three.  Two characters with the same triple take the same
    value at every lattice point of the polytope and of its faces.
    Kept per (polytope instance, character).  A character whose arity
    is not the polytope's ambient dimension raises InputError.
    """
    if len(char.coeffs) != poly.ambient_dim:
        raise InputError(
            f"character of arity {len(char.coeffs)} on a polytope in "
            f"{poly.ambient_dim} variables"
        )
    d = char.modulus
    w = [ila.dot(char.coeffs, b) % d for b in poly.chart.basis]
    o = ila.dot(char.coeffs, poly.chart.origin) % d
    g = reduce(gcd, w, gcd(d, o))
    return d // g, tuple(x // g for x in w), o // g


def memoized(fn):
    """Memoize fn(poly, char, *args) per (fn, poly.shape, restricted
    character, *args) in _MEMO; a dict result is stored as a read-only
    mapping, any other as it is.  Interned shapes hash by identity, so a
    lookup does not hash the chart points.  Only a function whose values
    depend on poly through its chart points and on char through
    restricted(poly, char) alone may be decorated: it must not read the
    ambient points or character, since the entry serves every polytope
    of the shape."""

    @wraps(fn)
    def lookup(poly, char, *args):
        key = (fn, poly.shape, restricted(poly, char), *args)
        hit = _MEMO.get(key)
        if hit is None:
            hit = fn(poly, char, *args)
            _MEMO[key] = hit = MappingProxyType(hit) if isinstance(hit, dict) else hit
        return hit

    return lookup


def residue(alpha, d: int) -> int | None:
    """The integer r with alpha = r/d, or None when d * alpha is not one;
    alpha is a Fraction or an int."""
    r, rest = divmod(alpha.numerator * d, alpha.denominator)
    return None if rest else r


def relint_counts(poly, char: Character, k: int) -> Mapping[int, int]:
    """Bucketed count of interior lattice points of the k-th dilate.

    Keys are bucket residues r mod d' = restricted(poly, char)[0], in
    ascending order; values are positive counts.  k = 0 returns an empty
    mapping.  The relative interior of a point is the point itself: its
    chart is Z^0, and lattice_scan returns the one chart point ().  Under
    a trivial restriction (d' = 1) every point falls in bucket 0.  A k
    that is no int >= 0, a bool included, raises InputError before the
    memo is read, where True would find the entry of 1.
    """
    if type(k) is not int or k < 0:
        raise InputError(f"dilate {k!r} is not an int >= 0")
    return _relint_counts(poly, char, k)


@memoized
def _relint_counts(poly, char: Character, k: int) -> Mapping[int, int]:
    if k == 0:
        return {}
    d, w, o = restricted(poly, char)
    rows = poly.lattice_scan(k, relint=True)[1]
    if d == 1:
        return {0: len(rows)} if rows else {}
    off = k * o
    raw = Counter((off + sum(map(mul, w, y))) % d for y in rows)
    return dict(sorted(raw.items()))


@memoized
def p_alpha(poly, char: Character) -> Mapping[int, tuple[int, ...]]:
    """Numerator coefficients of each bucket's interior Ehrhart series.

    Returns {r: (phi_0, ..., phi_{dim+1})}, r a bucket residue as in
    relint_counts, where
    sum_k |relint(k*poly)|_r t^k = (phi_0 + ... + phi_{dim+1} t^{dim+1})
    / (1-t)^{dim+1}.  Requires the character to vanish on every vertex,
    hence on each generator (v, 1) of a simplex's cone, so each top
    simplex adds t^height(b) to the bucket of each point b of its
    half-open parallelepiped, as counted by _box_counts.  Checks:
    _box_counts refuses a simplex that misses vertex 0 or is not
    full-dimensional; phi_1 equals the k = 1 walk of relint_counts in
    every bucket; the total equals normalized_volume(poly), whose
    pyramids use another apex; phi_{dim+1} is 1 in bucket 0 and 0
    elsewhere (the Euler characteristic of the interior: one simplex has
    every facet open).
    The vertex check reads the restriction (d', w', o'): the value at
    the chart point y is (o' + w'.y)/d', so it runs on the first
    computation of each memo key with the outcome every polytope of the
    shape would get under that restriction; _box_counts takes w' as
    its residue form on that premise.
    """
    d, w, o = restricted(poly, char)
    for i in poly.shape.vertex_ids:
        if (o + ila.dot(w, poly.cpoints[i])) % d:
            raise InternalConsistencyError(
                f"character with restriction {(d, w, o)} is not trivial on "
                f"vertex {poly.points[i]}"
            )
    # so o = 0: the chart origin is a vertex
    m = poly.dim
    c = [sum(xs) for xs in zip(*(poly.cpoints[i] for i in poly.shape.vertex_ids))]
    phi: dict[int, list[int]] = {}
    for simplex in _top_simplices(poly):
        box = _box_counts([poly.cpoints[i] + (1,) for i in simplex], w, d, c)
        for (height, r), n in box.items():
            phi.setdefault(r, [0] * (m + 2))[height] += n
    out = {r: tuple(row) for r, row in sorted(phi.items())}

    first = {r: tup[1] for r, tup in out.items() if tup[1]}
    walk = dict(relint_counts(poly, char, 1))
    if first != walk:
        raise InternalConsistencyError(
            f"phi_1 {first} differs from the interior points {walk}"
        )
    total = sum(sum(tup) for tup in out.values())
    vol = normalized_volume(poly)
    if total != vol:
        raise InternalConsistencyError(
            f"Ehrhart numerators add up to {total}, not the normalized volume {vol}"
        )
    top = {r: tup[m + 1] for r, tup in out.items() if tup[m + 1]}
    if top != {0: 1}:
        raise InternalConsistencyError(
            f"phi_{m + 1} is {top}, not 1 in bucket 0 and 0 elsewhere"
        )
    return out


def _top_simplices(poly) -> list[tuple[int, ...]]:
    """The full-dimensional simplices of the pulling triangulation.

    Each face is coned from its lowest vertex id over the triangulations
    of its facets that miss that vertex.  The order is global, so the
    simplices in a face of the polytope triangulate that face.  Simplices
    are ascending tuples of vertex ids, so each starts at the lowest
    vertex id, vertex 0.  A simplex is its own triangulation, which the
    recursion would reach through every one of its faces.
    """
    if poly.shape.simplex:
        return [poly.shape.vertex_ids]
    lattice = poly.face_lattice

    @cache
    def pulling(face):
        fdim = lattice[face]
        if fdim == 0:
            return [tuple(face)]
        apex = min(face)
        return [
            (apex,) + s
            for g, gdim in lattice.items()
            if gdim == fdim - 1 and g < face and apex not in g
            for s in pulling(g)
        ]

    return sorted(pulling(frozenset(poly.shape.vertex_ids)))


_BLOCK = 1024
# (bits, memoryview format) of a packed field, narrowest first
_FIELDS = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))


def _box_counts(gens, form, d: int, toward) -> dict[tuple[int, int], int]:
    """{(height, residue): count} over the lattice points b of the
    half-open parallelepiped {sum lam_i gens_i} of a full-dimensional
    simplex's cone, lam_i in (0, 1] if facet i (opposite gens_i) is open
    and in [0, 1) if closed; the height is b's last coordinate, the
    residue form . b' mod d for b' the others, form being the linear
    form w of p_alpha's restriction (d, w, o).

    gens_0 must be the apex (0, ..., 0, 1), every other gens_i must
    have last coordinate 1, and there must be one per coordinate, or the
    kernel raises.  Write gens_i = (y_i, 1) for i >= 1 and Y for the
    matrix of rows y_i.  The rows of row_hnf(Y) are triangular, so the
    vectors 0 <= x_k < diagonal_k meet every coset of Z^m / Z y once,
    |det Y| = NVol of the simplex of them in all; intlinalg.hnf_diagonal
    reads that diagonal off minors and Y's inverse, and a unimodular
    simplex (det 1) has the one point x = 0.  The sides are those of
    q = (eps * toward + eps^2 e_1 + ... + eps^m e_m, 1) for a small
    eps > 0: facet i is open iff lam_i(q) > 0, so for i >= 1 iff the
    first nonzero of (toward . col_i, col_i) is positive (col_i below),
    and the apex's facet always is.

    Three facts make the walk additions.  The apex takes no lam of its
    own: lam_0 tops the others up to the next integer, so with
    L_i = lam_i * det the height is floor(sum_{i>=1} L_i / det) + 1.
    L_i is (x . col_i - s_i) mod det + s_i, with s_i 1 if facet i is
    open and 0 if closed, col_i the i-th column of det * Y^-1, det > 0.
    Those are columns 1..m of det M * M^-1 for M the rows gens, cut to
    their first m entries (negated when det M < 0), and M's inverse is
    polytope.scaled_inverse's, shared with a simplex shape's facets.
    And form vanishes mod d on every y_i (p_alpha's vertex check; not
    tested here) and b' - x lies in the lattice they span, so the
    residue is form . x mod d.

    The group is walked in flat blocks of at most _BLOCK points: axis k
    takes chunks[k] consecutive values in a block (later axes slower; a
    cut axis is the last one with more than one).  A block is packed
    into fixed-width fields of one int per generator, field j holding
    (x_j . col_i) mod det for the block's j-th offset x_j, and of one
    int for the residue form mod d, each built once, axis by axis, by
    doubling.  A field is the narrowest of 8, 16, 32 and 64 bits whose
    top bit, the guard, lies above every value it holds, all below
    (m + 1) * max(det, d); a wider box raises before any walk.  (In
    p_alpha's calls d divides det, since the character factors through
    the box's group, so such a box holds over 2^60 points.)  Under a
    clear guard one subtraction compares every field of a word with c:
    field j of (v | guard) - c keeps its guard bit iff v_j >= c.  So a
    block costs a few int operations per generator for the mod-det step,
    one per k for the compare of the sum with k * det, a few for the
    residue mod d, and one Counter.update over a memoryview of its
    packed keys (height - 1) * d + residue.
    """
    (*origin, one), *rest = gens
    if any(origin) or one != 1 or any(g[-1] != 1 for g in rest):
        raise InternalConsistencyError(
            f"simplex cone {gens} is not coned from the chart origin at height 1"
        )
    if len(rest) != len(origin):
        raise InternalConsistencyError(f"simplex cone {gens} is not full-dimensional")
    if not rest:
        return {(1, 0): 1}
    det, cols = scaled_inverse(tuple(gens))
    inv = [col[:-1] for col in cols[1:]]
    if det < 0:
        det, inv = -det, [tuple(-x for x in col) for col in inv]
    form = [x % d for x in form]
    if not any(form):
        d = 1
    bound = (len(inv) + 1) * max(det, d)
    bits, fmt = next(((b, f) for b, f in _FIELDS if bound < 1 << b - 1), _FIELDS[-1])
    if bound >> bits - 1:
        raise InternalConsistencyError(
            f"a box of {det} points with residues mod {d} overflows {bits}-bit fields"
        )
    sides = [next(x for x in (ila.dot(toward, col), *col) if x) > 0 for col in inv]
    if det == 1:
        return {(sum(sides) + 1, 0): 1}
    diag = ila.hnf_diagonal([g[:-1] for g in rest], det, inv)

    chunks, size = [], 1
    for h in diag:
        chunks.append(min(h, _BLOCK // size))
        size *= chunks[-1]
    # an axis cut short fills the block past half, so the axes after it
    # take one value: the last chunk of the cut axis is a prefix
    cut = next((k for k, (h, c) in enumerate(zip(diag, chunks)) if 1 < c < h), None)
    below = size if cut is None else size // chunks[cut]

    low = bits - 1
    ones = ((1 << size * bits) - 1) // ((1 << bits) - 1)
    guard = ones << low

    def block(steps, mod):
        word, span = 0, 1  # fields filled
        for s, c in zip(steps, chunks):
            if c == 1:
                continue
            reps = 1
            while reps < c:
                # copy the reps * span fields up, reps * s mod mod added
                width = reps * span
                unit = ones >> (size - width) * bits
                top = unit << low
                v = word + reps * s % mod * unit
                v -= ((((v | top) - mod * unit) & top) >> low) * mod
                word |= v << width * bits
                reps *= 2
            span *= c
            word &= (1 << span * bits) - 1
        return word

    words = [block(col, det) for col in inv]
    values = block(form, d) if d > 1 else 0
    start = sum(sides) * ones
    floors = [k * det * ones for k in range(1, len(inv) + 1)]
    det_ones, d_ones = det * ones, d * ones
    nbytes = size * bits // 8
    counts: Counter = Counter()
    for x in product(*(range(0, h, c) for h, c in zip(diag, chunks))):
        acc = start
        for col, word, side in zip(inv, words, sides):
            v = word + (sum(map(mul, x, col)) - side) % det * ones
            acc += v - ((((v | guard) - det_ones) & guard) >> low) * det
        key = 0
        for kd in floors:
            key += (((acc | guard) - kd) & guard) >> low
        key *= d
        if d > 1:
            v = values + sum(map(mul, x, form)) % d * ones
            key += v - ((((v | guard) - d_ones) & guard) >> low) * d
        view = memoryview(key.to_bytes(nbytes, sys.byteorder)).cast(fmt)
        if cut is not None:
            view = view[: below * min(chunks[cut], diag[cut] - x[cut])]
        counts.update(view)
    return {(k // d + 1, k % d): n for k, n in counts.items()}


def normalized_volume(poly) -> int:
    """dim! times the intrinsic-lattice volume, by pyramids over facets.

    Cutting the polytope into pyramids over its facets, with apex its
    highest vertex a (the last vertex id), gives
    NVol(P) = sum over facets u.y + b >= 0 of (u.a + b) * NVol(facet),
    where u.a + b is the lattice distance of a from the facet, zero on
    the facets through a.  p_alpha's triangulation cones from the lowest
    vertex id, so its check against this total is not circular.  No
    lattice point is scanned.  Memoized per shape under a key of its
    own: cached would key it per translate, memoized needs a character.
    """
    key = (normalized_volume, poly.shape)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    if poly.dim == 0:
        total = 1
    else:
        apex = poly.cpoints[poly.shape.vertex_ids[-1]]
        total = 0
        for (u, b), face in zip(poly.cfacets, poly.shape.facet_vertex_sets):
            height = ila.dot(u, apex) + b
            if height:
                total += height * normalized_volume(poly.face_polytope(face))
    if total <= 0:
        raise InternalConsistencyError("normalized volume must be positive")
    _MEMO[key] = total
    return total
