"""Character-graded lattice point counts of dilated polytopes.

A Character is a finite-order homomorphism Z^n -> Q/Z given by
v -> (coeffs . v)/modulus mod 1.  Interior points of the k-th dilate of
a polytope are bucketed by character value; once the character kills
every vertex, the generating series of each bucket is a polynomial of
degree at most dim+1 over (1-t)^(dim+1) (equivariant Ehrhart theory,
Stapledon 2011), and those coefficient vectors (called phi here) drive
the whole Hodge recursion downstream.  They are read off the dilates
1..dim+2, checked by the vanishing of phi_{dim+2} in every bucket and
by the total against the normalized volume, which scans no points.

relint_counts is the engine's one lattice-point counter: the Ehrhart
numerators, the boundary rows of the Hodge tables (faces of every
dimension, vertices included) and the largest-block shortcuts all count
relative-interior points through it, and it reads them off
Polytope.lattice_scan in the polytope's own chart.

Every value these counts read is the character's value at a lattice
point of the polytope's affine hull, so it depends only on the
character's restriction to that lattice (restricted); the memos are
keyed by the polytope and that restriction, not by the ambient
character.  A face G of a cone conv(0 u gamma) is reached under the
height character of every compact face above it, and those all restrict
to the same triple on G, so each of its counts is built once.  The
memos hand out read-only mappings, so a caller cannot corrupt them.

Convention: the 0-th dilate counts as empty in every bucket, even for a
point polytope.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, gcd
from types import MappingProxyType

import numpy as _np

from . import intlinalg as ila
from .errors import InternalConsistencyError

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Character:
    """Finite-order character of Z^n, v -> exp(2*pi*i*(coeffs.v)/modulus).

    Instances normalize themselves: coefficients are reduced mod the
    modulus and the common gcd with the modulus is divided out, so equal
    characters compare and hash equal.
    """

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        d = int(self.modulus)
        if d < 1:
            raise ValueError("character modulus must be positive")
        cs = tuple(int(c) % d for c in self.coeffs)
        g = reduce(gcd, cs, d)
        if g > 1:
            d //= g
            cs = tuple(c // g for c in cs)
        object.__setattr__(self, "modulus", d)
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def trivial(n: int) -> "Character":
        return Character(1, (0,) * n)

    @property
    def is_trivial(self) -> bool:
        return self.modulus == 1

    def value(self, v) -> Fraction:
        """Character value of an ambient lattice point, in [0, 1)."""
        return Fraction(ila.dot(self.coeffs, v) % self.modulus, self.modulus)


def conj(alpha: Fraction) -> Fraction:
    """The bucket of the inverse character value: 1 - alpha mod 1."""
    return _ZERO if alpha == 0 else 1 - alpha


_RESTRICTED: dict = {}
_COUNTS: dict = {}
_PALPHA: dict = {}
_VOLUMES: dict = {}
_EMPTY = MappingProxyType({})


def restricted(poly, char: Character) -> tuple[int, tuple[int, ...], int]:
    """The character's restriction to the polytope's affine lattice.

    The chart point y of the k-th dilate stands for the ambient point
    k*origin + sum_j y_j basis_j, of value (k*o + w.y)/d mod 1, where
    d = char.modulus, w_j = char.coeffs . basis_j and
    o = char.coeffs . origin.  Returns the triple (d', w', o') in lowest
    terms: w and o reduced mod d, and g = gcd(d, w_1, ..., o) divided
    out of all three.  Two characters with the same triple take the same
    value at every lattice point of the polytope and of its faces.
    Memoized per (polytope instance, character); interned polytopes hash
    by identity, so a lookup does not hash the point set.
    """
    key = (poly, char)
    hit = _RESTRICTED.get(key)
    if hit is not None:
        return hit
    d = char.modulus
    w = [ila.dot(char.coeffs, b) % d for b in poly.chart.basis]
    o = ila.dot(char.coeffs, poly.chart.origin) % d
    g = reduce(gcd, w, gcd(d, o))
    out = _RESTRICTED[key] = (d // g, tuple(x // g for x in w), o // g)
    return out


def relint_counts(poly, char: Character, k: int) -> Mapping[Fraction, int]:
    """Bucketed count of interior lattice points of the k-th dilate.

    Keys are character values (Fractions in [0,1)), values are positive
    counts.  k = 0 returns an empty mapping.  The relative interior of a
    point is the point itself: its chart is Z^0, and lattice_scan returns
    the one chart point ().  Memoized per (polytope, restricted
    character, k); the mapping is read-only.
    """
    if k == 0:
        return _EMPTY
    res = restricted(poly, char)
    key = (poly.key, res, k)
    hit = _COUNTS.get(key)
    if hit is not None:
        return hit
    d, w, o = res
    off = k * o
    kind, data = poly.lattice_scan(k, relint=True)
    if kind == "np":
        box = poly.bounding_box(k)
        maxabs = max(max(abs(lo), abs(hi)) for lo, hi in box)
        worst = sum(abs(x) for x in w) * maxabs + abs(off)
        if worst >= 2 ** 62:
            kind = "py"
            data = [tuple(int(x) for x in row) for row in data]
    if kind == "np":
        vals = (data @ _np.asarray(w, dtype=_np.int64) + off) % d
        binc = _np.bincount(vals, minlength=d)
        out = {Fraction(r, d): int(c) for r, c in enumerate(binc) if c}
    else:
        raw: dict[int, int] = {}
        for y in data:
            r = (off + ila.dot(w, y)) % d
            raw[r] = raw.get(r, 0) + 1
        out = {Fraction(r, d): c for r, c in sorted(raw.items())}
    out = _COUNTS[key] = MappingProxyType(out)
    return out


def p_alpha(poly, char: Character) -> Mapping[Fraction, tuple[int, ...]]:
    """Numerator coefficients of each bucket's interior Ehrhart series.

    Returns {alpha: (phi_0, ..., phi_{dim+1})} where
    sum_k |relint(k*poly)|_alpha t^k = (phi_0 + ... + phi_{dim+1} t^{dim+1})
    / (1-t)^{dim+1}.  Requires the character to vanish on every vertex,
    which bounds the numerator's degree by dim+1.  The dilates 1..dim+2
    are scanned: phi_1..phi_{dim+1} come from the first dim+1 of them,
    and phi_{dim+2}, in which every scanned count has a nonzero
    coefficient, must vanish in every bucket.  The phi of all buckets
    must also add up to normalized_volume(poly), which scans nothing.
    Memoized per (polytope, restricted character); the vertex check
    runs on the first computation of each key, and its outcome depends
    only on the restriction.  The mapping is read-only.
    """
    key = (poly.key, restricted(poly, char))
    hit = _PALPHA.get(key)
    if hit is not None:
        return hit
    for v in poly.vertices:
        if char.value(v) != 0:
            raise InternalConsistencyError(
                f"character {char.coeffs}/{char.modulus} is not trivial on vertex {v}"
            )
    m = poly.dim
    kmax = m + 2
    counts = [relint_counts(poly, char, k) for k in range(kmax + 1)]
    alphas = set()
    for c in counts:
        alphas |= set(c)
    out = {}
    for a in sorted(alphas):
        ell = [c.get(a, 0) for c in counts]
        phi = [
            sum((-1) ** (j - k) * comb(m + 1, j - k) * ell[k] for k in range(1, j + 1))
            for j in range(kmax + 1)
        ]
        if phi[kmax]:
            raise InternalConsistencyError(
                "interior Ehrhart series has unexpected degree "
                f"(bucket {a}, coefficient {kmax} is {phi[kmax]})"
            )
        out[a] = tuple(phi[:kmax])
    total = sum(sum(tup) for tup in out.values())
    vol = normalized_volume(poly)
    if total != vol:
        raise InternalConsistencyError(
            f"Ehrhart numerators add up to {total}, not the normalized volume {vol}"
        )
    out = _PALPHA[key] = MappingProxyType(out)
    return out


def phi_tilde(poly, char: Character) -> dict[Fraction, int]:
    """Per bucket, the sum of phi_0..phi_dim (the top coefficient omitted)."""
    out = {}
    for a, tup in p_alpha(poly, char).items():
        s = sum(tup[: poly.dim + 1])
        if s:
            out[a] = s
    return out


def normalized_volume(poly) -> int:
    """dim! times the intrinsic-lattice volume, by pyramids over facets.

    Cutting the polytope into pyramids over its facets, with apex the
    chart origin v (a point of the polytope), gives
    NVol(P) = sum over facets u.y + b >= 0 of (u.v + b) * NVol(facet),
    where u.v + b = b is the lattice distance of v from the facet, zero
    on the facets through v.  No lattice point is scanned.  Memoized per
    polytope.
    """
    hit = _VOLUMES.get(poly.key)
    if hit is not None:
        return hit
    if poly.dim == 0:
        total = 1
    else:
        total = 0
        for (_, b), face in zip(poly.cfacets, poly.facet_vertex_sets):
            if b:
                total += b * normalized_volume(poly.face_polytope(face))
    if total <= 0:
        raise InternalConsistencyError("normalized volume must be positive")
    _VOLUMES[poly.key] = total
    return total


def clear_ehrhart_cache():
    _RESTRICTED.clear()
    _COUNTS.clear()
    _PALPHA.clear()
    _VOLUMES.clear()
