"""Pointed cones, lattice polytopes, face lattices, and lattice charts.

Everything is exact, and everything is integer.  A polytope is given by
integer points in some ambient Z^n; it carries a chart onto Z^r (r = its
intrinsic dimension) through which all lattice-point work happens, so
lower-dimensional faces are first-class objects and counts are always
taken in the correct lattice.  Lattice points of a dilate are listed by
one exact pure-Python walk of the fibres of the last chart coordinate.

A Polytope is split in two.  Its Shape holds everything that is a
function of the chart points alone: facets, vertices, face lattice,
primeness and the lattice walk.  _intern keeps one Polytope per sorted
tuple of distinct integer points, and through it one Shape per tuple of
chart points; make_polytope normalizes public input to such a tuple
first, while face polytopes and the Newton polyhedron's faces, whose
tuples are sorted already, are interned as they are.  So a translate or
lattice image of a polytope whose sorted points reach the same chart
coordinates builds none of that again, and the memo of ehrhart, keyed
by shape, computes its counts and tables once for all of them.  The
Polytope keeps the ambient embedding: points, chart, cpoints, vertices
and its face polytopes.

Everything the engine keeps, these interned objects included, is an
immutable entry of one store, _MEMO, reached through cached here, keyed
by (fn, *args), and through ehrhart.memoized, keyed by (fn, shape,
restriction, *args); clear_caches() empties it in one statement.

The geometry is combinatorial once the facets are known: chart
coordinates come by forward substitution through the Hermite basis, the
zero sets of the double description's rays are the facets' points, the
proper faces are intersection_closure of those under themselves, the
vertices are the one-point faces, and a face's dimension is read off
its chain of subfaces in the face lattice.  newton.newton_polyhedron
finds the compact faces of a Newton polyhedron by the same closure,
seeded with its compact facets.

Most shapes the engine builds are simplices: the cones conv({0} u gamma)
over simplicial faces gamma and all their faces.  A shape whose chart
points number dim + 1 is one (its points span dim dimensions, so they
are affinely independent), and it is read off its vertex set and the
one scaled inverse of its rows (y, 1), which scaled_inverse keeps per
row tuple: its facets are the inverse's columns, each missing one
vertex; every point is a vertex; its faces are the nonempty subsets of
the points, a subset of k points having dimension k - 1; it is its own
top simplex, whose box ehrhart walks off the same inverse; and its
primeness is the inverse's determinant against the lattice lengths of
its edges.  Every other shape takes the general route above.

No rank is computed and no rational system is solved here.  The
eliminations left are integer ones: the Hermite reductions behind the
chart basis (at most one pass when its rank is 0, 1 or the ambient
dimension, three otherwise), the scaled inverses, and the determinants
of the unimodularity test at each vertex of a shape that is no simplex.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, wraps
from operator import mul
from types import MappingProxyType

from . import intlinalg as ila
from .errors import InputError, InternalConsistencyError

_MEMO: dict = {}


def cached(fn):
    """Memoize fn(*args) per (fn, *args) in _MEMO, the one store of
    everything the engine keeps.  The arguments must hash, and the
    result must not change: every later caller is handed the same
    object, and clear_caches() drops it with the rest."""

    @wraps(fn)
    def lookup(*args):
        key = (fn, *args)
        hit = _MEMO.get(key)
        if hit is None:
            hit = _MEMO[key] = fn(*args)
        return hit

    return lookup


def cone_rays(constraints, dim: int, start=None) -> dict[tuple[int, ...], frozenset[int]]:
    """Extreme rays of the pointed cone {x in R^dim : a.x >= 0 for all a},
    sorted, each mapped to its zero set: the indices of the rows it makes
    tight in constraints, whose all-zero rows are skipped.

    Double description with exact integer arithmetic, adjacency decided
    on the zero sets alone (Fukuda-Prodon 1996): two rays are adjacent
    iff no third ray's zero set contains their common one.  The ray a new
    row cuts from an adjacent pair is a positive combination of the two,
    so its zero set is their common one plus the new row.  The rows must
    span R^dim (the cone is pointed).  The starting simplicial cone is
    the scaled inverse (det, columns) of dim independent rows: start,
    verified row by column, when the caller knows it for the first dim
    rows, and otherwise one elimination of the rows independent_rows picks.
    """
    ids = [i for i, a in enumerate(constraints) if any(a)]
    rows = [tuple(int(x) for x in constraints[i]) for i in ids]
    if start is None:
        base_idx = ila.independent_rows(rows)
        if len(base_idx) < dim:
            raise ValueError("cone is not pointed (constraints do not span)")
        det_val, cols = scaled_inverse(tuple(rows[i] for i in base_idx))
    else:
        base_idx = range(dim)
        det_val, cols = start
        if not det_val or len(cols) != dim or any(
            sum(map(mul, rows[i], c)) != (det_val if i == j else 0)
            for j, c in enumerate(cols)
            for i in base_idx
        ):
            raise InternalConsistencyError(
                "the starting cone given is not the scaled inverse of the first rows"
            )
    sgn = 1 if det_val > 0 else -1
    rays = [ila.primitive(tuple(sgn * x for x in c)) for c in cols]
    # base row i vanishes on every column of det * base^-1 but the i-th
    base = frozenset(ids[i] for i in base_idx)
    zero_sets = [base - {ids[i]} for i in base_idx]

    for ridx, a in enumerate(rows):
        aidx = ids[ridx]
        if aidx in base:
            continue
        vals = [ila.dot(a, r) for r in rays]
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays = []
        new_zero = []
        for p in plus:
            for m in minus:
                common = zero_sets[p] & zero_sets[m]
                if len(common) < dim - 2 or any(
                    common <= z
                    for t, z in enumerate(zero_sets)
                    if t != p and t != m
                ):
                    continue
                w = tuple(
                    vals[p] * xm - vals[m] * xp
                    for xp, xm in zip(rays[p], rays[m])
                )
                new_rays.append(ila.primitive(w))
                new_zero.append(common | {aidx})
        # a new ray lies inside the 2-face of its pair, so it is none of
        # the old rays and no other pair's
        keep = [i for i, v in enumerate(vals) if v >= 0]
        rays = [rays[i] for i in keep] + new_rays
        zero_sets = [
            zero_sets[i] | {aidx} if vals[i] == 0 else zero_sets[i] for i in keep
        ] + new_zero
    return dict(sorted(zip(rays, zero_sets)))


def intersection_closure(seeds, cuts) -> set[frozenset]:
    """Every nonempty set a seed cuts down to by intersecting it with any
    number of cuts, the seeds included.

    With the facets' point sets as both seeds and cuts these are the
    proper faces of a polytope; newton.newton_polyhedron takes its
    compact faces as the closure of the compact facets under every
    facet.
    """
    out: set[frozenset] = set()
    frontier = set(seeds)
    while frontier:
        out |= frontier
        frontier = {
            h for f in frontier for g in cuts if (h := f & g) and h not in out
        }
    return out


@dataclass(frozen=True)
class Chart:
    """Affine chart identifying a saturated affine sublattice of Z^n with Z^r.

    The chart point y stands for origin + sum_j y[j] * basis[j].  The
    basis is in row echelon form, as the rows of intlinalg.row_hnf are:
    each row's first nonzero entry, its pivot, is positive and lies right
    of the pivot of the row before.  to_chart inverts the chart by
    forward substitution through the rows, one integer division at each
    pivot, whose columns are found once per chart, and insists the
    preimage is an actual lattice point of the sublattice: a remainder
    at a pivot stays in its column, which no later row touches, so
    anything left over after the last row raises.
    """

    origin: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row."""
        return tuple(next(i for i, x in enumerate(b) if x) for b in self.basis)

    def to_chart(self, v) -> tuple[int, ...]:
        rest = ila.vec_sub(v, self.origin)
        y = []
        for b, c in zip(self.basis, self.pivots):
            q = rest[c] // b[c]
            if q:
                rest = tuple(x - q * u for x, u in zip(rest, b))
            y.append(q)
        if any(rest):
            raise InternalConsistencyError(
                f"point {v} is not in the chart lattice of {self.origin} + {self.basis}"
            )
        return tuple(y)


class Shape:
    """The lattice geometry of one tuple of chart points.

    Everything here is a function of cpoints alone: the facets, the
    vertices, the face lattice, the unimodularity and primeness tests and
    the walk of a dilate's lattice points.  Face-id sets index cpoints,
    and so the points of every polytope whose chart points these are,
    which is what lets the translates and lattice images of one polytope
    share a shape.  Interned per cpoints by _shape; a shape hashes by
    identity and holds no polytope, so the memo keys of ehrhart.memoized
    cost one pointer hash and keep no polytope alive.

    simplex is True when the chart points are affinely independent,
    dim + 1 of them; such a shape is read off its vertex set, as the
    module docstring says, and any other takes the general route.
    """

    def __init__(self, cpoints: tuple[tuple[int, ...], ...]):
        self.cpoints = cpoints
        self.dim = len(cpoints[0])
        self.simplex = len(cpoints) == self.dim + 1

    def __repr__(self):
        return f"Shape(dim={self.dim}, cpoints={list(self.cpoints)})"

    @cached_property
    def inverse(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """scaled_inverse of the rows (y, 1) of a simplex's chart points."""
        return scaled_inverse(tuple(y + (1,) for y in self.cpoints))

    @cached_property
    def facets(self) -> tuple[tuple[tuple[int, ...], int, frozenset[int]], ...]:
        """Facets of the chart points' hull as triples (u, b, ids) with
        u.y + b >= 0, sorted.

        u is primitive; equality holds exactly at the points ids index,
        the zero set cone_rays tracks.  Empty for a point.  The dilate
        k*P satisfies u.y + k*b >= 0.  A simplex's facets are the columns
        of its scaled inverse, made to point inward by the sign of its
        determinant: column j vanishes on every row (y, 1) but the j-th,
        so it is the facet of every point but j.
        """
        if self.dim == 0:
            return ()
        d = self.dim
        if self.simplex:
            det, cols = self.inverse
            sgn = 1 if det > 0 else -1
            ids = frozenset(range(d + 1))
            rays = {
                ila.primitive([sgn * x for x in c]): ids - {j} for j, c in enumerate(cols)
            }
        else:
            rays = cone_rays([y + (1,) for y in self.cpoints], d + 1)
        facets = tuple(
            sorted((r[:-1], r[-1], z) for r, z in rays.items() if any(r[:-1]))
        )
        if len(facets) < d + 1:
            raise InternalConsistencyError("too few facets for a full-dim polytope")
        return facets

    @cached_property
    def cfacets(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The facets as pairs (u, b)."""
        return tuple((u, b) for u, b, _ in self.facets)

    @cached_property
    def face_closure(self) -> frozenset[frozenset[int]]:
        """The proper faces as point-id sets: intersection_closure of the
        facets' points under themselves."""
        sets = [z for _, _, z in self.facets]
        return frozenset(intersection_closure(sets, sets))

    @cached_property
    def vertex_ids(self) -> tuple[int, ...]:
        """Indices into cpoints of the vertices of the hull: the points
        that are faces by themselves.  Every point of a simplex is one."""
        if self.simplex:
            return tuple(range(len(self.cpoints)))
        return tuple(sorted(i for f in self.face_closure if len(f) == 1 for i in f))

    @cached_property
    def facet_vertex_sets(self) -> tuple[frozenset[int], ...]:
        """Vertex-id set of each facet, aligned with cfacets."""
        vids = frozenset(self.vertex_ids)
        return tuple(z & vids for _, _, z in self.facets)

    @cached_property
    def face_lattice(self) -> Mapping[frozenset[int], int]:
        """All nonempty faces, as a read-only {vertex-id set: dimension}.

        Includes the polytope itself (top face) and every vertex.  Faces
        are the face closure cut to the vertices; two distinct faces have
        distinct vertex sets, so the representation is faithful.  A
        vertex has dimension 0 and any other face one more than the
        largest dimension of its proper faces, which the lattice holds.
        The faces of a simplex are its nonempty vertex subsets, each of
        dimension one less than its size.
        """
        if self.simplex:
            ids = range(len(self.cpoints))
            return MappingProxyType(
                {
                    frozenset(face): k - 1
                    for k in range(1, len(ids) + 1)
                    for face in itertools.combinations(ids, k)
                }
            )
        vids = frozenset(self.vertex_ids)
        faces = {vids} | {f & vids for f in self.face_closure}
        out: dict[frozenset[int], int] = {}
        for f in sorted(faces, key=len):
            out[f] = 1 + max((d for g, d in out.items() if g < f), default=-1)
        return MappingProxyType(out)

    def faces_of_dim(self, d: int) -> list[frozenset[int]]:
        out = [f for f, fd in self.face_lattice.items() if fd == d]
        out.sort(key=lambda f: tuple(sorted(f)))
        return out

    def bounding_box(self, k: int) -> tuple[tuple[int, int], ...]:
        """Per-coordinate (lo, hi) of the k-th chart dilate."""
        box = []
        for j in range(self.dim):
            vals = [y[j] for y in self.cpoints]
            box.append((k * min(vals), k * max(vals)))
        return tuple(box)

    def lattice_scan(self, k: int, relint: bool) -> list[tuple[int, ...]]:
        """Chart lattice points of the k-th dilate (interior only if relint),
        in lexicographic order.

        The walk follows the fibres of the last chart coordinate: for each
        point of the box of the leading coordinates, every facet
        u.y + k*b >= lo_off bounds the last coordinate y' through
        c*y' >= -s, with c = u[-1] and s = u[:-1].y + k*b - lo_off, so the
        fibre is one integer interval and only its points are produced.
        The points are not kept: the counts read off them are memoized.
        """
        if self.dim == 0:
            return [()]
        lo_off = 1 if relint else 0
        *lead_box, (last_lo, last_hi) = self.bounding_box(k)
        rows = [(u[:-1], u[-1], k * b - lo_off) for u, b in self.cfacets]
        out = []
        for lead in itertools.product(*(range(lo, hi + 1) for lo, hi in lead_box)):
            lo, hi = last_lo, last_hi
            for ul, c, s in rows:
                s += sum(map(mul, ul, lead))
                if c > 0:
                    if (t := -(s // c)) > lo:
                        lo = t
                elif c < 0:
                    if (t := s // -c) < hi:
                        hi = t
                elif s < 0:
                    hi = lo - 1
                if lo > hi:
                    break
            else:
                out += [lead + (y,) for y in range(lo, hi + 1)]
        return out

    @cached_property
    def vertex_cone_unimodular(self) -> bool:
        """True when every vertex's tangent cone is generated by a lattice basis.

        Checked in the intrinsic lattice: at each vertex there must be
        exactly dim incident edges whose primitive directions have
        determinant +-1.  Each edge is walked once, its primitive
        direction handed to one endpoint and its negative to the other.
        """
        d = self.dim
        if d <= 1:
            return True
        dirs: dict[int, list] = {vid: [] for vid in self.vertex_ids}
        for edge, fd in self.face_lattice.items():
            if fd == 1:
                a, b = edge
                step = ila.primitive(ila.vec_sub(self.cpoints[b], self.cpoints[a]))
                dirs[a].append(step)
                dirs[b].append(tuple(-x for x in step))
        return all(len(ds) == d and abs(ila.det(ds)) == 1 for ds in dirs.values())

    @cached_property
    def primeness(self) -> str:
        """'prime', 'pseudo_prime', or 'neither'.

        prime: every vertex cone is unimodular (simple and smooth).
        pseudo_prime: every 1-face lies on exactly dim - 1 two-faces.
        Dimension <= 1 is always prime; every polygon is pseudo-prime.

        A simplex is read off its vertex set: every edge lies on exactly
        dim - 1 two-faces, so it is pseudo-prime at least.  The edge
        vectors at any vertex have the same |det|, that of the rows
        (y, 1), read off the shape's scaled inverse, and their primitive
        directions have that |det| divided by the edges' lattice
        lengths; so the simplex is prime iff at each vertex the lengths
        of its dim edges multiply to it.
        """
        d = self.dim
        if d <= 1:
            return "prime"
        if self.simplex:
            ys = self.cpoints
            volume = abs(self.inverse[0])
            unimodular = all(
                math.prod(ila.vec_gcd(ila.vec_sub(w, v)) for w in ys if w != v)
                == volume
                for v in ys
            )
            return "prime" if unimodular else "pseudo_prime"
        if self.vertex_cone_unimodular:
            return "prime"
        two_faces = self.faces_of_dim(2)
        for e in self.faces_of_dim(1):
            cnt = sum(1 for t in two_faces if e <= t)
            if cnt != d - 1:
                return "neither"
        return "pseudo_prime"


class Polytope:
    """Lattice polytope conv(points): its ambient embedding and its shape.

    The points are sorted, the chart starts at the first of them (a
    vertex) and cpoints are their chart coordinates, in the same order.
    Everything that depends on cpoints alone (facets, vertices, faces,
    primeness, the lattice walk) is read from self.shape, which every
    polytope with the same chart points shares; face-id sets index points
    and cpoints alike, so the shape's faces are this polytope's.  What
    stays here is the embedding: points, chart, cpoints, vertices and
    the interned face polytopes.  Construct through make_polytope so
    equal point sets share one instance.
    """

    def __init__(self, points: tuple[tuple[int, ...], ...]):
        self.points = points
        self.ambient_dim = len(points[0])
        p0 = points[0]
        diffs = [ila.vec_sub(p, p0) for p in points[1:]]
        basis = ila.saturation_basis(diffs, self.ambient_dim)
        self.dim = len(basis)
        self.chart = Chart(p0, basis)
        self.cpoints = tuple(self.chart.to_chart(p) for p in points)
        self.shape = _shape(self.cpoints)

    def __repr__(self):
        return f"Polytope(dim={self.dim}, points={list(self.points)})"

    # perfbench/tracer.py binds these five forwarders to the shape
    @property
    def key(self):
        return self.points

    @cached_property
    def cfacets(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return self.shape.cfacets

    @cached_property
    def face_lattice(self) -> Mapping[frozenset[int], int]:
        return self.shape.face_lattice

    def bounding_box(self, k: int) -> tuple[tuple[int, int], ...]:
        return self.shape.bounding_box(k)

    def lattice_scan(self, k: int, relint: bool):
        """("py", Shape.lattice_scan(k, relint)); the tag names the walk."""
        return "py", self.shape.lattice_scan(k, relint)

    @property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.points[i] for i in self.shape.vertex_ids)

    def face_points(self, face: frozenset[int]) -> tuple[tuple[int, ...], ...]:
        """The face's points, in order: a sub-tuple of the sorted,
        distinct, integer points, so itself an interning key."""
        points = self.points
        return tuple(points[i] for i in sorted(face))

    @cached
    def face_polytope(self, face: frozenset[int]) -> "Polytope":
        """The interned polytope of a face, kept per (polytope, face).
        face_points is already a key, so it is interned as it is, with
        no second normalization."""
        return _intern(self.face_points(face))


@cached
def _shape(cpoints: tuple) -> Shape:
    """The one Shape of a tuple of chart points."""
    return Shape(cpoints)


@cached
def scaled_inverse(rows: tuple) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """intlinalg.scaled_inverse_columns of a tuple of integer row tuples,
    kept per tuple: a simplex shape's facets and primeness and the box
    walks of p_alpha under each restriction read one elimination."""
    det, cols = ila.scaled_inverse_columns(rows)
    return det, tuple(cols)


@cached
def _intern(key: tuple) -> Polytope:
    """The one Polytope of key, a tuple of points that is already sorted,
    distinct and integer, exactly as make_polytope normalizes its input.
    Internal callers that hold such a tuple intern it here directly; the
    key is not checked."""
    return Polytope(key)


def make_polytope(points) -> Polytope:
    """Interning constructor: one Polytope instance per distinct point set,
    and through it one Shape per distinct tuple of chart points.  The
    points, any iterable of integer sequences, are normalized to a key
    (int tuples, duplicates dropped, sorted) and interned by _intern.  A
    coordinate that is not an int (a bool, a float, a Fraction) raises
    InputError: none is rounded.  So do no points and points of
    different lengths."""
    key = set()
    for p in points:
        p = tuple(p)
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in p):
            raise InputError(f"non-integer coordinate in point {p}")
        key.add(p)
    if not key:
        raise InputError("a polytope needs at least one point")
    lengths = sorted({len(p) for p in key})
    if len(lengths) > 1:
        raise InputError(f"points of lengths {lengths} in one polytope")
    return _intern(tuple(sorted(key)))
