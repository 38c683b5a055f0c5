"""Newton polyhedra of convenient singularities and their compact faces.

The Newton polyhedron of a finite support S in Z_{>=0}^n is
conv(union of v + R_{>=0}^n over v in S).  The engine only needs its
compact faces, and for each compact face gamma the cone
delta_gamma = conv({0} union gamma) together with the character that
grades delta_gamma's lattice points by their height relative to gamma.

The compact faces are polytope.intersection_closure of the compact
facets' tight sets under every facet's tight set.  A convenient
polyhedron's facets are the compact ones and the coordinate ones x_i = 0:
a normal u >= 0 with zero set Z nonempty takes its minimum 0, on the
pure powers of the axes in Z, exactly where x_j = 0 for every j outside
Z, a face of dimension |Z|, so it is a facet only as a coordinate
vector.  The
normal cone of a compact face gamma holds a strictly positive vector, a
positive combination of the normals of the facets through gamma, which
coordinate normals alone never give: gamma misses the origin, so it is
not in every coordinate hyperplane.  So a compact facet contains gamma,
and gamma is that facet cut by the other facets through it.  Each
compact face is the hull of its tight support points, so the tight set
labels it faithfully.

A swap of two coordinates that maps the support onto itself is a
lattice automorphism of the polyhedron: it carries each compact face,
its cone and its height character to another face's, whose tables are
therefore equal (Stapledon 2011).  The swaps come from n(n-1)/2 tests,
each a permutation of the support points; a search over the tight sets
gives the orbits of the group they generate.  The answer builds one
representative's tables per orbit, times its size, and validate's
face-data checks each swap's premises on every face.
Cyclic symmetries are missed, which only leaves orbits smaller.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import intlinalg as ila
from .ehrhart import _MEMO, Character
from .errors import InputError, InternalConsistencyError, NotConvenientError
from .polytope import Polytope, _intern, cone_rays, intersection_closure


@dataclass(frozen=True)
class SupportSet:
    """A finite set of exponent vectors with named coordinates.

    Valid instances have at least two variables and a nonempty set of
    distinct points of matching arity whose exponents are nonnegative
    ints; the constructor enforces this."""

    variables: tuple[str, ...]
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.variables)
        if n < 2:
            raise InputError("need at least two variables")
        if not self.points:
            raise InputError("empty support")
        seen = set()
        for p in self.points:
            if len(p) != n:
                raise InputError("support point arity does not match variables")
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in p):
                raise InputError(f"non-integer exponent in support point {p}")
            if any(x < 0 for x in p):
                raise InputError(f"negative exponent in support point {p}")
            if p in seen:
                raise InputError(f"duplicate support point {p}")
            seen.add(p)

    @property
    def n(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class PolyhedronFacet:
    """One facet u.x >= offset of the Newton polyhedron.

    tight lists the indices of the support points on the facet; compact
    is True exactly when u has no zero coordinate.
    """

    normal: tuple[int, ...]
    offset: int
    tight: frozenset[int]
    compact: bool


@dataclass(frozen=True)
class CompactFace:
    """A compact face gamma of the Newton polyhedron with derived data.

    points            support points on the face
    poly              conv(points), an interned Polytope
    delta             conv({0} union points)
    char              character of Z^n grading delta's lattice points:
                      trivial on 0 and on the face, so a point at height
                      h below aff(gamma) lands in bucket (d - h)/d
    distance          d, the positive value the character's linear form
                      takes on the face
    axes              coordinates where some point of the face is positive
    twist             |axes| - dim - 1, the Lefschetz-type twist exponent
                      this face carries in the motivic sum
    interior_touching True when axes is all of {0..n-1}
    """

    index: int
    dim: int
    points: tuple[tuple[int, ...], ...]
    poly: Polytope = field(repr=False)
    delta: Polytope = field(repr=False)
    char: Character
    distance: int
    axes: frozenset[int]
    twist: int
    interior_touching: bool


@dataclass(frozen=True)
class NewtonPolyhedron:
    """The compact faces, facets and symmetry orbits of a support.

    swaps           the pairs i < j whose coordinate swap maps the
                    support onto itself
    representative  per face index, the least index in its face's orbit
                    under the group the swaps generate
    orbits          (representative index, orbit size), by index
    """

    support: SupportSet
    faces: tuple[CompactFace, ...]
    facets: tuple[PolyhedronFacet, ...]
    swaps: tuple[tuple[int, int], ...]
    representative: tuple[int, ...]
    orbits: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.support.n

    def faces_of_dim(self, d: int) -> tuple[CompactFace, ...]:
        return tuple(f for f in self.faces if f.dim == d)

    def representatives(self) -> list[tuple[CompactFace, int]]:
        """(face, orbit size) for each orbit's representative, by index."""
        return [(self.faces[i], size) for i, size in self.orbits]

    @property
    def is_quasi_homogeneous(self) -> bool:
        """True when one compact facet contains the entire support."""
        k = len(self.support.points)
        return any(f.compact and len(f.tight) == k for f in self.facets)


def _face_character(poly: Polytope, delta: Polytope):
    """Distance and grading character of a compact face.

    delta = conv({0} union face) is a pyramid with its apex 0 at its chart
    origin, so exactly one facet u.y + b >= 0 of delta misses the apex,
    the base: -u is the face's primitive height form on delta's lattice
    and b its lattice distance.  The form is lifted to ambient
    coordinates, which is possible because the chart lattice is
    saturated.  Memoized per (face polytope, cone) in ehrhart._MEMO, so
    a face that many Newton polyhedra share is solved once.
    """
    key = (_face_character, poly, delta)
    hit = _MEMO.get(key)
    if hit is None:
        hit = _MEMO[key] = _solve_face_character(poly, delta)
    return hit


def _solve_face_character(poly: Polytope, delta: Polytope):
    far = [(u, b) for u, b in delta.cfacets if b]
    if len(far) != 1:
        raise InternalConsistencyError(
            f"cone over {poly.points} has {len(far)} facets missing the apex, not 1"
        )
    [(u, c)] = far
    u = ila.solve_integer(list(delta.chart.basis), tuple(-x for x in u))
    if u is None:
        raise InternalConsistencyError(
            "face form does not extend to the ambient lattice"
        )
    for v in poly.points:
        if ila.dot(u, v) != c:
            raise InternalConsistencyError(
                "face form is not constant on the face"
            )
    return c, Character(c, u)


def _swaps(pts, n):
    """[((i, j), perm)] over the pairs i < j whose coordinate swap maps
    the points onto themselves, perm[k] the index of the image of
    pts[k]."""
    where = {p: k for k, p in enumerate(pts)}
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            perm = []
            for p in pts:
                q = list(p)
                q[i], q[j] = p[j], p[i]
                k = where.get(tuple(q))
                if k is None:
                    break
                perm.append(k)
            else:
                out.append(((i, j), perm))
    return out


def _orbits(tights, swaps):
    """Per face, the least index of its orbit under the swaps: a search
    over the faces' tight sets from each face not yet reached, in index
    order."""
    index = {t: i for i, t in enumerate(tights)}
    images = [perm.__getitem__ for _, perm in swaps]
    rep = [None] * len(tights)
    for i, t in enumerate(tights):
        if rep[i] is not None:
            continue
        rep[i] = i
        todo = [t]
        while todo:
            u = todo.pop()
            for image in images:
                j = index.get(frozenset(map(image, u)))
                if j is None:
                    raise InternalConsistencyError(
                        "a symmetry of the support maps a compact face to no face"
                    )
                if rep[j] is None:
                    rep[j] = i
                    todo.append(tights[j])
    return tuple(rep)


def newton_polyhedron(support: SupportSet) -> NewtonPolyhedron:
    """Compact-face data of the Newton polyhedron of a convenient support.

    Rejects supports describing a function that is not singular at 0
    (a constant term or a lone linear monomial) and supports missing a
    pure power on some axis.
    """
    pts = support.points
    n = support.n
    origin = (0,) * n
    if origin in pts:
        raise InputError(
            "the origin is in the support: nonzero constant term, "
            "so 0 is not a singular point"
        )
    for p in pts:
        if sum(p) == 1:
            raise InputError(
                f"support contains the lone monomial "
                f"{support.variables[p.index(1)]}: the gradient at 0 is "
                "nonzero, so 0 is not a singular point"
            )
    for i in range(n):
        if not any(p[i] > 0 and all(x == 0 for j, x in enumerate(p) if j != i) for p in pts):
            raise NotConvenientError(support.variables[i])

    constraints = [p + (1,) for p in pts]
    for i in range(n):
        e = [0] * (n + 1)
        e[i] = 1
        constraints.append(tuple(e))
    facets = []
    for ray in cone_rays(constraints, n + 1):
        u, b = ray[:-1], ray[-1]
        if not any(u):
            continue
        tight = frozenset(i for i, p in enumerate(pts) if ila.dot(u, p) + b == 0)
        facets.append(
            PolyhedronFacet(
                normal=u,
                offset=-b,
                tight=tight,
                compact=all(x > 0 for x in u),
            )
        )
    facets.sort(key=lambda f: f.normal)

    # Every compact face is a face of a compact facet (module docstring).
    compact = [f.tight for f in facets if f.compact]
    closure = intersection_closure(compact, [f.tight for f in facets])

    fields = []
    for tight in closure:
        # Support points are distinct int tuples (SupportSet), so fpts is
        # an interning key as it is; the origin, refused as a support
        # point and below every exponent vector, sorts first.
        fpts = tuple(sorted(pts[i] for i in tight))
        poly = _intern(fpts)
        delta = _intern((origin,) + fpts)
        if delta.dim != poly.dim + 1:
            raise InternalConsistencyError(
                "cone over a compact face did not gain a dimension"
            )
        dist, char = _face_character(poly, delta)
        axes = frozenset(
            i for i in range(n) if any(p[i] > 0 for p in fpts)
        )
        twist = len(axes) - poly.dim - 1
        if twist < 0:
            raise InternalConsistencyError(
                f"face {fpts} touches fewer axes than its dimension needs"
            )
        fields.append(
            dict(
                tight=tight,
                dim=poly.dim,
                points=fpts,
                poly=poly,
                delta=delta,
                char=char,
                distance=dist,
                axes=axes,
                twist=twist,
                interior_touching=len(axes) == n,
            )
        )
    fields.sort(key=lambda f: (f["dim"], f["points"]))
    swaps = _swaps(pts, n)
    rep = _orbits([f.pop("tight") for f in fields], swaps)
    faces = tuple(CompactFace(index=i, **f) for i, f in enumerate(fields))
    return NewtonPolyhedron(
        support=support,
        faces=faces,
        facets=tuple(facets),
        swaps=tuple(pair for pair, _ in swaps),
        representative=rep,
        orbits=tuple(sorted(Counter(rep).items())),
    )
