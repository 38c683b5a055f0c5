"""Newton polyhedra of convenient singularities and their compact faces.

The Newton polyhedron of a finite support S in Z_{>=0}^n is
conv(union of v + R_{>=0}^n over v in S).  The engine only needs its
compact faces, and for each compact face gamma the cone
delta_gamma = conv({0} union gamma) together with the character that
grades delta_gamma's lattice points by their height relative to gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intlinalg as ila
from .ehrhart import Character
from .errors import InputError, InternalConsistencyError, NotConvenientError
from .polytope import Polytope, cone_rays, make_polytope


@dataclass(frozen=True)
class SupportSet:
    """A finite set of exponent vectors with named coordinates.

    Valid instances have at least two variables and a nonempty set of
    distinct, nonnegative points of matching arity; the constructor
    enforces this."""

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
    support: SupportSet
    faces: tuple[CompactFace, ...]
    facets: tuple[PolyhedronFacet, ...]

    @property
    def n(self) -> int:
        return self.support.n

    def faces_of_dim(self, d: int) -> tuple[CompactFace, ...]:
        return tuple(f for f in self.faces if f.dim == d)

    @property
    def is_quasi_homogeneous(self) -> bool:
        """True when one compact facet contains the entire support."""
        k = len(self.support.points)
        return any(f.compact and len(f.tight) == k for f in self.facets)


def _face_character(poly: Polytope, delta: Polytope):
    """Distance and grading character of a compact face.

    Solves for the linear form on delta's lattice that vanishes at the
    origin, is constant on the face, and is primitive; the constant is
    the lattice distance.  The form is then expressed in ambient
    coordinates, which is possible because the chart lattice is
    saturated.
    """
    rows = [delta.chart.to_chart(v) + (-1,) for v in poly.vertices]
    ker = ila.kernel_basis(rows, delta.dim + 1)
    if len(ker) != 1:
        raise InternalConsistencyError(
            "face hyperplane is not unique in the cone lattice"
        )
    gen = ker[0]
    w, c = gen[:-1], gen[-1]
    if c < 0:
        w, c = tuple(-x for x in w), -c
    if c == 0:
        raise InternalConsistencyError("face hyperplane passes through 0")
    u = ila.solve_integer(list(delta.chart.basis), w)
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

    # Faces are intersections of facets; identity is the pair
    # (tight support points, unbounded directions).
    items = {
        (f.tight, frozenset(i for i, x in enumerate(f.normal) if x == 0))
        for f in facets
    }
    frontier = set(items)
    while frontier:
        nxt = set()
        for a1, b1 in frontier:
            for a2, b2 in items:
                a, b = a1 & a2, b1 & b2
                if a and (a, b) not in items and (a, b) not in nxt:
                    nxt.add((a, b))
        items |= nxt
        frontier = nxt

    fields = []
    for tight in {a for a, b in items if not b}:
        fpts = tuple(sorted(pts[i] for i in tight))
        poly = make_polytope(fpts)
        delta = make_polytope(fpts + (origin,))
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
    faces = tuple(CompactFace(index=i, **f) for i, f in enumerate(fields))
    return NewtonPolyhedron(support=support, faces=faces, facets=tuple(facets))
