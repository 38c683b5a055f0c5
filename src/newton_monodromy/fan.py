"""Normal fans and their simplicial refinements.

The answer builds no fan.  Only validate's fan-refinement check and the
Hodge tests' stellar reference use this module; perfbench/tracer.py
times normal_fan and simplicial_refinement by name.

A cone is a frozenset of primitive generator tuples in the polytope's
chart lattice.  Within one fan this representation is faithful, and
face relations reduce to set inclusion of generator sets: a subset of a
cone's rays spans a face of it iff that subset is itself a cone of the
fan.  The zero cone is the empty frozenset.
"""

from __future__ import annotations

from . import intlinalg as ila


def cone_dim(cone) -> int:
    """The rank of a collection of integer generators, exact for any
    vectors, primitive or not.

    Up to two generators the rank needs no elimination: one generator
    has rank 1 unless it is zero, and two, u and v, have rank 2 iff some
    minor u_i*v_j - u_j*v_i is nonzero, where it suffices to take i the
    first nonzero coordinate of u.  Three or more go through frac_rank.
    """
    k = len(cone)
    if k > 2:
        return ila.frac_rank(list(cone))
    if k == 0:
        return 0
    if k == 1:
        (u,) = cone
        return 1 if any(u) else 0
    u, v = cone
    for i, x in enumerate(u):
        if x:
            y = v[i]
            for a, b in zip(u, v):
                if x * b != y * a:
                    return 2
            return 1
    return 1 if any(v) else 0


def is_simplicial(cone) -> bool:
    return len(cone) == cone_dim(cone)


def normal_fan(poly) -> set[frozenset]:
    """Every cone of the inner normal fan, including the zero cone.

    The cone of a face F collects the primitive normals of the facets
    containing F.
    """
    if poly.dim == 0:
        raise ValueError("normal fan needs a positive-dimensional polytope")
    normals = [ila.primitive(u) for (u, b) in poly.cfacets]
    fsets = poly.facet_vertex_sets
    cones = set()
    for face in poly.face_lattice:
        cones.add(
            frozenset(normals[i] for i, fs in enumerate(fsets) if face <= fs)
        )
    return cones


def simplicial_refinement(cones: set[frozenset]) -> set[frozenset]:
    """Stellar subdivisions until every cone is simplicial.

    Each round picks a non-simplicial cone of minimal dimension (ties
    broken by sorted generator tuple, so the result is deterministic)
    and subdivides at the primitive ray through the sum of its
    generators.  All proper faces of the picked cone are simplicial by
    minimality, which is what makes the purely combinatorial subdivision
    below correct.  Each cone's dimension is computed once, by cone_dim.
    """
    cones = set(cones)
    dims: dict[frozenset, int] = {}
    while True:
        for c in cones - dims.keys():
            dims[c] = cone_dim(c)
        bad = [c for c in cones if len(c) != dims[c]]
        if not bad:
            return cones
        sigma0 = min(bad, key=lambda c: (dims[c], sorted(c)))
        gens = sorted(sigma0)
        ray = ila.primitive(tuple(sum(col) for col in zip(*gens)))
        out = {c for c in cones if not sigma0 <= c}
        for c in cones:
            if sigma0 <= c:
                for t in cones:
                    if t <= c and not sigma0 <= t:
                        out.add(t | {ray})
        cones = out


def euler_count_ok(cones, dim: int) -> bool:
    """Completeness sanity check: the alternating cone count of a
    complete fan in R^dim matches the Euler characteristic of a
    (dim-1)-sphere."""
    return euler_dims_ok([cone_dim(c) for c in cones if c], dim)


def euler_dims_ok(dims, dim: int) -> bool:
    """euler_count_ok from the dimensions of the nonzero cones, for a
    caller that already knows them."""
    return sum((-1) ** (d - 1) for d in dims) == 1 + (-1) ** (dim - 1)


def subset_closed(cones) -> bool:
    """For a simplicial fan: every generator subset of a cone is a cone."""
    cones = set(cones)
    for c in cones:
        gens = sorted(c)
        for i in range(len(gens)):
            sub = frozenset(gens[:i] + gens[i + 1 :])
            if sub not in cones:
                return False
    return True
