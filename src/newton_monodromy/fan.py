"""Normal fans and their simplicial refinements.

Neither the answer nor validate builds a fan: both read the chains of
faces of the face lattice.  This module is the Hodge tests' stellar
reference, and perfbench/tracer.py times normal_fan and
simplicial_refinement by name.

A cone is a frozenset of primitive generator tuples in the polytope's
chart lattice.  Within one fan this representation is faithful, and
face relations reduce to set inclusion of generator sets: a subset of a
cone's rays spans a face of it iff that subset is itself a cone of the
fan.  The zero cone is the empty frozenset.
"""

from __future__ import annotations

from . import intlinalg as ila


def cone_dim(cone) -> int:
    """The rank of a collection of integer generators."""
    return ila.frac_rank(list(cone))


def normal_fan(poly) -> set[frozenset]:
    """Every cone of the inner normal fan, including the zero cone.

    The cone of a face F collects the primitive normals of the facets
    containing F.
    """
    if poly.dim == 0:
        raise ValueError("normal fan needs a positive-dimensional polytope")
    normals = [ila.primitive(u) for (u, b) in poly.cfacets]
    fsets = poly.shape.facet_vertex_sets
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
