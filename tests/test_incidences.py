"""Point-facet incidences against their dot-product definitions.

The double description tracks which rows vanish on each ray, and the
engine reads every incidence off those zero sets: a shape's facet
points, vertices and facet vertex sets, and the Newton facets' tight
sets.  The references here recompute each one by dot products, as the
engine once did.  assert_incidences is also run on larger inputs in CI.
"""

from random import Random

import pytest

from newton_monodromy import clear_caches, polytope, validate
from newton_monodromy import intlinalg as ila
from newton_monodromy.frontend import parse_polynomial
from newton_monodromy.monodromy import fastpath_unipotent, jordan_blocks
from newton_monodromy.newton import newton_polyhedron
from newton_monodromy.polytope import Shape, cone_rays

from _battery import golden_supports, workload_round


def dot_vertex_ids(shape):
    """A point is a vertex when it lies on some facet and no other point
    lies on every facet through it; a point is its own vertex."""
    if shape.dim == 0:
        return (0,)
    tight = [
        frozenset(j for j, (u, b) in enumerate(shape.cfacets) if ila.dot(u, y) + b == 0)
        for y in shape.cpoints
    ]
    return tuple(
        i
        for i, t in enumerate(tight)
        if t and not any(j != i and t <= s for j, s in enumerate(tight))
    )


def dot_facet_vertex_sets(shape):
    """The vertices on each facet, aligned with cfacets."""
    vids = dot_vertex_ids(shape)
    return tuple(
        frozenset(i for i in vids if ila.dot(u, shape.cpoints[i]) + b == 0)
        for u, b in shape.cfacets
    )


def dot_facet_points(shape):
    """The points on each facet, aligned with cfacets."""
    return tuple(
        frozenset(i for i, y in enumerate(shape.cpoints) if ila.dot(u, y) + b == 0)
        for u, b in shape.cfacets
    )


def dot_tight(facet, points):
    """The indices of the support points on a Newton facet."""
    u, offset = facet.normal, facet.offset
    return frozenset(i for i, p in enumerate(points) if ila.dot(u, p) == offset)


def assert_incidences(*polyhedra):
    """Every Shape in the engine's store and every facet of the given
    Newton polyhedra carry the incidences their dot-product definitions
    give.  Returns the shapes that are no simplex."""
    shapes = [v for v in polytope._MEMO.values() if isinstance(v, Shape)]
    assert shapes
    for shape in shapes:
        assert tuple(z for _, _, z in shape.facets) == dot_facet_points(shape), shape
        assert shape.vertex_ids == dot_vertex_ids(shape), shape
        assert shape.facet_vertex_sets == dot_facet_vertex_sets(shape), shape
    for np_ in polyhedra:
        for facet in np_.facets:
            assert facet.tight == dot_tight(facet, np_.support.points), facet
    return [s for s in shapes if not s.simplex]


def _constraint_system(rng, dim):
    """Rows of a pointed full-dimensional cone in R^dim, shuffled: the
    unit vectors, random rows positive on (1, ..., 1), and redundant rows
    (duplicates, multiples and positive sums of other rows); the first
    dim rows are independent."""
    while True:
        rows = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(6)]
        rows = [a for a in rows if sum(a) > 0]
        rows += [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(1, 2), rng.randint(0, 2)
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        rng.shuffle(rows)
        if len(ila.independent_rows(rows[:dim])) == dim:
            return rows


@pytest.mark.parametrize("given_start", [False, True])
def test_cone_rays_zero_sets_are_the_tight_rows(given_start):
    """On seeded random constraint systems in R^2..R^5, with redundant
    rows and all-zero rows among them, each ray's zero set is the set of
    indices of the nonzero rows that vanish on it, with and without a
    given start; all-zero rows are skipped, so they are in no zero set."""
    rng = Random(35)
    seen = set()
    for _ in range(60):
        dim = rng.randint(2, 5)
        rows = _constraint_system(rng, dim)
        start = ila.scaled_inverse_columns(rows[:dim]) if given_start else None
        for _ in range(rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), (0,) * dim)
        rays = cone_rays(rows, dim, start)
        assert list(rays) == sorted(rays)
        for ray, zero in rays.items():
            assert all(ila.dot(a, ray) >= 0 for a in rows)
            assert zero == frozenset(
                i for i, a in enumerate(rows) if any(a) and ila.dot(a, ray) == 0
            )
            seen.add(len(zero) - (dim - 1))
    assert 0 in seen and max(seen) > 0, "no ray with a redundant row on it"


def test_incidences_on_a_battery_round_and_the_golden_inputs():
    """Every shape that the answer and validate reach on one seed-1
    battery round and the golden inputs has the facet points, vertices
    and facet vertex sets of the dot-product definitions, and every Newton
    facet the tight set u.p = offset picks."""
    supports = [parse_polynomial(case.text) for case in workload_round("battery")]
    supports += golden_supports()
    general = set()
    for support in supports:
        clear_caches()
        np_ = newton_polyhedron(support)
        fastpath_unipotent(np_)
        jordan_blocks(np_)
        assert validate(np_).ok
        general.update(s.cpoints for s in assert_incidences(np_))
    clear_caches()
    assert len(general) > 10
