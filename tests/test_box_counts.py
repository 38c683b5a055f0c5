"""The box kernel of p_alpha against a plain enumeration of the open
parallelepiped: random simplices through the origin, and every interior
simplex the answer reaches on the golden and battery inputs."""

from collections import Counter
from itertools import product
from operator import add
from random import Random

import pytest

from _battery import golden_supports, random_supports

from newton_monodromy import clear_caches, ehrhart
from newton_monodromy import intlinalg as ila
from newton_monodromy.errors import InternalConsistencyError
from newton_monodromy.monodromy import jordan_blocks
from newton_monodromy.newton import newton_polyhedron


def _open_box(gens, weights):
    """Reference: (height, phi) at each lattice point b of the open
    parallelepiped {sum lam_i gens_i : 0 < lam_i <= 1}, where phi is the
    linear form with phi(gens_i) = weights_i and the height is the last
    coordinate.

    The points lie in the saturated lattice L of span(gens).  With M the
    gens in a basis of L, the rows of row_hnf(M) are triangular, so the
    vectors 0 <= x_i < diagonal_i (in that basis) meet every coset of
    L / Z gens once.  The coset of x has lam = x M^{-1}, brought into
    (0, 1] coordinatewise, and phi = sum weights_i lam_i, apex included.
    """
    mat = gens
    if len(gens) < len(gens[0]):
        cols = list(zip(*ila.saturation_basis(gens, len(gens[0]))))
        mat = [ila.solve_integer(cols, g) for g in gens]
    det, inv = ila.scaled_inverse_columns(mat)
    diag = [h[i] for i, h in enumerate(ila.row_hnf(mat))]
    # lam * det = x . (row k of inv); % takes the sign of det, so each
    # (a % det or det) / det lies in (0, 1]
    inner = diag.index(max(diag))
    outer = [k for k in range(len(diag)) if k != inner]
    span = range(diag[inner])
    for x in product(*(range(diag[k]) for k in outer)):
        heights = [0] * len(span)
        values = [0] * len(span)
        for col, wt in zip(inv, weights):
            a = sum(xk * col[k] for xk, k in zip(x, outer))
            s = col[inner]
            lam = [(a + t * s) % det or det for t in span]
            heights = list(map(add, heights, lam))
            values = list(map(add, values, [wt * v for v in lam]))
        yield from zip([h // det for h in heights], [v // det for v in values])


def _reference(gens, weights, d):
    return dict(Counter((h, v % d) for h, v in _open_box(gens, weights)))


def _random_cases(seed=20261019, count=120):
    """(gens, weights, d): a random simplex 0, y_1, ..., y_j through the
    origin of Z^m (j <= m), its cone generators (y, 1), and a character
    mod d that vanishes on every y_i.  The y_i are the first j rows of a
    nonsingular m x m matrix Y; each column c_k of det * Y^-1 has
    y_i . c_k = det * [i = k], so w = sum_k r_k c_k + d * z has
    w . y_i = r_i det = 0 mod d for any divisor d of det."""
    rng = Random(seed)
    made = 0
    while made < count:
        m = rng.randint(1, 4)
        width = {1: 3000, 2: 40, 3: 12, 4: 6}[m]
        rows = [tuple(rng.randint(-width, width) for _ in range(m)) for _ in range(m)]
        det = ila.det(rows)
        if not det or abs(det) > 4000:
            continue
        j = rng.randint(0, m)
        cols = ila.scaled_inverse_columns(rows)[1]
        d = rng.choice([k for k in range(1, abs(det) + 1) if det % k == 0][-6:])
        w = [rng.randint(-5, 5) * d for _ in range(m)]
        for c in cols:
            r = rng.randint(-3, 3)
            w = [u + r * x for u, x in zip(w, c)]
        gens = [(0,) * m + (1,)] + [y + (1,) for y in rows[:j]]
        made += 1
        yield gens, [ila.dot(w, g[:-1]) for g in gens], d


def test_box_counts_match_the_enumeration_on_random_simplices():
    """Full- and lower-dimensional simplices, boxes up to a few thousand
    points (so past one block and with an axis cut into chunks), and
    characters that vanish on the vertices but not on the box."""
    sizes, buckets = [], []
    for gens, weights, d in _random_cases():
        got = ehrhart._box_counts(gens, weights, d)
        assert got == _reference(gens, weights, d), (gens, weights, d)
        sizes.append(sum(got.values()))
        buckets.append(len({r for _, r in got}))
    assert max(sizes) > 2 * ehrhart._BLOCK
    assert sum(n > 1 for n in buckets) > 20


@pytest.mark.parametrize(
    "ys",
    [
        [(3000,)],  # one axis cut into chunks of _BLOCK
        [(2, 0), (0, 1500)],  # the second axis cut after a whole first one
        [(1, 0, 0), (0, 80, 0), (0, 0, 80)],  # past one block, no axis cut
        [(3, 5), (7, 2)],  # one cyclic factor of order 29
        [(6, 0, 0), (0, 4, 2)],  # lower-dimensional
    ],
)
def test_box_counts_walk_the_blocks(ys):
    m = len(ys[0])
    gens = [(0,) * m + (1,)] + [y + (1,) for y in ys]
    weights = [0] * len(gens)
    assert ehrhart._box_counts(gens, weights, 1) == _reference(gens, weights, 1)


def test_box_counts_reject_a_simplex_off_the_origin():
    with pytest.raises(InternalConsistencyError, match="chart origin"):
        ehrhart._box_counts([(1, 0, 1), (0, 1, 1)], [0, 0], 1)
    with pytest.raises(InternalConsistencyError, match="chart origin"):
        ehrhart._box_counts([(0, 0, 1), (0, 1, 2)], [0, 0], 1)


@pytest.fixture(scope="module")
def answered():
    """The kernel calls and the interior simplices of every polytope the
    answer reaches on 40 battery supports and the golden inputs."""
    calls, simplices = [], []
    kernel, interior = ehrhart._box_counts, ehrhart._interior_simplices

    def record_kernel(gens, weights, d):
        calls.append((gens, weights, d))
        return kernel(gens, weights, d)

    def record_interior(poly):
        out = interior(poly)
        simplices.append((poly, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ehrhart, "_box_counts", record_kernel)
        mp.setattr(ehrhart, "_interior_simplices", record_interior)
        clear_caches()
        for support in [*random_supports(40), *golden_supports()]:
            jordan_blocks(newton_polyhedron(support))
    clear_caches()
    return calls, simplices


def test_box_counts_match_the_enumeration_on_the_answered_simplices(answered):
    calls, _ = answered
    assert len(calls) > 100
    for gens, weights, d in calls:
        assert ehrhart._box_counts(gens, weights, d) == _reference(gens, weights, d)
    assert any(d > 1 for _, _, d in calls)


def test_interior_simplices_start_at_the_chart_origin(answered):
    """Every interior simplex of the pulling triangulation holds vertex
    0, the first point, whose chart coordinates are all zero."""
    _, simplices = answered
    assert simplices
    for poly, out in simplices:
        assert poly.cpoints[0] == (0,) * poly.dim
        assert 0 in poly.vertex_ids
        assert out and all(s[0] == 0 for s in out), (poly, out)
