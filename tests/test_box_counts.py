"""The box kernel of p_alpha against a plain enumeration of the
half-open parallelepiped: random full-dimensional simplices through the
origin under random sides, and every top simplex of the tables the
answer builds on the golden and battery inputs under the sides the
kernel picks."""

from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add, mul
from random import Random

import pytest

from _battery import golden_supports, random_supports, table_pairs

from newton_monodromy import clear_caches, ehrhart
from newton_monodromy import intlinalg as ila
from newton_monodromy.errors import InternalConsistencyError


def _half_open_box(gens, weights, sides):
    """Reference: (height, phi) at each lattice point b of the half-open
    parallelepiped {sum lam_i gens_i}, lam_i in (0, 1] where sides[i] is
    True (facet i, opposite gens_i, open) and in [0, 1) where it is
    False, for full-dimensional gens.  phi is the linear form with
    phi(gens_i) = weights_i and the height is the last coordinate.

    With M the matrix of rows gens, the rows of row_hnf(M) are
    triangular, so the vectors 0 <= x_i < diagonal_i meet every coset
    of Z^n / Z gens once.  The coset of x has lam = x M^{-1}, brought
    into (0, 1] or [0, 1) coordinatewise, and phi = sum weights_i lam_i,
    apex included.
    """
    det, inv = ila.scaled_inverse_columns(gens)
    diag = [h[i] for i, h in enumerate(ila.row_hnf(gens))]
    # lam * det = x . (row k of inv); % takes the sign of det, so each
    # (a % det or det) / det lies in (0, 1] and each a % det / det in [0, 1)
    inner = diag.index(max(diag))
    outer = [k for k in range(len(diag)) if k != inner]
    span = range(diag[inner])
    for x in product(*(range(diag[k]) for k in outer)):
        heights = [0] * len(span)
        values = [0] * len(span)
        for col, wt, side in zip(inv, weights, sides):
            a = sum(xk * col[k] for xk, k in zip(x, outer))
            s = col[inner]
            top = det if side else 0
            lam = [(a + t * s) % det or top for t in span]
            heights = list(map(add, heights, lam))
            values = list(map(add, values, [wt * v for v in lam]))
        yield from zip([h // det for h in heights], [v // det for v in values])


def _reference(gens, form, d, sides):
    """The enumeration's counts under the form, read through the weights
    phi(gens_i) = form . y_i of its generators (y_i, 1)."""
    weights = [ila.dot(form, g[:-1]) for g in gens]
    return dict(Counter((h, v % d) for h, v in _half_open_box(gens, weights, sides)))


def _sides(gens, toward):
    """Reference: which facets of the simplex cone have the point
    q = (eps * toward + eps^2 e_1 + ... + eps^m e_m, 1) on their inner
    side, for eps = 10^-40: the signs of its coordinates lam = q M^{-1}
    in the generators, evaluated exactly."""
    eps = Fraction(1, 10**40)
    q = [eps * c + eps ** (k + 2) for k, c in enumerate(toward)] + [1]
    det, inv = ila.scaled_inverse_columns(gens)
    lams = [sum(map(mul, q, col)) * det for col in inv]
    assert all(lams)
    return [lam > 0 for lam in lams]


def _toward_for(gens, sides):
    """A vector whose sides are the given ones: lam_i of
    (sum_j s_j y_j, 0) is s_j at j = i, for the y_i of gens past the apex."""
    assert sides[0]
    signs = [1 if side else -1 for side in sides[1:]]
    return [sum(s * g[k] for s, g in zip(signs, gens[1:])) for k in range(len(gens) - 1)]


def _random_cases(seed=20261019, count=120):
    """(gens, w, d): a random full-dimensional simplex 0, y_1, ..., y_m
    of Z^m, its cone generators (y, 1), and the form w of a character
    mod d that vanishes on every y_i.  The y_i are the rows of a nonsingular m x m
    matrix Y; each column c_k of det * Y^-1 has y_i . c_k = det * [i = k],
    so w = sum_k r_k c_k + d * z has w . y_i = r_i det = 0 mod d for any
    divisor d of det."""
    rng = Random(seed)
    made = 0
    while made < count:
        m = rng.randint(1, 4)
        width = {1: 3000, 2: 40, 3: 12, 4: 6}[m]
        rows = [tuple(rng.randint(-width, width) for _ in range(m)) for _ in range(m)]
        det = ila.det(rows)
        if not det or abs(det) > 4000:
            continue
        cols = ila.scaled_inverse_columns(rows)[1]
        d = rng.choice([k for k in range(1, abs(det) + 1) if det % k == 0][-6:])
        w = [rng.randint(-5, 5) * d for _ in range(m)]
        for c in cols:
            r = rng.randint(-3, 3)
            w = [u + r * x for u, x in zip(w, c)]
        gens = [(0,) * m + (1,)] + [y + (1,) for y in rows]
        made += 1
        yield gens, w, d


def test_box_counts_match_the_enumeration_on_random_simplices():
    """Boxes up to a few thousand points (so past one block and with an
    axis cut into chunks), characters that vanish on the vertices but not
    on the box, and a random open or closed side for each facet but the
    apex's."""
    rng = Random(7)
    sizes, buckets, masks = [], [], set()
    for gens, w, d in _random_cases():
        sides = [True] + [rng.random() < 0.5 for _ in gens[1:]]
        toward = _toward_for(gens, sides)
        assert _sides(gens, toward) == sides
        got = ehrhart._box_counts(gens, w, d, toward)
        assert got == _reference(gens, w, d, sides), (gens, w, d, sides)
        sizes.append(sum(got.values()))
        buckets.append(len({r for _, r in got}))
        masks.add(tuple(sides))
    assert max(sizes) > 2 * ehrhart._BLOCK
    assert sum(n > 1 for n in buckets) > 20
    assert len(masks) > 20


def test_box_counts_break_ties_by_the_coordinate_axes():
    """Where toward lies on a facet's hyperplane, the kernel's side is
    that of the perturbed point q, whatever the vector: zero, a vertex,
    or small random ones."""
    rng = Random(11)
    ties = 0
    for gens, w, d in _random_cases(seed=5, count=60):
        ys = [g[:-1] for g in gens[1:]]
        m = len(ys)
        for toward in (
            [0] * m,
            list(rng.choice(ys)),
            [rng.randint(-1, 1) for _ in range(m)],
        ):
            sides = _sides(gens, toward)
            got = ehrhart._box_counts(gens, w, d, toward)
            assert got == _reference(gens, w, d, sides), (gens, toward)
            ties += any(ila.dot(toward, y) == 0 for y in ys)
    assert ties > 30


@pytest.mark.parametrize(
    "ys",
    [
        [(3000,)],  # one axis cut into chunks of _BLOCK
        [(2, 0), (0, 1500)],  # the second axis cut after a whole first one
        [(1, 0, 0), (0, 80, 0), (0, 0, 80)],  # past one block, no axis cut
        [(3, 5), (7, 2)],  # one cyclic factor of order 29
    ],
)
def test_box_counts_walk_the_blocks(ys):
    m = len(ys[0])
    gens = [(0,) * m + (1,)] + [y + (1,) for y in ys]
    form = [0] * m
    for sides in product([True], *[[True, False]] * m):
        got = ehrhart._box_counts(gens, form, 1, _toward_for(gens, sides))
        assert got == _reference(gens, form, 1, sides), sides


def test_box_counts_reject_a_simplex_off_the_origin():
    with pytest.raises(InternalConsistencyError, match="chart origin"):
        ehrhart._box_counts([(1, 0, 1), (0, 1, 1)], [0, 0], 1, [1, 1])
    with pytest.raises(InternalConsistencyError, match="chart origin"):
        ehrhart._box_counts([(0, 0, 1), (0, 1, 2)], [0, 0], 1, [1, 1])


def test_box_counts_reject_a_simplex_that_is_not_full_dimensional():
    """A simplex with fewer generators than coordinates has a box in a
    sublattice; the half-open decomposition never walks one."""
    gens = [(0, 0, 0, 1), (6, 0, 0, 1), (0, 4, 2, 1)]
    with pytest.raises(InternalConsistencyError, match="not full-dimensional"):
        ehrhart._box_counts(gens, [0, 0, 0], 1, [6, 4, 2])


@pytest.fixture(scope="module")
def answered():
    """The kernel calls and the top simplices of p_alpha on every table
    pair of the answer on 40 battery supports and the golden inputs,
    walked by table_pairs."""
    calls, simplices = [], []
    kernel, top = ehrhart._box_counts, ehrhart._top_simplices

    def record_kernel(gens, form, d, toward):
        calls.append((gens, form, d, toward))
        return kernel(gens, form, d, toward)

    def record_top(poly):
        out = top(poly)
        simplices.append((poly, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ehrhart, "_box_counts", record_kernel)
        mp.setattr(ehrhart, "_top_simplices", record_top)
        clear_caches()
        for poly, char in table_pairs([*random_supports(40), *golden_supports()]):
            ehrhart.p_alpha(poly, char)
    clear_caches()
    return calls, simplices


def test_box_counts_match_the_enumeration_on_the_answered_simplices(answered):
    calls, _ = answered
    assert len(calls) > 100
    closed = 0
    for gens, form, d, toward in calls:
        sides = _sides(gens, toward)
        got = ehrhart._box_counts(gens, form, d, toward)
        assert got == _reference(gens, form, d, sides)
        closed += not all(sides)
    assert any(d > 1 for _, _, d, _ in calls)
    assert closed


def test_top_simplices_start_at_the_chart_origin(answered):
    """Every top simplex of the pulling triangulation is full-dimensional
    and holds vertex 0, the first point, whose chart coordinates are all
    zero.  Under the sides of the vertices' sum, each facet of a top
    simplex that lies in a facet of the polytope is open, and exactly one
    top simplex has every facet open."""
    _, simplices = answered
    assert simplices
    for poly, out in simplices:
        assert poly.cpoints[0] == (0,) * poly.dim
        assert 0 in poly.shape.vertex_ids
        assert out and all(s[0] == 0 for s in out), (poly, out)
        assert all(len(s) == poly.dim + 1 for s in out), (poly, out)
        if not poly.dim:
            continue
        toward = [sum(xs) for xs in zip(*(poly.cpoints[i] for i in poly.shape.vertex_ids))]
        all_open = 0
        for s in out:
            sides = _sides([poly.cpoints[i] + (1,) for i in s], toward)
            for i, side in enumerate(sides):
                rest = set(s) - {s[i]}
                if any(f >= rest for f in poly.shape.facet_vertex_sets):
                    assert side, (poly, s, i)
            all_open += all(sides)
        assert all_open == 1, (poly, out)


def _box(ys, w, d):
    """The generators of the simplex 0, y_1, ..., y_m, under a form w
    that must vanish mod d on every y_i."""
    m = len(ys)
    assert all(ila.dot(w, y) % d == 0 for y in ys)
    return [(0,) * m + (1,)] + [tuple(y) + (1,) for y in ys]


# (ys, w, d, bits): the width the bound (m + 1) * max(det, d) calls for
PACKED = [
    ([(3, 0), (0, 4)], (2, 3), 6, 8),  # bound 36
    ([(7, 2), (3, 5)], (1, 11), 29, 8),  # a cyclic group, bound 87
    ([(21,)], (2,), 42, 8),  # d > det, bound 84
    ([(4, 1), (1, 4)], (1, 2), 1, 8),  # d = 1: no residue field
    ([(6, 0), (0, 10)], (1, 1), 2, 16),  # bound 180, just past 8 bits
    ([(3000,)], (1,), 1, 16),  # a cut axis, no residue field
    ([(2, 0), (0, 1500)], (1, 2), 2, 16),  # cut after a whole first axis
    ([(1, 0, 0), (0, 30, 0), (0, 0, 40)], (0, 2, 3), 6, 16),  # two blocks
    ([(3000,)], (40,), 40000, 32),  # a cut axis under d > det, bound 80,000
    ([(2,)], (2**60,), 2**61, 64),  # a 2-point box, bound 2^62
    ([(2, 0), (0, 1)], (2**39, 0), 2**40, 64),
]


@pytest.mark.parametrize("ys, w, d, bits", PACKED)
def test_box_counts_pack_every_field_width(ys, w, d, bits):
    """Each case needs the width its bound calls for and no narrower:
    under only the narrower widths the kernel refuses it, under the
    widths from its own up it matches the enumeration on every choice of
    open and closed sides."""
    gens = _box(ys, w, d)
    m = len(ys)
    det = abs(ila.det(ys))
    reduced = d if any(wk % d for wk in w) else 1
    bound = (m + 1) * max(det, reduced)
    assert bound < 1 << bits - 1 and (bits == 8 or bound >> bits // 2 - 1)
    fields = ehrhart._FIELDS
    own = [f for f in fields if f[0] >= bits]
    narrower = [f for f in fields if f[0] < bits]
    for sides in product([True], *[[True, False]] * m):
        toward = _toward_for(gens, sides)
        want = _reference(gens, w, d, sides)
        with pytest.MonkeyPatch.context() as mp:
            for width in own:
                mp.setattr(ehrhart, "_FIELDS", (width,))
                assert ehrhart._box_counts(gens, w, d, toward) == want
            if narrower:
                mp.setattr(ehrhart, "_FIELDS", tuple(narrower))
                with pytest.raises(InternalConsistencyError, match="overflows"):
                    ehrhart._box_counts(gens, w, d, toward)
        assert ehrhart._box_counts(gens, w, d, toward) == want


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_box_counts_match_the_enumeration_in_each_width(bits, answered, monkeypatch):
    """The random simplices and the answered ones, each walked in one
    field width alone: every width whose guard clears the case's bound
    gives the same counts."""
    rng = Random(bits)
    cases = []
    for gens, w, d in _random_cases(seed=bits, count=40):
        sides = [True] + [rng.random() < 0.5 for _ in gens[1:]]
        cases.append((gens, w, d, _toward_for(gens, sides)))
    width = [f for f in ehrhart._FIELDS if f[0] == bits]
    monkeypatch.setattr(ehrhart, "_FIELDS", tuple(width))
    walked = 0
    for gens, form, d, toward in cases + answered[0]:
        want = _reference(gens, form, d, _sides(gens, toward))
        if len(gens) * max(sum(want.values()), d) >> bits - 1:
            continue
        assert ehrhart._box_counts(gens, form, d, toward) == want
        walked += 1
    assert walked >= 30


def test_box_counts_refuse_a_box_past_64_bit_fields_before_walking(monkeypatch):
    """A bound of 2^63 leaves no guard bit in a 64-bit field; the kernel
    raises before it derives a block or walks one."""
    gens = _box([(2,)], (2**61,), 2**62)

    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(ehrhart, "product", no_walk)
    monkeypatch.setattr(ila, "hnf_diagonal", no_walk)
    with pytest.raises(InternalConsistencyError, match="overflows 64-bit fields"):
        ehrhart._box_counts(gens, (2**61,), 2**62, [1])
    # one bit less fits, and is walked
    monkeypatch.undo()
    gens = _box([(2,)], (2**60,), 2**61)
    assert ehrhart._box_counts(gens, (2**60,), 2**61, [1]) == {(1, 2**60): 1, (2, 0): 1}
