"""Equivariant Ehrhart data: characters, interior counts, numerators."""

from fractions import Fraction
from math import comb
from random import Random

import pytest

from _battery import golden_supports, random_supports, table_pairs
from _buckets import as_fractions, read_buckets

from newton_monodromy import clear_caches, ehrhart, hodge, oracles
from newton_monodromy.ehrhart import (
    Character,
    normalized_volume,
    p_alpha,
    relint_counts,
)
from newton_monodromy.errors import InternalConsistencyError
from newton_monodromy.frontend import parse_polynomial
from newton_monodromy.hodge import hodge_table
from newton_monodromy.newton import newton_polyhedron
from newton_monodromy.polytope import Polytope, make_polytope

F = Fraction


def test_character_normalization():
    assert Character(6, (4, 2)) == Character(3, (2, 1))
    assert Character(6, (9, 2)) == Character(6, (3, 2))
    assert Character(1, (5, 7)) == Character.trivial(2)
    assert Character(4, (2, 2)) == Character(2, (1, 1))


def test_character_rejects_non_integers():
    """A non-integral modulus or coefficient raises instead of being
    truncated: 2.5 is not read as 2, nor 1/2 as 0.  Nor is a bool, though
    Python counts it an int: True, (False, True) is not modulus 1."""
    with pytest.raises(TypeError):
        Character(2.5, (1, 1))
    with pytest.raises(TypeError):
        Character(2, (1.5, 1))
    with pytest.raises(TypeError):
        Character(4, (F(1, 2), 1))
    for modulus, coeffs in ((True, (False, True)), (2, (True, 0)), (True, (1,))):
        with pytest.raises(TypeError, match="bool"):
            Character(modulus, coeffs)


def test_character_is_idempotent_under_renormalization():
    c = Character(6, (4, 2))
    assert Character(c.modulus, c.coeffs) == c


def test_characters_that_normalize_equal_hash_equal():
    """Unreduced coefficients and moduli that normalize to one character
    give equal instances with equal hashes, the hash the generated
    dataclass hash of (modulus, coeffs) would be, so either reaches the
    other's memo entries."""
    a, b = Character(12, (8, 4, 18)), Character(18, (-6, 24, 9))
    assert a == b == Character(6, (4, 2, 3))
    assert (a.modulus, a.coeffs) == (b.modulus, b.coeffs) == (6, (4, 2, 3))
    assert hash(a) == hash(b) == hash((6, (4, 2, 3)))
    assert {a: 1}[b] == 1
    assert Character(4, (6, 2)) != Character(4, (1, 2))


def test_character_values():
    c = Character(6, (3, 2))
    assert c.value((1, 0)) == F(1, 2)
    assert c.value((0, 1)) == F(1, 3)
    assert c.value((1, 1)) == F(5, 6)
    assert c.value((2, 0)) == F(0)
    assert c.value((2, 3)) == F(0)
    assert Character.trivial(3).value((7, 8, 9)) == F(0)
    assert c.is_trivial is False
    assert Character.trivial(2).is_trivial is True


def test_character_vanishing_test_matches_its_value():
    """is_trivial_at decides value == 0 in integers, on and off the
    kernel, for a nontrivial and the trivial character."""
    for c in (Character(6, (3, 2)), Character(12, (4, 9, 6)), Character.trivial(2)):
        n = len(c.coeffs)
        for v in [tuple((7 * i + 3 * j) % 13 - 6 for j in range(n)) for i in range(40)]:
            assert c.is_trivial_at(v) == (c.value(v) == 0), (c, v)
    assert Character(6, (3, 2)).is_trivial_at((2, 3))
    assert not Character(6, (3, 2)).is_trivial_at((1, 1))


def test_character_value_periodicity():
    c = Character(6, (3, 2))
    for v in [(0, 0), (1, 2), (5, 1)]:
        shifted = (v[0] + 6, v[1])
        assert c.value(v) == c.value(shifted)


def test_relint_counts_segment():
    seg = make_polytope([(0, 0), (2, 0)])
    c = Character(2, (1, 0))
    assert relint_counts(seg, c, 0) == {}
    assert read_buckets(relint_counts, seg, c, 1) == {F(1, 2): 1}
    assert read_buckets(relint_counts, seg, c, 2) == {F(0): 1, F(1, 2): 2}


def test_relint_counts_vertex():
    v = make_polytope([(1, 1)])
    c = Character(6, (3, 2))
    # a point is its own relative interior at every positive dilate
    assert read_buckets(relint_counts, v, c, 1) == {F(5, 6): 1}
    assert read_buckets(relint_counts, v, c, 2) == {F(4, 6): 1}
    assert relint_counts(v, c, 0) == {}


def test_p_alpha_unit_segment():
    seg = make_polytope([(0, 0), (1, 0)])
    assert read_buckets(p_alpha, seg, Character.trivial(2)) == {F(0): (0, 0, 1)}


def test_p_alpha_cusp_triangle():
    """Numerator tuples of the d=6 cone over the cusp edge."""
    cusp = make_polytope([(0, 0), (2, 0), (0, 3)])
    got = read_buckets(p_alpha, cusp, Character(6, (3, 2)))
    assert got[F(0)] == (0, 0, 0, 1)
    assert got[F(1, 6)] == (0, 0, 1, 0)
    assert got[F(5, 6)] == (0, 1, 0, 0)
    assert got[F(1, 2)] == (0, 0, 1, 0)
    assert got[F(1, 3)] == (0, 0, 1, 0)
    assert got[F(2, 3)] == (0, 0, 1, 0)
    assert sum(sum(t) for t in got.values()) == 6


def test_p_alpha_requires_vertex_trivial_character():
    seg = make_polytope([(0, 0), (1, 0)])
    with pytest.raises(InternalConsistencyError):
        p_alpha(seg, Character(2, (1, 0)))


def test_skeleton_counts_cusp():
    # The 1-skeleton's points by bucket: relative interiors of the
    # vertices and of the edges, each point in exactly one of them.
    cusp = make_polytope([(0, 0), (2, 0), (0, 3)])
    char = Character(6, (3, 2))
    got = {}
    for face, fdim in cusp.face_lattice.items():
        if fdim <= 1:
            sub = cusp.face_polytope(face)
            for a, c in read_buckets(relint_counts, sub, char, 1).items():
                got[a] = got.get(a, 0) + c
    assert got == {F(0): 3, F(1, 3): 1, F(1, 2): 1, F(2, 3): 1}


def test_normalized_volume():
    assert normalized_volume(make_polytope([(0, 0), (2, 0), (0, 3)])) == 6
    assert normalized_volume(make_polytope([(0, 0), (1, 0), (0, 1)])) == 1
    assert normalized_volume(make_polytope([(0, 0), (2, 0), (0, 2), (2, 2)])) == 8
    assert normalized_volume(make_polytope([(0, 0), (3, 0)])) == 3
    assert normalized_volume(make_polytope([(5, 7)])) == 1
    assert normalized_volume(make_polytope([(0, 0), (2, 2)])) == 2
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert normalized_volume(make_polytope(cube)) == 6


def test_normalized_volume_matches_pyramid_oracle():
    """On every facet of the battery's Newton polyhedra, the pyramid
    recursion over the face lattice agrees with the oracle's lifted
    triangulation, which shares no code with it."""
    checked = 0
    for support in random_supports(60):
        n = len(support.variables)
        for face in newton_polyhedron(support).faces:
            if face.dim == n - 1:
                want = oracles._pyramid_normalized_volume(face.points, n)
                assert normalized_volume(face.delta) == want, face.points
                checked += 1
    assert checked >= 60


def _dilate_scan_p_alpha(poly, char):
    """Reference: the numerators read off the walks of the dilates
    1..dim+2, with phi_{dim+2} = 0 in every bucket as the check (the
    engine's method before the triangulation)."""
    m = poly.dim
    kmax = m + 2
    counts = [relint_counts(poly, char, k) for k in range(kmax + 1)]
    out = {}
    for a in sorted(set().union(*counts)):
        ell = [c.get(a, 0) for c in counts]
        phi = [
            sum((-1) ** (j - k) * comb(m + 1, j - k) * ell[k] for k in range(1, j + 1))
            for j in range(kmax + 1)
        ]
        assert phi[kmax] == 0, (poly, char, a)
        out[a] = tuple(phi[:kmax])
    return out


def _reached_pairs(supports):
    """Every (polytope, character) pair of a table the answer builds on
    the supports (table_pairs), whose numerators the table reads, one
    per restricted character."""
    seen = {}
    clear_caches()
    for poly, char in table_pairs(supports):
        seen.setdefault((poly.key, ehrhart.restricted(poly, char)), (poly, char))
    return list(seen.values())


def test_p_alpha_matches_the_dilate_scan():
    """The half-open box sums equal the numerators of the dilate scan on every
    table pair of the answer on 40 battery supports, 45 more in
    three and four variables, the golden inputs, two Fermat surfaces, a
    Fermat quartic threefold and a support with a non-simplicial compact
    face.  The memo is keyed by shape, so translates of a face are reached
    once; the four-variable supports bring the shapes the floor asks for."""
    supports = (
        list(random_supports(40))
        + list(random_supports(45, seed=7, dims=(3, 4)))
        + list(golden_supports())
        + [parse_polynomial(f"x^{e} + y^{e} + z^{e}") for e in (8, 12)]
        + [parse_polynomial("x^4 + y^4 + z^4 + w^4")]
        + [parse_polynomial("x^5 + y^4 + z^5 + y*z^2 + x*y*z + x^4*y*z^4")]
    )
    pairs = _reached_pairs(supports)
    assert len(pairs) > 250
    assert {poly.dim for poly, _ in pairs} == {1, 2, 3, 4}
    assert any(len(poly.shape.vertex_ids) > poly.dim + 1 for poly, _ in pairs)
    for poly, char in pairs:
        assert p_alpha(poly, char) == _dilate_scan_p_alpha(poly, char), (poly, char)


def _non_simplices(seed=3):
    """Lattice polytopes of dimension 2..4 with more vertices than a
    simplex (the Newton polyhedra above reach few of them), dilated by
    c = 1, 2, 3 under a character of modulus c, which kills every vertex."""
    rng = Random(seed)
    for dim, width, count in ((2, 5, 12), (3, 3, 12), (4, 1, 6)):
        made = 0
        while made < count:
            pts = [
                tuple(rng.randint(0, width) for _ in range(dim))
                for _ in range(dim + 2 + rng.randint(0, 3))
            ]
            q = make_polytope(pts)
            if q.dim < dim or len(q.shape.vertex_ids) == dim + 1:
                continue
            c = 1 + made % 3
            made += 1
            yield (
                make_polytope([tuple(c * x for x in v) for v in q.vertices]),
                Character(c, tuple(range(1, dim + 1))),
            )


def test_p_alpha_matches_the_dilate_scan_on_non_simplices():
    """Where the pulling triangulation has several top simplices, some
    with closed facets, the half-open box sums still equal the
    numerators of the dilate scan.  A box holds a point of the top
    height dim + 1, the sum of the generators, exactly when every facet
    of its simplex is open."""
    clear_caches()
    closed = 0
    real = ehrhart._box_counts

    def record(gens, form, d, toward):
        nonlocal closed
        out = real(gens, form, d, toward)
        closed += max(h for h, _ in out) < len(gens)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ehrhart, "_box_counts", record)
        for poly, char in _non_simplices():
            assert p_alpha(poly, char) == _dilate_scan_p_alpha(poly, char), (poly, char)
    assert closed


_NON_SIMPLE_4_FACE = (
    "x1^7 + x2^7 + x3^7 + x4^7 + x5^7 + x1^2*x2*x3*x4*x5 + x1*x2^2*x3*x4*x5"
)


def test_p_alpha_walks_one_full_dimensional_box_per_top_simplex():
    """On every non-simplex that the answer reaches on the golden inputs
    and the cone over a non-simple 4-face, each kernel call of a fresh
    p_alpha walks a full-dimensional simplex, and the box points add up
    to normalized_volume(poly): the half-open boxes partition the
    interior with no lower-dimensional simplex and no correction term."""
    supports = [*golden_supports(), parse_polynomial(_NON_SIMPLE_4_FACE)]
    pairs = [
        (poly, char)
        for poly, char in _reached_pairs(supports)
        if len(poly.shape.vertex_ids) > poly.dim + 1
    ]
    assert {poly.dim for poly, _ in pairs} >= {2, 3, 5}
    real = ehrhart._box_counts
    for poly, char in pairs:
        calls = []

        def record(gens, *args):
            out = real(gens, *args)
            calls.append((len(gens) == len(gens[0]), sum(out.values())))
            return out

        clear_caches()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ehrhart, "_box_counts", record)
            ehrhart.p_alpha(poly, char)
        assert len(calls) > 1 and all(full for full, _ in calls), poly
        assert sum(n for _, n in calls) == normalized_volume(poly), poly
    clear_caches()


_CUSP = ([(0, 0), (2, 0), (0, 3)], Character(6, (3, 2)))
_TETRA = ([(0, 0, 0), (3, 0, 0), (0, 4, 0), (0, 0, 5)], Character.trivial(3))
_SQUARE = ([(0, 0), (2, 0), (0, 2), (2, 2)], Character(2, (1, 0)))


def _fresh_p_alpha_raises(points, char, check):
    """p_alpha, computed afresh, raises from the named check."""
    clear_caches()
    try:
        with pytest.raises(InternalConsistencyError, match=check):
            p_alpha(make_polytope(points), char)
    finally:
        clear_caches()


@pytest.mark.parametrize("points,char", [_CUSP, _TETRA])
def test_p_alpha_catches_a_point_dropped_from_the_walk(monkeypatch, points, char):
    """Losing one interior point of the k = 1 walk breaks the phi_1 check.
    The clear inside _fresh_p_alpha_raises interns a new instance, so the
    polytope is recognised by its point set."""
    key = make_polytope(points).key
    scan = Polytope.lattice_scan

    def lossy(self, k, relint):
        kind, data = scan(self, k, relint)
        if self.key == key and k == 1 and relint:
            assert len(data) > 0
            data = data[:-1]
        return kind, data

    monkeypatch.setattr(Polytope, "lattice_scan", lossy)
    _fresh_p_alpha_raises(points, char, "phi_1")
    monkeypatch.undo()
    poly = make_polytope(points)
    assert sum(sum(t) for t in p_alpha(poly, char).values()) == normalized_volume(poly)


def test_p_alpha_catches_a_dropped_maximal_simplex(monkeypatch):
    """The square [0, 2]^2 is cut into two triangles with no interior
    points of their own; losing one keeps phi_1 and breaks the total."""
    real = ehrhart._top_simplices
    # vertex ids 0..3 are (0, 0), (0, 2), (2, 0), (2, 2); (0, 3) is the diagonal
    assert real(make_polytope(_SQUARE[0])) == [(0, 1, 3), (0, 2, 3)]
    monkeypatch.setattr(
        ehrhart,
        "_top_simplices",
        lambda poly: [s for s in real(poly) if s != (0, 2, 3)],
    )
    _fresh_p_alpha_raises(*_SQUARE, "normalized volume")


def test_p_alpha_catches_a_facet_simplex_counted_as_interior(monkeypatch):
    """The cusp edge from (0, 3) to (2, 0) lies in a facet, and the edge
    from (0, 0) to (2, 0) too.  Handed to the walk as top simplices, the
    box kernel refuses the first, which misses vertex 0, and the second,
    which is not full-dimensional."""
    real = ehrhart._top_simplices
    for extra, check in (
        ((1, 2), "not coned from the chart origin"),
        ((0, 2), "not full-dimensional"),
    ):
        with monkeypatch.context() as mp:
            mp.setattr(ehrhart, "_top_simplices", lambda poly: [*real(poly), extra])
            _fresh_p_alpha_raises(*_CUSP, check)


def test_p_alpha_catches_a_dropped_height_one_box_point(monkeypatch):
    """The cusp's one interior point (1, 1) is a box point of height 1."""
    real = ehrhart._box_counts

    def lossy(gens, form, d, toward):
        counts = dict(real(gens, form, d, toward))
        key = next(key for key in counts if key[0] == 1)
        counts[key] -= 1
        return counts

    monkeypatch.setattr(ehrhart, "_box_counts", lossy)
    _fresh_p_alpha_raises(*_CUSP, "phi_1")


@pytest.mark.parametrize("flipped", [(0, 1, 3), (0, 2, 3)])
def test_p_alpha_catches_a_flipped_facet_side(monkeypatch, flipped):
    """The square's two triangles share the diagonal from (0, 0) to
    (2, 2), whose midpoint (1, 1) is the square's one interior point:
    one triangle has the diagonal open and counts it, the other has it
    closed.  Flipping that side in either triangle alone counts (1, 1)
    twice or not at all, which breaks phi_1.  The boundary edges are
    open, so a triangle's diagonal is open iff its box holds the sum of
    its generators, at height 3; and toward = s y_1 + y_2 gives the
    facet opposite y_1, the diagonal, the side of s and the boundary
    edge opposite y_2 the open side, since its products with the
    columns of det * Y^-1 are s det and det."""
    real = ehrhart._box_counts
    y1, y2 = (make_polytope(_SQUARE[0]).cpoints[i] for i in flipped[1:])

    def flip(gens, form, d, toward):
        out = real(gens, form, d, toward)
        if [g[:-1] for g in gens[1:]] != [y1, y2]:
            return out
        s = -1 if any(h == 3 for h, _ in out) else 1
        toward = [s * a + b for a, b in zip(y1, y2)]
        return real(gens, form, d, toward)

    monkeypatch.setattr(ehrhart, "_box_counts", flip)
    _fresh_p_alpha_raises(*_SQUARE, "phi_1")


def test_p_alpha_checks_the_total_against_the_volume(monkeypatch):
    """A numerator total that the degree check accepts still has to match
    the volume, which comes from the facets and not from the scan."""
    clear_caches()
    cusp = make_polytope([(0, 0), (2, 0), (0, 3)])
    with monkeypatch.context() as mp:
        mp.setattr(ehrhart, "normalized_volume", lambda poly: 7)
        with pytest.raises(InternalConsistencyError):
            p_alpha(cusp, Character(6, (3, 2)))
    clear_caches()


def test_ehrhart_memos_are_read_only():
    cusp = make_polytope([(0, 0), (2, 0), (0, 3)])
    c = Character(6, (3, 2))
    with pytest.raises(TypeError):
        relint_counts(cusp, c, 2)[0] = 5
    with pytest.raises(TypeError):
        relint_counts(cusp, c, 0)[0] = 5
    with pytest.raises(TypeError):
        p_alpha(cusp, c)[0] = (0, 0, 0, 0)
    assert read_buckets(relint_counts, cusp, c, 1) == {F(5, 6): 1}


def test_hodge_memo_is_read_only():
    cusp = make_polytope([(0, 0), (2, 0), (0, 3)])
    table = hodge_table(cusp, Character(6, (3, 2)))
    with pytest.raises(TypeError):
        table[(0, 0, 0)] = 5
    assert hodge_table(cusp, Character(6, (3, 2))) is table


def test_ehrhart_shift_identity_on_cusp_edge():
    """The cone over a face repeats the face's trivial-bucket numerator
    one degree higher."""
    edge = make_polytope([(2, 0), (0, 3)])
    delta = make_polytope([(0, 0), (2, 0), (0, 3)])
    top = read_buckets(p_alpha, edge, Character.trivial(2))[F(0)]
    cone = read_buckets(p_alpha, delta, Character(6, (3, 2)))[F(0)]
    assert cone[1:] == top[: len(cone) - 1]
    assert cone[0] == 0


def _direct_counts(poly, char, k):
    """Reference: bucket each scanned chart point by the ambient
    character's value at k*origin + sum_j y_j basis_j."""
    origin, basis = poly.chart.origin, poly.chart.basis
    out = {}
    for y in poly.lattice_scan(k, relint=True)[1]:
        v = [
            k * o + sum(int(t) * b[i] for t, b in zip(y, basis))
            for i, o in enumerate(origin)
        ]
        a = char.value(v)
        out[a] = out.get(a, 0) + 1
    return out


def test_restriction_is_in_lowest_terms():
    seg = make_polytope([(1, 0), (3, 0)])  # origin (1, 0), basis ((1, 0),)
    assert ehrhart.restricted(seg, Character(4, (2, 1))) == (2, (1,), 1)
    assert ehrhart.restricted(seg, Character(2, (1, 0))) == (2, (1,), 1)
    assert ehrhart.restricted(seg, Character(4, (0, 1))) == (1, (0,), 0)
    point = make_polytope([(2, 3)])
    assert ehrhart.restricted(point, Character(6, (3, 2))) == (1, (), 0)


def _entries(fn):
    """The keys of _MEMO that hold results of fn (memoized or not)."""
    fn = getattr(fn, "__wrapped__", fn)
    return [key for key in ehrhart._MEMO if key[0] is fn]


def test_characters_with_one_restriction_share_memo_entries():
    """Two characters that agree on the polytope's lattice but not on the
    ambient lattice read the same objects: the first makes one entry per
    key, and the second adds none."""
    clear_caches()
    seg = make_polytope([(1, 0), (3, 0)])
    a, b = Character(4, (2, 1)), Character(2, (1, 0))
    assert a != b
    for k in (1, 2, 3):
        got = relint_counts(seg, a, k)
        assert relint_counts(seg, b, k) is got
        direct = as_fractions(got, ehrhart.restricted(seg, a)[0])
        assert direct == _direct_counts(seg, a, k) == _direct_counts(seg, b, k)
    assert read_buckets(relint_counts, seg, a, 2) == {F(0): 1, F(1, 2): 2}
    assert len(_entries(relint_counts)) == 3

    tri = make_polytope([(0, 0, 0), (2, 0, 0), (0, 3, 0)])
    c = Character(6, (3, 2, 0))
    wide = Character(6, (3, 2, 1))  # differs from c at (0, 0, 1), off tri's lattice
    assert wide != c and ehrhart.restricted(tri, wide) == ehrhart.restricted(tri, c)
    for fn in (p_alpha, hodge_table, hodge._row_sums):
        got = fn(tri, c)
        size = len(ehrhart._MEMO)
        assert fn(tri, wide) is got
        assert len(ehrhart._MEMO) == size


def test_restrictions_that_differ_get_their_own_entries():
    """Characters that differ only in the origin term o, or only in one
    w_j, do not share an entry, and each count matches the ambient
    character's values point by point."""
    clear_caches()
    seg = make_polytope([(1, 1), (3, 1)])  # origin (1, 1), basis ((1, 0),)
    by_origin = [Character(4, (1, 0)), Character(4, (1, 2))]
    assert [ehrhart.restricted(seg, c) for c in by_origin] == [
        (4, (1,), 1),
        (4, (1,), 3),
    ]
    sq = make_polytope([(1, 0), (3, 0), (1, 2), (3, 2)])  # origin (1, 0), basis e1, e2
    by_weight = [Character(4, (1, 3)), Character(4, (1, 1))]
    assert [ehrhart.restricted(sq, c) for c in by_weight] == [
        (4, (1, 3), 1),
        (4, (1, 1), 1),
    ]
    for poly, pair in ((seg, by_origin), (sq, by_weight)):
        for k in (1, 2, 3):
            got = [relint_counts(poly, c, k) for c in pair]
            assert got[0] is not got[1]
            for c, counts in zip(pair, got):
                d = ehrhart.restricted(poly, c)[0]
                assert as_fractions(counts, d) == _direct_counts(poly, c, k), (poly, c, k)
            assert k > 1 or got[0] != got[1]
    assert len(_entries(relint_counts)) == 12

    # vertex-trivial characters of a segment of length 2: w = 0 against w = 1
    seg2 = make_polytope([(0, 0), (2, 0)])
    flat, graded = Character(2, (0, 1)), Character(2, (1, 0))
    assert read_buckets(p_alpha, seg2, flat) == {F(0): (0, 1, 1)}
    assert read_buckets(p_alpha, seg2, graded) == {F(0): (0, 0, 1), F(1, 2): (0, 1, 0)}
    assert read_buckets(hodge_table, seg2, flat) == {(0, 0, F(0)): 2}
    assert read_buckets(hodge_table, seg2, graded) == {
        (0, 0, F(0)): 1,
        (0, 0, F(1, 2)): 1,
    }


def test_clear_caches_empties_the_restriction_memo():
    cusp = make_polytope([(0, 0), (2, 0), (0, 3)])
    hodge_table(cusp, Character(6, (3, 2)))
    for fn in (ehrhart.restricted, normalized_volume, relint_counts, p_alpha):
        assert _entries(fn), fn
    clear_caches()
    assert not ehrhart._MEMO
