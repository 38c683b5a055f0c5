"""Hodge-Deligne tables of nondegenerate torus hypersurfaces."""

from collections import Counter
from fractions import Fraction
from math import comb
from operator import mul
from types import MappingProxyType

import pytest

from newton_monodromy import clear_caches, ehrhart, fan as fans, hodge, monodromy, oracles
from newton_monodromy.ehrhart import Character, p_alpha, relint_counts, restricted
from newton_monodromy.errors import InputError, InternalConsistencyError
from newton_monodromy.hodge import (
    _row_sums,
    boundary_values,
    hodge_table,
    lefschetz_twist,
    pseudo_prime_row_sums,
)
from newton_monodromy.monodromy import jordan_blocks, prime_face_blocks
from newton_monodromy.frontend import parse_polynomial
from newton_monodromy.newton import SupportSet, newton_polyhedron
from newton_monodromy.oracles import validate
from newton_monodromy.polytope import make_polytope

from _battery import edge_points, golden_supports, random_supports
from _buckets import as_fractions, read_buckets

F = Fraction


def _torus_factor(table, j):
    """(L - 1)^j times a table, the table of a j-dimensional torus."""
    return {k: (-1) ** j * v for k, v in lefschetz_twist(table, j).items()}


def test_twist_and_torus_factor_expansions():
    unit = {(0, 0, F(0)): 1}
    assert lefschetz_twist(unit, 0) == unit
    assert lefschetz_twist(unit, 1) == {(0, 0, F(0)): 1, (1, 1, F(0)): -1}
    assert _torus_factor(unit, 1) == {(1, 1, F(0)): 1, (0, 0, F(0)): -1}
    assert _torus_factor(unit, 2) == {
        (2, 2, F(0)): 1,
        (1, 1, F(0)): -2,
        (0, 0, F(0)): 1,
    }


def test_lefschetz_twist_rejects_a_negative_exponent():
    """(1 - L)^-1 is no finite table; it is not the empty one."""
    unit = {(0, 0, F(0)): 1}
    with pytest.raises(ValueError, match="negative"):
        lefschetz_twist(unit, -1)
    # _merge folds the twist into the residue-stepped merge: the same as
    # lefschetz_twist followed by a plain merge of the twisted table
    cusp = hodge_table(make_polytope([(0, 0), (2, 0), (0, 3)]), Character(6, (3, 2)))
    residue_keyed = {(0, 0, 1): 2, (1, 0, 2): -1, (0, 1, 0): 3, (2, 1, 1): 1}
    start = {(0, 0, 3): 5, (1, 1, 0): -2, (2, 2, 9): 4, (3, 3, 3): 1}
    for table in (cusp, residue_keyed):
        for twist in range(4):
            for scale, step in ((1, 1), (-1, 1), (1, 3), (-1, 2), (-2, 5)):
                got = dict(start)
                hodge._merge(got, table, scale, step, twist)
                want = dict(start)
                for (p, q, r), v in lefschetz_twist(table, twist).items():
                    key = (p, q, r * step)
                    want[key] = want.get(key, 0) + scale * v
                assert hodge._clean(got) == hodge._clean(want), (twist, scale, step)


def test_table_segment_length_two():
    seg = make_polytope([(0, 0), (2, 2)])
    got = read_buckets(hodge_table, seg, Character(2, (1, 0)))
    assert got == {(0, 0, F(0)): 1, (0, 0, F(1, 2)): 1}


def test_table_primitive_segment():
    seg = make_polytope([(2, 0), (0, 3)])
    got = read_buckets(hodge_table, seg, Character.trivial(2))
    assert got == {(0, 0, F(0)): 1}


def test_table_length_three_segment():
    seg = make_polytope([(0, 0), (0, 3)])
    got = read_buckets(hodge_table, seg, Character(3, (0, 1)))
    assert got == {(0, 0, F(0)): 1, (0, 0, F(1, 3)): 1, (0, 0, F(2, 3)): 1}


def test_table_cusp_cone():
    delta = make_polytope([(0, 0), (2, 0), (0, 3)])
    got = read_buckets(hodge_table, delta, Character(6, (3, 2)))
    assert got == {
        (0, 0, F(0)): -2,
        (0, 0, F(1, 3)): -1,
        (0, 0, F(1, 2)): -1,
        (0, 0, F(2, 3)): -1,
        (0, 1, F(1, 6)): -1,
        (1, 0, F(5, 6)): -1,
        (1, 1, F(0)): 1,
    }


def test_table_fermat_cubic_cone():
    tri = make_polytope([(0, 0), (3, 0), (0, 3)])
    got = read_buckets(hodge_table, tri, Character(3, (1, 1)))
    assert got == {
        (0, 0, F(0)): -4,
        (0, 0, F(1, 3)): -2,
        (0, 0, F(2, 3)): -2,
        (0, 1, F(1, 3)): -1,
        (1, 0, F(2, 3)): -1,
        (1, 1, F(0)): 1,
    }


def test_table_total_is_signed_volume():
    tri = make_polytope([(0, 0), (3, 0), (0, 3)])
    assert sum(hodge_table(tri, Character(3, (1, 1))).values()) == -9
    assert sum(hodge_table(tri, Character.trivial(2)).values()) == -9


def test_table_conjugation_symmetry():
    tri = make_polytope([(0, 0), (2, 0), (0, 3)])
    t = read_buckets(hodge_table, tri, Character(6, (3, 2)))
    for (p, q, a), v in t.items():
        c = F(0) if a == 0 else 1 - a
        assert t.get((q, p, c), 0) == v


def test_anti_diagonal_sums_match_table():
    delta = make_polytope([(0, 0), (2, 0), (0, 3)])
    char = Character(6, (3, 2))
    table = read_buckets(hodge_table, delta, char)
    for alpha, want in [
        (F(1, 6), {0: 0, 1: -1}),
        (F(5, 6), {0: 0, 1: -1}),
        (F(1, 2), {0: -1, 1: 0}),
    ]:
        got = pseudo_prime_row_sums(delta, char, alpha)
        assert got == want
        direct = {
            r: sum(v for (p, q, a), v in table.items() if a == alpha and p + q == r)
            for r in range(delta.dim)
        }
        assert got == direct


def test_anti_diagonal_gates():
    cross = make_polytope(
        [
            (1, 0, 0, 0), (-1, 0, 0, 0),
            (0, 1, 0, 0), (0, -1, 0, 0),
            (0, 0, 1, 0), (0, 0, -1, 0),
            (0, 0, 0, 1), (0, 0, 0, -1),
        ]
    )
    assert cross.shape.primeness == "neither"
    with pytest.raises(InputError, match="pseudo-prime"):
        pseudo_prime_row_sums(cross, Character.trivial(4), F(1, 2))
    delta = make_polytope([(0, 0), (2, 0), (0, 3)])
    for alpha in (F(0), F(1), F(7, 6), F(-5, 6)):
        with pytest.raises(InputError, match="nontrivial"):
            pseudo_prime_row_sums(delta, Character(6, (3, 2)), alpha)


def test_a_point_has_no_hypersurface_table():
    """A point is refused as input, not reported as an engine error."""
    with pytest.raises(InputError, match="dim >= 1"):
        hodge_table(make_polytope([(1, 1)]), Character.trivial(2))


def test_a_character_of_the_wrong_arity_is_an_input_error():
    """A character must have one coefficient per ambient coordinate; a
    mismatch is named with both numbers, not left to fail in a zip."""
    tri = make_polytope([(0, 0, 1), (2, 0, 1), (0, 3, 1)])
    for char in (Character(6, (3, 2)), Character(6, (3, 2, 1, 1))):
        arity = len(char.coeffs)
        for fn in (hodge_table, p_alpha, lambda p, c: relint_counts(p, c, 1)):
            with pytest.raises(InputError, match=f"arity {arity} .* in 3 variables"):
                fn(tri, char)
    assert hodge_table(tri, Character(6, (3, 2, 0)))


def test_tables_are_memoized():
    clear_caches()
    tri = make_polytope([(0, 0), (2, 0), (0, 3)])
    char = Character(6, (3, 2))
    a = hodge_table(tri, char)
    b = hodge_table(tri, char)
    assert a is b
    clear_caches()
    assert hodge_table(tri, char) is not a
    assert hodge_table(tri, char) == a


def _double_loop_row_sums(poly, char, alpha):
    """Reference: the inclusion-exclusion for one bucket, with
    phi_0 + ... + phi_dim of every face looked up again for that bucket."""
    m = poly.dim
    lat = poly.face_lattice
    phis = {}
    for face in lat:
        sub = poly.face_polytope(face)
        tup = read_buckets(p_alpha, sub, char).get(alpha)
        phis[face] = sum(tup[: sub.dim + 1]) if tup else 0
    out = {}
    for r in range(m):
        acc = 0
        for face, fdim in lat.items():
            if fdim != r + 1:
                continue
            for sub, sdim in lat.items():
                if sub <= face:
                    acc += (-1) ** sdim * phis[sub]
        out[r] = (-1) ** (m + r) * acc
    return out


def test_row_sum_memo_is_read_only_and_cleared():
    clear_caches()
    delta = make_polytope([(0, 0), (2, 0), (0, 3)])
    char = Character(6, (3, 2))
    rows = _row_sums(delta, char)
    assert isinstance(rows, MappingProxyType)
    assert _row_sums(delta, char) is rows
    assert read_buckets(_row_sums, delta, char)[F(1, 6)] == (0, -1)
    with pytest.raises(TypeError):
        rows[2] = (0, 0)
    with pytest.raises(TypeError):
        rows[1][0] = 5
    got = pseudo_prime_row_sums(delta, char, F(1, 6))
    got[0] = 5
    assert pseudo_prime_row_sums(delta, char, F(1, 6)) == {0: 0, 1: -1}
    clear_caches()
    assert not ehrhart._MEMO
    again = _row_sums(delta, char)
    assert again is not rows
    assert again == rows


def test_row_sums_match_per_bucket_double_loop():
    """One pass over the face pairs gives, for every cone of 40 battery
    supports, the nontrivial buckets in which phi_0 + ... + phi_dim of
    some face is nonzero and, in each of them and in a bucket no face
    carries, the per-bucket double loop's sums."""
    pairs = 0
    for support in random_supports(40):
        for f in newton_polyhedron(support).faces:
            if f.delta.shape.primeness == "neither":
                continue
            buckets = set()
            for face in f.delta.face_lattice:
                sub = f.delta.face_polytope(face)
                buckets.update(
                a
                for a, tup in read_buckets(p_alpha, sub, f.char).items()
                if a != 0 and sum(tup[: sub.dim + 1])
            )
            assert set(read_buckets(_row_sums, f.delta, f.char)) == buckets
            for a in sorted(buckets) + [F(1, 997)]:
                got = pseudo_prime_row_sums(f.delta, f.char, a)
                assert got == _double_loop_row_sums(f.delta, f.char, a), (
                    f.points,
                    a,
                )
                pairs += 1
    assert pairs >= 1000


def _double_loop_row_table(poly, char):
    """Reference for _row_sums: every nontrivial bucket in which some
    face has a nonzero phi_0 + ... + phi_dim, keyed by its residue, with
    the per-bucket double loop's sums."""
    d = restricted(poly, char)[0]
    buckets = set()
    for face in poly.face_lattice:
        sub = poly.face_polytope(face)
        buckets.update(
            a
            for a, tup in read_buckets(p_alpha, sub, char).items()
            if a != 0 and sum(tup[: sub.dim + 1])
        )
    return {
        ehrhart.residue(a, d): tuple(_double_loop_row_sums(poly, char, a).values())
        for a in sorted(buckets)
    }


def test_prime_face_blocks_unchanged_by_row_sum_memo(monkeypatch):
    """The closed formula reads the same counts through the memo as
    through the per-bucket double loop, bound where _prime_face_counts
    reads the row sums."""
    checked = 0
    for support in random_supports(40):
        np_ = newton_polyhedron(support)
        if any(f.poly.shape.primeness != "prime" for f in np_.faces):
            continue
        keys = [
            (ev, k)
            for ev in jordan_blocks(np_).multiplicities
            if ev != 0
            for k in range(1, np_.n + 2)
        ]
        got = {key: prime_face_blocks(np_, *key) for key in keys}
        with monkeypatch.context() as mp:
            mp.setattr(monodromy, "_row_sums", _double_loop_row_table)
            want = {key: prime_face_blocks(np_, *key) for key in keys}
        assert got == want, support.points
        checked += len(keys)
    assert checked >= 400


def _skeleton_counts(poly, char):
    """Reference: lattice points of the 1-skeleton by bucket, as ambient
    dot products over the vertices and the edge interiors."""
    d = char.modulus
    raw = {}
    pts = list(poly.vertices)
    for e in poly.shape.faces_of_dim(1):
        a, b = sorted(poly.points[i] for i in e)
        pts += edge_points(a, b)[1:-1]
    for v in pts:
        r = sum(c * x for c, x in zip(char.coeffs, v)) % d
        raw[r] = raw.get(r, 0) + 1
    return {F(r, d): c for r, c in raw.items()}


def _as_fraction_boundary_values(poly, char):
    """boundary_values with every bucket read as a Fraction."""
    d = restricted(poly, char)[0]
    bv, targets, alphas = boundary_values(poly, char)
    return as_fractions(bv, d), as_fractions(targets, d), {F(a, d) for a in alphas}


def test_boundary_row_zero_matches_skeleton_walk():
    """Row 0 of the boundary values, read from relint_counts over the
    faces of dimension 0 and 1, matches the 1-skeleton walked point by
    point: every cone with its own character and every compact face of
    positive dimension with the trivial character, for 40 battery
    supports and the golden inputs."""
    supports = list(random_supports(40)) + list(golden_supports())
    checked = 0
    for support in supports:
        np_ = newton_polyhedron(support)
        trivial = Character.trivial(np_.n)
        cases = [(f.delta, f.char) for f in np_.faces]
        cases += [(f.poly, trivial) for f in np_.faces if f.dim >= 1]
        for poly, char in cases:
            bv, _, alphas = _as_fraction_boundary_values(poly, char)
            skel = _skeleton_counts(poly, char)
            assert set(skel) | {-a % 1 for a in skel} <= alphas
            sign = (-1) ** (poly.dim - 1)
            for a in alphas:
                if a == 0:
                    want = sign * (skel.get(a, 0) - 1)
                else:
                    want = sign * skel.get(-a % 1, 0)
                assert bv.get((0, 0, a), 0) == want, (support.points, poly, char, a)
            checked += 1
    assert checked > 400


def _memo_reads(points, char):
    """Everything the four per-character memos hold for one polytope and
    character, as plain dicts."""
    poly = make_polytope(points)
    out = {
        "relint_counts": [
            dict(relint_counts(poly, char, k)) for k in range(1, poly.dim + 3)
        ],
        "p_alpha": dict(p_alpha(poly, char)),
    }
    if poly.dim >= 1:
        out["hodge_table"] = dict(hodge_table(poly, char))
        out["row_sums"] = dict(_row_sums(poly, char))
    return out


def test_shared_memo_entries_match_cold_computations():
    """The memos are keyed by the character's restriction to the
    polytope's lattice, so one entry serves every character that agrees
    there.  For 40 battery supports and the golden inputs, every cone
    under its character, every compact face under the trivial character
    and every face of every cone under the cone's character reads, through
    the memos the whole corpus has filled, what it reads when computed
    alone after clear_caches()."""
    supports = list(random_supports(40)) + list(golden_supports())
    clear_caches()
    items = {}
    for support in supports:
        np_ = newton_polyhedron(support)
        jordan_blocks(np_)
        trivial = Character.trivial(np_.n)
        for f in np_.faces:
            items[(f.delta.points, f.char)] = None
            items[(f.poly.points, trivial)] = None
            for face in f.delta.face_lattice:
                items[(f.delta.face_points(face), f.char)] = None
    warm = {item: _memo_reads(*item) for item in items}
    # Not vacuous: many items reach an entry made under another character.
    keys = {(pts, restricted(make_polytope(pts), char)) for pts, char in items}
    assert len(items) - len(keys) > 500
    for item, want in warm.items():
        clear_caches()
        assert _memo_reads(*item) == want, item


# The Fraction-keyed assembly that the residue-keyed tables replaced, kept
# as a differential reference.  It reads the counts and numerators of each
# face as Fractions, values of its own, so buckets of different faces
# merge without a residue step.


def _ref_merge(acc, table, scale=1):
    for k, v in table.items():
        acc[k] = acc.get(k, 0) + scale * v


def _ref_boundary_values(poly, char):
    m = poly.dim
    sign = (-1) ** (m - 1)
    lsum = {d: {} for d in range(m + 1)}
    for face, fdim in poly.face_lattice.items():
        sub = poly.face_polytope(face)
        _ref_merge(lsum[fdim], read_buckets(relint_counts, sub, char, 1))
    skel = dict(lsum[0])
    _ref_merge(skel, lsum[1])
    pa = read_buckets(p_alpha, poly, char)
    alphas = {F(0)} | set(pa)
    for d in lsum:
        alphas |= set(lsum[d])
    alphas |= {-a % 1 for a in alphas}
    bv = {}
    for a in alphas:
        if a == 0:
            bv[(0, 0, a)] = sign * (skel.get(F(0), 0) - 1)
        else:
            bv[(0, 0, a)] = sign * skel.get(-a % 1, 0)
        for p in range(1, m):
            bv[(p, 0, a)] = sign * lsum[p + 1].get(a, 0)
            bv[(0, p, a)] = sign * lsum[p + 1].get(-a % 1, 0)
        for p in range(m):
            for q in range(m):
                if p + q > m - 1:
                    if p == q and a == 0:
                        bv[(p, q, a)] = (-1) ** (m + p + 1) * comb(m, p + 1)
                    else:
                        bv[(p, q, a)] = 0
    targets = {}
    for a in alphas:
        tup = pa.get(a)
        for p in range(m):
            t = (-1) ** (m + 1) * (tup[m - p] if tup else 0)
            if a == 0:
                t += (-1) ** (p + m + 1) * comb(m, p + 1)
            targets[(p, a)] = t
    return bv, targets, alphas


def _ref_hodge_table(poly, char, memo):
    """The table by the Fraction-keyed recursion, each stratum's table
    from this reference too (memo: {(polytope, character): table})."""
    if (poly, char) in memo:
        return memo[poly, char]
    m = poly.dim
    bv, targets, alphas = _ref_boundary_values(poly, char)
    if m == 1:
        table = dict(bv)
        assert all(table.get((0, 0, a), 0) == t for (_, a), t in targets.items())
    else:
        S = {}
        cones = fans.simplicial_refinement(fans.normal_fan(poly))
        for sigma in sorted(cones, key=lambda c: (len(c), sorted(c))):
            if not sigma:
                continue
            # the face where the sum of sigma's rays is minimal
            u0 = tuple(sum(col) for col in zip(*sorted(sigma)))
            vals = {i: sum(map(mul, u0, poly.cpoints[i])) for i in poly.shape.vertex_ids}
            low = min(vals.values())
            sub = poly.face_polytope(frozenset(i for i, v in vals.items() if v == low))
            if sub.dim == 0:
                continue
            j = (m - len(sigma)) - sub.dim
            sub_table = _ref_hodge_table(sub, char, memo)
            _ref_merge(S, lefschetz_twist(sub_table, j), (-1) ** j)
        alphas = set(alphas) | {a for (_, _, a) in S}
        alphas |= {-a % 1 for a in alphas}
        table = {}
        for a in alphas:
            for p in range(m):
                for q in range(m):
                    if p + q > m - 1:
                        table[(p, q, a)] = bv.get((p, q, a), 0)
        for a in alphas:
            for p in range(m):
                for q in range(m):
                    if p + q < m - 1:
                        dp, dq = m - 1 - p, m - 1 - q
                        c = -a % 1
                        closure = table[(dp, dq, c)] + S.get((dp, dq, c), 0)
                        table[(p, q, a)] = closure - S.get((p, q, a), 0)
        for a in alphas:
            for p in range(m):
                q = m - 1 - p
                rest = sum(table.get((p, qq, a), 0) for qq in range(m) if qq != q)
                table[(p, q, a)] = targets.get((p, a), 0) - rest
    assert all(table.get(k, 0) == v for k, v in bv.items())
    table = {k: v for k, v in table.items() if v}
    memo[poly, char] = table
    return table


def _ref_row_sums(poly, char):
    m = poly.dim
    lat = poly.face_lattice
    acc = {}
    for face, fdim in lat.items():
        if fdim < 1:
            continue
        for sub, sdim in lat.items():
            if sub <= face:
                face_poly = poly.face_polytope(sub)
                for a, tup in read_buckets(p_alpha, face_poly, char).items():
                    v = sum(tup[: face_poly.dim + 1])
                    if a != 0 and v:
                        rows = acc.setdefault(a, [0] * m)
                        rows[fdim - 1] += (-1) ** sdim * v
    return {
        a: tuple((-1) ** (m + r) * rows[r] for r in range(m)) for a, rows in acc.items()
    }


def _reached_table_pairs(supports):
    """Every (polytope, character) pair whose residue table jordan_blocks
    reads on the supports, cone tables and strata alike, in first-read
    order."""
    seen = {}
    real = hodge_table

    def record(poly, char):
        seen.setdefault((poly, char), None)
        return real(poly, char)

    clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hodge, "hodge_table", record)
        mp.setattr(monodromy, "hodge_table", record)
        for support in supports:
            jordan_blocks(newton_polyhedron(support))
    return list(seen)


def _residue_keys(mapping, d):
    """Every bucket of a residue-keyed mapping is an int in range(d)."""
    for k in mapping:
        r = k[-1] if isinstance(k, tuple) else k
        assert type(r) is int and 0 <= r < d, (k, d)


# Inputs that reach cone polytopes with non-simplicial normal fans, where
# the reference's stellar refinement and the chains of faces differ.
NON_SIMPLICIAL_FAN_INPUTS = (
    "x^4 + x^2*y + x^2*z + y^4 + z^4",
    "x^5 + x*z^2 + y^5 + y*z^2 + z^4",
    "x^3 + x*y*z + y^3 + y^2*z + z^5",
    "x^5 + x^3*y + x^3*z + y^6 + y*w + z^4 + z*w + w^6",
)


def test_public_views_match_the_fraction_assembly():
    """On every pair jordan_blocks reaches on 40 battery supports, 10 more
    in three and four variables, the golden inputs and four inputs with
    non-simplicial normal fans, hodge_table, boundary_values and
    _row_sums, read as Fractions, equal the Fraction-keyed assembly
    above, whose strata come from the stellar refinement.  They key every
    bucket by an int in range(d'), the memoized ones are read-only, and
    two characters with one restriction share one memo entry."""
    supports = (
        list(random_supports(40))
        + list(random_supports(10, seed=7, dims=(3, 4)))
        + list(golden_supports())
        + [parse_polynomial(text) for text in NON_SIMPLICIAL_FAN_INPUTS]
    )
    pairs = _reached_table_pairs(supports)
    memo = {}
    by_restriction = {}
    for poly, char in pairs:
        d = restricted(poly, char)[0]
        want = _ref_hodge_table(poly, char, memo)
        assert read_buckets(hodge_table, poly, char) == want, (poly, char)
        ref_bv, ref_targets, ref_alphas = _ref_boundary_values(poly, char)
        assert _as_fraction_boundary_values(poly, char) == (
            {k: v for k, v in ref_bv.items() if v},
            {k: v for k, v in ref_targets.items() if v},
            ref_alphas,
        )
        assert read_buckets(_row_sums, poly, char) == _ref_row_sums(poly, char), (
            poly,
            char,
        )

        bv, targets, alphas = boundary_values(poly, char)
        for mapping in (bv, targets, alphas):
            _residue_keys(mapping, d)
        memoized = [
            hodge_table(poly, char),
            _row_sums(poly, char),
            p_alpha(poly, char),
            relint_counts(poly, char, 1),
        ]
        for mapping in memoized:
            _residue_keys(mapping, d)
            assert isinstance(mapping, MappingProxyType)
        key = (poly, restricted(poly, char))
        first = by_restriction.setdefault(key, (char, memoized))
        if first[0] != char:
            assert all(a is b for a, b in zip(first[1], memoized)), (poly, char)
    assert len(pairs) > 800
    assert {poly.dim for poly, _ in pairs} == {1, 2, 3, 4}
    # Not vacuous: on these pairs the stellar refinement and the chains of
    # faces are different fans.
    non_simplicial = sum(
        any(len(c) != fans.cone_dim(c) for c in fans.normal_fan(poly))
        for poly, _ in pairs
    )
    assert non_simplicial >= 10
    # Not vacuous: many pairs reach an entry made under another character.
    assert len(pairs) - len(by_restriction) > 500


def test_stratum_modulus_must_divide_the_polytope_modulus():
    """A stratum's residues are widened by d' / d'_sub, which must be an
    integer; a modulus that does not divide raises instead of rounding."""
    tri = make_polytope([(0, 0), (2, 0), (0, 3)])
    edge = make_polytope([(2, 0), (0, 3)])
    char = Character(6, (3, 2))
    assert ehrhart.residue_step(6, edge, char) == 6 // restricted(edge, char)[0]
    with pytest.raises(InternalConsistencyError, match="does not divide"):
        ehrhart.residue_step(5, tri, char)


def test_chains_of_faces_of_a_square_and_a_triangle():
    """A square's edges end one chain each, its vertices one alone and
    two through the edges on them; the chains of a triangle likewise.
    The polytope itself is no proper face and ends no chain."""
    square, triangle = [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 0), (2, 0), (0, 3)]
    for points, edges in ((square, 4), (triangle, 3)):
        poly = make_polytope(points)
        chains = hodge._chains(poly.shape)
        lat = poly.face_lattice
        assert set(chains) == {f for f, d in lat.items() if d < 2}
        assert [chains[f] for f in chains if lat[f] == 1] == [{0: 1}] * edges
        assert [chains[f] for f in chains if lat[f] == 0] == [{0: 1, 1: 2}] * edges


def test_duality_step_reads_the_conjugate_bucket():
    """The duality step fills e^{p,q}_a below the middle from the closure's
    e^{m-1-p,m-1-q} at the conjugate bucket -a.  It matters only where
    the stratum sum differs between a and -a at one (p, q) of the high
    range, which needs a stratum of dimension >= 2 twisted by (1-L)^j far
    enough up: a cone of dimension >= 5.  No face cone of the random
    battery (dimension <= 3) and no hand-made triangle or tetrahedron
    can tell a from -a there.  This cone over a non-simple 4-dimensional
    compact face can: reading bucket a instead breaks the conjugation
    symmetry of the assembled table."""
    clear_caches()
    np_ = newton_polyhedron(
        parse_polynomial(
            "x1^7 + x2^7 + x3^7 + x4^7 + x5^7 + x1^2*x2*x3*x4*x5 + x1*x2^2*x3*x4*x5"
        )
    )
    face = next(
        f
        for f in np_.faces
        if f.points
        == (
            (0, 0, 0, 0, 7),
            (0, 0, 0, 7, 0),
            (0, 7, 0, 0, 0),
            (1, 2, 1, 1, 1),
            (2, 1, 1, 1, 1),
            (7, 0, 0, 0, 0),
        )
    )
    poly, char = face.delta, face.char
    m, d = poly.dim, restricted(poly, char)[0]
    assert (m, d, poly.shape.primeness) == (5, 7, "neither")
    strata = hodge._strata_sum(poly, char, m)
    assert any(
        v != strata.get((p, q, -a % d), 0)
        for (p, q, a), v in strata.items()
        if p + q > m - 1
    )
    table = hodge_table(poly, char)
    for (p, q, a), v in table.items():
        assert table.get((q, p, -a % d), 0) == v
    assert [table.get((1, 2, a), 0) for a in range(d)] == [15, 155, 137, 113, 86, 59, 35]
    assert [table.get((2, 1, a), 0) for a in range(d)] == [15, 35, 59, 86, 113, 137, 155]
    clear_caches()


# The boundary rows are sparse and memoized once per (shape, restriction).

SEPTIC_SURFACE = ((0, 0, 7), (0, 7, 0), (2, 2, 2), (7, 0, 0))


def _septic():
    return newton_polyhedron(SupportSet(("x", "y", "z"), SEPTIC_SURFACE))


def test_boundary_rows_are_built_once_per_key(monkeypatch):
    """A counting wrapper over the builder behind boundary_values sees one
    computation per (shape, restriction) across a cold jordan_blocks and
    validate on the septic surface, among them every orbit
    representative's cone, and none in validate after the warm answer."""
    real = hodge._boundary_rows
    built = Counter()

    def counting(poly, char):
        built[poly.shape, restricted(poly, char)] += 1
        return real(poly, char)

    monkeypatch.setattr(hodge, "_boundary_rows", counting)
    clear_caches()
    np_ = _septic()
    jordan_blocks(np_)
    after_answer = sum(built.values())
    assert validate(np_).ok
    assert sum(built.values()) == after_answer >= 8
    assert set(built.values()) == {1}
    cones = {
        (f.delta.shape, restricted(f.delta, f.char)) for f, _ in np_.representatives()
    }
    assert cones <= set(built)
    clear_caches()


def test_boundary_rows_memo_is_read_only_and_cleared():
    clear_caches()
    delta = make_polytope([(0, 0), (2, 0), (0, 3)])
    char = Character(6, (3, 2))
    bv, targets, alphas = first = boundary_values(delta, char)
    assert boundary_values(delta, char) is first
    assert isinstance(bv, MappingProxyType) and isinstance(targets, MappingProxyType)
    assert isinstance(alphas, frozenset)
    assert 0 not in bv.values() and 0 not in targets.values()
    with pytest.raises(TypeError):
        bv[(0, 0, 0)] = 1
    with pytest.raises(TypeError):
        targets[(0, 0)] = 1
    key = (boundary_values.__wrapped__, delta.shape, restricted(delta, char))
    assert ehrhart._MEMO[key] is first
    clear_caches()
    assert key not in ehrhart._MEMO
    again = make_polytope([(0, 0), (2, 0), (0, 3)])
    assert boundary_values(again, char) is not first
    assert boundary_values(again, char) == first
    clear_caches()


# The dense boundary loop (every bucket of alphas times every row, zeros
# dropped afterwards) and the strata sum that merges a face's table once
# per chain length, which the sparse rows and the folded strata sum
# replaced, kept as references.


def _dense_boundary_rows(poly, char):
    m = poly.dim
    d = restricted(poly, char)[0]
    sign = (-1) ** (m - 1)
    lsum = {k: Counter() for k in range(m + 1)}
    for face, fdim in poly.face_lattice.items():
        sub = poly.face_polytope(face)
        step = ehrhart.residue_step(d, sub, char)
        for r, c in relint_counts(sub, char, 1).items():
            lsum[fdim][r * step] += c
    skel = lsum[0] + lsum[1]
    pa = p_alpha(poly, char)
    alphas = {0} | set(pa)
    for part in lsum.values():
        alphas |= set(part)
    alphas |= {-a % d for a in alphas}
    bv = {}
    for a in alphas:
        c = -a % d
        bv[(0, 0, a)] = sign * (skel[0] - 1) if a == 0 else sign * skel[c]
        for p in range(1, m):
            bv[(p, 0, a)] = sign * lsum[p + 1][a]
            bv[(0, p, a)] = sign * lsum[p + 1][c]
    for p in range((m + 1) // 2, m):
        bv[(p, p, 0)] = (-1) ** (m + p + 1) * comb(m, p + 1)
    targets = {}
    for a in alphas:
        tup = pa.get(a)
        for p in range(m):
            t = (-1) ** (m + 1) * (tup[m - p] if tup else 0)
            if a == 0:
                t += (-1) ** (p + m + 1) * comb(m, p + 1)
            targets[(p, a)] = t
    return hodge._clean(bv), hodge._clean(targets), alphas


def _per_chain_length_strata_sum(poly, char, m):
    d = restricted(poly, char)[0]
    lat = poly.face_lattice
    S = {}
    for face, ends in hodge._chains(poly.shape).items():
        if not lat[face]:
            continue
        sub = poly.face_polytope(face)
        table, step = hodge_table(sub, char), ehrhart.residue_step(d, sub, char)
        for k, c in ends.items():
            j = m - k - 1 - lat[face]
            hodge._merge(S, table, c * (-1) ** j, step, j)
    return hodge._clean(S)


def test_sparse_rows_and_folded_strata_match_the_loops_they_replaced(monkeypatch):
    """On every (shape, restriction) that a cold jordan_blocks reaches on
    60 seeded supports and the golden inputs (the 4-variable one reaches
    a cone of dimension 4), _boundary_rows gives the dense loop's triple
    and _strata_sum the per-chain-length merge's sum."""
    built = {}
    for name in ("_boundary_rows", "_strata_sum"):
        real = getattr(hodge, name)

        def recording(poly, char, *rest, _real=real, _name=name):
            out = _real(poly, char, *rest)
            built.setdefault((_name, poly.shape, restricted(poly, char)), (poly, char, out))
            return out

        monkeypatch.setattr(hodge, name, recording)
    clear_caches()
    for support in [*random_supports(60), *golden_supports()]:
        jordan_blocks(newton_polyhedron(support))
    monkeypatch.undo()
    dims = Counter()
    for (name, *_), (poly, char, got) in built.items():
        if name == "_boundary_rows":
            assert got == _dense_boundary_rows(poly, char), poly
        else:
            assert got == _per_chain_length_strata_sum(poly, char, poly.dim), poly
            dims[poly.dim] += 1
    assert set(dims) == {1, 2, 3, 4}, dims
    clear_caches()


def _hidden_extreme_entry(np_):
    """A cone of np_, a key (1, 0, a) of an extreme row with a in the
    boundary buckets but absent from the sparse bv, and the cone's table
    with +1 there and -1 at (1, 1, a), so every row sum still holds."""
    for f in np_.faces:
        if f.delta.dim != 3:
            continue
        bv, _, alphas = boundary_values(f.delta, f.char)
        for a in sorted(alphas):
            if (1, 0, a) not in bv:
                table = dict(hodge_table(f.delta, f.char))
                table[(1, 0, a)] = table.get((1, 0, a), 0) + 1
                table[(1, 1, a)] = table.get((1, 1, a), 0) - 1
                return f, (1, 0, a), table
    raise AssertionError("no zero extreme entry in a boundary bucket")


def test_a_nonzero_entry_where_bv_is_absent_fails_both_boundary_checks(monkeypatch):
    """An extreme-row entry made nonzero where the sparse bv holds none,
    in a bucket of alphas, with its row sum kept, fails _post_checks and
    validate's boundary-and-row-sums: bv's own entries all still agree,
    so only the walk over the table's boundary positions sees it."""
    clear_caches()
    np_ = _septic()
    f, key, table = _hidden_extreme_entry(np_)
    bv, _, alphas = boundary_values(f.delta, f.char)
    d = restricted(f.delta, f.char)[0]
    assert all(table.get(k, 0) == v for k, v in bv.items())
    with pytest.raises(InternalConsistencyError, match="contradicts boundary value"):
        hodge._post_checks(f.delta, d, table, bv, alphas, f.delta.dim)

    real = oracles.hodge_table
    target = (f.delta.shape, restricted(f.delta, f.char))

    def patched(poly, char):
        if (poly.shape, restricted(poly, char)) == target:
            return MappingProxyType(table)
        return real(poly, char)

    monkeypatch.setattr(oracles, "hodge_table", patched)
    by_name = {c.name: c for c in validate(np_).checks}
    assert by_name["boundary-and-row-sums"].status == "fail"
    assert by_name["boundary-and-row-sums"].detail.startswith(f"boundary entry {key}")
    clear_caches()


def test_pseudo_prime_row_sums_reads_buckets_exactly():
    delta = make_polytope([(0, 0), (2, 0), (0, 3)])
    char = Character(6, (3, 2))
    assert pseudo_prime_row_sums(delta, char, "1/6") == pseudo_prime_row_sums(
        delta, char, F(1, 6)
    )
    with pytest.raises(InputError, match="pass a Fraction or a string 'a/b'"):
        pseudo_prime_row_sums(delta, char, 0.5)
