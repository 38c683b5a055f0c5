"""Motivic assembly and Jordan block extraction."""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, lcm

import pytest

from newton_monodromy import clear_caches, ehrhart, hodge, monodromy
from newton_monodromy.ehrhart import Character
from newton_monodromy.errors import InputError
from newton_monodromy.frontend import parse_polynomial
from newton_monodromy.monodromy import (
    MotivicTable,
    fastpath_top,
    fastpath_unipotent,
    jordan_blocks,
    motivic_milnor_table,
    prime_face_blocks,
)
from newton_monodromy.newton import SupportSet, newton_polyhedron
from newton_monodromy.oracles import validate
from newton_monodromy.polytope import make_polytope

from _battery import edge_points, golden_supports, random_supports, workload_round
from _buckets import as_fractions

F = Fraction

CUSP = ((0, 3), (2, 0))
FERMAT3 = ((0, 3), (3, 0))
TWO_EDGE = ((0, 5), (2, 2), (5, 0))
QUARTIC = ((0, 4), (2, 2), (4, 0))
QUARTIC_SURFACE = ((4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 2))
SEPTIC_SURFACE = ((7, 0, 0), (0, 7, 0), (0, 0, 7), (2, 2, 2))
BP_SURFACE = ((3, 0, 0), (0, 4, 0), (0, 0, 5))
QUADRIC4 = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))


def _np(points):
    pts = tuple(sorted(tuple(p) for p in points))
    return newton_polyhedron(SupportSet(tuple("xyzw"[: len(pts[0])]), pts))


def test_motivic_table_cusp():
    mt = motivic_milnor_table(_np(CUSP))
    assert mt.n == 2
    assert as_fractions(mt.first, mt.modulus) == {
        (0, 1, F(1, 6)): -1,
        (1, 0, F(5, 6)): -1,
        (1, 1, F(0)): 1,
    }
    assert as_fractions(mt.second, mt.modulus) == {(0, 0, F(0)): 1, (1, 1, F(0)): -1}
    assert as_fractions(mt.total, mt.modulus) == {
        (0, 0, F(0)): 1,
        (0, 1, F(1, 6)): -1,
        (1, 0, F(5, 6)): -1,
    }


def test_motivic_total_is_sum_of_parts():
    mt = motivic_milnor_table(_np(TWO_EDGE))
    merged: dict = {}
    for part in (mt.first, mt.second):
        for k, v in part.items():
            merged[k] = merged.get(k, 0) + v
    assert {k: v for k, v in merged.items() if v} == mt.total


def test_jordan_cusp():
    js = jordan_blocks(_np(CUSP))
    assert js.n == 2
    assert js.mu == 2
    assert js.multiplicities == {F(1, 6): 1, F(5, 6): 1}
    assert js.blocks == {(F(1, 6), 1): 1, (F(5, 6), 1): 1}
    assert js.sorted_eigenvalues() == [F(1, 6), F(5, 6)]
    assert js.block_sizes(F(1, 6)) == {1: 1}
    assert js.block_sizes(F(1, 2)) == {}


def test_jordan_fermat_cubic():
    js = jordan_blocks(_np(FERMAT3))
    assert js.mu == 4
    assert js.multiplicities == {F(0): 2, F(1, 3): 1, F(2, 3): 1}
    assert js.blocks == {(F(0), 1): 2, (F(1, 3), 1): 1, (F(2, 3), 1): 1}
    assert js.sorted_eigenvalues() == [F(0), F(1, 3), F(2, 3)]


def test_jordan_two_edge_polygon():
    """Non-quasi-homogeneous plane curve: one size-2 block at -1."""
    js = jordan_blocks(_np(TWO_EDGE))
    assert js.mu == 11
    assert js.multiplicities == {
        F(0): 1,
        F(1, 10): 2,
        F(3, 10): 2,
        F(1, 2): 2,
        F(7, 10): 2,
        F(9, 10): 2,
    }
    assert js.blocks == {
        (F(0), 1): 1,
        (F(1, 10), 1): 2,
        (F(3, 10), 1): 2,
        (F(1, 2), 2): 1,
        (F(7, 10), 1): 2,
        (F(9, 10), 1): 2,
    }
    assert js.sorted_eigenvalues() == [
        F(0), F(1, 2), F(1, 10), F(3, 10), F(7, 10), F(9, 10),
    ]
    assert js.block_sizes(F(1, 2)) == {2: 1}


def test_jordan_quartic_with_interior_edge_point():
    js = jordan_blocks(_np(QUARTIC))
    assert js.mu == 9
    assert js.multiplicities == {F(0): 3, F(1, 4): 2, F(1, 2): 2, F(3, 4): 2}
    assert all(size == 1 for (_, size) in js.blocks)


def test_jordan_quartic_surface():
    js = jordan_blocks(_np(QUARTIC_SURFACE))
    assert js.mu == 27
    assert js.blocks == {
        (F(0), 1): 6,
        (F(1, 4), 1): 7,
        (F(1, 2), 1): 7,
        (F(3, 4), 1): 7,
    }


def test_jordan_brieskorn_pham_surface():
    js = jordan_blocks(_np(BP_SURFACE))
    assert js.mu == 24
    assert len(js.multiplicities) == 24
    assert F(0) not in js.multiplicities
    assert all(size == 1 for (_, size) in js.blocks)
    assert js.multiplicities[F(47, 60)] == 1


def test_jordan_quadric_fourfold():
    js = jordan_blocks(_np(QUADRIC4))
    assert js.mu == 1
    assert js.blocks == {(F(0), 1): 1}


def test_fastpath_top_values():
    cusp = _np(CUSP)
    assert fastpath_top(cusp, F(1, 6)) == (0, 1)
    assert fastpath_top(cusp, F(1, 4)) == (0, 0)
    assert fastpath_top(_np(TWO_EDGE), F(1, 2)) == (1, 0)
    assert fastpath_top(_np(QUARTIC), F(1, 2)) == (0, 2)
    assert fastpath_top(_np(SEPTIC_SURFACE), F(1, 2)) == (1, 0)


def test_fastpath_top_rejects_out_of_range():
    cusp = _np(CUSP)
    for bad in (F(0), F(1), F(7, 6), F(-1, 6)):
        with pytest.raises(InputError, match=r"in \(0, 1\)"):
            fastpath_top(cusp, bad)


def test_fastpath_unipotent_values():
    assert fastpath_unipotent(_np(FERMAT3)) == (2, 0)
    assert fastpath_unipotent(_np(TWO_EDGE)) == (1, 0)
    assert fastpath_unipotent(_np(QUARTIC_SURFACE)) == (0, 6)
    assert fastpath_unipotent(_np(QUADRIC4)) == (0, 0)


def _positive_skeleton_walk(np_):
    """Reference: the set of strictly positive lattice points on the
    compact faces of dimension <= 1, walked point by point."""
    pts = set()
    for face in np_.faces:
        if face.dim == 0:
            pts.add(face.points[0])
        elif face.dim == 1:
            a, b = face.points[0], face.points[-1]
            pts.update(edge_points(a, b))
    return {p for p in pts if all(x > 0 for x in p)}


def test_fastpath_unipotent_matches_positive_point_walk():
    """The size-(n-1) count, summed from relint_counts, equals the number
    of strictly positive points of the 1-skeleton walked point by point,
    on 40 battery supports and the golden inputs."""
    supports = list(random_supports(40)) + list(golden_supports())
    seen = 0
    for support in supports:
        np_ = newton_polyhedron(support)
        top, _ = fastpath_unipotent(np_)
        want = len(_positive_skeleton_walk(np_))
        assert top == want, support.points
        seen += want
    assert seen > 0


def test_prime_face_blocks_cusp():
    cusp = _np(CUSP)
    assert prime_face_blocks(cusp, F(1, 6), 1) == 1
    assert prime_face_blocks(cusp, F(1, 6), 2) == 0
    assert prime_face_blocks(cusp, F(1, 6), 3) == 0
    assert prime_face_blocks(cusp, F(1, 4), 1) == 0


def test_prime_face_blocks_agrees_with_jordan():
    for pts in (FERMAT3, TWO_EDGE, QUARTIC):
        np_ = _np(pts)
        js = jordan_blocks(np_)
        for ev in js.multiplicities:
            if ev == F(0):
                continue
            for k in range(1, np_.n + 2):
                want = sum(
                    cnt
                    for (e, size), cnt in js.blocks.items()
                    if e == ev and size >= k
                )
                assert prime_face_blocks(np_, ev, k) == want


def test_prime_face_blocks_gate_on_non_prime_face():
    np_ = _np([(4, 0, 0), (0, 6, 0), (0, 0, 12)])
    with pytest.raises(
        InputError,
        match=r"compact face \(\(0, 0, 12\), \(0, 6, 0\), \(4, 0, 0\)\) is not prime",
    ):
        prime_face_blocks(np_, F(1, 2), 1)


def test_prime_face_blocks_input_gates():
    cusp = _np(CUSP)
    with pytest.raises(InputError, match=r"in \(0, 1\)"):
        prime_face_blocks(cusp, F(0), 1)
    with pytest.raises(InputError, match=r"in \(0, 1\)"):
        prime_face_blocks(cusp, F(1), 1)
    with pytest.raises(InputError, match="threshold"):
        prime_face_blocks(cusp, F(1, 6), 0)


@pytest.mark.parametrize("k", [0, -1, 1.5, 1.0, True, "2", None])
def test_prime_face_blocks_refuses_a_threshold_that_is_no_positive_int(k):
    """A float, a bool or a string is no block size, as a float is no
    eigenvalue: each would otherwise count 0 blocks, count as 1, or
    fail deep inside with a TypeError."""
    cusp = _np(CUSP)
    with pytest.raises(InputError, match="threshold"):
        prime_face_blocks(cusp, F(1, 6), k)
    assert prime_face_blocks(cusp, F(1, 6), 1) == 1


def test_engine_reaches_its_public_bucket_functions(monkeypatch):
    """jordan_blocks and validate call relint_counts, p_alpha, hodge_table
    and boundary_values through the names they are published under.  A
    counting wrapper bound over every binding of each name in the
    package's modules, as a profiler's shim would be, sees calls on both
    paths, cold, on the septic surface."""
    modules = [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and name.split(".")[0] == "newton_monodromy"
    ]
    published = (
        (ehrhart, "relint_counts"),
        (ehrhart, "p_alpha"),
        (hodge, "hodge_table"),
        (hodge, "boundary_values"),
    )
    calls = Counter()
    for owner, name in published:
        real = getattr(owner, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is real:
                    monkeypatch.setattr(m, attr, counting)
    for run in (jordan_blocks, validate):
        calls.clear()
        clear_caches()
        run(_np(SEPTIC_SURFACE))
        assert set(calls) == {name for _, name in published}, (run.__name__, calls)
    clear_caches()


def test_answer_and_validate_read_one_chain_count(monkeypatch):
    """The strata sum of the answer and validate's fan-refinement check
    read the chains of faces through the one hodge._chains, which counts
    them once per shape.  Counting wrappers bound over every binding of
    hodge._chains and of hodge._count_chains see reads from a cold
    jordan_blocks on x1^3 + ... + x8^3 + x1*...*x8 and from validate
    after it, and one count per shape read, all during the answer."""
    real_read, real_count = hodge._chains, hodge._count_chains
    reads, counts = [], Counter()

    def reading(shape):
        reads.append(shape)
        return real_read(shape)

    def counting(lattice, m):
        counts[id(lattice)] += 1
        return real_count(lattice, m)

    for name, mod in sorted(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "newton_monodromy":
            for attr, value in list(vars(mod).items()):
                if value is real_read:
                    monkeypatch.setattr(mod, attr, reading)
                elif value is real_count:
                    monkeypatch.setattr(mod, attr, counting)
    clear_caches()
    names = tuple(f"x{i}" for i in range(1, 9))
    cubes = [tuple(3 if i == j else 0 for j in range(8)) for i in range(8)]
    np_ = newton_polyhedron(SupportSet(names, tuple(sorted(cubes + [(1,) * 8]))))
    jordan_blocks(np_)
    answer_reads = len(reads)
    assert answer_reads, "jordan_blocks"
    answer_counts = dict(counts)
    assert validate(np_).ok
    assert len(reads) > answer_reads, "validate"
    assert counts == answer_counts
    assert sorted(counts) == sorted({id(s.face_lattice) for s in reads})
    assert set(counts.values()) == {1}
    clear_caches()


# Exact eigenvalue arguments: Fraction(0.1) is not 1/10, so a float is
# refused everywhere an eigenvalue is read, and a string 'a/b' is read
# exactly.

TWO_SQUARES = ((0, 5), (2, 2), (5, 0))  # x^5 + x^2*y^2 + y^5


def test_fastpath_top_reads_eigenvalues_exactly():
    np_ = _np(TWO_SQUARES)
    assert fastpath_top(np_, F(1, 10)) == (0, 2)
    assert fastpath_top(np_, "1/10") == (0, 2)
    with pytest.raises(InputError, match="pass a Fraction or a string 'a/b'"):
        fastpath_top(np_, 0.1)


def test_prime_face_blocks_reads_eigenvalues_exactly():
    np_ = _np(TWO_SQUARES)
    assert prime_face_blocks(np_, F(1, 10), 1) == 2
    assert prime_face_blocks(np_, "1/10", 1) == 2
    with pytest.raises(InputError, match="pass a Fraction or a string 'a/b'"):
        prime_face_blocks(np_, 0.1, 1)


def test_block_sizes_refuses_an_eigenvalue_outside_the_unit_interval():
    """block_sizes reads eigenvalues in [0, 1), as fastpath_top,
    prime_face_blocks and the CLI do: 1 is the eigenvalue 0 under
    another name and 4/3 is none, so both raise instead of returning
    no blocks."""
    spectrum = jordan_blocks(newton_polyhedron(parse_polynomial("x^3 + y^3 + z^3")))
    assert spectrum.block_sizes(0) == {1: 2}
    for bad in (1, "4/3", F(-1, 3), "1"):
        with pytest.raises(InputError, match=r"not in \[0, 1\)"):
            spectrum.block_sizes(bad)


def test_block_sizes_reads_eigenvalues_exactly():
    spectrum = jordan_blocks(_np(TWO_SQUARES))
    assert spectrum.block_sizes(F(1, 10)) == {1: 2}
    assert spectrum.block_sizes("1/10") == {1: 2}
    assert spectrum.block_sizes("1/2") == spectrum.block_sizes(F(1, 2)) != {}
    for bad in (0.1, None, (1, 10)):
        with pytest.raises(InputError, match="pass a Fraction or a string 'a/b'"):
            spectrum.block_sizes(bad)


@pytest.mark.parametrize("flag", [False, True])
def test_eigenvalue_readers_refuse_a_bool(flag):
    """A bool is no eigenvalue, though Python counts it an int: read as
    0 or 1, block_sizes(False) gave the blocks at eigenvalue 1 and
    block_sizes(True) none.  Every reader refuses it, as
    prime_face_blocks refuses a bool block size; the int 0 still names
    eigenvalue 1."""
    np_ = _np(TWO_SQUARES)
    spectrum = jordan_blocks(np_)
    assert spectrum.block_sizes(0) == spectrum.block_sizes(F(0)) != {}
    delta = make_polytope([(0, 0), (2, 0), (0, 3)])
    readers = (
        spectrum.block_sizes,
        lambda ev: fastpath_top(np_, ev),
        lambda ev: prime_face_blocks(np_, ev, 1),
        lambda ev: hodge.pseudo_prime_row_sums(delta, Character(6, (3, 2)), ev),
    )
    for read in readers:
        with pytest.raises(InputError, match="pass a Fraction or a string 'a/b'"):
            read(flag)


def test_blocks_by_eigenvalue_groups_block_sizes():
    """One sort groups the blocks of every eigenvalue as block_sizes
    reads them one eigenvalue at a time, sizes in the same order, on 40
    battery supports and the golden inputs."""
    clear_caches()
    seen = 0
    for support in [*random_supports(40), *golden_supports()]:
        spectrum = jordan_blocks(newton_polyhedron(support))
        grouped = spectrum.blocks_by_eigenvalue()
        assert set(grouped) == set(spectrum.multiplicities)
        for ev in spectrum.multiplicities:
            assert list(grouped[ev].items()) == list(spectrum.block_sizes(ev).items())
            seen += 1
    clear_caches()
    assert seen > 200


# Per-eigenvalue references for the one-walk readers: the closed formula
# and the largest-block shortcut, one walk over the faces per eigenvalue.


def _ref_prime_face_counts(np_, ev):
    n = np_.n
    terms = [0] * (n + 3)
    for face in np_.faces:
        rows = hodge.pseudo_prime_row_sums(face.delta, face.char, ev)
        for kk in range(1, n + 3):
            for r in range(face.dim + 1):
                if (n - 2 + kk - r) % 2 == 0 and n - 2 + kk - r >= 0:
                    d = (n - 2 + kk - r) // 2
                    terms[kk] += (-1) ** d * comb(face.twist, d) * rows[r]
    sgn = (-1) ** (n - 1)
    return {k: sgn * (terms[k] + terms[k + 1]) for k in range(1, n + 2)}


def _ref_fastpath_top(np_, ev):
    b = ev.denominator
    size_n = sum(
        1
        for f in np_.faces_of_dim(0)
        if f.interior_touching and f.distance % b == 0
    )
    size_n1 = 0
    for f in np_.faces_of_dim(1):
        if f.interior_touching and f.distance % b == 0:
            d = ehrhart.restricted(f.delta, f.char)[0]
            r = ehrhart.residue(ev, d)
            if r is not None:
                counts = ehrhart.relint_counts(f.delta, f.char, 1)
                size_n1 += counts.get(r, 0) + counts.get(-r % d, 0)
    return size_n, size_n1


def _carried_eigenvalues(np_):
    """Every eigenvalue != 1 some compact face's cone carries, whether
    the spectrum has it or not, plus those of the shortcut's distances."""
    evs = set()
    for f in np_.faces:
        d = ehrhart.restricted(f.delta, f.char)[0]
        evs |= {F(r, d) for r in ehrhart.p_alpha(f.delta, f.char) if r}
        if f.interior_touching and f.dim <= 1:
            evs |= {F(a, f.distance) for a in range(1, f.distance)}
    return evs


def test_one_walk_readers_match_the_per_eigenvalue_references():
    """_prime_face_counts and the fastpath-top reader, one walk each,
    give the per-eigenvalue references' counts at every eigenvalue a
    face carries, those the spectrum lacks included, on 40 battery
    supports and the golden inputs."""
    prime_pairs = top_pairs = absent = 0
    for support in list(random_supports(40)) + list(golden_supports()):
        np_ = newton_polyhedron(support)
        spectrum = jordan_blocks(np_)
        evs = _carried_eigenvalues(np_)
        top = monodromy._fastpath_top_reader(np_)
        for ev in evs:
            assert top(ev) == _ref_fastpath_top(np_, ev), (support.points, ev)
            top_pairs += 1
        if any(f.poly.shape.primeness != "prime" for f in np_.faces):
            continue
        formula = monodromy._prime_face_counts(np_)
        assert set(formula) <= evs
        zeros = dict.fromkeys(range(1, np_.n + 2), 0)
        for ev in evs:
            want = _ref_prime_face_counts(np_, ev)
            assert formula.get(ev, zeros) == want, (support.points, ev)
            prime_pairs += 1
            absent += ev in formula and ev not in spectrum.multiplicities
    assert prime_pairs >= 250 and top_pairs >= 500 and absent >= 100


# The all-faces assembly, the reference for the answer's one table per
# orbit of compact faces: every face's own tables, each merged once, and
# the closed formula's row sums read per face and per bucket through
# pseudo_prime_row_sums.


def _all_faces_motivic_table(np_):
    first: dict = {}
    second: dict = {}
    trivial = Character.trivial(np_.n)
    modulus = lcm(*(ehrhart.restricted(f.delta, f.char)[0] for f in np_.faces))
    for face in np_.faces:
        step = modulus // ehrhart.restricted(face.delta, face.char)[0]
        table = hodge.hodge_table(face.delta, face.char)
        hodge._merge(first, table, step=step, twist=face.twist)
        if face.dim >= 1:
            table = hodge.hodge_table(face.poly, trivial)
            hodge._merge(second, table, twist=face.twist + 1)
    total = dict(first)
    hodge._merge(total, second)
    return MotivicTable(
        n=np_.n,
        modulus=modulus,
        first=hodge._clean(first),
        second=hodge._clean(second),
        total=hodge._clean(total),
    )


def _all_faces_prime_counts(np_):
    n = np_.n
    for face in np_.faces:
        if face.poly.shape.primeness != "prime":
            raise InputError(
                f"compact face {face.points} is not prime; "
                "the closed formula does not apply"
            )
    moduli = [ehrhart.restricted(face.delta, face.char)[0] for face in np_.faces]
    modulus = lcm(*moduli)
    counts: dict = {}
    for face, d in zip(np_.faces, moduli):
        weights = monodromy._formula_weights(n, face.dim, face.twist)
        for a in hodge._row_sums(face.delta, face.char):
            rows = hodge.pseudo_prime_row_sums(face.delta, face.char, F(a, d))
            acc = counts.setdefault(a * (modulus // d), [0] * (n + 2))
            for r, terms in enumerate(weights):
                for k, c in terms:
                    acc[k] += c * rows[r]
    return {
        F(a, modulus): dict(enumerate(acc[1:], 1))
        for a, acc in sorted(counts.items())
    }


def _check_orbit_route(np_) -> bool:
    """The orbit route's motivic table and closed-formula counts equal
    the all-faces references' (or both refuse alike), and on an input
    with a nontrivial orbit every face's tables equal its
    representative's.  Returns whether some orbit is nontrivial."""
    assert motivic_milnor_table(np_) == _all_faces_motivic_table(np_)
    try:
        want = _all_faces_prime_counts(np_)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            monodromy._prime_face_counts(np_)
        assert str(got.value) == str(exc)
    else:
        assert monodromy._prime_face_counts(np_) == want
    if len(np_.orbits) == len(np_.faces):
        return False
    trivial = Character.trivial(np_.n)
    for face, r in zip(np_.faces, np_.representative):
        rep = np_.faces[r]
        assert (face.dim, face.twist) == (rep.dim, rep.twist)
        want = hodge.hodge_table(rep.delta, rep.char)
        assert hodge.hodge_table(face.delta, face.char) == want, face.points
        if face.dim >= 1:
            want = hodge.hodge_table(rep.poly, trivial)
            assert hodge.hodge_table(face.poly, trivial) == want, face.points
    return True


def _sum_of(powers, e, monomial):
    return " + ".join(f"x{i}^{e}" for i in range(1, powers + 1)) + " + " + monomial


# Every library and console input of CI in at most eight variables.
CI_INPUTS = [
    "x^2 + y^3",
    "x^7 + y^7 + z^7 + x^2*y^2*z^2",
    "x^4 + x^2*y + x^2*z + y^4 + z^4",
    "x^80 + y^80 + z^80",
    _sum_of(5, 6, "x1*x2*x3*x4*x5"),
    _sum_of(5, 7, "x1^2*x2*x3*x4*x5 + x1*x2^2*x3*x4*x5"),
    _sum_of(6, 7, "x1*x2*x3*x4*x5*x6"),
    _sum_of(7, 8, "x1*x2*x3*x4*x5*x6*x7"),
    _sum_of(8, 3, "x1*x2*x3*x4*x5*x6*x7*x8"),
    " + ".join("*".join(m) for m in combinations_with_replacement("xyzw", 4)),
    *(f"x^{a} + y^{b} + z^{c}" for a, b, c in product(range(2, 6), repeat=3)),
]


def test_orbit_route_matches_all_faces_on_golden_and_ci_inputs():
    supports = [*golden_supports(), *map(parse_polynomial, CI_INPUTS)]
    nontrivial = 0
    for support in supports:
        clear_caches()
        nontrivial += _check_orbit_route(newton_polyhedron(support))
    clear_caches()
    assert nontrivial == 57


def test_orbit_route_matches_all_faces_on_the_battery():
    nontrivial = 0
    for support in random_supports(120):
        clear_caches()
        nontrivial += _check_orbit_route(newton_polyhedron(support))
    clear_caches()
    assert nontrivial == 9


def test_orbit_route_matches_all_faces_on_a_ladder_round():
    """The benchmark's seed-1 ladder round, its variables permuted."""
    cases = workload_round("ladder")
    nontrivial = 0
    for case in cases:
        clear_caches()
        nontrivial += _check_orbit_route(newton_polyhedron(parse_polynomial(case.text)))
    clear_caches()
    assert nontrivial == len(cases) == 8


def test_cyclic_symmetry_alone_gives_singleton_orbits():
    """x -> y -> z -> x fixes the support, but no swap of two
    coordinates does: every orbit is one face, and the answer is the
    all-faces one."""
    np_ = newton_polyhedron(
        parse_polynomial("x^6 + y^6 + z^6 + x^3*y + y^3*z + z^3*x")
    )
    assert np_.swaps == ()
    assert np_.representative == tuple(range(len(np_.faces)))
    assert np_.orbits == tuple((i, 1) for i in range(len(np_.faces)))
    assert not _check_orbit_route(np_)
