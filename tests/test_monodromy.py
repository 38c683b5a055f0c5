"""Motivic assembly and Jordan block extraction."""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from newton_monodromy import clear_caches, ehrhart, hodge
from newton_monodromy.errors import InputError
from newton_monodromy.monodromy import (
    fastpath_top,
    fastpath_unipotent,
    jordan_blocks,
    motivic_milnor_table,
    prime_face_blocks,
)
from newton_monodromy.newton import SupportSet, newton_polyhedron
from newton_monodromy.oracles import validate

from _battery import edge_points, golden_supports, random_supports
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
    count the chains of faces through the one hodge._chains.  A counting
    wrapper bound over every binding of it sees calls from a cold
    jordan_blocks on the septic surface, and from validate after it,
    when every table is already memoized."""
    real = hodge._chains
    calls = Counter()

    def counting(lattice, m):
        calls[m] += 1
        return real(lattice, m)

    for name, m in sorted(sys.modules.items()):
        if m is not None and name.split(".")[0] == "newton_monodromy":
            for attr, value in list(vars(m).items()):
                if value is real:
                    monkeypatch.setattr(m, attr, counting)
    clear_caches()
    np_ = _np(SEPTIC_SURFACE)
    jordan_blocks(np_)
    assert calls, "jordan_blocks"
    calls.clear()
    assert validate(np_).ok
    assert calls, "validate"
    clear_caches()
