"""One Shape per tuple of chart points: the polytopes that reach the same
chart points share their face geometry and every memo entry, and the
shared entries are what each polytope computes on its own."""

import gc
import types

import pytest

from newton_monodromy import clear_caches, ehrhart, hodge, monodromy, polytope
from newton_monodromy.ehrhart import (
    Character,
    normalized_volume,
    p_alpha,
    relint_counts,
    restricted,
)
from newton_monodromy.errors import InternalConsistencyError
from newton_monodromy.frontend import parse_polynomial
from newton_monodromy.hodge import _row_sums, hodge_table
from newton_monodromy.monodromy import jordan_blocks
from newton_monodromy.newton import newton_polyhedron
from newton_monodromy.polytope import Polytope, Shape, make_polytope

from _battery import golden_supports, random_supports

SEPTIC = "x^7 + y^7 + z^7 + x^2*y^2*z^2"


class _NeverShared(dict):
    """A stand-in for polytope._SHAPES that finds no shape, so every
    polytope builds its own and the memo is keyed per instance."""

    def get(self, key, default=None):
        return default


def _reaches_polytope(obj) -> bool:
    """Whether a Polytope is reachable from obj through its references,
    classes, modules and functions aside."""
    seen = set()
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(
            o, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(o))
        if isinstance(o, Polytope):
            return True
        stack.extend(gc.get_referents(o))
    return False


def test_a_translate_shares_the_shape_and_the_numerators():
    """A triangle and its translate by (4, 1) have one Shape; under
    characters with one restriction they read one p_alpha entry; a
    character that is nontrivial on a vertex still raises for either of
    them on a cold memo, and also for the translate when the triangle's
    entry under that character is warm."""
    clear_caches()
    tri = make_polytope([(0, 0), (2, 0), (0, 3)])
    moved = make_polytope([(4, 1), (6, 1), (4, 4)])
    assert tri is not moved
    assert tri.shape is moved.shape
    assert tri.face_lattice is moved.face_lattice

    # the same triangle in the plane z = 2 of Z^3, under another character
    lifted = make_polytope([(0, 0, 2), (2, 0, 2), (0, 3, 2)])
    assert lifted.shape is tri.shape
    half, half3 = Character(2, (1, 0)), Character(2, (1, 0, 1))
    assert restricted(tri, half) == restricted(moved, half) == restricted(lifted, half3)
    first = p_alpha(tri, half)
    assert p_alpha(moved, half) is first
    assert p_alpha(lifted, half3) is first
    assert normalized_volume(moved) == normalized_volume(tri) == 6

    third = Character(3, (1, 0))  # 2/3 at (2, 0) and 1/3 at (4, 1)
    for poly in (tri, moved):
        clear_caches()
        poly = make_polytope(poly.points)
        with pytest.raises(InternalConsistencyError, match="not trivial on vertex"):
            p_alpha(poly, third)

    # (3, 2)/6 kills the triangle's vertices but not (4, 1), 14/6 mod 1
    clear_caches()
    tri = make_polytope(tri.points)
    moved = make_polytope(moved.points)
    sixth = Character(6, (3, 2))
    p_alpha(tri, sixth)
    with pytest.raises(InternalConsistencyError, match="not trivial on vertex"):
        p_alpha(moved, sixth)

    assert polytope._SHAPES
    for shape in polytope._SHAPES.values():
        assert isinstance(shape, Shape)
        assert not _reaches_polytope(shape), shape


def _reached_pairs(supports):
    """Every (polytope, character) on which jordan_blocks looks up a
    memoized function over the supports, in first-read order."""
    seen = {}
    real = ehrhart.restricted

    def record(poly, char):
        seen.setdefault((poly, char), None)
        return real(poly, char)

    clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ehrhart, "restricted", record)
        for support in supports:
            jordan_blocks(newton_polyhedron(support))
    return list(seen)


def _reads(poly, char):
    """hodge_table, _row_sums, p_alpha, relint_counts(., ., 1) and
    normalized_volume of one pair, the mappings as item lists, for those
    that apply: p_alpha needs a character trivial on the vertices, and a
    table a polytope of dimension >= 1 as well."""
    out = {
        "relint_counts": list(relint_counts(poly, char, 1).items()),
        "normalized_volume": normalized_volume(poly),
    }
    if all(char.is_trivial_at(v) for v in poly.vertices):
        out["p_alpha"] = list(p_alpha(poly, char).items())
        if poly.dim >= 1:
            out["hodge_table"] = list(hodge_table(poly, char).items())
            out["row_sums"] = list(_row_sums(poly, char).items())
    return out


def test_shape_keyed_memo_matches_per_instance_computation():
    """Every pair jordan_blocks reaches on 40 battery supports, the golden
    inputs, the septic surface and the Fermat quartic threefold reads,
    through the memo that the whole corpus filled by shape, what its own
    polytope computes after clear_caches() with sharing switched off, when
    each polytope builds its own shape and reads no entry another
    polytope made.  Insertion order included."""
    supports = (
        list(random_supports(40))
        + list(golden_supports())
        + [parse_polynomial(SEPTIC), parse_polynomial("x^4 + y^4 + z^4 + w^4")]
    )
    pairs = _reached_pairs(supports)
    shared = [(poly.points, char, _reads(poly, char)) for poly, char in pairs]
    # Not vacuous: many pairs read entries that a translate made.
    polys = {poly for poly, _ in pairs}
    assert len(polys) - len({poly.shape for poly in polys}) > 200
    assert {poly.dim for poly in polys} == {0, 1, 2, 3, 4}
    assert sum("hodge_table" in reads for _, _, reads in shared) > 600

    clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "_SHAPES", _NeverShared())
        for points, char, want in shared:
            assert _reads(make_polytope(points), char) == want, (points, char)
    clear_caches()


def test_one_table_per_shape_and_restriction():
    """On the septic surface jordan_blocks, one representative per orbit
    of compact faces, reads Hodge tables of 11 (point set, restriction)
    pairs but only 8 (chart points, restriction) pairs, and the memo
    holds one table for each of the 8; keyed per instance it would hold
    11."""

    def tables(shapes):
        reached = []
        real = hodge.hodge_table

        def record(poly, char):
            reached.append((poly, restricted(poly, char)))
            return real(poly, char)

        clear_caches()
        with pytest.MonkeyPatch.context() as mp:
            if shapes is not None:
                mp.setattr(polytope, "_SHAPES", shapes)
            mp.setattr(hodge, "hodge_table", record)
            mp.setattr(monodromy, "hodge_table", record)
            jordan_blocks(newton_polyhedron(parse_polynomial(SEPTIC)))
        entries = sum(1 for key in ehrhart._MEMO if key[0] is real.__wrapped__)
        clear_caches()
        return entries, reached

    entries, reached = tables(None)
    assert len({(poly.cpoints, r) for poly, r in reached}) == 8
    assert len({(poly.points, r) for poly, r in reached}) == 11
    assert entries == 8
    assert tables(_NeverShared())[0] == 11
