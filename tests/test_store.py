"""The engine's one store: polytope._MEMO, reached through cached and
ehrhart.memoized, holds everything the engine keeps, holds it
immutable, and clear_caches() empties it with nothing kept elsewhere."""

import sys
from types import MappingProxyType

from newton_monodromy import (
    clear_caches,
    ehrhart,
    hodge,
    monodromy,
    newton,
    polytope,
)
from newton_monodromy.ehrhart import Character
from newton_monodromy.frontend import parse_polynomial
from newton_monodromy.monodromy import fastpath_unipotent, jordan_blocks
from newton_monodromy.oracles import validate
from newton_monodromy.polytope import Polytope, Shape

SEPTIC = "x^7 + y^7 + z^7 + x^2*y^2*z^2"
QUADRILATERAL = "x^4 + x^2*y + x^2*z + y^4 + z^4"


def _cold_round():
    """A cold answer and validate on the septic surface and on the cone
    over a quadrilateral, which has a shape that is no simplex."""
    clear_caches()
    for text in (SEPTIC, QUADRILATERAL):
        np_ = newton.newton_polyhedron(parse_polynomial(text))
        fastpath_unipotent(np_)
        jordan_blocks(np_)
        assert validate(np_).ok, text


def test_clear_caches_leaves_nothing_kept():
    """After a cold round the store holds entries of every lookup, and
    clear_caches() leaves it empty; no module-level dict, set or
    functools cache of the engine holds an entry either."""
    _cold_round()
    kinds = {key[0] for key in polytope._MEMO}
    for fn in (
        polytope._intern,
        polytope._shape,
        Polytope.face_polytope,
        polytope.scaled_inverse,
        ehrhart.restricted,
        ehrhart.relint_counts,
        ehrhart.p_alpha,
        hodge.boundary_values,
        hodge._chains,
        hodge.hodge_table,
        hodge._row_sums,
        newton._face_character,
        monodromy._formula_weights,
    ):
        assert fn.__wrapped__ in kinds, fn
    assert ehrhart.normalized_volume in kinds
    assert ehrhart._MEMO is polytope._MEMO

    clear_caches()
    assert not polytope._MEMO
    for name, mod in sorted(sys.modules.items()):
        if name != "newton_monodromy" and not name.startswith("newton_monodromy."):
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            if isinstance(value, (dict, set)):
                assert not value, (mod.__name__, attr)
            if hasattr(value, "cache_info"):
                assert value.cache_info().currsize == 0, (mod.__name__, attr)


def _immutable(value) -> bool:
    if isinstance(value, (tuple, frozenset)):
        return all(map(_immutable, value))
    if isinstance(value, MappingProxyType):
        return all(_immutable(k) and _immutable(v) for k, v in value.items())
    return isinstance(value, (int, Character, Polytope, Shape))


def test_every_stored_value_is_immutable():
    """After a cold round every value in the store is a tuple, frozenset,
    int, Character, read-only mapping, Polytope or Shape, and so is every
    value nested in a tuple, frozenset or mapping."""
    _cold_round()
    assert len(polytope._MEMO) > 500
    for key, value in polytope._MEMO.items():
        assert _immutable(value), (key[0], value)
    clear_caches()
