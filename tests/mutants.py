"""Replayable mutants of the engine, each with the test that decides it.

A mutant replaces one exact text, which must occur once in its file
under src/newton_monodromy/, by another.  A killed mutant names a test
that must fail under it; an equivalent mutant names a test that must
still pass, and says why no test can tell it from the engine.
tests/test_mutants.py checks that every old text still occurs once;
tests/run_mutants.py applies each mutant to a temporary copy of the
tree and runs its test with -x:

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py 0 3        # mutants 0 and 3 only
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str  # under src/newton_monodromy/
    old: str
    new: str
    test: str  # a pytest node id under tests/
    equivalent: str = ""  # why the mutant cannot be killed; empty if it must be


MUTANTS = (
    # _box_counts reads the residue off the form it is given
    Mutant(
        "ehrhart.py",
        "    form = [x % d for x in form]\n",
        "    form = [-x % d for x in form]\n",
        "tests/test_box_counts.py::test_box_counts_match_the_enumeration_on_random_simplices",
    ),
    Mutant(
        "ehrhart.py",
        "            v = values + sum(map(mul, x, form)) % d * ones\n",
        "            v = values + sum(map(mul, x, form)) * ones\n",
        "tests/test_box_counts.py::test_box_counts_match_the_enumeration_on_random_simplices",
    ),
    Mutant(
        "ehrhart.py",
        "    if bound >> bits - 1:\n",
        "    if False:\n",
        "tests/test_box_counts.py::test_box_counts_refuse_a_box_past_64_bit_fields_before_walking",
    ),
    # p_alpha hands the kernel the restriction's form w
    Mutant(
        "ehrhart.py",
        "for i in simplex], w, d, c)",
        "for i in simplex], [0] * m, d, c)",
        "tests/test_ehrhart.py::test_p_alpha_matches_the_dilate_scan",
    ),
    Mutant(
        "ehrhart.py",
        "for i in simplex], w, d, c)",
        "for i in simplex], [x % d for x in w], d, c)",
        "tests/test_ehrhart.py::test_p_alpha_matches_the_dilate_scan",
        "restricted already reduces w mod d, and the kernel reduces it again",
    ),
    # a vertex is a point where the facets through it meet in it alone
    Mutant(
        "polytope.py",
        "self.facets if i in z)) == {i}",
        "self.facets if i in z)) != ids",
        "tests/test_incidences.py::test_incidences_on_a_battery_round_and_the_golden_inputs",
    ),
    Mutant(
        "polytope.py",
        "self.facets if i in z)) == {i}",
        "self.facets if i in z)) <= {i}",
        "tests/test_incidences.py",
        "the intersection always holds i, which lies in ids and in every facet taken",
    ),
    Mutant(
        "polytope.py",
        "        return tuple(z & vids for _, _, z in self.facets)\n",
        "        return tuple(z for _, _, z in self.facets)\n",
        "tests/test_incidences.py::test_incidences_on_a_battery_round_and_the_golden_inputs",
    ),
    # the faces close over the facets' vertex sets
    Mutant(
        "polytope.py",
        "{frozenset(self.vertex_ids)} | intersection_closure(sets, sets)",
        "{frozenset(self.vertex_ids)} | intersection_closure(sets, sets[:1])",
        "tests/test_incidences.py::test_incidences_on_a_battery_round_and_the_golden_inputs",
    ),
    Mutant(
        "polytope.py",
        "{frozenset(self.vertex_ids)} | intersection_closure(sets, sets)",
        "{frozenset(self.vertex_ids)} | intersection_closure(sets, sets)"
        " | {frozenset({i}) for i in self.vertex_ids}",
        "tests/test_polytope.py",
        "each vertex is the meet of the facets through it, so the closure"
        " already holds every one-vertex set",
    ),
    # the one store keys each entry by its function
    Mutant(
        "polytope.py",
        "        key = (fn, *args)\n",
        "        key = args\n",
        "tests/test_store.py::test_clear_caches_leaves_nothing_kept",
    ),
    # a bool is no integer
    Mutant(
        "ehrhart.py",
        "for x in (self.modulus, *self.coeffs)):",
        "for x in self.coeffs):",
        "tests/test_ehrhart.py::test_character_rejects_non_integers",
    ),
    Mutant(
        "oracles.py",
        "        return not isinstance(x, bool) and x == int(x)\n",
        "        return x == int(x)\n",
        "tests/test_oracles.py::test_kouchnirenko_rejects_non_integer_exponents",
    ),
)
