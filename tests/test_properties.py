"""Randomized invariants: a seeded validation battery plus small
hypothesis properties of the primitive layers."""

from collections import Counter
from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from newton_monodromy.ehrhart import Character
from newton_monodromy.frontend import parse_polynomial
from newton_monodromy.monodromy import fastpath_unipotent, jordan_blocks
from newton_monodromy.newton import SupportSet, newton_polyhedron
from newton_monodromy.oracles import validate, varchenko_multiplicities

from _battery import golden_supports, random_supports


def test_validation_battery_small():
    failures = []
    for support in random_supports(40):
        report = validate(newton_polyhedron(support))
        if not report.ok:
            failures.append((support.points, report.summary()))
    assert not failures, failures


def test_variable_permutation_leaves_jordan_form_unchanged():
    """The monodromy does not see the names of the coordinates."""
    rng = Random(4)
    for support in random_supports(40):
        perm = list(range(support.n))
        while perm == sorted(perm):
            rng.shuffle(perm)
        swapped = SupportSet(
            support.variables,
            tuple(sorted(tuple(p[i] for i in perm) for p in support.points)),
        )
        want = jordan_blocks(newton_polyhedron(support))
        got = jordan_blocks(newton_polyhedron(swapped))
        assert (got.mu, got.blocks, got.multiplicities) == (
            want.mu,
            want.blocks,
            want.multiplicities,
        ), (support.points, perm)


def test_varchenko_zeta_function_gives_the_engine_multiplicities():
    """Varchenko's zeta function, from the oracle's own facet search and
    pyramid volumes, gives every eigenvalue's multiplicity."""
    for support in list(random_supports(200)) + list(golden_supports()):
        want = jordan_blocks(newton_polyhedron(support)).multiplicities
        assert varchenko_multiplicities(support.points, support.n) == want, (
            support.points
        )


def _answer(support):
    np_ = newton_polyhedron(support)
    spec = jordan_blocks(np_)
    faces = sorted((f.points, f.twist, f.distance) for f in np_.faces)
    return faces, spec.mu, spec.blocks, spec.multiplicities, fastpath_unipotent(np_)


def test_points_above_the_newton_boundary_change_nothing():
    """q + (1, ..., 1) lies strictly above every compact face through a
    support point q (compact faces have positive normals), so adding it
    leaves the compact faces, the Jordan form and the unipotent shortcut
    as they were."""
    rng = Random(7)
    for support in random_supports(40):
        raised = [
            tuple(x + 1 for x in q)
            for q in support.points
            if tuple(x + 1 for x in q) not in support.points
        ]
        extra = rng.choice(raised)
        bigger = SupportSet(support.variables, tuple(sorted(support.points + (extra,))))
        assert _answer(bigger) == _answer(support), (support.points, extra)


def test_suspension_by_a_new_variable_shifts_every_block():
    """Thom-Sebastiani: the monodromy of f + z^c is that of f tensored
    with the c-th roots of unity other than 1, all of block size 1, so
    each block of f at eigenvalue a reappears at a + k/c mod 1 for
    k = 1..c-1 with its size unchanged.  The identity reads only the two
    answers, not the engine's faces."""
    suspensions = 0
    for support in random_supports(40, dims=(2,)):
        blocks = jordan_blocks(newton_polyhedron(support)).blocks
        for c in (2, 3):
            suspended = SupportSet(
                support.variables + ("z",),
                tuple(sorted([p + (0,) for p in support.points] + [(0, 0, c)])),
            )
            want = Counter()
            for (a, size), count in blocks.items():
                for k in range(1, c):
                    want[((a + Fraction(k, c)) % 1, size)] += count
            got = jordan_blocks(newton_polyhedron(suspended)).blocks
            assert got == dict(want), (support.points, c)
            suspensions += 1
    assert suspensions == 80


def _join(f, g):
    """f(x, y) + g(z, w): the two supports in disjoint variables."""
    points = [p + (0,) * g.n for p in f.points] + [(0,) * f.n + q for q in g.points]
    return SupportSet(("x", "y", "z", "w"), tuple(sorted(points)))


def test_thom_sebastiani_join_tensors_the_blocks():
    """Thom-Sebastiani: the monodromy of f(x, y) + g(z, w) is the tensor
    product of those of f and g, and J_a(l) (x) J_b(v) is the sum of
    J_{a+b+1-2k}(l v) over k = 1..min(a, b).  In x^5 + x^2*y^2 + y^5
    joined with itself, J_2(1/2) (x) J_2(1/2) gives J_3(1) + J_1(1), so
    block sizes change; the random pairs are joined the same way."""
    quintic = parse_polynomial("x^5 + x^2*y^2 + y^5")
    supports = list(random_supports(40, dims=(2,)))
    pairs = [(quintic, quintic)] + list(zip(supports[::2], supports[1::2]))
    sizes = set()
    for f, g in pairs:
        want = Counter()
        for (a, i), m in jordan_blocks(newton_polyhedron(f)).blocks.items():
            for (b, j), n in jordan_blocks(newton_polyhedron(g)).blocks.items():
                for k in range(1, min(i, j) + 1):
                    want[((a + b) % 1, i + j + 1 - 2 * k)] += m * n
        got = jordan_blocks(newton_polyhedron(_join(f, g))).blocks
        assert got == dict(want), (f.points, g.points)
        sizes |= {size for _, size in got}
    assert sizes == {1, 2, 3}


@given(
    st.integers(min_value=1, max_value=48),
    st.lists(st.integers(min_value=-12, max_value=12), min_size=1, max_size=4),
)
def test_character_normalization_idempotent(modulus, coeffs):
    c = Character(modulus, tuple(coeffs))
    assert Character(c.modulus, c.coeffs) == c
    assert 1 <= c.modulus <= modulus
    assert all(0 <= x < max(c.modulus, 2) for x in c.coeffs)
    assert c.is_trivial == (c.modulus == 1)


@given(
    st.integers(min_value=1, max_value=36),
    st.lists(st.integers(min_value=0, max_value=35), min_size=2, max_size=2),
    st.lists(st.integers(min_value=-10, max_value=10), min_size=2, max_size=2),
    st.integers(min_value=0, max_value=1),
)
def test_character_value_periodicity(modulus, coeffs, v, axis):
    c = Character(modulus, tuple(coeffs))
    shifted = list(v)
    shifted[axis] += modulus
    assert c.value(tuple(v)) == c.value(tuple(shifted))
    assert 0 <= c.value(tuple(v)) < 1


def _render(support) -> str:
    terms = []
    for p in support.points:
        factors = []
        for name, e in zip(support.variables, p):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_parser_round_trip(seed):
    (support,) = random_supports(1, seed=seed)
    parsed = parse_polynomial(_render(support))
    assert parsed.variables == support.variables
    assert parsed.points == support.points
