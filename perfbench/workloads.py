"""The benchmark's workloads: seeded rounds of polynomial inputs.

A workload is one round, a list of cases, that a run repeats as often
as its budget allows.  Every case is a polynomial string handed to the
engine's parser, plus any values known for it in closed form.  The seed
only shuffles and draws inputs: the same seed always gives the same
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random
from typing import Callable, Iterator

VARIABLES = "xyzw"


@dataclass(frozen=True)
class Case:
    """One input and the values known for it independently of the engine.

    mu      Milnor number, when known
    blocks  ((eigenvalue, ((size, count), ...)), ...) block counts known
            for some eigenvalues
    """

    text: str
    mu: int | None = None
    blocks: tuple = ()


@dataclass(frozen=True)
class Workload:
    """How a workload draws its cases and how the loop runs them.

    cold          clear every memo before each case (a fresh CLI call);
                  otherwise memos are cleared once per round only
    rounds        rounds(seed, limit) yields the same round forever;
                  limit caps the number of cases in it (None: no cap)
    """

    name: str
    cold: bool
    rounds: Callable[[int, int | None], Iterator[list[Case]]]


def render(points, names=VARIABLES) -> str:
    """Polynomial text with coefficient 1 on every support point."""
    terms = []
    for p in sorted(points, reverse=True):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, p) if e]
        terms.append("*".join(factors))
    return " + ".join(terms)


def _unit(n, i, e):
    return tuple(e if j == i else 0 for j in range(n))


def _fermat(n, e):
    return [_unit(n, i, e) for i in range(n)]


# --- battery ---------------------------------------------------------------

BATTERY_ROUND = 120


def _battery_support(rng: Random, n: int, extras: int):
    """Same shape as the test suite's random battery: a pure power 2..6
    on every axis plus extra points with coordinates <= 6 and degree
    >= 2 (an extra point may repeat one already drawn)."""
    pts = {_unit(n, i, rng.randint(2, 6)) for i in range(n)}
    for _ in range(extras):
        p = tuple(rng.randint(0, 6) for _ in range(n))
        if sum(p) >= 2:
            pts.add(p)
    return sorted(pts)


def battery_rounds(seed: int, limit: int | None):
    # The mix is fixed and only coordinates are random: two cases in
    # three have 3 variables, and extra-point counts 0..5 cycle evenly
    # across both arities.  A random mix would move the median between
    # the fast 2-variable and slow 3-variable clusters from seed to seed.
    rng = Random(seed)
    cases = []
    for i in range(min(limit or BATTERY_ROUND, BATTERY_ROUND)):
        n = (3, 3, 2)[i % 3]
        extras = (i // 3) % 6
        cases.append(Case(render(_battery_support(rng, n, extras))))
    while True:
        yield cases


# --- ladder ----------------------------------------------------------------

_SEPTIC = (
    [(7, 0, 0), (0, 7, 0), (0, 0, 7), (2, 2, 2)],
    167,
    ((Fraction(1, 2), ((1, 18), (3, 1))),),
)

# Cheapest first, so that a capped round keeps the cheap cases.
LADDER = (
    [(_fermat(3, e), None, ()) for e in (8, 12, 16, 20)]
    + [_SEPTIC]
    + [
        (_fermat(4, 4), None, ()),
        (_fermat(4, 5) + [(1, 1, 1, 1)], None, ()),
        (_fermat(4, 6) + [(2, 2, 1, 1)], 625, ()),
    ]
)


def ladder_rounds(seed: int, limit: int | None):
    # The seed permutes the variables of each input and the order of
    # the round; the multiset of inputs, and so their cost, is fixed.
    rng = Random(seed)
    cases = []
    for pts, mu, blocks in LADDER[:limit]:
        perm = list(range(len(pts[0])))
        rng.shuffle(perm)
        moved = [tuple(p[j] for j in perm) for p in pts]
        cases.append(Case(render(moved), mu, blocks))
    rng.shuffle(cases)
    while True:
        yield cases


# --- sweep -----------------------------------------------------------------


def sweep_rounds(seed: int, limit: int | None):
    # The Brieskorn-Pham grid: exponents 2..6 in 2 and 3 variables.
    grid = [e for n in (2, 3) for e in product(range(2, 7), repeat=n)]
    cases = [
        Case(render([_unit(len(e), i, a) for i, a in enumerate(e)]))
        for e in grid[:limit]
    ]
    Random(seed).shuffle(cases)
    while True:
        yield cases


WORKLOADS = {
    w.name: w
    for w in (
        # Many small faces: scan boxes mostly <= 512 points, so the
        # pure-Python lattice scan, Fraction-keyed buckets and the
        # Hodge/fan recursion carry the time.  Every case starts cold,
        # as a CLI call does.
        Workload("battery", cold=True, rounds=battery_rounds),
        # Few faces, huge dilates: the numpy box scan carries the answer
        # and peak memory.
        Workload("ladder", cold=True, rounds=ladder_rounds),
        # A library user sweeping a family: cases share face polytopes,
        # so memo reads replace computation.  A change that makes hits
        # dearer shows here and not on the cold workloads.
        Workload("sweep", cold=False, rounds=sweep_rounds),
    )
}
