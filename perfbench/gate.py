"""Per-case correctness gate and the canonical digest of a run's spectra.

The gate runs outside the timed region.  It binds the oracle functions
at import, before any timing shim exists, so a traced run checks with
the same untraced code as an untraced one.
"""

from __future__ import annotations

import functools
import hashlib
from fractions import Fraction
from math import prod

from newton_monodromy import brieskorn_pham_spectrum, kouchnirenko_mu
from newton_monodromy.oracles import brieskorn_pham_exponents

# The oracle's value for a support never changes, so a repeated input is
# checked against the value computed the first time.
kouchnirenko = functools.cache(kouchnirenko_mu)


def _self_consistency(n, fast, spectrum) -> list[str]:
    """The answer against itself: block counts against multiplicities and
    mu, and the unipotent fast path against the unipotent blocks."""
    problems = []
    mults: dict = {}
    for (ev, size), count in spectrum.blocks.items():
        if count <= 0 or not 1 <= size <= (n - 1 if ev == 0 else n):
            problems.append(f"impossible block count {count} x size {size} at {ev}")
        mults[ev] = mults.get(ev, 0) + size * count
    if mults != spectrum.multiplicities:
        problems.append("block sizes do not add up to the multiplicities")
    if spectrum.mu != sum(spectrum.multiplicities.values()):
        problems.append("mu is not the sum of the multiplicities")
    zero = Fraction(0)
    unipotent = (
        spectrum.blocks.get((zero, n - 1), 0),
        spectrum.blocks.get((zero, n - 2), 0) if n >= 3 else 0,
    )
    if tuple(fast) != unipotent:
        problems.append(f"fastpath_unipotent {tuple(fast)} != blocks {unipotent}")
    return problems


def check(case, np_, fast, spectrum, report) -> list[str]:
    """Every way this case's answer disagrees with what is known of it."""
    problems = _self_consistency(np_.n, fast, spectrum)
    exps = brieskorn_pham_exponents(np_)
    if exps is not None:
        if spectrum.multiplicities != brieskorn_pham_spectrum(exps):
            problems.append("Brieskorn-Pham spectrum differs")
        if spectrum.mu != prod(e - 1 for e in exps):
            problems.append("Brieskorn-Pham mu differs")
        if any(size != 1 for (_, size) in spectrum.blocks):
            problems.append("Brieskorn-Pham block larger than 1")
    if case.mu is not None and spectrum.mu != case.mu:
        problems.append(f"mu {spectrum.mu} != known {case.mu}")
    for ev, sizes in case.blocks:
        if spectrum.block_sizes(ev) != dict(sizes):
            problems.append(f"blocks at {ev} differ from the known value")
    if not report.ok:
        bad = [c.name for c in report.checks if c.status == "fail"]
        problems.append(f"validate failed: {', '.join(bad)}")
    mu = kouchnirenko(np_.support.points)
    if spectrum.mu != mu:
        problems.append(f"mu {spectrum.mu} != kouchnirenko_mu {mu}")
    return problems


def canonical(text, fast, spectrum) -> str:
    """One line per case: input, unipotent fast path, mu and every
    (eigenvalue, size, count)."""
    blocks = ";".join(
        f"{ev.numerator}/{ev.denominator}:{size}:{count}"
        for (ev, size), count in sorted(spectrum.blocks.items())
    )
    return f"{text}\t{fast[0]},{fast[1]}\t{spectrum.mu}\t{blocks}"


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
