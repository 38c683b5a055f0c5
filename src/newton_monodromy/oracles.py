"""Independent oracles and a cross-checking validator.

varchenko_multiplicities computes the eigenvalue multiplicities of the
monodromy of a convenient nondegenerate singularity from Varchenko's
zeta function.  It deliberately shares no geometry code with the
engine: facet search is brute force over point subsets, volumes come
from integer finite differences of lattice counts, fibre-counted along
the last coordinate, so agreement with the engine is meaningful
evidence rather than the same bug twice.  kouchnirenko_mu, the Milnor
number, is their total: the classical alternating sum of normalized
under-volumes.  validate's kouchnirenko-mu check compares both the
Milnor number and every multiplicity with the engine.

brieskorn_pham_spectrum computes the classical eigenvalue multiset of
x1^a1 + ... + xn^an directly from the exponents, as residues mod the
lcm of the exponents.

validate runs the full battery of internal identities, symmetries, and
oracle comparisons on one Newton polyhedron and reports per-check
pass/fail/skip results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm

from . import fan as fans
from .ehrhart import Character, conj, p_alpha, relint_counts
from .errors import InputError, InternalConsistencyError
from .hodge import (
    _row_sums,
    boundary_values,
    hodge_table,
    lefschetz_twist,
    pseudo_prime_row_sums,
)
from .monodromy import (
    fastpath_top,
    fastpath_unipotent,
    jordan_blocks,
    motivic_milnor_table,
    prime_face_blocks,
)
from .newton import NewtonPolyhedron

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Milnor number oracle


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _nullspace_generator(rows, k):
    """Primitive integer generator of the nullspace of rows in Z^k,
    or None unless the nullspace is exactly one-dimensional."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivot_cols = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
    if r != k - 1:
        return None
    (free,) = [c for c in range(k) if c not in pivot_cols]
    sol = [Fraction(0)] * k
    sol[free] = Fraction(1)
    for ri, c in enumerate(pivot_cols):
        sol[c] = -mat[ri][free]
    scale = 1
    for x in sol:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in sol]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _lower_facets(pts, k):
    """Facets of the under-boundary: maximal tight sets of supporting
    hyperplanes with strictly positive normal."""
    found = {}
    for subset in combinations(pts, k):
        base = subset[0]
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in subset[1:]]
        nrm = _nullspace_generator(diffs, k)
        if nrm is None:
            continue
        for u in (nrm, tuple(-x for x in nrm)):
            if any(x <= 0 for x in u):
                continue
            b = _dot(u, base)
            if all(_dot(u, p) >= b for p in pts):
                found[u] = (b, tuple(sorted(p for p in pts if _dot(u, p) == b)))
    return [(u, b, tight) for u, (b, tight) in sorted(found.items())]


def _pyramid_normalized_volume(tight, k):
    """k! times the volume of conv({0} union tight), by finite differences
    of lattice counts of the dilates 0..k.  Integer arithmetic only."""
    origin = (0,) * k
    verts = [origin] + [tuple(p) for p in tight]
    ineqs = {}
    for subset in combinations(verts, k):
        base = subset[0]
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in subset[1:]]
        nrm = _nullspace_generator(diffs, k)
        if nrm is None:
            continue
        for u in (nrm, tuple(-x for x in nrm)):
            b = _dot(u, base)
            if all(_dot(u, v) >= b for v in verts):
                ineqs[u] = min(b, ineqs.get(u, b))
    ineq_list = sorted(ineqs.items())
    maxc = [max(v[j] for v in verts) for j in range(k)]
    counts = [1]
    for t in range(1, k + 1):
        counts.append(_fibre_count(ineq_list, [t * m for m in maxc], t))
    return sum((-1) ** (k - t) * comb(k, t) * counts[t] for t in range(k + 1))


def _fibre_count(ineqs, top, t):
    """Lattice points x of the box 0 <= x <= top with u.x >= t*b for every
    (u, b) in ineqs.  The leading coordinates walk their box; the last
    one runs over an interval cut by floor/ceil division, once per
    inequality, whose length is added in one step."""
    cuts = [(u[:-1], u[-1], t * b) for u, b in ineqs]
    count = 0
    for lead in product(*(range(m + 1) for m in top[:-1])):
        lo, hi = 0, top[-1]
        for head, c, tb in cuts:
            rest = tb - _dot(head, lead)  # need c * x_last >= rest
            if c > 0:
                lo = max(lo, -(-rest // c))
            elif c < 0:
                hi = min(hi, rest // c)
            elif rest > 0:
                hi = -1
            if lo > hi:
                break
        else:
            count += hi - lo + 1
    return count


def _integer_point(p):
    """The point as a tuple of ints; a non-integral coordinate raises
    instead of being truncated."""
    if any(x != int(x) for x in p):
        raise ValueError(f"bad support point {tuple(p)}")
    return tuple(int(x) for x in p)


def _check_oracle_support(pts, n):
    for p in pts:
        if len(p) != n or any(x < 0 for x in p):
            raise ValueError(f"bad support point {p}")
    if (0,) * n in pts:
        raise ValueError("origin in support")
    for i in range(n):
        if not any(
            p[i] > 0 and all(x == 0 for j, x in enumerate(p) if j != i)
            for p in pts
        ):
            raise ValueError(f"support not convenient on axis {i}")


def _oracle_support(points, n):
    """The support as sorted distinct integer points, and n, checked."""
    pts = sorted({_integer_point(p) for p in points})
    if not pts:
        raise ValueError("empty support")
    if n is None:
        n = len(pts[0])
    _check_oracle_support(pts, n)
    return pts, n


def _coordinate_sections(pts, n):
    """Per nonempty coordinate subset I, the pair (|I|, the points of pts
    in R^I written in the coordinates of I)."""
    for size in range(1, n + 1):
        for axes in combinations(range(n), size):
            rest = [j for j in range(n) if j not in axes]
            yield size, [
                tuple(p[j] for j in axes)
                for p in pts
                if all(p[j] == 0 for j in rest)
            ]


def kouchnirenko_mu(points, n=None) -> int:
    """Milnor number of a convenient nondegenerate singularity: the
    total of the Varchenko multiplicities, which is the alternating sum
    over coordinate subsets of normalized under-volumes."""
    return sum(varchenko_multiplicities(points, n).values())


def kouchnirenko_cost(points, n) -> int:
    """Rough operation count of kouchnirenko_mu, used to decide whether
    the oracle is affordable inside validate: per coordinate subset, the
    fibres the lattice counts walk over all dilates, times a bound on
    the number of inequalities each fibre is cut by."""
    pts = sorted({tuple(p) for p in points})
    total = 0
    for size, sub in _coordinate_sections(pts, n):
        if not sub:
            continue
        maxc = [max(p[j] for p in sub) for j in range(size)]
        fibres = 0
        for t in range(1, size + 1):
            piece = 1
            for m in maxc[:-1]:
                piece *= t * m + 1
            fibres += piece
        total += fibres * max(1, comb(len(sub) + 1, size))
    return total


def varchenko_multiplicities(points, n=None) -> dict[Fraction, int]:
    """Eigenvalue multiplicities of the monodromy on reduced H^{n-1}, from
    Varchenko's zeta function (Invent. Math. 1976).

    Per coordinate subset I and lower facet gamma of the support's
    restriction to R^I, the zeta function has a factor (1 - t^m)^e, with
    m the lattice distance of gamma from 0 (the facet normal is
    primitive) and e = (-1)^(|I|-1) NVol(conv(0 u gamma)) / m.  The
    multiplicity of the eigenvalue exp(2*pi*i*a/b) is (-1)^(n-1) times
    the sum of e over the factors with b | m, minus 1 for a/b = 0.
    Keys are eigenvalue buckets in [0, 1), zero multiplicities dropped.
    """
    pts, n = _oracle_support(points, n)
    by_distance: dict[int, int] = {}
    for size, sub in _coordinate_sections(pts, n):
        for _u, m, tight in _lower_facets(sub, size):
            e, rest = divmod(_pyramid_normalized_volume(tight, size), m)
            if rest:
                raise InternalConsistencyError(
                    f"pyramid volume over {tight} is not a multiple of {m}"
                )
            by_distance[m] = by_distance.get(m, 0) + (-1) ** (size - 1) * e
    ex: dict[Fraction, int] = {_ZERO: -1}
    for m, e in by_distance.items():
        for j in range(m):
            a = Fraction(j, m)
            ex[a] = ex.get(a, 0) + e
    sgn = (-1) ** (n - 1)
    return {a: sgn * v for a, v in sorted(ex.items()) if v}


# ---------------------------------------------------------------------------
# Brieskorn-Pham oracle


def brieskorn_pham_spectrum(exponents) -> dict[Fraction, int]:
    """Eigenvalue-bucket multiset of x1^a1 + ... + xn^an: the classical
    product of cyclic spectra, the multiset of k1/a1 + ... + kn/an mod 1
    over 1 <= ki < ai.  All Jordan blocks have size 1.

    The sums are kept as integer residues mod L = lcm(a_i) and the
    variables are folded in one at a time, so no exponent tuple is
    walked: each fold touches every residue reached so far a_i - 1
    times."""
    exps = [int(a) for a in exponents]
    if any(a < 2 for a in exps):
        raise ValueError("exponents must be >= 2")
    L = lcm(*exps)
    counts = {0: 1}
    for a in exps:
        step = L // a
        nxt: dict[int, int] = {}
        for r, c in counts.items():
            for k in range(1, a):
                s = (r + k * step) % L
                nxt[s] = nxt.get(s, 0) + c
        counts = nxt
    return {Fraction(r, L): c for r, c in sorted(counts.items())}


def brieskorn_pham_exponents(np_: NewtonPolyhedron):
    """The exponent list when the support is exactly {a_i * e_i}, else None."""
    pts = np_.support.points
    n = np_.n
    if len(pts) != n:
        return None
    exps = [0] * n
    for p in pts:
        nz = [j for j, x in enumerate(p) if x]
        if len(nz) != 1:
            return None
        exps[nz[0]] = p[nz[0]]
    if any(e == 0 for e in exps):
        return None
    return exps


# ---------------------------------------------------------------------------
# Validation battery


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            line = f"{c.name}: {c.status}"
            if c.detail:
                line += f" ({c.detail})"
            lines.append(line)
        return "\n".join(lines)


def _trivial_part(table):
    out = {}
    for (p, q, a), v in table.items():
        if a == _ZERO:
            out[(p, q, a)] = out.get((p, q, a), 0) + v
    return out


def validate(np_: NewtonPolyhedron, heavy_limit: int = 50_000_000) -> ValidationReport:
    """Run every cross-check the engine supports on one polyhedron."""
    report = ValidationReport()
    n = np_.n
    trivial = Character.trivial(n)

    def add(name, status, detail=""):
        report.checks.append(CheckResult(name, status, detail))

    def run(name, fn):
        try:
            detail = fn()
        except (InternalConsistencyError, InputError, ValueError) as exc:
            add(name, "fail", str(exc))
            return False
        if detail == "skip":
            add(name, "skip")
        elif isinstance(detail, tuple) and detail and detail[0] == "skip":
            add(name, "skip", detail[1])
        else:
            add(name, "pass", detail or "")
        return True

    # 1. structural face data
    def chk_faces():
        for f in np_.faces:
            if f.twist < 0:
                raise InternalConsistencyError(f"negative twist on face {f.points}")
            if f.delta.dim != f.dim + 1:
                raise InternalConsistencyError(f"cone dim wrong on face {f.points}")
            if f.distance <= 0:
                raise InternalConsistencyError(f"distance not positive on {f.points}")
            axes = {i for i in range(n) if any(p[i] > 0 for p in f.points)}
            if axes != set(f.axes) or f.interior_touching != (len(axes) == n):
                raise InternalConsistencyError(f"axis data wrong on {f.points}")
            for p in f.points:
                if f.char.value(p) != 0:
                    raise InternalConsistencyError(
                        f"face character not trivial on {p}"
                    )
        return f"{len(np_.faces)} compact faces"

    run("face-data", chk_faces)

    # 2. every table builds (with its own internal assertions)
    def chk_tables():
        for f in np_.faces:
            hodge_table(f.delta, f.char)
            if f.dim >= 1:
                hodge_table(f.poly, trivial)
        return ""

    tables_ok = run("hodge-tables-build", chk_tables)
    if not tables_ok:
        return report

    # 3-5. visible recheck of the per-table identities
    def chk_boundary():
        for f in np_.faces:
            table = hodge_table(f.delta, f.char)
            bv, targets, _ = boundary_values(f.delta, f.char)
            for k, v in bv.items():
                if table.get(k, 0) != v:
                    raise InternalConsistencyError(
                        f"boundary entry {k} on face {f.points}"
                    )
            m = f.delta.dim
            alphas = {a for (_, _, a) in table} | {a for (_, a) in targets}
            for a in alphas:
                for p in range(m):
                    got = sum(table.get((p, q, a), 0) for q in range(m))
                    if got != targets.get((p, a), 0):
                        raise InternalConsistencyError(
                            f"row sum p={p} bucket {a} on face {f.points}"
                        )
        return ""

    run("boundary-and-row-sums", chk_boundary)

    def chk_conjugation():
        for f in np_.faces:
            for table in (
                hodge_table(f.delta, f.char),
                hodge_table(f.poly, trivial) if f.dim >= 1 else {},
            ):
                for (p, q, a), v in table.items():
                    if table.get((q, p, conj(a)), 0) != v:
                        raise InternalConsistencyError(
                            f"conjugation at {(p, q, a)} on face {f.points}"
                        )
        return ""

    run("conjugation-symmetry", chk_conjugation)

    def chk_shift():
        for f in np_.faces:
            if f.dim < 1:
                continue
            big = p_alpha(f.delta, f.char).get(_ZERO, (0,) * (f.dim + 3))
            small = p_alpha(f.poly, trivial).get(_ZERO, (0,) * (f.dim + 2))
            if big[0] != 0:
                raise InternalConsistencyError("phi_0 of a cone is nonzero")
            for j in range(f.dim + 2):
                if big[j + 1] != small[j]:
                    raise InternalConsistencyError(
                        f"shift identity fails at j={j} on face {f.points}"
                    )
        return ""

    run("ehrhart-shift-identity", chk_shift)

    def chk_pyramid():
        for f in np_.faces:
            lhs: dict = {}
            for (p, q, a), v in hodge_table(f.delta, f.char).items():
                if a == _ZERO:
                    lhs[(p, q)] = lhs.get((p, q), 0) + v
            if f.dim >= 1:
                for (p, q, a), v in hodge_table(f.poly, trivial).items():
                    if a == _ZERO:
                        lhs[(p, q)] = lhs.get((p, q), 0) + v
            rhs = {
                (p, p): (-1) ** (f.dim + p) * comb(f.dim, p)
                for p in range(f.dim + 1)
            }
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                raise InternalConsistencyError(
                    f"pyramid identity fails on face {f.points}: {lhs} != {rhs}"
                )
        return ""

    run("pyramid-identity", chk_pyramid)

    def chk_global():
        acc: dict = {}
        for f in np_.faces:
            part = _trivial_part(hodge_table(f.delta, f.char))
            if f.dim >= 1:
                for k, v in _trivial_part(hodge_table(f.poly, trivial)).items():
                    part[k] = part.get(k, 0) + v
            for k, v in lefschetz_twist(part, f.twist + 1).items():
                acc[k] = acc.get(k, 0) + v
        acc = {k: v for k, v in acc.items() if v}
        want = {(0, 0, _ZERO): 1, (n, n, _ZERO): -1}
        if acc != want:
            raise InternalConsistencyError(
                f"global unipotent identity fails: {acc}"
            )
        return ""

    run("global-unipotent-identity", chk_global)

    # 6. fan sanity on every cone polytope
    def chk_fans():
        for f in np_.faces:
            for poly in ([f.delta, f.poly] if f.dim >= 1 else [f.delta]):
                nf = fans.normal_fan(poly)
                if not fans.euler_count_ok(nf, poly.dim):
                    raise InternalConsistencyError(
                        f"normal fan fails Euler count on {poly.points}"
                    )
                ref = fans.simplicial_refinement(nf)
                if any(not fans.is_simplicial(c) for c in ref):
                    raise InternalConsistencyError("refinement not simplicial")
                if not fans.euler_count_ok(ref, poly.dim):
                    raise InternalConsistencyError(
                        "refined fan fails Euler count"
                    )
                if not fans.subset_closed(ref):
                    raise InternalConsistencyError("refined fan not subset-closed")
                rays = {next(iter(c)) for c in nf if len(c) == 1}
                refrays = {next(iter(c)) for c in ref if len(c) == 1}
                if not rays <= refrays:
                    raise InternalConsistencyError("refinement lost a ray")
        return ""

    run("fan-refinement", chk_fans)

    # 7. the Jordan data itself (two-route agreement is asserted inside)
    spectrum = None

    def chk_jordan():
        nonlocal spectrum
        spectrum = jordan_blocks(np_)
        if spectrum.mu <= 0:
            raise InternalConsistencyError(f"mu = {spectrum.mu} is not positive")
        return f"mu = {spectrum.mu}"

    if not run("jordan-blocks-consistent", chk_jordan):
        return report
    mt = motivic_milnor_table(np_)

    def chk_two_route():
        sgn = (-1) ** (n - 1)
        for k in range(1, n + 1):
            a_route = sgn * sum(
                v
                for (p, q, a), v in mt.total.items()
                if a == _ZERO and p + q in {n - 1 + k, n + k}
            )
            b_route = sgn * sum(
                v
                for (p, q, a), v in mt.first.items()
                if a == _ZERO and p + q in {n - 2 - k, n - 1 - k}
            )
            if a_route != b_route:
                raise InternalConsistencyError(
                    f"unipotent routes disagree at k={k}: {a_route} vs {b_route}"
                )
        return ""

    run("two-route-unipotent", chk_two_route)

    def chk_normalization():
        one = mt.total.get((0, 0, _ZERO), 0)
        if one != 1:
            raise InternalConsistencyError(
                f"constant class has coefficient {one}, expected 1"
            )
        return ""

    run("unit-class-normalization", chk_normalization)

    def chk_ss():
        sgn = (-1) ** (n - 1)
        hp: dict = {}
        for (p, q, a), v in mt.first.items():
            if a != _ZERO:
                hp[(p, q, a)] = sgn * v
        for (p, q, a), v in hp.items():
            if v < 0:
                raise InternalConsistencyError(f"negative Hodge number at {(p, q, a)}")
            if not (0 <= p <= n - 1 and 0 <= q <= n - 1):
                raise InternalConsistencyError(f"Hodge number out of range at {(p, q, a)}")
            if hp.get((n - 1 - q, n - 1 - p, a), 0) != v:
                raise InternalConsistencyError(
                    f"Hodge symmetry fails at {(p, q, a)}"
                )
        tu: dict = {}
        for (p, q, a), v in mt.total.items():
            if a == _ZERO:
                tu[(p, q)] = sgn * v
        tu[(0, 0)] = tu.get((0, 0), 0) - sgn
        tu = {k: v for k, v in tu.items() if v}
        for (p, q), v in tu.items():
            if v < 0:
                raise InternalConsistencyError(f"negative unipotent number at {(p, q)}")
            if (p, q) != (0, 0) and not (1 <= p <= n - 1 and 1 <= q <= n - 1):
                raise InternalConsistencyError(
                    f"unipotent number out of range at {(p, q)}"
                )
            if tu.get((n - q, n - p), 0) != v:
                raise InternalConsistencyError(f"unipotent symmetry fails at {(p, q)}")
        return ""

    run("steenbrink-saito-symmetry", chk_ss)

    def chk_blocks_sane():
        for (ev, size), cnt in spectrum.blocks.items():
            if cnt <= 0:
                raise InternalConsistencyError("non-positive block count")
            bound = n - 1 if ev == _ZERO else n
            if not 1 <= size <= bound:
                raise InternalConsistencyError(
                    f"block size {size} out of range for eigenvalue {ev}"
                )
        for ev, mult in spectrum.multiplicities.items():
            s = sum(
                size * cnt for (e, size), cnt in spectrum.blocks.items() if e == ev
            )
            if s != mult:
                raise InternalConsistencyError(f"block sizes vs multiplicity at {ev}")
        if spectrum.mu != sum(spectrum.multiplicities.values()):
            raise InternalConsistencyError("mu is not the sum of multiplicities")
        return ""

    run("block-counts-sane", chk_blocks_sane)

    # 8. row-sum semantics on pseudo-prime cones
    def chk_pseudo_prime():
        hits = 0
        for f in np_.faces:
            if f.delta.primeness == "neither":
                continue
            table = hodge_table(f.delta, f.char)
            diag: dict = {}
            for (p, q, a), v in table.items():
                if a != _ZERO:
                    diag[(a, p + q)] = diag.get((a, p + q), 0) + v
            buckets = {a for a, _ in diag} | set(_row_sums(f.delta, f.char))
            for a in sorted(buckets):
                pred = pseudo_prime_row_sums(f.delta, f.char, a)
                for r in range(f.delta.dim):
                    if diag.get((a, r), 0) != pred[r]:
                        raise InternalConsistencyError(
                            f"anti-diagonal formula fails on {f.points}, "
                            f"bucket {a}, p+q={r}"
                        )
                hits += 1
        if hits == 0:
            return "skip"
        return f"{hits} cone/bucket pairs"

    run("pseudo-prime-row-sums", chk_pseudo_prime)

    # 9. closed formula on fully prime polyhedra
    def chk_prime_formula():
        if any(f.poly.primeness != "prime" for f in np_.faces):
            return "skip", "some compact face is not prime"
        evs = [a for a in spectrum.multiplicities if a != _ZERO]
        for ev in evs:
            for k in range(1, n + 2):
                want = sum(
                    cnt
                    for (e, size), cnt in spectrum.blocks.items()
                    if e == ev and size >= k
                )
                got = prime_face_blocks(np_, ev, k)
                if got != want:
                    raise InternalConsistencyError(
                        f"closed formula at eigenvalue {ev}, size >= {k}: "
                        f"{got} != {want}"
                    )
        return f"{len(evs)} eigenvalues checked"

    run("prime-face-closed-formula", chk_prime_formula)

    # 10. fastpaths against the full answer
    def chk_fast_top():
        cands = set()
        for f in np_.faces:
            if f.interior_touching and f.dim <= 1:
                for b in range(2, f.distance + 1):
                    if f.distance % b == 0:
                        for a in range(1, b):
                            if gcd(a, b) == 1:
                                cands.add(Fraction(a, b))
        cands |= {a for a in spectrum.multiplicities if a != _ZERO}
        for ev in sorted(cands, key=lambda a: (a.denominator, a.numerator)):
            got = fastpath_top(np_, ev)
            want = (
                spectrum.blocks.get((ev, n), 0),
                spectrum.blocks.get((ev, n - 1), 0) if n >= 2 else 0,
            )
            if got != want:
                raise InternalConsistencyError(
                    f"fastpath_top({ev}) = {got}, engine says {want}"
                )
        return f"{len(cands)} eigenvalues checked"

    run("fastpath-top", chk_fast_top)

    def chk_fast_uni():
        if n < 2:
            return "skip"
        got = fastpath_unipotent(np_)
        want = (
            spectrum.blocks.get((_ZERO, n - 1), 0),
            spectrum.blocks.get((_ZERO, n - 2), 0) if n >= 3 else 0,
        )
        if got != want:
            raise InternalConsistencyError(
                f"fastpath_unipotent = {got}, engine says {want}"
            )
        return ""

    run("fastpath-unipotent", chk_fast_uni)

    def chk_quasi_homogeneous():
        if not np_.is_quasi_homogeneous:
            return "skip"
        bad = [key for key in spectrum.blocks if key[1] != 1]
        if bad:
            raise InternalConsistencyError(
                f"quasi-homogeneous but blocks of size > 1 exist: {bad}"
            )
        return ""

    run("quasi-homogeneous-semisimple", chk_quasi_homogeneous)

    # 11. oracles
    def chk_mu():
        cost = kouchnirenko_cost(np_.support.points, n)
        if cost > heavy_limit:
            return "skip", f"estimated cost {cost} over limit"
        mults = varchenko_multiplicities(np_.support.points, n)
        mu = sum(mults.values())
        if mu != spectrum.mu:
            raise InternalConsistencyError(
                f"engine mu {spectrum.mu} != lattice-volume mu {mu}"
            )
        if spectrum.multiplicities != mults:
            raise InternalConsistencyError(
                f"engine multiplicities {spectrum.multiplicities} != "
                f"Varchenko multiplicities {mults}"
            )
        return f"mu = {mu}"

    run("kouchnirenko-mu", chk_mu)

    def chk_bp():
        exps = brieskorn_pham_exponents(np_)
        if exps is None:
            return "skip"
        want = brieskorn_pham_spectrum(exps)
        if spectrum.multiplicities != want:
            raise InternalConsistencyError(
                f"spectrum {spectrum.multiplicities} != product formula {want}"
            )
        if any(size != 1 for (_, size) in spectrum.blocks):
            raise InternalConsistencyError("Brieskorn-Pham blocks must be size 1")
        return f"exponents {exps}"

    run("brieskorn-pham-spectrum", chk_bp)

    return report
