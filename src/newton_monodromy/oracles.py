"""Independent oracles and a cross-checking validator.

varchenko_multiplicities computes the eigenvalue multiplicities of the
monodromy of a convenient nondegenerate singularity from Varchenko's
zeta function.  It deliberately shares no geometry code with the
engine, so agreement with the engine is meaningful evidence rather than
the same bug twice.  A first step checks the support and lists each
coordinate section's undominated points (a point above another
coordinatewise is neither tight nor in the way on a facet with positive
normal); a second finds the lower facets by one brute-force
supporting-hyperplane search over the k-subsets of each list, normals
from a fraction-free integer elimination of its own.  The number of
those subsets is the search's price: validate reads it between the
steps and runs the second only within heavy_limit.  A facet gamma of
more than k points is cut down to its vertices, the points that the
facets through them, lower or coordinate, hold alone.  The pyramid
conv(0 u gamma) over a facet of k vertices is a simplex, and its
normalized volume is |det| of them, from a fraction-free (Bareiss)
determinant, also of its own.  A pyramid over a facet of more vertices
V is triangulated by lifting 0 and V to heights M^0, M^1, ...: the same
search in dimension k + 1 finds the lower facets of the lift, each a
simplex, and their determinants add up to the volume.  That search
costs C(|V| + 1, k + 1) eliminations per such facet and is not priced.
kouchnirenko_mu, the Milnor number, is the multiplicities' total: the
classical alternating sum of normalized under-volumes.  validate's
kouchnirenko-mu check compares both the Milnor number and every
multiplicity with the engine.

brieskorn_pham_spectrum computes the classical eigenvalue multiset of
x1^a1 + ... + xn^an directly from the exponents, as residues mod the
lcm of the exponents.

validate runs the full battery of internal identities, symmetries, and
oracle comparisons on one Newton polyhedron and reports per-check
pass/fail/skip results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, lcm

from .ehrhart import Character, p_alpha, restricted
from .errors import InputError, InternalConsistencyError
from .hodge import (
    _boundary_mismatch,
    _chains,
    _merge,
    _row_sums,
    boundary_values,
    hodge_table,
)
from .monodromy import (
    _degree_sums,
    _fastpath_top_reader,
    _prime_face_counts,
    _read_blocks,
    fastpath_unipotent,
    motivic_milnor_table,
)
from .newton import NewtonPolyhedron

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Milnor number oracle


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _nullspace_generator(rows, k):
    """Primitive integer generator of the nullspace of rows in Z^k,
    or None unless the nullspace is exactly one-dimensional.

    Fraction-free Gauss-Jordan elimination: a row is cleared at a pivot
    column by cross-multiplying with the pivot row, then divided by the
    gcd of its entries, so every entry stays an integer."""
    mat = [list(r) for r in rows]
    pivot_cols = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        pv = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                row = [pv * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivot_cols.append(c)
        r += 1
    if r != k - 1:
        return None
    (free,) = [c for c in range(k) if c not in pivot_cols]
    # row ri reads mat[ri][c] * x_c + mat[ri][free] * x_free = 0
    scale = lcm(*(abs(mat[ri][c]) for ri, c in enumerate(pivot_cols)))
    sol = [0] * k
    sol[free] = scale
    for ri, c in enumerate(pivot_cols):
        sol[c] = -mat[ri][free] * (scale // mat[ri][c])
    g = gcd(*sol)
    return tuple(x // g for x in sol)


def _supporting_hyperplanes(pts, k):
    """{u: b} over the primitive u for which u.p >= b on every point of
    pts, with equality on k points spanning a hyperplane: brute force
    over the k-subsets of pts, each one's normal from
    _nullspace_generator.  Each hyperplane is tested once: one pass over
    pts gives the least and the greatest value of the normal, and the
    normal is kept if the subset attains the least, its negative if the
    subset attains the greatest."""
    found = {}
    seen = set()
    for subset in combinations(pts, k):
        base = subset[0]
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in subset[1:]]
        nrm = _nullspace_generator(diffs, k)
        if nrm is None:
            continue
        b = _dot(nrm, base)
        if (nrm, b) in seen:
            continue
        neg = tuple(-x for x in nrm)
        seen.add((nrm, b))
        seen.add((neg, -b))
        values = [_dot(nrm, p) for p in pts]
        if min(values) == b:
            found[nrm] = b
        if max(values) == b:
            found[neg] = -b
    return found


def _undominated(pts):
    """The points of pts above no other point of pts coordinatewise.

    Dropping the others changes no lower facet.  For u > 0, u.q >= b and
    p >= q, u.p >= u.q >= b, so a dropped point never breaks support;
    and u.p > u.q >= b, so it is never tight either."""
    return [
        p
        for p in pts
        if not any(q != p and all(x >= y for x, y in zip(p, q)) for q in pts)
    ]


def _lower_facets(low, k):
    """Facets of the under-boundary of the points low, undominated
    (_undominated): maximal tight sets of supporting hyperplanes with
    strictly positive normal, searched over the k-subsets of low."""
    return [
        (u, b, tuple(sorted(p for p in low if _dot(u, p) == b)))
        for u, b in sorted(_supporting_hyperplanes(low, k).items())
        if all(x > 0 for x in u)
    ]


def _facet_vertices(low, k):
    """(b, the facet's vertices) per lower facet u.x = b of the points
    low, undominated (_undominated), in _lower_facets' order.

    The facets of the Newton polyhedron of low are its lower facets and
    the coordinate hyperplanes, and a point of it is a vertex exactly
    when the facets through it meet in that point alone.  Any other point
    lies on a face with at least one other vertex, and every vertex of a
    compact face is undominated, so it suffices to compare the facets'
    points of low.  A facet of exactly k points is a simplex, all of them
    vertices."""
    lower = _lower_facets(low, k)
    faces = [set(tight) for _u, _b, tight in lower]
    faces += [{p for p in low if not p[i]} for i in range(k)]
    for _u, b, tight in lower:
        if len(tight) > k:
            tight = tuple(
                p
                for p in tight
                if set.intersection(*(f for f in faces if p in f)) == {p}
            )
        yield b, tight


def _det(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: each step cross-multiplies with the pivot row and
    divides by the previous pivot, a division that is always exact, so
    every entry stays an integer and the last pivot is the determinant,
    up to the sign of the row swaps."""
    mat = [list(r) for r in rows]
    k = len(mat)
    sign, prev = 1, 1
    for c in range(k):
        pr = next((i for i in range(c, k) if mat[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            sign = -sign
        prow = mat[c]
        pv = prow[c]
        for i in range(c + 1, k):
            f = mat[i][c]
            mat[i] = [(pv * x - f * y) // prev for x, y in zip(mat[i], prow)]
        prev = pv
    return sign * prev


def _simplex_volume(cell):
    """k! times the volume of the k-simplex with the k + 1 vertices cell
    in R^k: |det| of the edges from its first vertex."""
    base, *rest = cell
    return abs(_det([[x - y for x, y in zip(p, base)] for p in rest]))


def _pyramid_normalized_volume(verts, k):
    """k! times the volume of P = conv({0} union verts), verts distinct
    nonzero points of N^k that span R^k; the oracle passes the vertices
    of a lower facet.  Integer arithmetic only.

    With exactly k points P is a simplex, and its normalized volume is
    |det| of them.  More points are triangulated by lifting: 0 and the
    points go to heights M^0, M^1, ... in R^(k+1), with M = (k+1)! C^k
    + 1 and C the largest coordinate, and the lower facets of the lift
    (last normal coordinate > 0), from _supporting_hyperplanes, project
    to the simplices of a regular (placing) triangulation of P.  Each
    lower facet holds exactly k + 1 lifted points: k + 2 points spanning
    R^k have one affine dependence, its coefficients are (k+1)-minors of
    points in [0, C]^k, so each is less than M in absolute value, and no
    such combination of distinct powers of M vanishes.  A cell of any
    other size raises InternalConsistencyError."""
    if len(verts) == k:
        return abs(_det(verts))
    pts = [(0,) * k, *verts]
    big = factorial(k + 1) * max(map(max, verts)) ** k + 1
    lifted = [(*p, big**i) for i, p in enumerate(pts)]
    total = 0
    for u, b in _supporting_hyperplanes(lifted, k + 1).items():
        if u[-1] > 0:
            cell = [p[:k] for p in lifted if _dot(u, p) == b]
            if len(cell) != k + 1:
                raise InternalConsistencyError(
                    f"lifted cell {cell} over {verts} is no simplex"
                )
            total += _simplex_volume(cell)
    return total


def _integral(x) -> bool:
    """Whether x has an integer value; an infinite or NaN float has none."""
    try:
        return x == int(x)
    except (OverflowError, ValueError):
        return False


def _oracle_support(points, n):
    """The support as sorted distinct integer points, and n, checked: a
    non-integral or infinite coordinate raises ValueError instead of
    being truncated."""
    pts = set()
    for p in points:
        if not all(_integral(x) for x in p):
            raise ValueError(f"bad support point {tuple(p)}")
        pts.add(tuple(int(x) for x in p))
    pts = sorted(pts)
    if not pts:
        raise ValueError("empty support")
    if n is None:
        n = len(pts[0])
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


def _search_sections(points, n):
    """(n, [(|I|, the section's undominated points)] per coordinate
    subset I), the support checked and n inferred when None.  The search
    over them eliminates sum C(len(points), |I|) subsets, its price."""
    pts, n = _oracle_support(points, n)
    sections = _coordinate_sections(pts, n)
    return n, [(size, _undominated(sub)) for size, sub in sections]


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
    return _section_multiplicities(*_search_sections(points, n))


def _section_multiplicities(n, sections) -> dict[Fraction, int]:
    """varchenko_multiplicities on the lists of _search_sections."""
    by_distance: dict[int, int] = {}
    for size, low in sections:
        for m, verts in _facet_vertices(low, size):
            e, rest = divmod(_pyramid_normalized_volume(verts, size), m)
            if rest:
                raise InternalConsistencyError(
                    f"pyramid volume over {verts} is not a multiple of {m}"
                )
            by_distance[m] = by_distance.get(m, 0) + (-1) ** (size - 1) * e
    # the bucket j/m is the residue j * (L / m) mod L, L the lcm of the m
    L = lcm(*by_distance)
    ex = {0: -1}
    for m, e in by_distance.items():
        step = L // m
        for j in range(m):
            ex[j * step] = ex.get(j * step, 0) + e
    sgn = (-1) ** (n - 1)
    return {Fraction(r, L): sgn * v for r, v in sorted(ex.items()) if v}


# ---------------------------------------------------------------------------
# Brieskorn-Pham oracle


def brieskorn_pham_spectrum(exponents) -> dict[Fraction, int]:
    """Eigenvalue-bucket multiset of x1^a1 + ... + xn^an: the classical
    product of cyclic spectra, the multiset of k1/a1 + ... + kn/an mod 1
    over 1 <= ki < ai.  All Jordan blocks have size 1.

    The sums are kept as integer residues mod L = lcm(a_i) and the
    variables are folded in one at a time, so no exponent tuple is
    walked: each fold touches every residue reached so far a_i - 1
    times.  No exponents, or a non-integral or infinite one, raises
    ValueError."""
    exps = list(exponents)
    if not exps or not all(_integral(a) for a in exps):
        raise ValueError(f"exponents {exps} are not a nonempty list of integers")
    exps = [int(a) for a in exps]
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


def _chains_form_a_sphere(lattice, m: int, chains) -> bool:
    """Whether the proper faces of an m-polytope's lattice {face: dim},
    with the chain counts {F: {k: count}} of hodge._chains, have the
    Euler counts of the sphere S^(m-1).

    The chains F_0 > ... > F_k of proper faces, as hodge._chains counts
    them for the strata sum, are the cones of dimension k + 1 of the
    barycentric subdivision of the normal fan; summed with sign (-1)^k
    they give 1 + (-1)^(m-1), as any complete fan in R^m does, and the
    alternating count of the proper faces is 1 - (-1)^m (Euler-Poincare).
    """
    signed = sum((-1) ** k * c for ends in chains.values() for k, c in ends.items())
    faces = sum((-1) ** lattice[f] for f in chains)
    return signed == 1 + (-1) ** (m - 1) and faces == 1 - (-1) ** m


def _check_orbits(np_: NewtonPolyhedron) -> None:
    """The premises of the answer's one table per orbit of compact faces.

    Each recorded swap maps the support onto itself and each face onto
    a face of the same orbit with equal dim, twist and distance.  The
    sizes count the faces, each representative is its orbit's least
    index, and every other face is linked, by the first swap that maps
    it to a face of lower index in its orbit, to that face, whose
    character restricts on its cone as the swapped character of the
    face does.  So the links connect each orbit, and each link is a
    lattice isomorphism between two cones that carries character to
    character, under which the tables agree."""
    faces = np_.faces
    rep = np_.representative
    if len(rep) != len(faces) or np_.orbits != tuple(sorted(Counter(rep).items())):
        raise InternalConsistencyError("orbit sizes do not count the faces")
    if any(not 0 <= r <= k or rep[r] != r for k, r in enumerate(rep)):
        raise InternalConsistencyError("an orbit's representative is not its least face")
    points = np_.support.points
    where = {p: k for k, p in enumerate(points)}
    by_tight = {frozenset(map(where.__getitem__, f.points)): f for f in faces}
    linked = {r for r, _ in np_.orbits}
    for i, j in np_.swaps:

        def swap(p):
            q = list(p)
            q[i], q[j] = p[j], p[i]
            return tuple(q)

        # a swap is injective, so a support it maps into itself it maps onto
        perm = [where.get(swap(p)) for p in points]
        if None in perm:
            raise InternalConsistencyError(f"swap {(i, j)} moves the support")
        for tight, f in by_tight.items():
            g = by_tight.get(frozenset(map(perm.__getitem__, tight)))
            if g is None or rep[g.index] != rep[f.index]:
                raise InternalConsistencyError(
                    f"swap {(i, j)} maps face {f.points} off its orbit"
                )
            if g.index >= f.index:
                continue
            if (g.dim, g.twist, g.distance) != (f.dim, f.twist, f.distance):
                raise InternalConsistencyError(
                    f"swap {(i, j)} changes the data of face {f.points}"
                )
            if f.index in linked:
                continue
            linked.add(f.index)
            moved = Character(f.char.modulus, swap(f.char.coeffs))
            if restricted(g.delta, g.char) != restricted(g.delta, moved):
                raise InternalConsistencyError(
                    f"swap {(i, j)} does not carry the character of {f.points}"
                )
    if len(linked) != len(faces):
        raise InternalConsistencyError("an orbit is not connected by swaps")


def validate(np_: NewtonPolyhedron, heavy_limit: int = 100_000) -> ValidationReport:
    """Run every cross-check the engine supports on one polyhedron;
    kouchnirenko-mu is skipped when its search price exceeds heavy_limit,
    an int >= 0 (a bool is refused), checked before any check runs."""
    if type(heavy_limit) is not int or heavy_limit < 0:
        raise InputError(f"heavy_limit {heavy_limit!r} is not an int >= 0")
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
        if isinstance(detail, tuple):  # ("skip", detail)
            add(name, *detail)
        else:
            add(name, "pass", detail)
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
            if restricted(f.delta, f.char)[0] != f.distance:
                raise InternalConsistencyError(
                    f"cone character modulus is not the distance on {f.points}"
                )
            axes = {i for i in range(n) if any(p[i] > 0 for p in f.points)}
            if axes != set(f.axes) or f.interior_touching != (len(axes) == n):
                raise InternalConsistencyError(f"axis data wrong on {f.points}")
            for p in f.points:
                if not f.char.is_trivial_at(p):
                    raise InternalConsistencyError(
                        f"face character not trivial on {p}"
                    )
        _check_orbits(np_)
        return f"{len(np_.faces)} compact faces"

    run("face-data", chk_faces)

    # 2-5. each distinct table once, with a compact face reaching it for
    # failure messages: cones by (shape, restriction), faces of dim >= 1
    # by shape; residues r are mod the table's own d', as in the engine.
    # Like the answer, these checks read one representative per orbit of
    # compact faces (face-data checks the orbits), weighted by its size.
    reps = np_.representatives()
    cones, polys = {}, {}
    for f, _ in reps:
        cones.setdefault((f.delta.shape, restricted(f.delta, f.char)), f)
        if f.dim >= 1:
            polys.setdefault(f.poly.shape, f)
    tables = [(f.delta, f.char, f) for f in cones.values()]
    tables += [(f.poly, trivial, f) for f in polys.values()]

    def chk_tables():
        for poly, char, _ in tables:
            hodge_table(poly, char)
        return ""

    if not run("hodge-tables-build", chk_tables):
        return report

    def chk_boundary():
        for f in cones.values():
            table = hodge_table(f.delta, f.char)
            bv, targets, alphas = boundary_values(f.delta, f.char)
            k = _boundary_mismatch(table, bv, alphas, f.delta.dim)
            if k is not None:
                raise InternalConsistencyError(
                    f"boundary entry {k} on face {f.points}"
                )
            sums: dict = {}
            for (p, _, a), v in table.items():
                sums[(p, a)] = sums.get((p, a), 0) + v
            bad = [
                key
                for key in sums.keys() | targets.keys()
                if sums.get(key, 0) != targets.get(key, 0)
            ]
            if bad:
                p, a = min(bad, key=lambda key: (key[1], key[0]))
                raise InternalConsistencyError(
                    f"row sum p={p} bucket residue {a} on face {f.points}"
                )
        return ""

    run("boundary-and-row-sums", chk_boundary)

    def chk_conjugation():
        for poly, char, f in tables:
            d, table = restricted(poly, char)[0], hodge_table(poly, char)
            for (p, q, a), v in table.items():
                if table.get((q, p, -a % d), 0) != v:
                    raise InternalConsistencyError(
                        f"conjugation at {(p, q, a)} on face {f.points}"
                    )
        return ""

    run("conjugation-symmetry", chk_conjugation)

    def chk_shift():
        for f, _ in reps:
            if f.dim < 1:
                continue
            big = p_alpha(f.delta, f.char).get(0, (0,) * (f.dim + 3))
            small = p_alpha(f.poly, trivial).get(0, (0,) * (f.dim + 2))
            if big[0] != 0:
                raise InternalConsistencyError("phi_0 of a cone is nonzero")
            for j in range(f.dim + 2):
                if big[j + 1] != small[j]:
                    raise InternalConsistencyError(
                        f"shift identity fails at j={j} on face {f.points}"
                    )
        return ""

    run("ehrhart-shift-identity", chk_shift)

    def unipotent_part(f):
        """The eigenvalue-1 entries of f's cone table plus, for dim >= 1,
        f's own table (its one bucket is 0), zeros dropped."""
        part = {k: v for k, v in hodge_table(f.delta, f.char).items() if k[2] == 0}
        if f.dim >= 1:
            _merge(part, hodge_table(f.poly, trivial))
        return {k: v for k, v in part.items() if v}

    def chk_pyramid():
        for f, _ in reps:
            lhs = unipotent_part(f)
            rhs = {
                (p, p, 0): (-1) ** (f.dim + p) * comb(f.dim, p)
                for p in range(f.dim + 1)
            }
            if lhs != rhs:
                raise InternalConsistencyError(
                    f"pyramid identity fails on face {f.points}: {lhs} != {rhs}"
                )
        return ""

    run("pyramid-identity", chk_pyramid)

    def chk_global():
        acc: dict = {}
        for f, size in reps:
            _merge(acc, unipotent_part(f), scale=size, twist=f.twist + 1)
        acc = {k: v for k, v in acc.items() if v}
        want = {(0, 0, 0): 1, (n, n, 0): -1}
        if acc != want:
            raise InternalConsistencyError(
                f"global unipotent identity fails: {acc}"
            )
        return ""

    run("global-unipotent-identity", chk_global)

    # 6. the chains of faces, the simplicial refinement of the normal fan
    # that every table is stratified by, once per shape
    def chk_fans():
        for poly in {poly.shape: poly for poly, _, _ in tables}.values():
            lattice, chains = poly.face_lattice, _chains(poly.shape)
            if not _chains_form_a_sphere(lattice, poly.dim, chains):
                raise InternalConsistencyError(
                    f"chains of faces are no sphere on {poly.points}"
                )
        return ""

    run("fan-refinement", chk_fans)

    # 7. the Jordan data itself (two-route agreement is asserted inside),
    # read off the one assembled motivic table the later checks use
    mt = spectrum = None

    def chk_jordan():
        nonlocal mt, spectrum
        mt = motivic_milnor_table(np_)
        spectrum = _read_blocks(mt)
        if spectrum.mu <= 0:
            raise InternalConsistencyError(f"mu = {spectrum.mu} is not positive")
        return f"mu = {spectrum.mu}"

    if not run("jordan-blocks-consistent", chk_jordan):
        return report

    def chk_two_route():
        sgn = (-1) ** (n - 1)
        for k in range(1, n + 1):
            a_route = sgn * sum(
                v
                for (p, q, a), v in mt.total.items()
                if a == 0 and p + q in {n - 1 + k, n + k}
            )
            b_route = sgn * sum(
                v
                for (p, q, a), v in mt.first.items()
                if a == 0 and p + q in {n - 2 - k, n - 1 - k}
            )
            if a_route != b_route:
                raise InternalConsistencyError(
                    f"unipotent routes disagree at k={k}: {a_route} vs {b_route}"
                )
        return ""

    run("two-route-unipotent", chk_two_route)

    def chk_normalization():
        one = mt.total.get((0, 0, 0), 0)
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
            if a:
                hp[(p, q, a)] = sgn * v
        for (p, q, a), v in hp.items():
            if v < 0:
                problem = "negative Hodge number"
            elif not (0 <= p <= n - 1 and 0 <= q <= n - 1):
                problem = "Hodge number out of range"
            elif hp.get((n - 1 - q, n - 1 - p, a), 0) != v:
                problem = "Hodge symmetry fails"
            else:
                continue
            raise InternalConsistencyError(
                f"{problem} at {(p, q, Fraction(a, mt.modulus))}"
            )
        tu: dict = {}
        for (p, q, a), v in mt.total.items():
            if a == 0:
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
        sized: dict = {}  # eigenvalue -> sum of size * count over its blocks
        for (ev, size), cnt in spectrum.blocks.items():
            if cnt <= 0:
                raise InternalConsistencyError("non-positive block count")
            bound = n - 1 if ev == _ZERO else n
            if not 1 <= size <= bound:
                raise InternalConsistencyError(
                    f"block size {size} out of range for eigenvalue {ev}"
                )
            sized[ev] = sized.get(ev, 0) + size * cnt
        for ev, mult in spectrum.multiplicities.items():
            if sized.get(ev, 0) != mult:
                raise InternalConsistencyError(f"block sizes vs multiplicity at {ev}")
        if spectrum.mu != sum(spectrum.multiplicities.values()):
            raise InternalConsistencyError("mu is not the sum of multiplicities")
        return ""

    run("block-counts-sane", chk_blocks_sane)

    # 8. row-sum semantics on pseudo-prime cones
    def chk_pseudo_prime():
        hits = 0
        for f, size in reps:
            if f.delta.shape.primeness == "neither":
                continue
            d = f.distance
            diag = _degree_sums(hodge_table(f.delta, f.char))
            rows = _row_sums(f.delta, f.char)
            zeros = (0,) * f.delta.dim
            for a in sorted({a for a, _ in diag if a} | set(rows)):
                pred = rows.get(a, zeros)
                for r in range(f.delta.dim):
                    if diag.get((a, r), 0) != pred[r]:
                        raise InternalConsistencyError(
                            f"anti-diagonal formula fails on {f.points}, "
                            f"bucket {a}/{d}, p+q={r}"
                        )
                hits += size
        if hits == 0:
            return "skip", ""
        return f"{hits} cone/bucket pairs"

    run("pseudo-prime-row-sums", chk_pseudo_prime)

    # 9. closed formula on fully prime polyhedra, at every eigenvalue of
    # the spectrum and at every one a face carries but the spectrum lacks,
    # where it must count no block
    def chk_prime_formula():
        if any(f.poly.shape.primeness != "prime" for f, _ in reps):
            return "skip", "some compact face is not prime"
        evs = [a for a in spectrum.multiplicities if a != _ZERO]
        sizes: dict = {ev: {} for ev in evs}  # ev -> {block size: count}
        for (e, size), cnt in spectrum.blocks.items():
            if e in sizes:
                sizes[e][size] = cnt
        formula = _prime_face_counts(np_)
        none = dict.fromkeys(range(1, n + 2), 0)
        # the spectrum's eigenvalues, then, ascending, those only faces carry
        pairs = [(ev, formula.pop(ev, none), sizes[ev]) for ev in evs]
        pairs += [(ev, counts, {}) for ev, counts in formula.items()]
        for ev, counts, blocks in pairs:
            want = sum(blocks.values())  # blocks of size >= k
            for k in range(1, n + 2):
                got = counts[k]
                if got != want:
                    raise InternalConsistencyError(
                        f"closed formula at eigenvalue {ev}, size >= {k}: "
                        f"{got} != {want}"
                    )
                want -= blocks.get(k, 0)
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
        top = _fastpath_top_reader(np_)
        for ev in sorted(cands, key=lambda a: (a.denominator, a.numerator)):
            got = top(ev)
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
            return "skip", ""
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
            return "skip", ""
        bad = [key for key in spectrum.blocks if key[1] != 1]
        if bad:
            raise InternalConsistencyError(
                f"quasi-homogeneous but blocks of size > 1 exist: {bad}"
            )
        return ""

    run("quasi-homogeneous-semisimple", chk_quasi_homogeneous)

    # 11. oracles
    def chk_mu():
        _, sections = _search_sections(np_.support.points, n)
        price = sum(comb(len(low), size) for size, low in sections)
        if price > heavy_limit:
            return "skip", f"search price {price} subsets over limit {heavy_limit}"
        mults = _section_multiplicities(n, sections)
        mu = sum(mults.values())
        if mu != spectrum.mu:
            raise InternalConsistencyError(
                f"engine mu {spectrum.mu} != Varchenko mu {mu}"
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
            return "skip", ""
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
