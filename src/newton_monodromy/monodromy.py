"""Jordan form of the Milnor monodromy from the Newton polyhedron.

The motivic table of the Milnor fiber at the origin is assembled from
the compact faces gamma: each contributes the hypersurface table of
conv({0} union gamma) graded by its height character, twisted by
(1 - L)^{twist}, and (when dim gamma >= 1) the ungraded table of gamma
itself twisted once more.  Weight filtration bookkeeping then turns
anti-diagonal sums of the eigenvalue-1 and eigenvalue-not-1 parts into
counts of Jordan blocks of each size.

Eigenvalues are labelled by their argument: the Fraction a/b in [0, 1)
stands for exp(2*pi*i*a/b); 0 labels eigenvalue 1.  The hypersurface
tables come keyed by integer residues, each face's cone table mod its
own modulus d' (hodge.hodge_table), the face's distance (newton);
motivic_milnor_table multiplies every face's residues up to the lcm of
the d' and hands out the MotivicTable keyed by residues mod that lcm.
Faces that a swap of coordinates fixing the support relates have equal
tables (newton), so it merges one representative's tables per orbit,
times the orbit's size, as the closed formula does.  The Jordan
read-off works on the residues too, and turns a residue r into the
Fraction r/lcm once per eigenvalue, for the keys of the JordanSpectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .ehrhart import Character, relint_counts, residue
from .errors import InputError, InternalConsistencyError
from .hodge import (
    _clean,
    _merge,
    _row_sums,
    hodge_table,
    read_eigenvalue,
)
from .newton import NewtonPolyhedron
from .polytope import cached


@dataclass(frozen=True)
class MotivicTable:
    """Hodge-degree/eigenvalue table of the Milnor fiber cohomology.

    first   the face-cone sum (the proper part carrying eigenvalues)
    second  the correction sum over positive-dimensional faces
    total   first + second
    All three are {(p, q, r): int} with zeros dropped, r the residue mod
    modulus of the eigenvalue bucket r/modulus.
    """

    n: int
    modulus: int
    first: dict
    second: dict
    total: dict


@dataclass(frozen=True)
class JordanSpectrum:
    """Jordan block data of the monodromy on top reduced cohomology.

    blocks          {(eigenvalue bucket, size): count}, counts positive
    multiplicities  {eigenvalue bucket: total multiplicity}
    mu              Milnor number, the sum of all multiplicities
    """

    n: int
    mu: int
    blocks: dict
    multiplicities: dict

    def sorted_eigenvalues(self):
        return sorted(self.multiplicities, key=lambda a: (a.denominator, a.numerator))

    def block_sizes(self, eigenvalue: Fraction) -> dict[int, int]:
        """{size: count} of the blocks at one eigenvalue, given as an
        int, a Fraction or a string 'a/b' (hodge.read_eigenvalue)."""
        eigenvalue = read_eigenvalue(eigenvalue)
        return {
            size: cnt
            for (ev, size), cnt in sorted(self.blocks.items())
            if ev == eigenvalue
        }

    def blocks_by_eigenvalue(self) -> dict[Fraction, dict[int, int]]:
        """{eigenvalue: {size: count}} for every eigenvalue with a block,
        sizes ascending: block_sizes of each eigenvalue, from one sort of
        the blocks."""
        out: dict = {}
        for (ev, size), cnt in sorted(self.blocks.items()):
            out.setdefault(ev, {})[size] = cnt
        return out


def motivic_milnor_table(np_: NewtonPolyhedron) -> MotivicTable:
    """The motivic table, one orbit representative's tables per orbit
    of compact faces, merged times the orbit's size."""
    first: dict = {}
    second: dict = {}
    trivial = Character.trivial(np_.n)
    reps = np_.representatives()
    modulus = lcm(*(face.distance for face, _ in reps))
    for face, size in reps:
        table = hodge_table(face.delta, face.char)
        step = modulus // face.distance
        _merge(first, table, scale=size, step=step, twist=face.twist)
        if face.dim >= 1:
            # the trivial character's one bucket is 0 under every modulus
            table = hodge_table(face.poly, trivial)
            _merge(second, table, scale=size, twist=face.twist + 1)
    total = dict(first)
    _merge(total, second)
    return MotivicTable(
        n=np_.n,
        modulus=modulus,
        first=_clean(first),
        second=_clean(second),
        total=_clean(total),
    )


def _degree_sums(table: dict) -> dict[tuple[int, int], int]:
    """{(bucket residue, p + q): sum of the entries} in one pass."""
    out: dict = {}
    for (p, q, a), v in table.items():
        out[a, p + q] = out.get((a, p + q), 0) + v
    return out


def jordan_blocks(np_: NewtonPolyhedron) -> JordanSpectrum:
    """Full Jordan normal form of the monodromy on H^{n-1} (reduced).

    Block counts for eigenvalue exp(2*pi*i*a/b) != 1 come from
    anti-diagonal sums of the face-cone part; for eigenvalue 1 two
    independent routes (the full table high above the middle, and the
    face-cone part low below it) are both computed and must agree.
    """
    return _read_blocks(motivic_milnor_table(np_))


def _read_blocks(mt: MotivicTable) -> JordanSpectrum:
    """The Jordan data of jordan_blocks, read off an assembled table.

    Works on the residue-keyed tables; each eigenvalue's Fraction label
    is built once, for the keys of the result.
    """
    n, d = mt.n, mt.modulus
    sgn = (-1) ** (n - 1)
    first, total = _degree_sums(mt.first), _degree_sums(mt.total)
    eigen_total: dict = {}
    for (r, _), v in total.items():
        eigen_total[r] = eigen_total.get(r, 0) + v
    residues = {r for r, _ in first} | set(eigen_total) | {0}

    def pair(sums, r, deg):
        """The signed sum of the entries of residue r in degrees deg and deg + 1."""
        return sgn * (sums.get((r, deg), 0) + sums.get((r, deg + 1), 0))

    def lowest_terms(r):
        g = gcd(r, d)
        return d // g, r // g

    blocks: dict = {}
    mults: dict = {}
    for r in sorted(residues, key=lowest_terms):
        ev = Fraction(r, d)
        at_least: dict[int, int] = {}
        if r == 0:
            top = n - 1
            for k in range(1, top + 2):
                via_total = pair(total, r, n - 1 + k)
                via_first = pair(first, r, n - 2 - k)
                if via_total != via_first:
                    raise InternalConsistencyError(
                        f"eigenvalue-1 block count disagrees at size >= {k}: "
                        f"{via_total} vs {via_first}"
                    )
                at_least[k] = via_total
            mult = sgn * (eigen_total.get(r, 0) - 1)
        else:
            top = n
            for k in range(1, top + 2):
                at_least[k] = pair(first, r, n - 2 + k)
            mult = sgn * eigen_total.get(r, 0)
        if at_least[top + 1] != 0:
            raise InternalConsistencyError(
                f"block of impossible size {top + 1} for eigenvalue {ev}"
            )
        check = 0
        for k in range(1, top + 1):
            c = at_least[k] - at_least.get(k + 1, 0)
            if c < 0:
                raise InternalConsistencyError(
                    f"negative count of size-{k} blocks for eigenvalue {ev}"
                )
            if c:
                blocks[(ev, k)] = c
                check += k * c
        if mult < 0 or check != mult:
            raise InternalConsistencyError(
                f"block sizes sum to {check} but multiplicity of {ev} is {mult}"
            )
        if mult:
            mults[ev] = mult
    return JordanSpectrum(
        n=n,
        mu=sum(mults.values()),
        blocks=blocks,
        multiplicities=mults,
    )


def fastpath_top(np_: NewtonPolyhedron, ev: Fraction) -> tuple[int, int]:
    """Counts of the largest Jordan blocks for an eigenvalue != 1.

    Returns (number of size-n blocks, number of size-(n-1) blocks) for
    eigenvalue exp(2*pi*i*ev), reading only interior vertices and
    interior-touching edges of the Newton polyhedron.  ev is an int, a
    Fraction or a string 'a/b' (hodge.read_eigenvalue).
    """
    ev = read_eigenvalue(ev)
    if not 0 < ev < 1:
        raise InputError("fastpath_top needs an eigenvalue bucket in (0, 1)")
    return _fastpath_top_reader(np_)(ev)


def _fastpath_top_reader(np_: NewtonPolyhedron):
    """fastpath_top for one polyhedron and any number of eigenvalues.

    Reads, in one walk, the distance of every interior-touching vertex
    and, for every interior-touching edge, its distance, the modulus d'
    of its cone's restricted character (newton), and its cone's
    relint_counts, and returns top(ev) -> (size-n count, size-(n-1)
    count) for an eigenvalue bucket ev in (0, 1) given as a Fraction.  A
    size-n block is an interior vertex whose distance ev's denominator
    divides; the size-(n-1) blocks are the interior points of such edges
    in the buckets ev and -ev of the edge's cone.
    """
    vertices = [f.distance for f in np_.faces_of_dim(0) if f.interior_touching]
    edges = [
        (f.distance, relint_counts(f.delta, f.char, 1))
        for f in np_.faces_of_dim(1)
        if f.interior_touching
    ]

    def top(ev: Fraction) -> tuple[int, int]:
        b = ev.denominator
        size_n = sum(1 for dist in vertices if dist % b == 0)
        size_n1 = 0
        for d, counts in edges:
            if d % b == 0:
                r = residue(ev, d)
                size_n1 += counts.get(r, 0) + counts.get(-r % d, 0)
        return size_n, size_n1

    return top


def fastpath_unipotent(np_: NewtonPolyhedron) -> tuple[int, int]:
    """Counts of the largest unipotent Jordan blocks (eigenvalue 1).

    Returns (number of size-(n-1) blocks, number of size-(n-2) blocks).
    The first is the number of lattice points of the 1-skeleton of the
    Newton boundary in the open orthant, the second twice the number of
    relative-interior lattice points of the interior-touching 2-faces.
    Both are sums of relint_counts(face.poly, trivial, 1) over
    interior-touching compact faces: every lattice point of the
    1-skeleton is in the relative interior of exactly one face of
    dimension <= 1, and such a point is strictly positive exactly when
    that face touches the interior of the orthant.
    """
    trivial = Character.trivial(np_.n)
    points = [0, 0, 0]
    for face in np_.faces:
        if face.dim <= 2 and face.interior_touching:
            points[face.dim] += sum(relint_counts(face.poly, trivial, 1).values())
    return points[0] + points[1], 2 * points[2]


def prime_face_blocks(np_: NewtonPolyhedron, ev: Fraction, k: int) -> int:
    """Number of Jordan blocks of size >= k for eigenvalue != 1, by the
    closed combinatorial formula available when every compact face is
    prime in its intrinsic lattice.  ev is an int, a Fraction or a
    string 'a/b' (hodge.read_eigenvalue); k is an int, not a bool.

    Raises InputError naming the first non-prime face otherwise.
    """
    ev = read_eigenvalue(ev)
    if not 0 < ev < 1:
        raise InputError("prime_face_blocks needs an eigenvalue bucket in (0, 1)")
    if type(k) is not int or k < 1:
        raise InputError(f"block size threshold {k!r} is not an int >= 1")
    return _prime_face_counts(np_).get(ev, {}).get(k, 0)


def _prime_face_counts(np_: NewtonPolyhedron) -> dict[Fraction, dict[int, int]]:
    """{ev: {k: the closed formula's count of blocks of size >= k}} for
    k = 1..n+1 and every eigenvalue bucket ev in (0, 1) that some compact
    face's cone carries, i.e. that keys the cone's _row_sums, from one
    walk over the compact faces.  An eigenvalue no face carries has
    every count 0.  Larger k count nothing: there the binomial index d
    exceeds every face's twist |axes| - dim - 1 <= n - 1 - dim.

    Each face adds its row sums s_r, r = 0..dim, times the weights of
    _formula_weights for its dimension and twist.  The buckets a face
    carries are the keys of its cone's _row_sums, read straight from
    it, one orbit representative per orbit of compact faces, times the
    orbit's size.  Buckets are collected as residues mod the lcm of the
    cones' moduli, as in motivic_milnor_table, and turned into Fractions
    once at the end.

    Raises InputError naming the first non-prime face, or when a cone
    that carries a bucket is not pseudo-prime.
    """
    n = np_.n
    reps = np_.representatives()
    for face, _ in reps:
        if face.poly.shape.primeness != "prime":
            raise InputError(
                f"compact face {face.points} is not prime; "
                "the closed formula does not apply"
            )
    modulus = lcm(*(face.distance for face, _ in reps))
    counts: dict = {}  # residue mod modulus -> [_, size >= 1, ..., size >= n+1]
    for face, size in reps:
        weights = _formula_weights(n, face.dim, face.twist)
        step = modulus // face.distance
        buckets = _row_sums(face.delta, face.char)
        if buckets and face.delta.shape.primeness == "neither":
            raise InputError("anti-diagonal formula needs a pseudo-prime polytope")
        for a, rows in buckets.items():
            acc = counts.setdefault(a * step, [0] * (n + 2))
            for r, terms in enumerate(weights):
                if s := size * rows[r]:
                    for k, c in terms:
                        acc[k] += c * s
    return {
        Fraction(a, modulus): dict(enumerate(acc[1:], 1))
        for a, acc in sorted(counts.items())
    }


@cached
def _formula_weights(n: int, dim: int, twist: int) -> tuple:
    """The closed formula's weights for a face of this dimension and
    twist in n variables: for each row r = 0..dim, the pairs (k, c) with
    c != 0 such that the face adds c * s_r to the count of blocks of
    size >= k, k = 1..n+1.  That count is sgn * (T_k + T_(k+1)), with
    sgn = (-1)^(n-1) and T_kk the sum over faces and rows of
    (-1)^j C(twist, j) s_r, j = (n - 2 + kk - r) / 2 when that is a
    whole number >= 0."""
    sgn = (-1) ** (n - 1)

    def term(kk, r):
        j, odd = divmod(n - 2 + kk - r, 2)
        return 0 if odd or j < 0 else (-1) ** j * comb(twist, j)

    return tuple(
        tuple(
            (k, c)
            for k in range(1, n + 2)
            if (c := sgn * (term(k, r) + term(k + 1, r)))
        )
        for r in range(dim + 1)
    )
