"""Read the engine's residue-keyed buckets as Fractions, for the tests
that compare with Fraction-keyed literals and references: a bucket
residue r mod d stands for the character value r/d."""

from fractions import Fraction

from newton_monodromy.ehrhart import restricted


def as_fractions(mapping, d: int) -> dict:
    """The mapping with each bucket residue r mod d, a key or the last
    entry of a tuple key, read as Fraction(r, d).  For a MotivicTable,
    d is its modulus."""
    return {
        k[:-1] + (Fraction(k[-1], d),) if isinstance(k, tuple) else Fraction(k, d): v
        for k, v in mapping.items()
    }


def read_buckets(fn, poly, char, *args) -> dict:
    """fn(poly, char, *args), keyed by residues mod
    restricted(poly, char)[0], with its buckets read as Fractions."""
    return as_fractions(fn(poly, char, *args), restricted(poly, char)[0])
