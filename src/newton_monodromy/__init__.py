"""Exact Jordan form of the Milnor monodromy from the Newton polyhedron.

For a convenient polynomial with nondegenerate principal parts and an
isolated singularity at the origin, the eigenvalues, multiplicities,
and Jordan block sizes of the monodromy on the top reduced cohomology
of the Milnor fiber are combinatorial invariants of the Newton
polyhedron.  This package computes them exactly: character-graded
Ehrhart data of the compact faces feeds an equivariant Hodge recursion,
whose output is assembled into the motivic table of the Milnor fiber
and read off degree by degree.
"""

from . import polytope
from .ehrhart import Character
from .errors import (
    InputError,
    InternalConsistencyError,
    NotConvenientError,
    PolynomialSyntaxError,
    SizeGuardError,
    SupportSchemaError,
)
from .frontend import load_support, parse_polynomial
from .hodge import hodge_table, lefschetz_twist
from .monodromy import (
    JordanSpectrum,
    MotivicTable,
    fastpath_top,
    fastpath_unipotent,
    jordan_blocks,
    motivic_milnor_table,
    prime_face_blocks,
)
from .newton import CompactFace, NewtonPolyhedron, SupportSet, newton_polyhedron
from .oracles import (
    ValidationReport,
    brieskorn_pham_spectrum,
    kouchnirenko_mu,
    validate,
)
from .polytope import make_polytope

__version__ = "0.1.0"

__all__ = [
    "Character",
    "CompactFace",
    "InputError",
    "InternalConsistencyError",
    "JordanSpectrum",
    "MotivicTable",
    "NewtonPolyhedron",
    "NotConvenientError",
    "PolynomialSyntaxError",
    "SizeGuardError",
    "SupportSchemaError",
    "SupportSet",
    "ValidationReport",
    "brieskorn_pham_spectrum",
    "clear_caches",
    "fastpath_top",
    "fastpath_unipotent",
    "hodge_table",
    "jordan_blocks",
    "kouchnirenko_mu",
    "lefschetz_twist",
    "load_support",
    "make_polytope",
    "motivic_milnor_table",
    "newton_polyhedron",
    "parse_polynomial",
    "prime_face_blocks",
    "validate",
    "__version__",
]


def clear_caches() -> None:
    """Empty the engine's one store, polytope._MEMO, which holds the
    interned polytopes and shapes and everything computed from them."""
    polytope._MEMO.clear()
