"""Bicomplex arithmetic and Orlicz sequence spaces over atomic measures.

The package splits every bicomplex object along the two orthogonal
idempotents of the algebra: numbers become pairs of complex
coordinates, sequences become pairs of complex sequences, operators
become pairs of complex operators, and norm or boundedness questions
reduce to componentwise ones recombined by explicit constants.
"""

from .bicomplex import (
    E,
    E_DAGGER,
    ONE,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    ZERO,
    BiComplex,
    Classification,
    ComponentSet,
    PolyRoots,
    classify,
    indicator,
    poly_eval,
    poly_roots,
)
from .errors import (
    BCOrliczError,
    InvalidInputError,
    InvalidMapError,
    NotInSpaceError,
    NotInvertibleError,
    NotSummableError,
    UnsupportedInstanceError,
)
from .measure import (
    AtomicMeasureSpace,
    Distortion,
    IndexMap,
    distortion_ratios,
)
from .operators import (
    BCMatrix,
    BCOperator,
    BoundednessReport,
    apply_operator,
    check_composition_bounded,
    check_multiplication_bounded,
    decompose,
    empirical_operator_norm,
    empirical_ratios,
    invert_operator,
)
from .orlicz import (
    BCSequence,
    ModularValue,
    OrliczFunction,
    PhiReport,
    classify_phi,
    luxemburg_norm,
    modular,
    norm_bc,
    pairing,
    schauder_tail,
    weighted_phi_sum,
)

__version__ = "0.1.0"

__all__ = [
    "BiComplex",
    "Classification",
    "ComponentSet",
    "PolyRoots",
    "ZERO",
    "ONE",
    "UNIT_I",
    "UNIT_J",
    "UNIT_K",
    "E",
    "E_DAGGER",
    "classify",
    "indicator",
    "poly_eval",
    "poly_roots",
    "AtomicMeasureSpace",
    "IndexMap",
    "Distortion",
    "distortion_ratios",
    "OrliczFunction",
    "PhiReport",
    "classify_phi",
    "BCSequence",
    "ModularValue",
    "modular",
    "weighted_phi_sum",
    "luxemburg_norm",
    "norm_bc",
    "schauder_tail",
    "pairing",
    "BCMatrix",
    "BCOperator",
    "BoundednessReport",
    "apply_operator",
    "decompose",
    "invert_operator",
    "check_composition_bounded",
    "check_multiplication_bounded",
    "empirical_ratios",
    "empirical_operator_norm",
    "BCOrliczError",
    "InvalidInputError",
    "NotInvertibleError",
    "UnsupportedInstanceError",
    "InvalidMapError",
    "NotInSpaceError",
    "NotSummableError",
]
