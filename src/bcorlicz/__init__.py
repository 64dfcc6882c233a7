"""Bicomplex arithmetic and Orlicz sequence spaces over atomic measures.

The package splits every bicomplex object along the two orthogonal
idempotents of the algebra: numbers become pairs of complex
coordinates, sequences become pairs of complex sequences, operators
become pairs of complex operators, and norm or boundedness questions
reduce to componentwise ones recombined by explicit constants.

The exports are resolved on first use (PEP 562), so importing the
package loads none of its modules, and numpy is loaded only with the
first name that needs arrays.
"""

import importlib

__version__ = "0.1.0"

# every public name, once, under the module that defines it
_EXPORTS = {
    "bicomplex": (
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
    ),
    "measure": ("AtomicMeasureSpace", "IndexMap", "Distortion", "distortion_ratios"),
    "young": ("OrliczFunction", "PhiReport", "classify_phi"),
    "orlicz": (
        "BCSequence",
        "ModularValue",
        "modular",
        "weighted_phi_sum",
        "luxemburg_norm",
        "norm_bc",
        "schauder_tail",
        "pairing",
    ),
    "operators": (
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
    ),
    "errors": (
        "BCOrliczError",
        "InvalidInputError",
        "NotInvertibleError",
        "UnsupportedInstanceError",
        "InvalidMapError",
        "NotInSpaceError",
        "NotSummableError",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: home for home, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
