"""Exact computational engine for the two-colour bubble algebra.

Diagrams with red and blue strands compose exactly over integer Laurent
polynomials in the two loop weights; on top of that sit basis
enumeration, standard modules with Gram forms, a spin-chain matrix
representation, and spectral-parameter (Yang-Baxter, transfer matrix)
verification.  The `bubble` console script exposes the same reports.
"""

import importlib

# every export, by the module that defines it; each loads on first use
# (PEP 562), so importing the package loads no submodule and no numpy
_EXPORTS = {
    "basis": ("basis_encodings", "enumerate_basis", "enumerate_bras", "rank_identity", "standard_labels", "walk_count"),
    "diagram": ("BLUE", "RED", "Diagram", "SizeMismatchError", "compose", "make_diagram"),
    "exactpoly": ("DB", "DR", "Element", "LaurentPoly", "identity_element", "poly_det", "white_generator"),
    "numeric": ("NumericParams",),
    "spinchain": ("diagram_matrix", "homomorphism_report"),
    "stdmod": (
        "gram_blocks",
        "gram_det_report",
        "gram_matrix",
        "localisation_report",
        "restriction_report",
        "scan_gram_roots",
    ),
    "yangbaxter": ("rmatrix", "transfer_commutator", "transfer_matrix", "unitarity_residual", "ybe_residual", "ybe_sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
