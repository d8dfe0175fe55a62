"""Exact computational engine for the two-colour bubble algebra.

Diagrams with red and blue strands compose exactly over integer Laurent
polynomials in the two loop weights; on top of that sit basis
enumeration, standard modules with Gram forms, a spin-chain matrix
representation, and spectral-parameter (Yang-Baxter, transfer matrix)
verification.  The `bubble` console script exposes the same reports.
"""

import importlib

from .basis import (
    basis_encodings,
    enumerate_basis,
    enumerate_bras,
    rank_identity,
    standard_labels,
    walk_count,
)
from .diagram import (
    BLUE,
    RED,
    Diagram,
    Element,
    SizeMismatchError,
    compose,
    identity_element,
    make_diagram,
    white_generator,
)
from .exactpoly import DB, DR, LaurentPoly, PolyMatrix, poly_det

# the numeric modules load on first use (PEP 562), so importing the
# package, or a request that computes no float, loads no numpy
_LAZY = {
    "NumericParams": "numeric",
    "diagram_matrix": "spinchain",
    "homomorphism_report": "spinchain",
    "gram_blocks": "stdmod",
    "gram_det_report": "stdmod",
    "gram_matrix": "stdmod",
    "localisation_report": "stdmod",
    "restriction_report": "stdmod",
    "scan_gram_roots": "stdmod",
    "rmatrix": "yangbaxter",
    "transfer_commutator": "yangbaxter",
    "transfer_matrix": "yangbaxter",
    "unitarity_residual": "yangbaxter",
    "ybe_residual": "yangbaxter",
    "ybe_sweep": "yangbaxter",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "BLUE",
    "DB",
    "DR",
    "Diagram",
    "Element",
    "LaurentPoly",
    "NumericParams",
    "PolyMatrix",
    "RED",
    "SizeMismatchError",
    "basis_encodings",
    "compose",
    "diagram_matrix",
    "enumerate_basis",
    "enumerate_bras",
    "gram_blocks",
    "gram_det_report",
    "gram_matrix",
    "homomorphism_report",
    "identity_element",
    "localisation_report",
    "make_diagram",
    "poly_det",
    "rank_identity",
    "restriction_report",
    "rmatrix",
    "scan_gram_roots",
    "standard_labels",
    "transfer_commutator",
    "transfer_matrix",
    "unitarity_residual",
    "walk_count",
    "white_generator",
    "ybe_residual",
    "ybe_sweep",
]
