"""Frobenius-Witt differentials of finitely presented rings.

The module FW(A) of a ring A is generated by symbols w(a) subject to
    w(a + b) = w(a) + w(b) - P(a, b) w(p)        (P the p-th Witt carry)
    w(a b)   = b^p w(a) + a^p w(b)
and is a module over A/pA.  For A finitely presented over F_q or Z/p^2
it has a finite presentation with one generator per variable (plus w(p)
in the mixed case) and one relation column per defining relation; fibers
of that presentation decide regularity through the rank criterion
fiber dimension = local dimension + residue-field imperfection.

The oracle names (FiniteRing, UniversalModule, brute_fw, cross_check)
are imported on first access, so that numpy loads only for the oracle.
"""

from .errors import (
    FWDiffError,
    OffSchemeError,
    PresentationError,
    RingFileError,
    SizeRefusalError,
    UnsupportedClassError,
    ZeroDivisorError,
)
from .fwcore import (
    AxiomReport,
    FWPresentation,
    PresentationMorphism,
    RingPresentation,
    base_change_map,
    check_axioms,
    present_fw,
    relative_cokernel,
    w_poly,
)
from .localalg import (
    PointSpec,
    PrimeSpec,
    RegularityVerdict,
    fiber_dim,
    rational_points,
    regularity,
    residue_p_rank,
)
from .modarith import (
    GaloisField,
    PrimeField,
    PrimeSquareRing,
    Residue,
    w_base,
)
from .mpoly import (
    GroebnerBasis,
    PolyRing,
    SparsePoly,
    frobenius_twist,
    groebner,
    krull_dim,
    normal_form,
    witt_P_pair,
    witt_Q,
)
from .ringfile import parse_ring, render_ring

__version__ = "0.1.0"

_ORACLE_NAMES = ("FiniteRing", "UniversalModule", "brute_fw", "cross_check")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AxiomReport",
    "FWDiffError",
    "FWPresentation",
    "FiniteRing",
    "GaloisField",
    "GroebnerBasis",
    "OffSchemeError",
    "PointSpec",
    "PolyRing",
    "PresentationError",
    "PresentationMorphism",
    "PrimeField",
    "PrimeSpec",
    "PrimeSquareRing",
    "RegularityVerdict",
    "Residue",
    "RingFileError",
    "RingPresentation",
    "SizeRefusalError",
    "SparsePoly",
    "UniversalModule",
    "UnsupportedClassError",
    "ZeroDivisorError",
    "base_change_map",
    "brute_fw",
    "check_axioms",
    "cross_check",
    "fiber_dim",
    "frobenius_twist",
    "groebner",
    "krull_dim",
    "normal_form",
    "parse_ring",
    "present_fw",
    "rational_points",
    "regularity",
    "relative_cokernel",
    "render_ring",
    "residue_p_rank",
    "w_base",
    "w_poly",
    "witt_P_pair",
    "witt_Q",
]
