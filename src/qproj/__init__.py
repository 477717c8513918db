"""qproj: classification and decomposition of 3x3 quaternionic projective transformations.

The package classifies elements of SL(3,H) / PSL(3,H) by dynamical type,
decides reversibility and strong reversibility with explicit certified
witnesses, and decomposes arbitrary unimodular elements into at most four
simple factors (each conjugate to a real matrix).
"""

from .classify import (
    DynType,
    Major,
    Minor,
    TracePair,
    classification_report,
    classify_sl3r,
    classify_via_simple,
    discriminant_f,
    dynamical_type,
)
from .decompose import (
    Decomposition,
    SimpleCertificate,
    decompose_simple,
    is_simple,
    realify,
)
from .errors import (
    CertificateError,
    DegenerateInput,
    IllConditioned,
    LiftFailure,
    NonRealCoefficient,
    NotReal,
    NotReversible,
    NotSimple,
    NotStronglyReversible,
    NotUnimodular,
    QprojError,
    Singular,
    SpectralFailure,
)
from .matrix import (
    CharPoly6,
    QMatrix3,
    char_poly_h,
    det_h,
    inverse,
    normalize_to_sl,
    require_unimodular,
    self_dual_check,
)
from .quaternion import (
    ClassRep,
    DEFAULT_TOL,
    Quaternion,
)
from .reversibility import (
    ReversibilityReport,
    involution_reverser,
    is_reversible_sl,
    is_strongly_reversible_sl,
    psl_report,
    random_reverser_solution,
    reverser,
)
from .spectral import (
    JordanData,
    eigenvector_lift,
    jordan_form,
    minimal_poly_structure,
)

__version__ = "0.1.0"

__all__ = [
    "CharPoly6",
    "CertificateError",
    "ClassRep",
    "DEFAULT_TOL",
    "Decomposition",
    "DegenerateInput",
    "DynType",
    "IllConditioned",
    "JordanData",
    "LiftFailure",
    "Major",
    "Minor",
    "NonRealCoefficient",
    "NotReal",
    "NotReversible",
    "NotSimple",
    "NotStronglyReversible",
    "NotUnimodular",
    "QMatrix3",
    "QprojError",
    "Quaternion",
    "ReversibilityReport",
    "SimpleCertificate",
    "Singular",
    "SpectralFailure",
    "TracePair",
    "char_poly_h",
    "classification_report",
    "classify_sl3r",
    "classify_via_simple",
    "decompose_simple",
    "det_h",
    "discriminant_f",
    "dynamical_type",
    "eigenvector_lift",
    "inverse",
    "involution_reverser",
    "is_reversible_sl",
    "is_simple",
    "is_strongly_reversible_sl",
    "jordan_form",
    "minimal_poly_structure",
    "normalize_to_sl",
    "psl_report",
    "random_reverser_solution",
    "realify",
    "require_unimodular",
    "reverser",
    "self_dual_check",
]
