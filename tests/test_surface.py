import qproj

# what the report functions, the CLI, the benchmark and the acceptance
# criteria use, with self_dual_check
PUBLIC = (
    "CertificateError", "CharPoly6", "ClassRep", "DEFAULT_TOL", "Decomposition",
    "DegenerateInput", "DynType", "IllConditioned", "JordanData", "LiftFailure", "Major",
    "Minor", "NonRealCoefficient", "NotReal", "NotReversible", "NotSimple",
    "NotStronglyReversible", "NotUnimodular", "QMatrix3", "QprojError", "Quaternion",
    "ReversibilityReport", "SimpleCertificate", "Singular", "SpectralFailure", "TracePair",
    "char_poly_h", "classification_report", "classify_sl3r", "classify_via_simple",
    "decompose_simple", "det_h", "discriminant_f", "dynamical_type", "eigenvector_lift",
    "inverse", "involution_reverser", "is_reversible_sl", "is_simple",
    "is_strongly_reversible_sl", "jordan_form", "minimal_poly_structure", "normalize_to_sl",
    "psl_report", "random_reverser_solution", "realify", "require_unimodular", "reverser",
    "self_dual_check",
)
DELETED = (
    "unit_modulus_iff_traces_equal", "right_eigenvalues", "EigenClass", "is_diagonalizable",
    "commutant_membership", "class_representative", "similar", "pair_rotation_split",
    "two_skew_involutions", "negative_reverser", "is_negative_reversible",
    "reverser_equation_basis",
)


def test_all_is_the_kept_surface():
    assert sorted(qproj.__all__) == sorted(PUBLIC) and len(PUBLIC) == 49
    assert len(set(qproj.__all__)) == len(qproj.__all__)
    assert [name for name in PUBLIC if getattr(qproj, name, None) is None] == []


def test_deleted_names_are_gone():
    assert [name for name in DELETED if hasattr(qproj, name)] == []
    assert not hasattr(qproj.JordanData, "classes")
