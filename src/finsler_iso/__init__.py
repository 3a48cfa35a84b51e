"""Isometry-invariant Finsler and Hermitean metrics on inner-product spaces.

Construction of metrics from canonical profile functions, decomposition of
black-box metrics back into those profiles, invariance and congruence
probes, and length/geodesic-distance computation.

Submodules load on first use (PEP 562): ``import finsler_iso`` imports none
of them, and ``finsler_iso.eval_finsler`` imports ``finsler_iso.metrics``.
"""

import importlib

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "errors": ("EvalError", "MismatchError", "NonPositiveMetricError", "OutOfDomainError",
               "ParseError", "ZeroVectorError"),
    "linalg": (
        "Field", "LinearMap", "Vector", "acute_angle", "build_canonical_isometry",
        "canonical_invariants", "inner", "linear_map", "norm", "random_rotation",
        "random_unitaries", "random_unitary", "singular_values", "vector",
    ),
    "metrics": (
        "AreaDim2", "CongruenceInvariant", "Custom", "Euclidean", "FromLambda",
        "FromNonSymLambda", "FromRiemann", "FromTheta", "FubiniStudy", "MetricSpec",
        "PDVerdict", "RadiusDomain", "RiemannProfile", "ZeroExtended", "area_dim2",
        "check_homothety_invariance", "check_kaehler", "check_positive_definite",
        "congruence_invariant_riemann", "euclidean", "eval_batch", "eval_finsler",
        "eval_sesquilinear", "eval_sesquilinear_rows", "fubini_study", "fubini_study_profile",
        "induced_finsler", "lambda_profile", "nonsym_lambda_profile", "norm_quotient",
        "riemann_profile", "spec_from_json", "spec_to_json", "theta_profile",
        "validate_profile", "vartheta_profile", "zero_extended",
    ),
    "decompose": (
        "SesquiOracle", "extract_lambda", "extract_phi_psi", "extract_theta",
        "roundtrip_check", "sesqui_oracle_from_spec",
    ),
    "invariance": (
        "CongruenceClass", "SymmetryVerdict", "classify_congruence", "dim2_exception_check",
        "invariance_suite", "is_symmetry", "rotation_sufficiency_check",
        "congruence_theorem_probe",
    ),
    "geometry": (
        "GeodesicResult", "ParametricCurve", "Polyline", "circle_arc", "curve_length",
        "delta1", "delta2", "geodesic_distance", "intrinsification_ratio",
        "polygonal_delta_length", "segment_curve",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Neither the name nor its value is bound here, so each lookup reads what
    # the home module holds at that moment.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
