import importlib
import os
import subprocess
import sys

import pytest

import finsler_iso

# The package's exported names, by home module.
EXPORTED = {
    "errors": ["EvalError", "MismatchError", "NonPositiveMetricError", "OutOfDomainError",
               "ParseError", "ZeroVectorError"],
    "linalg": ["Field", "LinearMap", "Vector", "acute_angle", "build_canonical_isometry",
               "canonical_invariants", "inner", "linear_map", "norm", "random_rotation",
               "random_unitaries", "random_unitary", "singular_values", "vector"],
    "metrics": ["AreaDim2", "CongruenceInvariant", "Custom", "Euclidean", "FromLambda",
                "FromNonSymLambda", "FromRiemann", "FromTheta", "FubiniStudy", "MetricSpec",
                "PDVerdict", "RadiusDomain", "RiemannProfile", "ZeroExtended", "area_dim2",
                "check_homothety_invariance", "check_kaehler", "check_positive_definite",
                "congruence_invariant_riemann", "euclidean", "eval_batch", "eval_finsler",
                "eval_sesquilinear", "eval_sesquilinear_rows", "fubini_study",
                "fubini_study_profile", "induced_finsler", "lambda_profile",
                "nonsym_lambda_profile", "norm_quotient", "riemann_profile", "spec_from_json",
                "spec_to_json", "theta_profile", "validate_profile", "vartheta_profile",
                "zero_extended"],
    "decompose": ["SesquiOracle", "extract_lambda", "extract_phi_psi", "extract_theta",
                  "roundtrip_check", "sesqui_oracle_from_spec"],
    "invariance": ["CongruenceClass", "SymmetryVerdict", "classify_congruence",
                   "dim2_exception_check", "invariance_suite", "is_symmetry",
                   "rotation_sufficiency_check", "congruence_theorem_probe"],
    "geometry": ["GeodesicResult", "ParametricCurve", "Polyline", "circle_arc", "curve_length",
                 "delta1", "delta2", "geodesic_distance", "intrinsification_ratio",
                 "polygonal_delta_length", "segment_curve"],
}
HOMES = [(module, name) for module, names in EXPORTED.items() for name in names]


def test_all_lists_the_exported_names():
    assert len(HOMES) == 82
    assert sorted(finsler_iso.__all__) == sorted(name for _, name in HOMES)
    assert set(finsler_iso.__all__) <= set(dir(finsler_iso))


def test_each_name_is_its_home_module_object_and_is_not_bound():
    for module, name in HOMES:
        home = importlib.import_module(f"finsler_iso.{module}")
        assert getattr(finsler_iso, name) is getattr(home, name), name
        # resolved on each lookup, so the package namespace stays as it was
        assert name not in vars(finsler_iso), name
    # the expression language raises the errors module's classes, which the CLI maps
    expressions = importlib.import_module("finsler_iso.expressions")
    assert expressions.EvalError is finsler_iso.errors.EvalError
    assert expressions.ParseError is finsler_iso.errors.ParseError


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from finsler_iso import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(finsler_iso.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'hyperbolic'"):
        finsler_iso.hyperbolic  # noqa: B018
    with pytest.raises(ImportError):
        exec("from finsler_iso import hyperbolic", {})


def test_importing_the_package_loads_no_submodule():
    # a submodule is still an attribute of the package, loaded when first read
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys, finsler_iso\n"
            "print(sorted(m for m in sys.modules if m.startswith('finsler_iso.')))\n"
            "print(finsler_iso.geometry.geodesic_distance.__module__)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\nfinsler_iso.geometry\n"
