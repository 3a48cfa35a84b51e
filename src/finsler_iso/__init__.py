"""Isometry-invariant Finsler and Hermitean metrics on inner-product spaces.

Construction of metrics from canonical profile functions, decomposition of
black-box metrics back into those profiles, invariance and congruence
probes, and length/geodesic-distance computation.
"""

from .errors import (
    MismatchError,
    NonPositiveMetricError,
    OutOfDomainError,
    ZeroVectorError,
)
from .expressions import EvalError, ParseError
from .linalg import (
    Field,
    LinearMap,
    Vector,
    acute_angle,
    build_canonical_isometry,
    canonical_invariants,
    inner,
    linear_map,
    norm,
    random_rotation,
    random_unitaries,
    random_unitary,
    singular_values,
    vector,
)
from .metrics import (
    AreaDim2,
    CongruenceInvariant,
    Custom,
    Euclidean,
    FromLambda,
    FromNonSymLambda,
    FromRiemann,
    FromTheta,
    FubiniStudy,
    MetricSpec,
    PDVerdict,
    RadiusDomain,
    RiemannProfile,
    ZeroExtended,
    area_dim2,
    check_homothety_invariance,
    check_kaehler,
    check_positive_definite,
    congruence_invariant_riemann,
    euclidean,
    eval_batch,
    eval_finsler,
    eval_sesquilinear,
    eval_sesquilinear_rows,
    fubini_study,
    fubini_study_profile,
    induced_finsler,
    lambda_profile,
    nonsym_lambda_profile,
    norm_quotient,
    riemann_profile,
    spec_from_json,
    spec_to_json,
    theta_profile,
    validate_profile,
    vartheta_profile,
    zero_extended,
)
from .decompose import (
    MetricOracle,
    SesquiOracle,
    extract_lambda,
    extract_nonsym_lambda,
    extract_phi_psi,
    extract_theta,
    oracle_from_spec,
    roundtrip_check,
    sesqui_oracle_from_spec,
)
from .invariance import (
    CongruenceClass,
    SymmetryVerdict,
    classify_congruence,
    dim2_exception_check,
    invariance_suite,
    is_symmetry,
    rotation_sufficiency_check,
    congruence_theorem_probe,
)
from .geometry import (
    GeodesicResult,
    ParametricCurve,
    Polyline,
    circle_arc,
    curve_length,
    delta1,
    delta2,
    geodesic_distance,
    intrinsification_ratio,
    polygonal_delta_length,
    segment_curve,
)

__version__ = "0.1.0"
