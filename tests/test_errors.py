import numpy as np
import pytest

from finsler_iso import decompose as dc
from finsler_iso import geometry as ge
from finsler_iso import invariance as iv
from finsler_iso import linalg as la
from finsler_iso import metrics as mm
from finsler_iso.errors import InvalidArgumentError
from helpers import POS

E3 = mm.euclidean(3)
FS3 = mm.fubini_study(3)
EYE3 = la.linear_map(np.eye(3))
G2, H2 = la.vector([1.0, 0.0]), la.vector([0.0, 1.0])


# (parameter, its least value, the call with the parameter's count set to n)
COUNTS = [
    ("n_samples", 1, lambda n: iv.is_symmetry(EYE3, E3, n)),
    ("n_unitaries", 1, lambda n: iv.invariance_suite(E3, n)),
    ("n_maps", 1, lambda n: iv.congruence_theorem_probe(E3, n_maps=n)),
    ("n_samples", 1, lambda n: iv.congruence_theorem_probe(E3, n_samples=n)),
    ("n_controls", 1, lambda n: iv.congruence_theorem_probe(E3, n_controls=n)),
    ("maps", 1, lambda n: iv.dim2_exception_check(1.0, [iv.random_unimodular(0)] * n)),
    ("n_samples", 1,
     lambda n: iv.dim2_exception_check(1.0, [iv.random_unimodular(0)], n_samples=n)),
    ("n_rotations", 1, lambda n: iv.rotation_sufficiency_check(E3, n)),
    ("n_samples", 1, lambda n: iv.rotation_sufficiency_check(E3, n_samples=n)),
    ("n_samples", 1, lambda n: mm.check_homothety_invariance(E3, 2.0, n)),
    ("r_samples", 1, lambda n: mm.check_positive_definite(FS3, [1.0] * n)),
    ("r_samples", 1, lambda n: mm.check_kaehler(FS3, [1.0] * n)),
    ("grid_size", 1,
     lambda n: mm.validate_profile(mm.FromLambda(3, la.Field.REAL, POS,
                                                 mm.lambda_profile("sqrt(p^2+q^2)")), n)),
    ("n_samples", 1, lambda n: dc.roundtrip_check(E3, E3, n)),
    ("n_segments", 1, lambda n: ge.polygonal_delta_length("delta1", ge.circle_arc(2), n)),
    ("n_nodes", 3, lambda n: ge.curve_length(mm.euclidean(2), ge.circle_arc(2), n)),
    ("n_vertices", 3, lambda n: ge.geodesic_distance(mm.euclidean(2), G2, H2, n_vertices=n)),
    ("n_iterations", 0, lambda n: ge.geodesic_distance(mm.euclidean(2), G2, H2, n_iterations=n)),
]


@pytest.mark.parametrize("param,least,call", COUNTS, ids=[param for param, _, _ in COUNTS])
@pytest.mark.parametrize("below", [1, 2])
def test_every_count_below_its_least_raises_naming_its_parameter(param, least, call, below):
    # a sampled check of no samples, maps or radii tests nothing: before these
    # refusals n_controls=0 reported controls_passed, empty r_samples gave [] and
    # grid_size=0 raised numpy's error; a list parameter counts its entries
    n = least - below
    shown = max(n, 0) if param in ("maps", "r_samples") else n  # [x] * n is [] for n < 0
    message = f"^{param}: got {shown}, need at least {least}$"
    with pytest.raises(InvalidArgumentError, match=message):
        call(n)
