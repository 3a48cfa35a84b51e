import contextlib
import io
import re

import numpy as np
import pytest

from finsler_iso import cli
from finsler_iso import decompose as dc
from finsler_iso import geometry as ge
from finsler_iso import invariance as iv
from finsler_iso import linalg as la
from finsler_iso import metrics as mm
from finsler_iso.errors import InvalidArgumentError, MismatchError, ZeroVectorError
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


class CliExit(Exception):
    """cli.main's exit code and stderr, raised so that the table below matches them."""


def cli_exit(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    raise CliExit(f"exit {code}: {err.getvalue().strip()}")


R, C = la.Field.REAL, la.Field.COMPLEX
EVAL2 = ("eval", "--metric", "euclidean", "--dim", "2", "--h", "0,1", "--g")
E1, E2 = la.basis_vector(3, 0), la.basis_vector(3, 1)

# (id, the call, the exception it raises, its whole message)
REFUSALS = [
    ("cli-complex-entry", lambda: cli_exit(*EVAL2, "1:2,0"), CliExit,
     "exit 2: error: complex entry '1:2' in a real vector"),
    ("cli-unparsable-entry", lambda: cli_exit(*EVAL2, "1,x"), CliExit,
     "exit 2: error: cannot parse vector entry 'x'"),
    ("vector-empty", lambda: la.vector([]), ValueError,
     "vector must be one-dimensional with at least one entry"),
    ("vector-2d", lambda: la.vector([[1, 2]]), ValueError,
     "vector must be one-dimensional with at least one entry"),
    ("linear-map-3d", lambda: la.linear_map(np.zeros((2, 2, 2))), ValueError,
     "linear map must be a 2-d matrix"),
    ("apply-map-dim", lambda: la.apply_map(EYE3, G2), MismatchError,
     "map expects dimension 3, got 2"),
    ("apply-map-field", lambda: la.apply_map(EYE3, la.basis_vector(3, 0, C)), MismatchError,
     "map/vector field mismatch"),
    ("canonical-isometry-frame", lambda: la.build_canonical_isometry(E1, E2, G2, H2),
     MismatchError, "frame dimension differs from vector dimension"),
    ("random-unitaries-dim", lambda: la.random_unitaries(2, 0, R, np.random.default_rng(0)),
     ValueError, "dim must be >= 1"),
    ("random-rotation-dim", lambda: la.random_rotation(1, 0), ValueError,
     "rotation needs dim >= 2"),
    ("euclidean-dim", lambda: mm.euclidean(0), ValueError, "dim must be >= 1"),
    ("zero-extended-domain", lambda: mm.ZeroExtended(3, R, POS, 1.0, E3), ValueError,
     "zero extension requires a domain including 0"),
    ("json-unknown-family",
     lambda: mm.spec_from_json({"family": "nope", "dim": 2, "field": "real"}), ValueError,
     "unknown metric family 'nope'"),
    ("json-domain-type", lambda: mm.spec_from_json(
        {"family": "euclidean", "dim": 2, "field": "real", "domain": {"intervals": 5}}),
     ValueError, "a metric spec value has the wrong type: 'int' object is not iterable"),
    ("is-symmetry-square", lambda: iv.is_symmetry(la.linear_map(np.ones((3, 2))), E3),
     MismatchError, "symmetry candidates must be square"),
    ("is-symmetry-field", lambda: iv.is_symmetry(la.linear_map(np.eye(3), C), E3),
     MismatchError, "map/spec field mismatch"),
    ("classify-square", lambda: iv.classify_congruence(la.linear_map(np.ones((3, 2)))),
     MismatchError, "classification needs a square map"),
    ("dim2-complex-map", lambda: iv.dim2_exception_check(1.0, [la.linear_map(np.eye(2), C)]),
     MismatchError, "dim-2 exception check needs real 2x2 maps"),
    ("rotation-sufficiency-field", lambda: iv.rotation_sufficiency_check(mm.euclidean(3, C)),
     MismatchError, "rotation sufficiency is a real-field statement"),
    ("rotation-sufficiency-dim", lambda: iv.rotation_sufficiency_check(mm.euclidean(2)),
     ValueError, "rotation sufficiency needs dimension >= 3"),
    ("intrinsification-at-0", lambda: ge.intrinsification_ratio(
        ge.segment_curve(la.vector([-1.0, 0.0]), la.vector([1.0, 0.0])), 0.5, [0.1]),
     ZeroVectorError, "intrinsification needs gamma(t) != 0"),
    ("circle-arc-dim", lambda: ge.circle_arc(1), ValueError, "circle arc needs dim >= 2"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_each_refusal_raises_its_type_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
