"""Symmetry testing, congruence classification and the falsification probes.

A linear map T is a symmetry of a metric when it preserves the radius domain
and rho_{Tg}(Th) = rho_g(h) everywhere.  For isometry-invariant metrics in
dimension >= 3 the only candidate symmetries are congruences (scalar
multiples of isometries); the probes here hunt for numerical counterexamples
to that statement and check the known dimension-2 exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MismatchError, OutOfDomainError
from .linalg import (
    Field,
    LinearMap,
    Vector,
    random_gaussian_rows,
    random_unitaries,
    singular_values,
)
from .metrics import MetricSpec, area_dim2, deviations, eval_batch, sample_pairs
# Unused here; kept while perfbench/tests/test_tracer.py asserts a wrapper on
# this name, see FOUND in CHANGES.md.  The benchmark change that drops that
# assertion deletes this import.
from .metrics import eval_finsler  # noqa: F401

@dataclass(frozen=True)
class SymmetryVerdict:
    is_symmetry: bool
    max_deviation: float
    witness: tuple[Vector, Vector] | None
    samples_used: int
    skipped: int


@dataclass(frozen=True)
class CongruenceClass:
    kind: str  # "isometry" | "congruence" | "not-congruence"
    c: float | None = None
    sv_ratio: float | None = None


def _deviations(spec: MetricSpec, G: np.ndarray, H: np.ndarray, TG: np.ndarray,
                TH: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|rho_{Tg}(Th) - rho_g(h)| / (1 + |rho_g(h)|) per row, inf where the
    image base point leaves the metric's domain, and the mask of the rows
    where it stays.  An infinite rho (e.g. an overflowing exp in the profile)
    deviates by 0 where both sides are that infinity, by inf otherwise."""
    base, _ = eval_batch(spec, G, H)
    mapped, inside = eval_batch(spec, TG, TH)
    dev = deviations(mapped, base, base)
    dev[~inside] = np.inf
    return dev, inside


def _verdicts(spec: MetricSpec, G: np.ndarray, H: np.ndarray, dev: np.ndarray,
              used: np.ndarray, skipped: np.ndarray, tol: float) -> list[SymmetryVerdict]:
    """The verdict of each row i of the (k, n) deviations dev on its first
    used[i] entries, whose samples are rows i*n .. of G and H; the witness is
    the first sample with the largest deviation, copied out of G and H so a
    verdict does not keep every map's samples alive."""
    k, n = dev.shape
    read = np.where(np.arange(n) < used[:, None], dev, -1.0)  # deviations are >= 0
    at = read.argmax(axis=1)
    max_dev = read[np.arange(k), at]
    ok = ~skipped & (max_dev <= tol)
    f = spec.field

    def witness(j: int) -> tuple[Vector, Vector]:
        return Vector(G[j].copy(), f), Vector(H[j].copy(), f)

    return [SymmetryVerdict(o, d, None if o else witness(j), u, s)
            for o, d, j, u, s in zip(ok.tolist(), max_dev.tolist(),
                                     (np.arange(k) * n + at).tolist(), used.tolist(),
                                     skipped.astype(int).tolist())]


# Rows per eval_batch call in _symmetry_verdicts: whole maps' samples, about
# this many, so a stack of maps keeps its temporaries small.
_BLOCK_ROWS = 1024


def _symmetry_verdicts(spec: MetricSpec, M: np.ndarray, G: np.ndarray, H: np.ndarray,
                       tol: float) -> list[SymmetryVerdict]:
    """is_symmetry's verdict for each map of a (k, dim, dim) stack, map i on
    the rows i*n .. (i+1)*n - 1 of the (k*n, dim) samples G and H.

    The maps are applied in stacked matmuls and each side is one eval_batch
    call per block of whole maps' rows; each map's verdict reads only its
    own rows, by is_symmetry's rule.
    """
    k, dim = len(M), spec.dim
    n = len(G) // k
    per = max(1, _BLOCK_ROWS // n)
    Mt = M.transpose(0, 2, 1)
    dev, inside = np.empty(k * n), np.empty(k * n, dtype=bool)
    for a in range(0, k, per):
        b = min(k, a + per)
        rows = slice(a * n, b * n)
        TG = (G[rows].reshape(b - a, n, dim) @ Mt[a:b]).reshape(-1, dim)
        TH = (H[rows].reshape(b - a, n, dim) @ Mt[a:b]).reshape(-1, dim)
        dev[rows], inside[rows] = _deviations(spec, G[rows], H[rows], TG, TH)
    dev, inside = dev.reshape(k, n), inside.reshape(k, n)
    exits = dev > 1e3 * tol  # inf on every domain exit
    used = np.where(exits.any(axis=1), exits.argmax(axis=1) + 1, n)
    return _verdicts(spec, G, H, dev, used, ~inside[np.arange(k), used - 1], tol)


def is_symmetry(T: LinearMap, spec: MetricSpec, n_samples: int = 200, seed: int = 0,
                tol: float = 1e-9) -> SymmetryVerdict:
    """Sampled test of rho_{Tg}(Th) = rho_g(h), deviations measured relatively.

    The n_samples pairs come from sample_pairs and each side is one
    eval_batch call.  The verdict reads the rows up to and including the
    first exit row, and samples_used counts them.  An exit row is one whose
    deviation passes 1000x the tolerance, or whose image base point Tg leaves
    the domain.  The latter violates the domain-preservation half of the
    definition: it is counted in `skipped`, its deviation is inf and it fails
    the verdict outright.  This is the one-map case of the stacked test the
    probes run.
    """
    if T.dim_in != T.dim_out:
        raise MismatchError("symmetry candidates must be square")
    if T.dim_in != spec.dim:
        raise MismatchError(f"map dimension {T.dim_in} != spec dimension {spec.dim}")
    if T.field is not spec.field:
        raise MismatchError("map/spec field mismatch")
    if n_samples < 1:
        raise ValueError("a symmetry test needs at least one sample (n_samples >= 1)")
    G, H = sample_pairs(spec, n_samples, np.random.default_rng(seed))
    return _symmetry_verdicts(spec, T.entries[None], G, H, tol)[0]


def classify_congruence(T: LinearMap, tol: float = 1e-9) -> CongruenceClass:
    """T = c U for a unitary U iff all singular values equal c."""
    if T.dim_in != T.dim_out:
        raise MismatchError("classification needs a square map")
    sv = singular_values(T)
    smax, smin = float(sv[0]), float(sv[-1])
    if smax == 0.0:
        return CongruenceClass("not-congruence", sv_ratio=float("inf"))
    if smin > 0.0 and (smax - smin) <= tol * smax:
        c = 0.5 * (smax + smin)
        if abs(c - 1.0) <= tol:
            return CongruenceClass("isometry", c=c)
        return CongruenceClass("congruence", c=c)
    return CongruenceClass("not-congruence",
                           sv_ratio=float("inf") if smin == 0.0 else smax / smin)


def invariance_suite(spec: MetricSpec, n_unitaries: int = 200, seed: int = 0,
                     tol: float = 1e-9) -> SymmetryVerdict:
    """Invariance under Haar unitaries, one fresh sample pair per unitary.

    From default_rng(seed) come the unitaries (random_unitaries, one stacked
    QR) and then the pairs (sample_pairs); the unitaries are applied in one
    stacked matmul and each side is one eval_batch call.  Every pair counts;
    a unitary that takes a base point out of the domain is an OutOfDomainError.
    """
    if n_unitaries < 1:
        raise ValueError("the invariance suite needs at least one unitary")
    rng = np.random.default_rng(seed)
    U = random_unitaries(n_unitaries, spec.dim, spec.field, rng)
    G, H = sample_pairs(spec, len(U), rng)
    dev, inside = _deviations(spec, G, H, (U @ G[:, :, None])[:, :, 0],
                              (U @ H[:, :, None])[:, :, 0])
    if not inside.all():
        raise OutOfDomainError("a unitary of the suite maps a base point out of the domain")
    return _verdicts(spec, G, H, dev[None], np.array([len(dev)]), np.array([False]), tol)[0]


# ---------------------------------------------------------------------------
# Theorem probes

@dataclass(frozen=True)
class ProbeReport:
    maps_tested: int
    all_failed: bool
    weakest_deviation: float          # smallest max-deviation among tested maps
    weakest_map: LinearMap | None
    controls_tested: int
    controls_passed: bool
    control_worst_deviation: float
    vacuous: bool
    map_samples: int                  # samples_used summed over the maps
    control_samples: int              # and over the controls


_MAX_DRAW_ROUNDS = 1000  # then _random_noncongruences gives up on its ratio


def _random_noncongruences(n: int, dim: int, field: Field, rng: np.random.Generator,
                           min_sv_ratio: float) -> np.ndarray:
    """n Gaussian (dim, dim) matrices with singular-value ratio >= min_sv_ratio,
    as an (n, dim, dim) array: one stacked draw and SVD, then rejection
    sampling of only the rejected matrices (which almost never happens at
    the default ratio), for at most _MAX_DRAW_ROUNDS rounds in all."""
    m = random_gaussian_rows(n * dim, dim, field, rng).reshape(n, dim, dim)
    todo = np.arange(n)
    for _ in range(_MAX_DRAW_ROUNDS):
        sv = np.linalg.svd(m[todo], compute_uv=False)
        todo = todo[(sv[:, -1] <= 1e-6) | (sv[:, 0] < min_sv_ratio * sv[:, -1])]
        if not todo.size:
            return m
        m[todo] = random_gaussian_rows(todo.size * dim, dim, field, rng).reshape(-1, dim, dim)
    raise ValueError(f"no Gaussian map of singular-value ratio >= {min_sv_ratio} in "
                     f"{_MAX_DRAW_ROUNDS} draw rounds")


def _spec_is_vacuous(spec: MetricSpec, rng: np.random.Generator, n: int = 32) -> bool:
    values, _ = eval_batch(spec, *sample_pairs(spec, n, rng))
    return not (np.abs(values) > 1e-12).any()


def congruence_theorem_probe(spec: MetricSpec, n_maps: int = 100, n_samples: int = 40,
                       seed: int = 0, min_sv_ratio: float = 1.1,
                       deviation_threshold: float = 1e-3, n_controls: int = 100,
                       control_tol: float = 1e-9) -> ProbeReport:
    """Falsification probe: every sampled non-congruence map must fail symmetry.

    Requires dim >= 3, at least one map and a finite min_sv_ratio >= 1; a
    ratio the Gaussian maps do not reach in _MAX_DRAW_ROUNDS rounds of draws
    is a ValueError.  Controls are random unitaries, scaled by a random
    positive constant when the spec is invariant under all congruences; they
    must pass at control_tol.  Absence of a counterexample is the assertion,
    not a proof.

    The seed spawns three streams: one for the test of a metric that is 0
    everywhere, one from which all the maps and then all their n_maps *
    n_samples pairs are drawn at once, and one for the controls' unitaries
    (one stacked QR), scales and pairs.  Each map is tested on its own
    n_samples pairs by is_symmetry's rule, in one stacked test per side.
    """
    if spec.dim < 3:
        raise ValueError("the probe applies in dimension >= 3")
    if n_maps < 1:
        raise ValueError("the probe needs at least one map (n_maps >= 1)")
    if not 1.0 <= min_sv_ratio < math.inf:
        raise ValueError(f"min_sv_ratio must be a finite number >= 1, got {min_sv_ratio}")
    aux, map_ss, control_ss = np.random.SeedSequence(seed).spawn(3)
    if _spec_is_vacuous(spec, np.random.default_rng(aux)):
        return ProbeReport(0, False, 0.0, None, 0, False, 0.0, vacuous=True,
                           map_samples=0, control_samples=0)
    dim, field = spec.dim, spec.field
    rng = np.random.default_rng(map_ss)
    maps = _random_noncongruences(n_maps, dim, field, rng, min_sv_ratio)
    verdicts = _symmetry_verdicts(spec, maps, *sample_pairs(spec, n_maps * n_samples, rng),
                                  deviation_threshold)
    rng = np.random.default_rng(control_ss)
    controls = random_unitaries(n_controls, dim, field, rng)
    scales = np.exp(rng.uniform(-np.log(2.0), np.log(2.0), n_controls))
    if spec.congruence_invariant:
        controls *= scales[:, None, None]
    control_verdicts = (_symmetry_verdicts(spec, controls,
                                           *sample_pairs(spec, n_controls * n_samples, rng),
                                           control_tol)
                        if n_controls else [])
    weakest = min(range(n_maps), key=lambda i: verdicts[i].max_deviation)
    weakest_deviation = verdicts[weakest].max_deviation
    control_worst = max((v.max_deviation for v in control_verdicts), default=0.0)
    return ProbeReport(
        maps_tested=n_maps,
        all_failed=weakest_deviation > deviation_threshold,
        weakest_deviation=weakest_deviation,
        weakest_map=LinearMap(maps[weakest], field),
        controls_tested=n_controls,
        controls_passed=control_worst <= control_tol,
        control_worst_deviation=control_worst,
        vacuous=False,
        map_samples=sum(v.samples_used for v in verdicts),
        control_samples=sum(v.samples_used for v in control_verdicts),
    )


@dataclass(frozen=True)
class Dim2Report:
    maps_tested: int
    all_passed: bool
    max_deviation: float


def dim2_exception_check(b: float, maps: list[LinearMap], n_samples: int = 200,
                         seed: int = 0, tol: float = 1e-9) -> Dim2Report:
    """The dimension-2 exception: |det| = 1 maps preserve the area metric.

    Supplied maps must be real 2x2 with |det| = 1 (within tol); anything
    else is rejected as a precondition failure.  All len(maps) * n_samples
    pairs are drawn at once from the seed, and each map is tested on its own
    n_samples of them by is_symmetry's rule, in one stacked test per side.
    """
    if not maps:
        raise ValueError("the dim-2 exception check needs at least one map")
    spec = area_dim2(b)
    for T in maps:
        if T.field is not Field.REAL or T.dim_in != 2 or T.dim_out != 2:
            raise MismatchError("dim-2 exception check needs real 2x2 maps")
        d = abs(float(np.linalg.det(T.entries)))
        if abs(d - 1.0) > max(tol, 1e-9):
            raise ValueError(f"non-unimodular map supplied: |det| = {d}")
    G, H = sample_pairs(spec, len(maps) * n_samples, np.random.default_rng(seed))
    verdicts = _symmetry_verdicts(spec, np.stack([T.entries for T in maps]), G, H, tol)
    worst = max(v.max_deviation for v in verdicts)
    return Dim2Report(len(maps), worst <= tol, worst)


def random_unimodular(seed: int, dim: int = 2) -> LinearMap:
    """A random real map normalized to |det| = 1."""
    rng = np.random.default_rng(seed)
    while True:
        m = rng.standard_normal((dim, dim))
        d = abs(np.linalg.det(m))
        if d > 0.05:
            return LinearMap(m / d ** (1.0 / dim), Field.REAL)


@dataclass(frozen=True)
class RotationSufficiencyReport:
    rotation_max_deviation: float
    orthogonal_max_deviation: float
    rotations_pass: bool
    orthogonals_pass: bool
    consistent: bool


def rotation_sufficiency_check(spec: MetricSpec, n_rotations: int = 100,
                               n_samples: int = 20, seed: int = 0,
                               tol: float = 1e-9) -> RotationSufficiencyReport:
    """Invariance under rotations alone matches invariance under all isometries.

    Real field, dimension >= 3: tests n_rotations Haar rotations and as many
    Haar orthogonal maps and compares outcomes.  From the seed come the
    orthogonal maps and then the rotations (each one stacked QR), then
    n_rotations * n_samples pairs; rotation i and orthogonal map i are tested
    on the same n_samples of them by is_symmetry's rule.
    """
    if spec.field is not Field.REAL:
        raise MismatchError("rotation sufficiency is a real-field statement")
    if spec.dim < 3:
        raise ValueError("rotation sufficiency needs dimension >= 3")
    if n_rotations < 1:
        raise ValueError("rotation sufficiency needs at least one rotation")
    rng = np.random.default_rng(seed)
    orth = random_unitaries(n_rotations, spec.dim, Field.REAL, rng)
    rot = random_unitaries(n_rotations, spec.dim, Field.REAL, rng)
    rot[np.linalg.det(rot) < 0, :, 0] *= -1.0
    G, H = sample_pairs(spec, n_rotations * n_samples, rng)
    rot_worst, orth_worst = (max(v.max_deviation for v in _symmetry_verdicts(spec, M, G, H, tol))
                             for M in (rot, orth))
    rp, op = rot_worst <= tol, orth_worst <= tol
    return RotationSufficiencyReport(rot_worst, orth_worst, rp, op, rp == op)


# ---------------------------------------------------------------------------
# Report serialization (wire format used by the CLI)

def vector_json(v: Vector) -> list:
    if v.field is Field.REAL:
        return [float(x) for x in v.entries]
    return [[float(x.real), float(x.imag)] for x in v.entries]


def witness_json(witness: tuple[Vector, Vector] | None) -> dict | None:
    return None if witness is None else {"g": vector_json(witness[0]),
                                         "h": vector_json(witness[1])}


def verdict_to_json(verdict: SymmetryVerdict, spec_obj) -> dict:
    return {
        "spec": spec_obj,
        "verdict": "symmetry" if verdict.is_symmetry else "not-symmetry",
        "max_deviation": verdict.max_deviation,
        "witness": witness_json(verdict.witness),
    }
