"""Symmetry testing, congruence classification and the falsification probes.

A linear map T is a symmetry of a metric when it preserves the radius domain
and rho_{Tg}(Th) = rho_g(h) everywhere.  For isometry-invariant metrics in
dimension >= 3 the only candidate symmetries are congruences (scalar
multiples of isometries); the probes here hunt for numerical counterexamples
to that statement and check the known dimension-2 exception.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (InvalidArgumentError, MismatchError, OutOfDomainError, check_counts,
                     check_tolerances)
from .linalg import (
    Field,
    LinearMap,
    Vector,
    pair_invariants_rows,
    random_gaussian_rows,
    random_unitaries,
    row_norms,
    singular_values,
)
from .metrics import MetricSpec, area_dim2, deviations, eval_batch, sample_pairs, verdict
# Unused here; kept while perfbench/tests/test_tracer.py asserts a wrapper on
# this name, see FOUND in CHANGES.md.  The benchmark change that drops that
# assertion deletes this import.
from .metrics import eval_finsler  # noqa: F401


class SymmetryVerdict(NamedTuple):
    is_symmetry: bool
    max_deviation: float
    witness: tuple[Vector, Vector] | None
    samples_used: int
    skipped: int


class CongruenceClass(NamedTuple):
    kind: str  # "isometry" | "congruence" | "not-congruence"
    c: float | None = None
    sv_ratio: float | None = None


# Rows per eval_batch call in _symmetry_deviations: whole maps' samples,
# about this many, so a stack of maps keeps its temporaries small.  A default
# probe's 100 maps of 40 samples are one block, and so are 100 dim-2 maps of 40.
_BLOCK_ROWS = 4096


def _symmetry_deviations(spec: MetricSpec, G: np.ndarray, H: np.ndarray,
                         stacks: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The deviations of rho_{Tg}(Th) from rho_g(h) for each map T of each
    (k, dim, dim) stack, map i of every stack on the rows i*n .. (i+1)*n - 1
    of the samples G and H, which hold n rows for each map of the longest
    stack.  Per stack: the (k, n) deviations, inf on a row whose image base
    point Tg leaves the domain, and the (k, n) mask of those rows.

    The base side rho_g(h) is one eval_batch call per block of whole maps'
    rows, shared by every stack; each stack's maps are applied in stacked
    matmuls and its mapped side is one eval_batch call per block it reaches.
    """
    k_max, dim = max(len(M) for M in stacks), spec.dim
    n = len(G) // k_max
    per = max(1, _BLOCK_ROWS // n)
    devs = [np.empty(len(M) * n) for M in stacks]
    insides = [np.empty(len(M) * n, dtype=bool) for M in stacks]
    for a in range(0, k_max, per):
        b = min(k_max, a + per)
        base, _ = eval_batch(spec, G[a * n:b * n], H[a * n:b * n])
        for M, dev, inside in zip(stacks, devs, insides):
            if (c := min(b, len(M))) <= a:
                continue
            rows, Mt = slice(a * n, c * n), M[a:c].transpose(0, 2, 1)
            TG = (G[rows].reshape(c - a, n, dim) @ Mt).reshape(-1, dim)
            TH = (H[rows].reshape(c - a, n, dim) @ Mt).reshape(-1, dim)
            mapped, inside[rows] = eval_batch(spec, TG, TH)
            # an infinite rho deviates by 0 where both sides are that infinity, by inf otherwise
            dev[rows] = deviations(mapped, base[:len(TG)], base[:len(TG)])
    out = []
    for dev, inside in zip(devs, insides):
        dev, leaves = dev.reshape(-1, n), ~inside.reshape(-1, n)
        dev[leaves] = np.inf
        out.append((dev, leaves))
    return out


def is_symmetry(T: LinearMap, spec: MetricSpec, n_samples: int = 200, seed: int = 0,
                tol: float = 1e-9) -> SymmetryVerdict:
    """Sampled test of rho_{Tg}(Th) = rho_g(h), deviations measured relatively.

    The n_samples pairs come from sample_pairs and each side is one
    eval_batch call; samples_used counts them all, and the verdict, the
    largest deviation and the witness are metrics.verdict()'s over them all.
    A sample whose image base point Tg leaves the domain violates the
    domain-preservation half of the definition: it is counted in `skipped`,
    its deviation is inf and it fails the verdict outright.  This is the
    one-map case of the stacked test the probes run.
    """
    if T.dim_in != T.dim_out:
        raise MismatchError("symmetry candidates must be square")
    if T.dim_in != spec.dim:
        raise MismatchError(f"map dimension {T.dim_in} != spec dimension {spec.dim}")
    if T.field is not spec.field:
        raise MismatchError("map/spec field mismatch")
    check_counts(n_samples=n_samples)
    check_tolerances(tol=tol)
    G, H = sample_pairs(spec, n_samples, np.random.default_rng(seed))
    ((dev, leaves),) = _symmetry_deviations(spec, G, H, [T.entries[None]])
    return SymmetryVerdict(*verdict(dev[0], tol, (G, H), spec.field), n_samples,
                           int(leaves.sum()))


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


def _haar_frames(n: int, dim: int, field: Field,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
    """n Haar-random orthonormal 2-frames (u1, u2) over the field, as two
    (n, dim) arrays: Gram-Schmidt on two Gaussian rows X and Y, u1 = X/|X|
    and u2 = W/|W| with W = Y - <Y, u1> u1.  They are the first two columns
    of n Haar unitaries.  A row whose |X| or |W| is below 1e-12 draws its X
    or Y again, as sample_pairs does.  In dim 1 there is no u2 (W = 0): None.
    """
    def unit_rows(project) -> np.ndarray:
        X = project(random_gaussian_rows(n, dim, field, rng), slice(None))
        norms = row_norms(X)
        while (short := norms < 1e-12).any():  # astronomically unlikely; resample for safety
            k = np.flatnonzero(short)
            X[k] = project(random_gaussian_rows(k.size, dim, field, rng), k)
            norms = row_norms(X)
        X /= norms[:, None]
        return X

    def orthogonal(Y, k):  # W = Y - <Y, u1> u1, in place
        for _ in range(2):  # once more, as one pass leaves <W, u1> at rounding times |Y|/|W|
            Y -= np.vecdot(u1[k], Y)[:, None] * u1[k]
        return Y

    u1 = unit_rows(lambda X, k: X)
    return u1, (unit_rows(orthogonal) if dim > 1 else None)


def invariance_suite(spec: MetricSpec, n_unitaries: int = 200, seed: int = 0,
                     tol: float = 1e-9) -> SymmetryVerdict:
    """Invariance under Haar unitaries, one fresh sample pair per unitary.

    A metric invariant under isometries sees a pair only through its
    invariants r = |g|, <h, g> and q, so the suite needs only the image pair
    (U g, U h), never U itself.  From default_rng(seed) come the pairs
    (sample_pairs), then one Haar 2-frame (u1, u2) per pair (_haar_frames):
    U g = r u1 and U h = (<h, g>/r) u1 + (q/r) u2 have exactly the
    distribution of (U g, U h) for a Haar U, over R and over C (in dim 1,
    U h = (<h, g>/r) u1).  Each side is one eval_batch call, and every pair
    counts; an image base point outside the domain is an OutOfDomainError.
    """
    check_counts(n_unitaries=n_unitaries)
    check_tolerances(tol=tol)
    rng = np.random.default_rng(seed)
    G, H = sample_pairs(spec, n_unitaries, rng)
    UG, u2 = _haar_frames(n_unitaries, spec.dim, spec.field, rng)
    r = row_norms(G)
    ip, q = pair_invariants_rows(G, H, r)
    UH = (ip / r)[:, None] * UG
    if u2 is not None:
        u2 *= (q / r)[:, None]
        UH += u2
    UG *= r[:, None]
    base, _ = eval_batch(spec, G, H)
    mapped, inside = eval_batch(spec, UG, UH)
    if not inside.all():
        raise OutOfDomainError("a unitary of the suite maps a base point out of the domain")
    return SymmetryVerdict(*verdict(deviations(mapped, base, base), tol, (G, H), spec.field),
                           n_unitaries, 0)


# ---------------------------------------------------------------------------
# Theorem probes

class ProbeReport(NamedTuple):
    maps_tested: int
    all_failed: bool
    weakest_deviation: float          # smallest, over the maps, of a map's largest deviation
    weakest_map: LinearMap | None
    controls_tested: int
    controls_passed: bool
    control_worst_deviation: float    # largest deviation over every control's samples
    vacuous: bool


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


def _spec_is_vacuous(spec: MetricSpec, rng: np.random.Generator) -> bool:
    values, _ = eval_batch(spec, *sample_pairs(spec, 32, rng))
    return not (np.abs(values) > 1e-12).any()


def congruence_theorem_probe(spec: MetricSpec, n_maps: int = 100, n_samples: int = 40,
                       seed: int = 0, min_sv_ratio: float = 1.1,
                       deviation_threshold: float = 1e-3, n_controls: int = 100,
                       control_tol: float = 1e-9) -> ProbeReport:
    """Falsification probe: every sampled non-congruence map must fail symmetry.

    Requires dim >= 3, a map, a sample, a control and a finite min_sv_ratio
    >= 1 (else InvalidArgumentError); a ratio the Gaussian maps do not reach
    in _MAX_DRAW_ROUNDS rounds of draws is a ValueError.  Controls are
    random unitaries, scaled by a random positive constant when the spec is
    invariant under all congruences; they must pass at control_tol.  Absence
    of a counterexample is the assertion, not a proof.

    The seed spawns three streams: one for the test of a metric that is 0
    everywhere, one from which all the maps and then max(n_maps, n_controls)
    * n_samples pairs are drawn at once, and one for the controls' unitaries
    (one stacked QR) and scales.  Map i and control i are both tested on
    rows i*n_samples .. (i+1)*n_samples - 1 of those pairs, in one stacked
    test: rho_g(h) is evaluated once for the maps and the controls, and each
    stack's mapped side once.  A map's deviation is its largest over all its
    samples, inf where a sample's image base point leaves the domain.
    """
    if spec.dim < 3:
        raise ValueError("the probe applies in dimension >= 3")
    check_counts(n_maps=n_maps, n_samples=n_samples, n_controls=n_controls)
    check_tolerances(deviation_threshold=deviation_threshold, control_tol=control_tol)
    if not 1.0 <= min_sv_ratio < math.inf:
        raise InvalidArgumentError(f"min_sv_ratio must be a finite number >= 1, "
                                   f"got {min_sv_ratio}")
    aux, map_ss, control_ss = np.random.SeedSequence(seed).spawn(3)
    if _spec_is_vacuous(spec, np.random.default_rng(aux)):
        return ProbeReport(0, False, 0.0, None, 0, False, 0.0, vacuous=True)
    dim, field = spec.dim, spec.field
    rng = np.random.default_rng(map_ss)
    maps = _random_noncongruences(n_maps, dim, field, rng, min_sv_ratio)
    G, H = sample_pairs(spec, max(n_maps, n_controls) * n_samples, rng)
    rng = np.random.default_rng(control_ss)
    controls = random_unitaries(n_controls, dim, field, rng)
    scales = np.exp(rng.uniform(-np.log(2.0), np.log(2.0), n_controls))
    if spec.congruence_invariant:
        controls *= scales[:, None, None]
    found, checked = (dev.max(axis=1) for dev, _ in
                      _symmetry_deviations(spec, G, H, [maps, controls]))
    weakest = int(found.argmin())
    weakest_deviation = float(found[weakest])
    control_worst = float(checked.max())
    return ProbeReport(
        maps_tested=n_maps,
        all_failed=weakest_deviation > deviation_threshold,
        weakest_deviation=weakest_deviation,
        weakest_map=LinearMap(maps[weakest], field),
        controls_tested=n_controls,
        controls_passed=control_worst <= control_tol,
        control_worst_deviation=control_worst,
        vacuous=False,
    )


class Dim2Report(NamedTuple):
    maps_tested: int
    all_passed: bool
    max_deviation: float


def dim2_exception_check(b: float, maps: list[LinearMap], n_samples: int = 200,
                         seed: int = 0, tol: float = 1e-9) -> Dim2Report:
    """The dimension-2 exception: |det| = 1 maps preserve the area metric.

    Supplied maps must be real 2x2 with |det| = 1 (within tol); anything
    else is rejected as a precondition failure.  All len(maps) * n_samples
    pairs are drawn at once from the seed, and each map is tested on its own
    n_samples of them, in one stacked test.
    """
    check_counts(maps=len(maps), n_samples=n_samples)
    check_tolerances(tol=tol)
    spec = area_dim2(b)
    for T in maps:
        if T.field is not Field.REAL or T.dim_in != 2 or T.dim_out != 2:
            raise MismatchError("dim-2 exception check needs real 2x2 maps")
        d = abs(float(np.linalg.det(T.entries)))
        if abs(d - 1.0) > max(tol, 1e-9):
            raise ValueError(f"non-unimodular map supplied: |det| = {d}")
    G, H = sample_pairs(spec, len(maps) * n_samples, np.random.default_rng(seed))
    ((dev, _),) = _symmetry_deviations(spec, G, H, [np.stack([T.entries for T in maps])])
    worst = float(dev.max())
    return Dim2Report(len(maps), worst <= tol, worst)


def random_unimodular(seed: int) -> LinearMap:
    """A random real 2x2 map normalized to |det| = 1."""
    rng = np.random.default_rng(seed)
    while True:
        m = rng.standard_normal((2, 2))
        d = abs(np.linalg.det(m))
        if d > 0.05:
            return LinearMap(m / d ** 0.5, Field.REAL)


class RotationSufficiencyReport(NamedTuple):
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
    on the same n_samples of them, in one stacked test that evaluates
    rho_g(h) once for both stacks.
    """
    if spec.field is not Field.REAL:
        raise MismatchError("rotation sufficiency is a real-field statement")
    if spec.dim < 3:
        raise ValueError("rotation sufficiency needs dimension >= 3")
    check_counts(n_rotations=n_rotations, n_samples=n_samples)
    check_tolerances(tol=tol)
    rng = np.random.default_rng(seed)
    orth = random_unitaries(n_rotations, spec.dim, Field.REAL, rng)
    rot = random_unitaries(n_rotations, spec.dim, Field.REAL, rng)
    rot[np.linalg.det(rot) < 0, :, 0] *= -1.0
    G, H = sample_pairs(spec, n_rotations * n_samples, rng)
    rot_worst, orth_worst = (float(dev.max()) for dev, _ in
                             _symmetry_deviations(spec, G, H, [rot, orth]))
    rp, op = rot_worst <= tol, orth_worst <= tol
    return RotationSufficiencyReport(rot_worst, orth_worst, rp, op, rp == op)
