"""Symmetry testing, congruence classification and the falsification probes.

A linear map T is a symmetry of a metric when it preserves the radius domain
and rho_{Tg}(Th) = rho_g(h) everywhere.  For isometry-invariant metrics in
dimension >= 3 the only candidate symmetries are congruences (scalar
multiples of isometries); the probes here hunt for numerical counterexamples
to that statement and check the known dimension-2 exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MismatchError
from .linalg import (
    Field,
    LinearMap,
    Vector,
    apply_map,
    norm,
    random_gaussian_vector,
    random_rotation,
    random_unitary,
    random_vector_with_norm,
    singular_values,
)
from .metrics import MetricSpec, area_dim2, eval_finsler, sample_radius

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


def _check_map(T: LinearMap, spec: MetricSpec) -> None:
    if T.dim_in != T.dim_out:
        raise MismatchError("symmetry candidates must be square")
    if T.dim_in != spec.dim:
        raise MismatchError(f"map dimension {T.dim_in} != spec dimension {spec.dim}")
    if T.field is not spec.field:
        raise MismatchError("map/spec field mismatch")


def is_symmetry(T: LinearMap, spec: MetricSpec, n_samples: int = 200, seed: int = 0,
                tol: float = 1e-9) -> SymmetryVerdict:
    """Sampled test of rho_{Tg}(Th) = rho_g(h), deviations measured relatively.

    A sample whose image radius |Tg| leaves the domain violates the
    domain-preservation half of the definition: it is counted in `skipped`
    and fails the verdict outright.  Deviations accumulate and the maximal
    one is reported; the loop exits early only past 1000x the tolerance.
    """
    _check_map(T, spec)
    rng = np.random.default_rng(seed)
    max_dev, witness, used, skipped = 0.0, None, 0, 0
    domain_violated = False
    for _ in range(n_samples):
        g = random_vector_with_norm(spec.dim, spec.field, sample_radius(spec.domain, rng), rng)
        h = random_gaussian_vector(spec.dim, spec.field, rng)
        base = eval_finsler(spec, g, h)
        used += 1
        tg = apply_map(T, g)
        if not spec.domain.contains(norm(tg)):
            skipped += 1
            domain_violated = True
            max_dev, witness = float("inf"), (g, h)
            break
        dev = abs(eval_finsler(spec, tg, apply_map(T, h)) - base) / (1.0 + abs(base))
        if dev > max_dev:
            max_dev, witness = dev, (g, h)
        if dev > 1e3 * tol:
            break
    ok = (not domain_violated) and max_dev <= tol
    return SymmetryVerdict(ok, max_dev, None if ok else witness, used, skipped)


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
                     tol: float = 1e-9,
                     unitaries: list[LinearMap] | None = None) -> SymmetryVerdict:
    """Invariance under Haar unitaries, one fresh sample pair per unitary."""
    rng = np.random.default_rng(seed)
    us = unitaries if unitaries is not None else [
        random_unitary(spec.dim, spec.field, int(s)) for s in rng.integers(2 ** 31, size=n_unitaries)]
    max_dev, witness = 0.0, None
    for u in us:
        g = random_vector_with_norm(spec.dim, spec.field, sample_radius(spec.domain, rng), rng)
        h = random_gaussian_vector(spec.dim, spec.field, rng)
        base = eval_finsler(spec, g, h)
        dev = abs(eval_finsler(spec, apply_map(u, g), apply_map(u, h)) - base) / (1.0 + abs(base))
        if dev > max_dev:
            max_dev, witness = dev, (g, h)
    ok = max_dev <= tol
    return SymmetryVerdict(ok, max_dev, None if ok else witness, len(us), 0)


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


def _random_noncongruence(dim: int, field: Field, rng: np.random.Generator,
                          min_sv_ratio: float) -> LinearMap:
    # Rejection sampling over Gaussian matrices; almost never repeats.
    while True:
        if field is Field.REAL:
            m = rng.standard_normal((dim, dim))
        else:
            m = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] > 1e-6 and sv[0] / sv[-1] >= min_sv_ratio:
            return LinearMap(m, field)


def _spec_is_vacuous(spec: MetricSpec, rng: np.random.Generator, n: int = 32) -> bool:
    for _ in range(n):
        g = random_vector_with_norm(spec.dim, spec.field, sample_radius(spec.domain, rng), rng)
        h = random_gaussian_vector(spec.dim, spec.field, rng)
        if abs(eval_finsler(spec, g, h)) > 1e-12:
            return False
    return True


def congruence_theorem_probe(spec: MetricSpec, n_maps: int = 100, n_samples: int = 40,
                       seed: int = 0, min_sv_ratio: float = 1.1,
                       deviation_threshold: float = 1e-3, n_controls: int = 100,
                       control_tol: float = 1e-9) -> ProbeReport:
    """Falsification probe: every sampled non-congruence map must fail symmetry.

    Requires dim >= 3 and at least one map.  Controls are random unitaries,
    scaled by a random positive constant when the spec is invariant under
    all congruences; they must pass at control_tol.  Absence of a counterexample is the
    assertion, not a proof.
    """
    if spec.dim < 3:
        raise ValueError("the probe applies in dimension >= 3")
    if n_maps < 1:
        raise ValueError("the probe needs at least one map (n_maps >= 1)")
    root = np.random.SeedSequence(seed)
    map_seeds, control_seeds, aux = root.spawn(n_maps), root.spawn(n_controls), root.spawn(1)[0]
    if _spec_is_vacuous(spec, np.random.default_rng(aux)):
        return ProbeReport(0, False, 0.0, None, 0, False, 0.0, vacuous=True)

    def probe_map(ss) -> tuple[float, LinearMap]:
        rng = np.random.default_rng(ss)
        T = _random_noncongruence(spec.dim, spec.field, rng, min_sv_ratio)
        v = is_symmetry(T, spec, n_samples, seed=int(rng.integers(2 ** 31)), tol=deviation_threshold)
        return v.max_deviation, T

    def probe_control(ss) -> float:
        rng = np.random.default_rng(ss)
        u = random_unitary(spec.dim, spec.field, int(rng.integers(2 ** 31)))
        c = float(np.exp(rng.uniform(-np.log(2.0), np.log(2.0)))) if spec.congruence_invariant else 1.0
        T = LinearMap(c * u.entries, spec.field)
        v = is_symmetry(T, spec, n_samples, seed=int(rng.integers(2 ** 31)), tol=control_tol)
        return v.max_deviation

    map_results = [probe_map(ss) for ss in map_seeds]
    control_devs = [probe_control(ss) for ss in control_seeds]
    weakest_dev, weakest_map = min(map_results, key=lambda t: t[0])
    control_worst = max(control_devs) if control_devs else 0.0
    return ProbeReport(
        maps_tested=len(map_results),
        all_failed=weakest_dev > deviation_threshold,
        weakest_deviation=weakest_dev,
        weakest_map=weakest_map,
        controls_tested=len(control_devs),
        controls_passed=control_worst <= control_tol,
        control_worst_deviation=control_worst,
        vacuous=False,
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
    else is rejected as a precondition failure.
    """
    spec = area_dim2(b)
    root = np.random.SeedSequence(seed)
    worst = 0.0
    for T, ss in zip(maps, root.spawn(max(1, len(maps)))):
        if T.field is not Field.REAL or T.dim_in != 2 or T.dim_out != 2:
            raise MismatchError("dim-2 exception check needs real 2x2 maps")
        d = abs(float(np.linalg.det(T.entries)))
        if abs(d - 1.0) > max(tol, 1e-9):
            raise ValueError(f"non-unimodular map supplied: |det| = {d}")
        v = is_symmetry(T, spec, n_samples, seed=int(np.random.default_rng(ss).integers(2 ** 31)), tol=tol)
        worst = max(worst, v.max_deviation)
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

    Real field, dimension >= 3: runs the invariance suite once with Haar
    rotations and once with Haar orthogonal maps and compares outcomes.
    """
    if spec.field is not Field.REAL:
        raise MismatchError("rotation sufficiency is a real-field statement")
    if spec.dim < 3:
        raise ValueError("rotation sufficiency needs dimension >= 3")
    root = np.random.SeedSequence(seed)
    rot_worst, orth_worst = 0.0, 0.0
    for ss in root.spawn(n_rotations):
        rng = np.random.default_rng(ss)
        s1, s2, s3 = (int(rng.integers(2 ** 31)) for _ in range(3))
        rot = random_rotation(spec.dim, s1)
        orth = random_unitary(spec.dim, Field.REAL, s2)
        rot_worst = max(rot_worst, is_symmetry(rot, spec, n_samples, s3, tol).max_deviation)
        orth_worst = max(orth_worst, is_symmetry(orth, spec, n_samples, s3, tol).max_deviation)
    rp, op = rot_worst <= tol, orth_worst <= tol
    return RotationSufficiencyReport(rot_worst, orth_worst, rp, op, rp == op)


# ---------------------------------------------------------------------------
# Report serialization (wire format used by the CLI)

def vector_json(v: Vector) -> list:
    if v.field is Field.REAL:
        return [float(x) for x in v.entries]
    return [[float(x.real), float(x.imag)] for x in v.entries]


def map_json(T: LinearMap) -> list:
    if T.field is Field.REAL:
        return [float(x) for x in T.entries.ravel()]
    return [[float(x.real), float(x.imag)] for x in T.entries.ravel()]


def verdict_to_json(verdict: SymmetryVerdict, spec_obj, T: LinearMap) -> dict:
    return {
        "spec": spec_obj,
        "map": None if T is None else map_json(T),
        "verdict": "symmetry" if verdict.is_symmetry else "not-symmetry",
        "max_deviation": verdict.max_deviation,
        "witness": None if verdict.witness is None else {
            "g": vector_json(verdict.witness[0]),
            "h": vector_json(verdict.witness[1]),
        },
    }
