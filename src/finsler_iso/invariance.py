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

from .errors import MismatchError, OutOfDomainError
from .linalg import (
    Field,
    LinearMap,
    Vector,
    random_rotation,
    random_unitaries,
    random_unitary,
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


def _check_map(T: LinearMap, spec: MetricSpec) -> None:
    if T.dim_in != T.dim_out:
        raise MismatchError("symmetry candidates must be square")
    if T.dim_in != spec.dim:
        raise MismatchError(f"map dimension {T.dim_in} != spec dimension {spec.dim}")
    if T.field is not spec.field:
        raise MismatchError("map/spec field mismatch")


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


def _verdict(spec: MetricSpec, G: np.ndarray, H: np.ndarray, dev: np.ndarray, tol: float,
             skipped: int) -> SymmetryVerdict:
    """The verdict on the rows of dev; the witness is the first row with the
    largest deviation."""
    k = int(np.argmax(dev))
    max_dev = float(dev[k])
    ok = skipped == 0 and max_dev <= tol
    witness = None if ok else (Vector(G[k], spec.field), Vector(H[k], spec.field))
    return SymmetryVerdict(ok, max_dev, witness, len(dev), skipped)


def is_symmetry(T: LinearMap, spec: MetricSpec, n_samples: int = 200, seed: int = 0,
                tol: float = 1e-9) -> SymmetryVerdict:
    """Sampled test of rho_{Tg}(Th) = rho_g(h), deviations measured relatively.

    The n_samples pairs come from sample_pairs and each side is one
    eval_batch call.  The verdict reads the rows up to and including the
    first exit row, and samples_used counts them.  An exit row is one whose
    deviation passes 1000x the tolerance, or whose image base point Tg leaves
    the domain.  The latter violates the domain-preservation half of the
    definition: it is counted in `skipped`, its deviation is inf and it fails
    the verdict outright.
    """
    _check_map(T, spec)
    if n_samples < 1:
        raise ValueError("a symmetry test needs at least one sample (n_samples >= 1)")
    G, H = sample_pairs(spec, n_samples, np.random.default_rng(seed))
    M = T.entries.T
    dev, inside = _deviations(spec, G, H, G @ M, H @ M)
    exits = np.flatnonzero(dev > 1e3 * tol)  # inf on every domain exit
    used = int(exits[0]) + 1 if exits.size else n_samples
    return _verdict(spec, G, H, dev[:used], tol, int(not inside[used - 1]))


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
    """Invariance under Haar unitaries, one fresh sample pair per unitary.

    The unitaries come from random_unitaries (one stacked QR) unless given,
    the pairs from sample_pairs; the unitaries are applied in one stacked
    matmul and each side is one eval_batch call.  Every pair counts; a
    unitary that takes a base point out of the domain is an OutOfDomainError.
    """
    if (n_unitaries if unitaries is None else len(unitaries)) < 1:
        raise ValueError("the invariance suite needs at least one unitary")
    rng = np.random.default_rng(seed)
    if unitaries is None:
        U = random_unitaries(n_unitaries, spec.dim, spec.field, rng)
    else:
        for u in unitaries:
            _check_map(u, spec)
        U = np.stack([u.entries for u in unitaries])
    G, H = sample_pairs(spec, len(U), rng)
    dev, inside = _deviations(spec, G, H, (U @ G[:, :, None])[:, :, 0],
                              (U @ H[:, :, None])[:, :, 0])
    if not inside.all():
        raise OutOfDomainError("a unitary of the suite maps a base point out of the domain")
    return _verdict(spec, G, H, dev, tol, 0)


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
    values, _ = eval_batch(spec, *sample_pairs(spec, n, rng))
    return not (np.abs(values) > 1e-12).any()


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
        return ProbeReport(0, False, 0.0, None, 0, False, 0.0, vacuous=True,
                           map_samples=0, control_samples=0)

    def probe_map(ss) -> tuple[SymmetryVerdict, LinearMap]:
        rng = np.random.default_rng(ss)
        T = _random_noncongruence(spec.dim, spec.field, rng, min_sv_ratio)
        return is_symmetry(T, spec, n_samples, seed=int(rng.integers(2 ** 31)),
                           tol=deviation_threshold), T

    def probe_control(ss) -> SymmetryVerdict:
        rng = np.random.default_rng(ss)
        u = random_unitary(spec.dim, spec.field, int(rng.integers(2 ** 31)))
        c = float(np.exp(rng.uniform(-np.log(2.0), np.log(2.0)))) if spec.congruence_invariant else 1.0
        T = LinearMap(c * u.entries, spec.field)
        return is_symmetry(T, spec, n_samples, seed=int(rng.integers(2 ** 31)), tol=control_tol)

    map_results = [probe_map(ss) for ss in map_seeds]
    controls = [probe_control(ss) for ss in control_seeds]
    weakest, weakest_map = min(map_results, key=lambda t: t[0].max_deviation)
    control_worst = max((v.max_deviation for v in controls), default=0.0)
    return ProbeReport(
        maps_tested=len(map_results),
        all_failed=weakest.max_deviation > deviation_threshold,
        weakest_deviation=weakest.max_deviation,
        weakest_map=weakest_map,
        controls_tested=len(controls),
        controls_passed=control_worst <= control_tol,
        control_worst_deviation=control_worst,
        vacuous=False,
        map_samples=sum(v.samples_used for v, _ in map_results),
        control_samples=sum(v.samples_used for v in controls),
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
    if not maps:
        raise ValueError("the dim-2 exception check needs at least one map")
    spec = area_dim2(b)
    root = np.random.SeedSequence(seed)
    worst = 0.0
    for T, ss in zip(maps, root.spawn(len(maps))):
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
    if n_rotations < 1:
        raise ValueError("rotation sufficiency needs at least one rotation")
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


def verdict_to_json(verdict: SymmetryVerdict, spec_obj) -> dict:
    return {
        "spec": spec_obj,
        "verdict": "symmetry" if verdict.is_symmetry else "not-symmetry",
        "max_deviation": verdict.max_deviation,
        "witness": None if verdict.witness is None else {
            "g": vector_json(verdict.witness[0]),
            "h": vector_json(verdict.witness[1]),
        },
    }
