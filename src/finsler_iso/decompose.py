"""Extraction of canonical profiles from black-box metric oracles.

Given an isometry-invariant metric as an opaque callable, the canonical
profiles lambda(r, p, q), theta(r, tau) and (phi, psi) can be read off by
evaluating the oracle on a fixed orthonormal frame; extraction here returns
profiles that delegate to the oracle (no tabulation), so round-trips carry
no interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MismatchError, OutOfDomainError
from .linalg import (
    Field,
    Vector,
    basis_vector,
    inner,
    norm,
    random_gaussian_rows,
    row_dots,
    row_norms,
)
from .metrics import (
    FromLambda,
    MetricSpec,
    RadiusDomain,
    RiemannProfile,
    _array_form,
    deviations,
    eval_batch,
    eval_finsler,
    eval_sesquilinear,
    eval_sesquilinear_rows,
    sample_pairs,
    sesquilinear_profile,
)


class _RowsForm:
    """An oracle's fn over the rows of (N, dim) arrays, one array per vector
    argument: its rows form in one call when it has one, else a loop over fn."""

    def eval_rows(self, *arrays: np.ndarray) -> np.ndarray:
        if self.rows is not None:
            return self.rows(*arrays)
        return np.array([self.fn(*(Vector(v, self.field) for v in row)) for row in zip(*arrays)])


@dataclass(frozen=True)
class MetricOracle(_RowsForm):
    """A black-box rho(g, h) with a declared homogeneity degree in h, and
    optionally its rows form rows(G, H)."""

    fn: Callable[[Vector, Vector], float]
    dim: int
    field: Field
    domain: RadiusDomain
    alpha: float = 1.0
    rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class SesquiOracle(_RowsForm):
    """A black-box conjugate-symmetric sesquilinear sigma(g, f, h), and
    optionally its rows form rows(G, F, H)."""

    fn: Callable[[Vector, Vector, Vector], complex]
    dim: int
    field: Field
    domain: RadiusDomain
    rows: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None


def oracle_from_spec(spec: MetricSpec) -> MetricOracle:
    """The spec as an oracle of its own homogeneity degree: a lambda spec's
    alpha, else 1."""
    def rows(G: np.ndarray, H: np.ndarray) -> np.ndarray:
        values, inside = eval_batch(spec, G, H)
        if not inside.all():
            raise OutOfDomainError("a row's base point is outside the metric's domain")
        return values

    return MetricOracle(lambda g, h: eval_finsler(spec, g, h),
                        spec.dim, spec.field, spec.domain, rows=rows,
                        alpha=spec.alpha if isinstance(spec, FromLambda) else 1.0)


def sesqui_oracle_from_spec(spec: MetricSpec) -> SesquiOracle:
    profile = sesquilinear_profile(spec)
    if profile is None:
        raise ValueError(f"family {spec.family!r} has no sesquilinear form")
    return SesquiOracle(lambda g, f, h: eval_sesquilinear(profile, g, f, h),
                        spec.dim, spec.field, spec.domain,
                        rows=lambda G, F, H: eval_sesquilinear_rows(profile, G, F, H))


def _default_frame(dim: int, field: Field) -> tuple[Vector, Vector]:
    return basis_vector(dim, 0, field), basis_vector(dim, 1, field)


def _check_frame(oracle, frame) -> tuple[Vector, Vector]:
    if oracle.dim < 2:
        raise MismatchError("extraction needs dimension >= 2")
    if frame is None:
        return _default_frame(oracle.dim, oracle.field)
    e, f = frame
    if abs(norm(e) - 1.0) > 1e-10 or abs(norm(f) - 1.0) > 1e-10 or abs(inner(e, f)) > 1e-10:
        raise ValueError("extraction frame must be an orthonormal pair")
    return e, f


def _profile_fn(rows: Callable[..., np.ndarray]) -> Callable[..., float]:
    """A profile callable over scalars, the one-row view of rows, carrying
    rows as fn.rows, as a compiled text does, so a batch evaluates through
    one oracle rows call."""
    def fn(*args):
        return float(rows(*(np.array([a]) for a in args))[0])
    fn.rows = rows
    return fn


def _require_radii(r: np.ndarray, domain: RadiusDomain) -> None:
    """OutOfDomainError unless every r is a positive point of the domain: at
    r <= 0 the frame's base point r e would stand at the radius |r|."""
    bad = ~((r > 0.0) & domain.contains_rows(r))
    if bad.any():
        raise OutOfDomainError(f"r = {r[bad][0]} is outside the extracted profile's domain")


def validate_alpha(oracle: MetricOracle, n_samples: int = 24, seed: int = 0,
                   tol: float = 1e-8) -> float:
    """Worst relative violation of rho_g(t h) = |t|^alpha rho_g(h) on samples.

    The samples are drawn in one batch and each side is one oracle rows call.
    """
    if n_samples < 1:
        raise ValueError("the homogeneity check needs at least one sample (n_samples >= 1)")
    rng = np.random.default_rng(seed)
    G, H = sample_pairs(oracle, n_samples, rng)
    t = rng.uniform(0.2, 3.0, n_samples)
    want = (t ** oracle.alpha) * oracle.eval_rows(G, H)
    worst = float(deviations(oracle.eval_rows(G, t[:, None] * H), want, want).max())
    if worst > tol:
        raise ValueError(f"declared homogeneity degree {oracle.alpha} violated "
                         f"by {worst:g} on samples")
    return worst


def extract_lambda(oracle: MetricOracle, frame: tuple[Vector, Vector] | None = None,
                   check_alpha: bool = True) -> Callable[[float, float, float], float]:
    """lambda(r, p, q) = r^(-alpha) rho(r e, p e + q f) on the chosen frame,
    alpha being the oracle's."""
    e, f = (v.entries for v in _check_frame(oracle, frame))
    if check_alpha:
        validate_alpha(oracle)
    alpha = oracle.alpha

    def rows(r: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        _require_radii(r, oracle.domain)
        return oracle.eval_rows(r[:, None] * e, p[:, None] * e + q[:, None] * f) / (r ** alpha)

    return _profile_fn(rows)


def extract_theta(oracle: MetricOracle,
                  frame: tuple[Vector, Vector] | None = None) -> Callable[[float, float], float]:
    """theta(r, tau) = r lambda(r, cos tau, sin tau); needs alpha = 1."""
    if abs(oracle.alpha - 1.0) > 1e-12:
        raise ValueError("theta extraction needs a degree-1 oracle")
    lam = extract_lambda(oracle, frame).rows
    return _profile_fn(lambda r, tau: r * lam(r, np.cos(tau), np.sin(tau)))


def extract_nonsym_lambda(oracle: MetricOracle, frame: tuple[Vector, Vector] | None = None
                          ) -> Callable[[float, complex, float], float]:
    """Non-symmetric variant: p keeps the full scalar <h, g>, not its modulus."""
    e, f = (v.entries for v in _check_frame(oracle, frame))

    def rows(r: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        _require_radii(r, oracle.domain)
        if oracle.field is Field.REAL:
            p = np.real(p)
        return oracle.eval_rows(r[:, None] * e, p[:, None] * e + q[:, None] * f) / r

    return _profile_fn(rows)


def extract_phi_psi(oracle: SesquiOracle,
                    frame: tuple[Vector, Vector] | None = None) -> RiemannProfile:
    """phi(r) = sigma_{sqrt(r) e}(f, f) and psi(r) = (sigma_{sqrt(r) e}(e, e) - phi(r)) / r,
    after a check that the oracle is conjugate-symmetric on samples."""
    e, f = (v.entries for v in _check_frame(oracle, frame))
    _validate_conjugate_symmetry(oracle)
    domain = oracle.domain.squared()

    def sigma(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        _require_radii(r, domain)
        V = np.tile(v, (len(r), 1))
        return np.real(oracle.eval_rows(np.sqrt(r)[:, None] * e, V, V))

    phi = _profile_fn(lambda r: sigma(r, f))
    psi = _profile_fn(lambda r: (sigma(r, e) - phi.rows(r)) / r)
    return RiemannProfile(phi, psi, domain)


def _validate_conjugate_symmetry(oracle: SesquiOracle, n_samples: int = 16,
                                 seed: int = 0, tol: float = 1e-8) -> None:
    if n_samples < 1:
        raise ValueError("the symmetry check needs at least one sample (n_samples >= 1)")
    rng = np.random.default_rng(seed)
    G, F = sample_pairs(oracle, n_samples, rng)
    H = random_gaussian_rows(n_samples, oracle.dim, oracle.field, rng)
    a, b = oracle.eval_rows(G, F, H), oracle.eval_rows(G, H, F)
    if (deviations(a, np.conj(b), a) > tol).any():
        raise ValueError("oracle is not conjugate-symmetric on samples")


# ---------------------------------------------------------------------------
# Round-trip verification

@dataclass(frozen=True)
class RoundtripReport:
    max_relative_deviation: float
    witness: tuple[Vector, ...] | None
    samples: int
    passed: bool


def _roundtrip_rows(oracle: MetricOracle | SesquiOracle, n_samples: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """roundtrip_check's samples as row arrays, (G, H) or (G, F, H) for a
    sesquilinear oracle.  Sample i has h collinear with g (h = c g) when
    i % 10 == 0 and h orthogonal to g when i % 10 == 5."""
    G, H = sample_pairs(oracle, n_samples, rng)
    kind = np.arange(n_samples) % 10
    col, orth = kind == 0, kind == 5
    c = rng.standard_normal(int(col.sum()))
    if oracle.field is Field.COMPLEX:
        c = c * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(c)))
    H[col] = c[:, None] * G[col]
    Go = G[orth]
    H[orth] -= (row_dots(Go.conj(), H[orth]) / row_norms(Go) ** 2)[:, None] * Go
    if isinstance(oracle, SesquiOracle):
        return G, random_gaussian_rows(n_samples, oracle.dim, oracle.field, rng), H
    return G, H


def roundtrip_check(oracle: MetricOracle | SesquiOracle, extracted_spec: MetricSpec,
                    n_samples: int = 1000, seed: int = 0, tol: float = 1e-9) -> RoundtripReport:
    """Compare the oracle against its reconstruction on seeded samples.

    Every tenth sample is an edge pair (h collinear with g, then h
    orthogonal to g): those are the degenerate strata of the canonical
    invariants.  For a sesquilinear oracle the comparison runs on random
    triples against the reconstructed form.  The samples are drawn in one
    batch and each side is one rows call; the witness is the first sample
    with the largest deviation.
    """
    if n_samples < 1:
        raise ValueError("a round-trip needs at least one sample (n_samples >= 1)")
    sesqui = isinstance(oracle, SesquiOracle)
    profile = sesquilinear_profile(extracted_spec) if sesqui else None
    if sesqui and profile is None:
        raise ValueError("sesquilinear round-trip needs a Riemann-backed spec")
    rows = _roundtrip_rows(oracle, n_samples, np.random.default_rng(seed))
    got = oracle.eval_rows(*rows)
    if sesqui:
        want = eval_sesquilinear_rows(profile, *rows)
    else:
        want, inside = eval_batch(extracted_spec, *rows)
        if not inside.all():
            raise OutOfDomainError("a sample's base point is outside the rebuilt metric's domain")
    dev = deviations(got, want, got)
    k = int(np.argmax(dev))
    worst = float(dev[k])
    passed = worst <= tol
    witness = None if passed else tuple(Vector(a[k], oracle.field) for a in rows)
    return RoundtripReport(worst, witness, n_samples, passed)


# ---------------------------------------------------------------------------
# Tabulation for CSV export

def tabulate_theta(theta: Callable[[float, float], float], r_values: list[float],
                   tau_values: list[float]) -> list[tuple[float, float, float]]:
    """(r, tau, theta_value) rows over the grid, row-major in r."""
    r = np.repeat(np.array(r_values, dtype=float), len(tau_values))
    tau = np.tile(np.array(tau_values, dtype=float), len(r_values))
    return list(zip(r.tolist(), tau.tolist(), _array_form(theta)(r, tau).tolist()))


def tabulate_phi_psi(profile: RiemannProfile,
                     r_values: list[float]) -> list[tuple[float, float, float]]:
    """(r, phi, psi) rows; r here is the squared-norm argument."""
    r = np.array(r_values, dtype=float)
    return list(zip(r.tolist(), profile.phi_rows(r).tolist(), profile.psi_rows(r).tolist()))
