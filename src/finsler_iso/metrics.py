"""Metric families on inner-product spaces.

A MetricSpec is a metric built from a canonical profile (lambda, theta,
vartheta or a sesquilinear phi/psi pair), a named built-in (Euclidean,
Fubini-Study, the dim-2 area metric, the norm quotient) or a zero extension.
eval_finsler forms the invariants r = |g|, ip = <h, g> and q once; each family
is a function of them (p = |ip|, |h| = hypot(p, q)/r, angle atan2(q, p)), and
only Custom and ZeroExtended see vectors.  eval_batch does the same for the
rows of two arrays in one pass, and sample_pairs draws such rows.  Pointwise
criteria live here too.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, ClassVar

import numpy as np

import finsler_iso.expressions as expressions  # dotted: -X importtime reports it

from .errors import MismatchError, OutOfDomainError, ZeroVectorError
from .linalg import (
    Field,
    Vector,
    norm,
    norm_range_error,
    pair_invariants,
    pair_invariants_rows,
    random_gaussian_rows,
    row_norms,
)


# ---------------------------------------------------------------------------
# Radius domains

@dataclass(frozen=True)
class RadiusDomain:
    """A union of open intervals in [0, inf), with an optional zero point."""

    intervals: tuple[tuple[float, float], ...]
    includes_zero: bool = False

    def __post_init__(self):
        ivs = tuple(sorted((float(lo), float(hi)) for lo, hi in self.intervals))
        for lo, hi in ivs:
            if lo < 0.0 or not lo < hi:
                raise ValueError(f"invalid radius interval ({lo}, {hi})")
        for (_, hi1), (lo2, _) in zip(ivs, ivs[1:]):
            if hi1 > lo2:
                raise ValueError("radius intervals must be pairwise disjoint")
        object.__setattr__(self, "intervals", ivs)

    @staticmethod
    def positive() -> "RadiusDomain":
        return RadiusDomain(((0.0, math.inf),))

    def contains(self, r: float) -> bool:
        if r == 0.0:
            return self.includes_zero
        for lo, hi in self.intervals:
            if lo < r < hi:
                return True
        return False

    def contains_rows(self, r: np.ndarray) -> np.ndarray:
        """contains() for each entry of an array of radii."""
        if len(self.intervals) == 1 and not self.includes_zero:
            ((lo, hi),) = self.intervals
            return (lo < r) & (r < hi)
        inside = r == 0.0 if self.includes_zero else np.zeros(r.shape, dtype=bool)
        for lo, hi in self.intervals:
            inside |= (lo < r) & (r < hi)
        return inside

    def squared(self) -> "RadiusDomain":
        """Image under r -> r^2 (norm radii to sesquilinear arguments)."""
        return RadiusDomain(tuple((lo * lo, hi * hi) for lo, hi in self.intervals),
                            self.includes_zero)

    def sqrt_image(self) -> "RadiusDomain":
        """Image under r -> sqrt(r) (sesquilinear arguments to norm radii)."""
        return RadiusDomain(tuple((math.sqrt(lo), math.sqrt(hi)) for lo, hi in self.intervals),
                            self.includes_zero)


def _radius_range(lo: float, hi: float) -> tuple[float, float, bool]:
    """Where a radius in the interval (lo, hi) is drawn: uniformly in (a, b),
    or log-uniformly (a and b are then logarithms) when hi is infinite."""
    if math.isfinite(hi):
        pad = 0.01 * (hi - lo)
        return lo + pad, hi - pad, False
    lo_eff = lo * 1.01 if lo > 0.0 else 0.05
    return math.log(lo_eff), math.log(max(8.0, 4.0 * lo_eff)), True


def sample_radius(domain: RadiusDomain, rng: np.random.Generator) -> float:
    """A reproducible radius strictly inside one of the domain's intervals."""
    a, b, log_scale = _radius_range(*domain.intervals[int(rng.integers(len(domain.intervals)))])
    x = float(rng.uniform(a, b))
    return math.exp(x) if log_scale else x


def sample_pairs(spec: MetricSpec, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n pairs (g, h) as the rows of two (n, dim) arrays of the spec's dtype.

    Only the spec's dim, field and domain are read, so a
    decompose.SesquiOracle serves as well.  |g| is drawn inside the domain by
    sample_radius's rules, g's direction and h are Gaussian.  The draws are
    batched, so a seed gives other points than n calls of sample_radius and
    random_vector_with_norm would.
    """
    ranges = np.array([_radius_range(lo, hi) for lo, hi in spec.domain.intervals])
    a, b, log_scale = ranges[rng.integers(len(ranges), size=n)].T
    radii = rng.uniform(a, b)
    np.exp(radii, out=radii, where=log_scale != 0.0)
    G = random_gaussian_rows(n, spec.dim, spec.field, rng)
    norms = row_norms(G)
    while (short := norms < 1e-12).any():  # astronomically unlikely; resample for safety
        G[short] = random_gaussian_rows(int(short.sum()), spec.dim, spec.field, rng)
        norms = row_norms(G)
    G *= (radii / norms)[:, None]
    return G, random_gaussian_rows(n, spec.dim, spec.field, rng)


def domain_grid(domain: RadiusDomain, points_per_interval: int = 4) -> list[float]:
    """Deterministic interior sample radii, for validation grids."""
    out: list[float] = []
    for lo, hi in domain.intervals:
        if math.isfinite(hi):
            step = (hi - lo) / (points_per_interval + 1)
            out.extend(lo + step * (i + 1) for i in range(points_per_interval))
        else:
            base = lo * 1.25 if lo > 0.0 else 0.25
            out.extend(base * (2.0 ** i) for i in range(points_per_interval))
    return out


# ---------------------------------------------------------------------------
# Profiles

@dataclass(frozen=True)
class RiemannProfile:
    """The (phi, psi) pair of an invariant sesquilinear form; arguments are |g|^2."""

    phi: Callable[[float], float]
    psi: Callable[[float], float]
    domain: RadiusDomain = RadiusDomain.positive()

    @property
    def phi_rows(self) -> Callable[[np.ndarray], np.ndarray]:
        return _array_form(self.phi)

    @property
    def psi_rows(self) -> Callable[[np.ndarray], np.ndarray]:
        return _array_form(self.psi)


def _array_form(fn: Callable) -> Callable[..., np.ndarray]:
    """A profile callable's form over equal-shape 1-d arrays: its own `rows`
    attribute (a compiled text carries one, as do the profiles decompose
    extracts from a metric), else the callable called element by element."""
    rows = getattr(fn, "rows", None)
    if rows is not None:
        return rows
    return lambda *cols: np.fromiter(map(fn, *(c.tolist() for c in cols)), float, len(cols[0]))


def lambda_profile(text: str) -> Callable[[float, float, float], float]:
    return expressions.compile_positional(text, ("r", "p", "q"))


def theta_profile(text: str) -> Callable[[float, float], float]:
    return expressions.compile_positional(text, ("r", "tau"))


def vartheta_profile(text: str) -> Callable[[float], float]:
    return expressions.compile_positional(text, ("tau",))


def nonsym_lambda_profile(text: str, field: Field) -> Callable[[float, complex, float], float]:
    if field is Field.REAL:
        return expressions.compile_positional(text, ("r", "p", "q"))
    # Complex p enters the expression as the real pair (pre, pim).
    fn = expressions.compile_positional(text, ("r", "pre", "pim", "q"))

    def lam(r, p, q):
        return fn(r, p.real, p.imag, q)
    lam.text, lam.rows = text, lambda r, p, q: fn.rows(r, p.real, p.imag, q)
    return lam


def riemann_profile(phi_text: str, psi_text: str,
                    domain: RadiusDomain | None = None) -> RiemannProfile:
    return RiemannProfile(
        expressions.compile_positional(phi_text, ("r",)),
        expressions.compile_positional(psi_text, ("r",)),
        domain if domain is not None else RadiusDomain.positive())


def congruence_invariant_riemann(a: float, b: float) -> RiemannProfile:
    """The pair phi(r) = a/r, psi(r) = b/r^2; (1, -1) is the Fubini-Study profile.

    Under the pointwise criterion, positive definiteness of this family needs
    both a > 0 and a + b > 0 (the weaker condition a + b > 0 alone is
    sometimes quoted; the strict form is what check_positive_definite tests).
    """
    return riemann_profile(f"{float(a)!r}/r", f"{float(b)!r}/(r^2)")


def fubini_study_profile() -> RiemannProfile:
    return congruence_invariant_riemann(1.0, -1.0)


# ---------------------------------------------------------------------------
# Metric specs

@dataclass(frozen=True)
class MetricSpec:
    dim: int
    field: Field
    domain: RadiusDomain

    family: ClassVar[str] = "?"
    congruence_invariant: ClassVar[bool] = False
    defined_at_zero: ClassVar[bool] = False  # rho_0 exists (zero extensions, custom metrics)
    alpha = 1.0  # the degree in h: not a field, so lambda and custom specs end with theirs

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def _eval(self, g: Vector, h: Vector, r: float) -> float:
        """rho_g(h) for checked vectors whose radius r = |g| lies in the domain
        (r > 0 unless the spec is defined at 0)."""
        ip, q = pair_invariants(g, h, r)
        return self._value(r, ip, q)

    def _value(self, r: float, ip: float | complex, q: float) -> float:
        """rho from the invariants r = |g|, ip = <h, g> and q, with r > 0."""
        raise NotImplementedError

    def _values(self, r: np.ndarray, ip: np.ndarray, q: np.ndarray,
                G: np.ndarray, H: np.ndarray) -> np.ndarray:
        """rho on rows whose base points lie in the domain, from their
        invariants.  Every family is one numpy expression of them; this
        default, for Custom and ZeroExtended, goes row by row through _eval."""
        f = self.field
        return np.array([self._eval(Vector(g, f), Vector(h, f), x)
                         for g, h, x in zip(G, H, r.tolist())], dtype=float)


@dataclass(frozen=True)
class Euclidean(MetricSpec):
    family: ClassVar[str] = "euclidean"

    def _value(self, r, ip, q):
        return math.hypot(abs(ip), q) / r

    def _values(self, r, ip, q, G, H):
        return np.hypot(np.abs(ip), q) / r


@dataclass(frozen=True)
class FubiniStudy(MetricSpec):
    """Fubini-Study on the punctured space, evaluated in canonical form.

    The value q/r^2 equals sqrt of the sesquilinear diagonal but stays
    accurate for nearly collinear (g, h), where the phi/psi expression
    cancels catastrophically.
    """

    family: ClassVar[str] = "fubini-study"
    congruence_invariant: ClassVar[bool] = True

    def _value(self, r, ip, q):
        return q / (r * r)

    def _values(self, r, ip, q, G, H):
        return q / (r * r)


def _where_nonzero(nh: np.ndarray, value: Callable) -> np.ndarray:
    """value(k) on the rows k with |h| != 0 and 0 on the others, as in the
    scalar forms, which skip the profile there."""
    if nh.all():
        return value(slice(None))
    out = np.zeros(nh.shape)
    k = nh != 0.0
    out[k] = value(k)
    return out


@dataclass(frozen=True)
class FromLambda(MetricSpec):
    """lambda(r, p, q): even in p and in q, homogeneous of degree alpha in (p, q)."""

    lam: Callable[[float, float, float], float]
    alpha: float = 1.0
    family: ClassVar[str] = "lambda"

    def _value(self, r, ip, q):
        return float(self.lam(r, abs(ip), q))

    def _values(self, r, ip, q, G, H):
        return _array_form(self.lam)(r, np.abs(ip), q)


@dataclass(frozen=True)
class FromTheta(MetricSpec):
    """rho_g(h) = |h| theta(|g|, tau) with tau = angle(g, h) in [0, pi/2]."""

    theta: Callable[[float, float], float]
    family: ClassVar[str] = "theta"

    def _value(self, r, ip, q):
        p = abs(ip)
        nh = math.hypot(p, q) / r
        return 0.0 if nh == 0.0 else nh * float(self.theta(r, math.atan2(q, p)))

    def _values(self, r, ip, q, G, H):
        fn = _array_form(self.theta)
        c = getattr(fn, "constant", None)  # a constant theta needs no angle
        p = np.abs(ip)
        nh = np.hypot(p, q) / r
        return _where_nonzero(nh, lambda k: nh[k] * (
            fn(r[k], np.arctan2(q[k], p[k])) if c is None else c))


@dataclass(frozen=True)
class FromNonSymLambda(MetricSpec):
    """lambda(r, p, q) with p = <h, g> a scalar in F; positively homogeneous, even in q."""

    lam: Callable[[float, complex, float], float]
    family: ClassVar[str] = "nonsym-lambda"

    def _value(self, r, ip, q):
        return float(self.lam(r, ip, q))

    def _values(self, r, ip, q, G, H):
        return _array_form(self.lam)(r, ip, q)


_UNDEFINED_SIGMA = ("riemann value is undefined: phi(|g|^2)|h|^2 + psi(|g|^2)|<h, g>|^2 is "
                    "NaN (its terms overflow to opposite infinities, or a profile value is NaN)")


@dataclass(frozen=True)
class FromRiemann(MetricSpec):
    """Finsler metric induced by a sesquilinear profile: sign(v) sqrt|v|."""

    profile: RiemannProfile
    indefinite_warning: bool = False
    family: ClassVar[str] = "riemann"

    def _value(self, r, ip, q):
        r2, p = r * r, abs(ip)
        p2 = p * p  # |h|^2 = (p^2 + q^2) / r^2; a Python float's ** raises on overflow
        phi, psi = float(self.profile.phi(r2)), float(self.profile.psi(r2))
        v = (0.0 if phi == 0.0 else phi * (p2 + q * q) / r2) + (0.0 if psi == 0.0 else psi * p2)
        if math.isnan(v):
            raise expressions.EvalError(_UNDEFINED_SIGMA)
        if v == 0.0:
            return 0.0
        return math.copysign(math.sqrt(abs(v)), v)

    def _values(self, r, ip, q, G, H):
        prof = self.profile
        r2 = r * r
        phi, psi = prof.phi_rows(r2), prof.psi_rows(r2)
        with np.errstate(over="ignore", invalid="ignore"):  # inf as in _value; NaN raises below
            p2 = np.abs(ip) ** 2
            v = (np.where(phi == 0.0, 0.0, phi * (p2 + q * q) / r2)
                 + np.where(psi == 0.0, 0.0, psi * p2))
        if np.isnan(v).any():
            raise expressions.EvalError(_UNDEFINED_SIGMA)
        return np.where(v == 0.0, 0.0, np.copysign(np.sqrt(np.abs(v)), v))


@dataclass(frozen=True)
class CongruenceInvariant(MetricSpec):
    """rho_g(h) = (|h|/|g|) vartheta(angle(g, h)); invariant under all congruences."""

    vartheta: Callable[[float], float]
    family: ClassVar[str] = "congruence-invariant"
    congruence_invariant: ClassVar[bool] = True

    def _value(self, r, ip, q):
        p = abs(ip)
        nh = math.hypot(p, q) / r
        return 0.0 if nh == 0.0 else (nh / r) * float(self.vartheta(math.atan2(q, p)))

    def _values(self, r, ip, q, G, H):
        fn = _array_form(self.vartheta)
        c = getattr(fn, "constant", None)  # a constant vartheta needs no angle
        p = np.abs(ip)
        nh = np.hypot(p, q) / r
        return _where_nonzero(nh, lambda k: (nh[k] / r[k]) * (
            fn(np.arctan2(q[k], p[k])) if c is None else c))


@dataclass(frozen=True)
class AreaDim2(MetricSpec):
    """b * |g| |h| sin(angle): b times the parallelogram area over R^2.

    Evaluated as b * q, which equals the sine form exactly but needs no
    angle near collinear pairs.
    """

    b: float = 1.0
    family: ClassVar[str] = "area"

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 2:
            raise ValueError("the area metric is defined in dimension 2 only")

    def _value(self, r, ip, q):
        return self.b * q

    def _values(self, r, ip, q, G, H):
        return self.b * q


@dataclass(frozen=True)
class ZeroExtended(MetricSpec):
    """An invariant metric on the punctured space extended by rho_0(h) = b |h|."""

    b: float = 0.0
    inner_spec: MetricSpec | None = None
    family: ClassVar[str] = "zero-extended"
    defined_at_zero: ClassVar[bool] = True

    def __post_init__(self):
        super().__post_init__()
        if self.inner_spec is None:
            raise ValueError("zero extension needs an inner spec")
        if not self.domain.includes_zero:
            raise ValueError("zero extension requires a domain including 0")
        if self.inner_spec.domain.includes_zero:
            raise ValueError("the wrapped spec must exclude 0")

    def _eval(self, g, h, r):
        if r == 0.0:
            return self.b * norm(h)
        return eval_finsler(self.inner_spec, g, h)


@dataclass(frozen=True)
class Custom(MetricSpec):
    """A black-box metric callable of declared degree alpha in h; usable
    everywhere but not serializable."""

    fn: Callable[[Vector, Vector], float] = None  # type: ignore[assignment]
    alpha: float = 1.0
    family: ClassVar[str] = "custom"
    defined_at_zero: ClassVar[bool] = True

    def __post_init__(self):
        super().__post_init__()
        if self.fn is None:
            raise ValueError("a custom metric needs its callable")

    def _eval(self, g, h, r):
        return float(self.fn(g, h))


def euclidean(dim: int, field: Field = Field.REAL) -> Euclidean:
    return Euclidean(dim, field, RadiusDomain.positive())


def fubini_study(dim: int, field: Field = Field.REAL) -> FubiniStudy:
    return FubiniStudy(dim, field, RadiusDomain.positive())


def norm_quotient(dim: int, field: Field = Field.REAL) -> CongruenceInvariant:
    return CongruenceInvariant(dim, field, RadiusDomain.positive(), vartheta_profile("1"))


def area_dim2(b: float = 1.0, field: Field = Field.REAL) -> AreaDim2:
    return AreaDim2(2, field, RadiusDomain.positive(), b)


def zero_extended(b: float, inner_spec: MetricSpec) -> ZeroExtended:
    domain = replace(inner_spec.domain, includes_zero=True)
    return ZeroExtended(inner_spec.dim, inner_spec.field, domain, b, inner_spec)


# ---------------------------------------------------------------------------
# Evaluation

def _check_compatible(spec: MetricSpec, *vs: Vector) -> None:
    for v in vs:
        if v.dim != spec.dim:
            raise MismatchError(f"vector dimension {v.dim} != spec dimension {spec.dim}")
        if v.field is not spec.field:
            raise MismatchError(f"vector field {v.field.value} != spec field {spec.field.value}")


def eval_finsler(spec: MetricSpec, g: Vector, h: Vector) -> float:
    """rho_g(h).  g = 0 is allowed only when the spec extends through zero; a
    g != 0 whose |g| underflows to 0 or overflows to inf is out of domain
    (unless a Custom metric, which sees the vectors, takes g there)."""
    if not (g.field is spec.field is h.field and len(g.entries) == spec.dim == len(h.entries)):
        _check_compatible(spec, g, h)
    r = norm(g)
    if r == 0.0 or not spec.domain.contains(r):
        if (r == math.inf or r == 0.0 and not isinstance(spec, Custom)) and g.entries.any():
            raise norm_range_error(r)
        if not spec.domain.contains(r):
            raise OutOfDomainError(f"|g| = {r} is outside the radius domain")
        if not spec.defined_at_zero:
            raise OutOfDomainError("base point g = 0 is outside the metric's domain")
    return spec._eval(g, h, r)


def eval_batch(spec: MetricSpec, G: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho_g(h) for each row pair of two (N, dim) arrays, in one pass.

    Returns (values, inside): inside marks the rows where eval_finsler would
    not raise OutOfDomainError (|g| in the radius domain, and the rules for
    g = 0 and for a |g| that under- or overflows); values is 0 on the other
    rows.  Dimension and field are checked once, as the arrays' shape and dtype.
    """
    G, H = np.asarray(G), np.asarray(H)
    if G.ndim != 2 or G.shape != H.shape or G.shape[1] != spec.dim:
        raise MismatchError(f"arrays of shape {G.shape} and {H.shape} are not rows "
                            f"of dimension {spec.dim}")
    if G.dtype != (dtype := spec.field.dtype) or H.dtype != dtype:
        raise MismatchError(f"array dtypes {G.dtype} and {H.dtype} are not the "
                            f"{spec.field.value} field's {dtype}")
    return _eval_rows(spec, G, H)


def _inside_rows(spec: MetricSpec, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|g| per row of G and eval_batch's inside mask (|g| may overflow to inf: outside)."""
    r = row_norms(G)
    inside = spec.domain.contains_rows(r)
    if spec.domain.includes_zero and (zero := r == 0.0).any():  # g = 0, or |g| underflows
        inside &= ~zero | (spec.defined_at_zero & (isinstance(spec, Custom) | ~G.any(axis=1)))
    return r, inside


def _eval_rows(spec: MetricSpec, G: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eval_batch on arrays already known to be rows of the spec's dimension and dtype."""
    # |g| (then outside), <h, g>, q and rho overflow to inf silently, as in eval_finsler
    with np.errstate(over="ignore"):
        r, inside = _inside_rows(spec, G)
        if inside.all():
            return spec._values(r, *pair_invariants_rows(G, H, r), G, H), inside
        values = np.zeros(len(r))
        G, H, r = G[inside], H[inside], r[inside]
        values[inside] = spec._values(r, *pair_invariants_rows(G, H, r), G, H)
    return values, inside


def eval_sesquilinear(profile: RiemannProfile, g: Vector, f: Vector, h: Vector):
    """sigma_g(f, h) = phi(|g|^2) <f,h> + psi(|g|^2) <f,g> <g,h>, a float over R
    and a complex over C: the one-row case of eval_sesquilinear_rows."""
    return eval_sesquilinear_rows(profile, g.entries[None], f.entries[None],
                                  h.entries[None])[0].item()


def eval_sesquilinear_rows(profile: RiemannProfile, G: np.ndarray, F: np.ndarray,
                           H: np.ndarray) -> np.ndarray:
    """sigma for the rows of three (N, dim) arrays of one dtype, in one pass.

    Raises when any row's g is 0, is not 0 but has a |g| that under- or
    overflows, or has a |g|^2 outside the profile's domain, and EvalError when
    any row's sigma is NaN (its terms overflow to opposite infinities).  A
    coefficient phi or psi that is 0 makes its term 0, even where the inner
    products overflow.
    """
    if not (G.shape == F.shape == H.shape and G.ndim == 2) or not (G.dtype == F.dtype == H.dtype):
        raise MismatchError("sigma needs three vectors, or row arrays, of one dimension and field")
    with np.errstate(over="ignore"):
        r2 = row_norms(G) ** 2
    degenerate = np.flatnonzero((r2 == 0.0) | (r2 == math.inf))
    if degenerate.size:
        k = degenerate[0]
        raise (norm_range_error(r2[k]) if G[k].any()
               else ZeroVectorError("sigma is undefined at g = 0"))
    if not profile.domain.contains_rows(r2).all():
        raise OutOfDomainError("a row's |g|^2 is outside the profile domain")
    phi, psi = profile.phi_rows(r2), profile.psi_rows(r2)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN raises below
        sigma = (np.where(phi == 0.0, 0.0, _scaled(phi, np.vecdot(H, F)))
                 + np.where(psi == 0.0, 0.0, _scaled(psi, np.vecdot(G, F)) * np.vecdot(H, G)))
    if np.isnan(sigma).any():
        raise expressions.EvalError("sigma is undefined: phi(|g|^2)<f, h> + "
                                    "psi(|g|^2)<f, g><g, h> is NaN")
    return sigma


def _scaled(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """c z for real c, scaling a complex z's real and imaginary parts apart:
    numpy's complex product would form 0 * inf = NaN from z = inf + 0j."""
    if z.dtype.kind == "c":
        return (c[:, None] * np.stack([z.real, z.imag], axis=1)).view(complex)[:, 0]
    return c * z


def sesquilinear_profile(spec: MetricSpec) -> RiemannProfile | None:
    """The (phi, psi) pair behind a spec, when it has one."""
    if isinstance(spec, FromRiemann):
        return spec.profile
    if isinstance(spec, FubiniStudy):
        return fubini_study_profile()
    return None


def induced_finsler(profile: RiemannProfile, dim: int,
                    field: Field = Field.REAL) -> FromRiemann:
    """The Finsler metric sign(v) sqrt|v| with v = sigma_g(h, h).

    Probes v on 64 pairs from sample_pairs with default_rng(0) and flags the
    spec (plus a RuntimeWarning) when any sampled v is negative, i.e. the
    profile is not positive semi-definite there.
    """
    spec = FromRiemann(dim, field, profile.domain.sqrt_image(), profile)
    values, _ = eval_batch(spec, *sample_pairs(spec, 64, np.random.default_rng(0)))
    # sign(v) sqrt|v| < -1e-6 exactly when v < -1e-12.
    if (values < -1e-6).any():
        warnings.warn("sesquilinear profile takes negative values; induced "
                      "metric uses sign(v) sqrt|v|", RuntimeWarning, stacklevel=2)
        return replace(spec, indefinite_warning=True)
    return spec


# ---------------------------------------------------------------------------
# Pointwise criteria

class PDVerdict(enum.Enum):
    POSITIVE_DEFINITE = "PD"
    SEMI_DEFINITE_DEGENERATE = "PSD-degenerate"
    INDEFINITE = "indefinite"


def check_positive_definite(profile: RiemannProfile, r_samples: list[float],
                            tol: float = 1e-8) -> list[PDVerdict]:
    """Per-sample verdict from the pair (phi(r), phi(r) + r psi(r)).

    PD needs both strictly positive; the degenerate verdict means both are
    non-negative with at least one vanishing (within tol).
    """
    r = np.array(r_samples, dtype=float)
    outside = ~profile.domain.contains_rows(r)
    if outside.any():
        raise OutOfDomainError(f"sample r = {r[outside][0]} is outside the profile domain")
    a = profile.phi_rows(r)
    c = a + r * profile.psi_rows(r)
    return [PDVerdict.POSITIVE_DEFINITE if m > tol
            else PDVerdict.SEMI_DEFINITE_DEGENERATE if m >= -tol
            else PDVerdict.INDEFINITE
            for m in np.where(c < a, c, a).tolist()]


def check_kaehler(profile: RiemannProfile, r_samples: list[float],
                  tol: float | None = None) -> list[bool]:
    """Whether psi matches the centered difference of phi, step max(1e-5, 1e-5 r), at each r.

    Meaningful over the complex field, where it characterizes the Kaehler
    property of the invariant Hermitean metric.
    """
    r = np.array(r_samples, dtype=float)
    step = np.maximum(1e-5, 1e-5 * r)
    near = ~(profile.domain.contains_rows(r - step) & profile.domain.contains_rows(r + step))
    if near.any():
        k = int(np.argmax(near))
        raise ValueError(f"sample r = {r[k]} is closer than {step[k]} to the domain boundary")
    up, down = np.split(profile.phi_rows(np.concatenate([r + step, r - step])), 2)
    d = (up - down) / (2.0 * step)
    psi = profile.psi_rows(r)
    t = tol if tol is not None else 1e-6 * (1.0 + np.abs(psi))
    return (np.abs(psi - d) <= t).tolist()


def deviations(got: np.ndarray, want: np.ndarray, ref: np.ndarray | None = None) -> np.ndarray:
    """|got - want| per row, over 1 + |ref| when ref is given.

    A NaN deviation comes from an infinite (or NaN) value: it counts as 0
    where got and want are the same infinity and as inf otherwise, so a
    sample that is infinite on one side only fails a tolerance.
    """
    with np.errstate(invalid="ignore"):
        dev = np.abs(got - want)
        if ref is not None:
            dev = dev / (1.0 + np.abs(ref))
    nan = np.isnan(dev)
    if nan.any():
        dev[nan] = np.where(got[nan] == want[nan], 0.0, np.inf)
    return dev


@dataclass(frozen=True)
class HomothetyVerdict:
    invariant: bool
    max_deviation: float
    witness: tuple[Vector, Vector] | None
    samples_used: int
    skipped: int


def check_homothety_invariance(spec: MetricSpec, alpha: float, n_samples: int = 200,
                               seed: int = 0, tol: float = 1e-10) -> HomothetyVerdict:
    """Test rho_{alpha g}(alpha h) = rho_g(h) on seeded samples.

    The pairs come from sample_pairs and each side is one eval_batch call.
    Samples whose scaled radius leaves the domain are skipped and counted;
    the check fails loudly if every sample is skipped.  The witness is the
    first sample with the largest deviation, by the rule of deviations().
    """
    if alpha <= 0.0 or alpha == 1.0:
        raise ValueError("alpha must be positive and != 1")
    if n_samples < 1:
        raise ValueError("the homothety check needs at least one sample")
    G, H = sample_pairs(spec, n_samples, np.random.default_rng(seed))
    base, _ = eval_batch(spec, G, H)
    mapped, kept = eval_batch(spec, alpha * G, alpha * H)
    used = int(kept.sum())
    if used == 0:
        raise ValueError("all samples skipped: alpha * R does not meet R on the sampler")
    dev = deviations(mapped, base)
    dev[~kept] = 0.0
    k = int(np.argmax(dev))
    max_dev = float(dev[k])
    ok = max_dev <= tol
    witness = None if ok else (Vector(G[k], spec.field), Vector(H[k], spec.field))
    return HomothetyVerdict(ok, max_dev, witness, used, n_samples - used)


# ---------------------------------------------------------------------------
# Profile validation (sampling-based; profiles are black-box callables)

@dataclass(frozen=True)
class ProfileValidation:
    ok: bool
    worst_homogeneity: float
    worst_evenness: float
    checked: int


_T_FACTORS = (0.0, 0.5, 1.0, 2.0)


def validate_profile(spec: MetricSpec, grid_size: int = 4, tol: float = 1e-9) -> ProfileValidation:
    """Sample the homogeneity/evenness hypotheses of the underlying profile.

    The lambda profile is called once on a grid of (r, p, q) and once per
    hypothesis, with deviations by the rule of deviations().  Report-only:
    never raises on a violation, but raises ValueError for a family without a
    lambda profile, which has no hypotheses to test.
    """
    if not isinstance(spec, (FromLambda, FromNonSymLambda)):
        raise ValueError(f"family {spec.family!r} has no lambda profile to validate")
    radii = domain_grid(spec.domain, grid_size)
    ang = 0.5 * math.pi * (np.arange(grid_size) + 0.5) / grid_size
    rho = np.array([[0.3], [1.0], [3.0]])
    r = np.repeat(radii, 3 * grid_size)
    p = np.tile((rho * np.cos(ang)).ravel(), len(radii))
    q = np.tile((rho * np.sin(ang)).ravel(), len(radii))
    fn = _array_form(spec.lam)
    if isinstance(spec, FromNonSymLambda):
        if spec.field is Field.COMPLEX:  # p also turned by the phase e^{2.1 i}
            r, q = np.tile(r, 2), np.tile(q, 2)
            p = np.concatenate([p, p * complex(math.cos(2.1), math.sin(2.1))])
        # lambda(r, t p, +-t q) = t lambda(r, p, q); lambda is even in q
        scaled = [(t * p, s * t * q, t) for t in _T_FACTORS for s in (1.0, -1.0)]
        mirrored = [(p, -q, 1.0)]
    else:
        alpha = spec.alpha
        # lambda(r, t p, t q) = t^alpha lambda(r, p, q); lambda is even in p and in q
        scaled = [(t * p, t * q, t ** alpha) for t in _T_FACTORS if t > 0.0 or alpha > 0.0]
        mirrored = [(-p, q, 1.0), (p, -q, 1.0)]
    base = fn(r, p, q)

    def worst(cases) -> float:
        """The largest deviation of fn(r, p', q') from c fn(r, p, q) over cases (p', q', c)."""
        ps, qs, cs = zip(*cases)
        with np.errstate(invalid="ignore"):  # 0 * inf: a NaN want, which deviations() counts
            want = np.concatenate([c * base for c in cs])
        got = fn(np.tile(r, len(cases)), np.concatenate(ps), np.concatenate(qs))
        return float(deviations(got, want, want).max())

    worst_h, worst_e = worst(scaled), worst(mirrored)
    return ProfileValidation(worst_h <= tol and worst_e <= tol, worst_h, worst_e, len(r))


# ---------------------------------------------------------------------------
# JSON serialization (shared by the CLI and test fixtures)

def domain_to_json(domain: RadiusDomain) -> dict:
    return {
        "intervals": [[lo, hi if math.isfinite(hi) else None] for lo, hi in domain.intervals],
        "includes_zero": domain.includes_zero,
    }


_JSON_KINDS = {int: ("an integer", int), float: ("a number", (int, float)),
               bool: ("a boolean", bool)}


def _typed(value, kind: type, key: str):
    """value, as a float for kind float, when it has that JSON type, else a
    ValueError naming key.  A boolean is neither an integer nor a number."""
    name, types = _JSON_KINDS[kind]
    if not isinstance(value, types) or isinstance(value, bool) is not (kind is bool):
        raise ValueError(f"{key} has the wrong type: {type(value).__name__}, not {name}")
    return float(value) if kind is float else value


def domain_from_json(obj: dict) -> RadiusDomain:
    ivs = tuple((_typed(lo, float, "an interval end"),
                 math.inf if hi is None else _typed(hi, float, "an interval end"))
                for lo, hi in obj["intervals"])
    return RadiusDomain(ivs, _typed(obj.get("includes_zero", False), bool, "includes_zero"))


def _text(fn: Callable) -> str | None:
    return getattr(fn, "text", None)


# family -> (its params, its spec from (dim, field, domain, params)).  A
# profile's params are its texts; a callable without one is not serializable.
_FAMILIES: dict[str, tuple[Callable[..., dict], Callable[..., MetricSpec]]] = {
    "euclidean": (lambda s: {}, lambda d, f, dom, p: Euclidean(d, f, dom)),
    "fubini-study": (lambda s: {}, lambda d, f, dom, p: FubiniStudy(d, f, dom)),
    "lambda": (lambda s: {"lam": _text(s.lam), "alpha": s.alpha},
               lambda d, f, dom, p: FromLambda(d, f, dom, lambda_profile(p["lam"]),
                                               _typed(p.get("alpha", 1.0), float, "alpha"))),
    "theta": (lambda s: {"theta": _text(s.theta)},
              lambda d, f, dom, p: FromTheta(d, f, dom, theta_profile(p["theta"]))),
    "nonsym-lambda": (lambda s: {"lam": _text(s.lam)},
                      lambda d, f, dom, p: FromNonSymLambda(
                          d, f, dom, nonsym_lambda_profile(p["lam"], f))),
    "riemann": (lambda s: {"phi": _text(s.profile.phi), "psi": _text(s.profile.psi)},
                lambda d, f, dom, p: replace(induced_finsler(
                    riemann_profile(p["phi"], p["psi"], dom.squared()), d, f), domain=dom)),
    "congruence-invariant": (lambda s: {"vartheta": _text(s.vartheta)},
                             lambda d, f, dom, p: CongruenceInvariant(
                                 d, f, dom, vartheta_profile(p["vartheta"]))),
    "area": (lambda s: {"b": s.b},
             lambda d, f, dom, p: AreaDim2(d, f, dom, _typed(p.get("b", 1.0), float, "b"))),
    "zero-extended": (lambda s: {"b": s.b, "inner": spec_to_json(s.inner_spec)},
                      # the inner spec is read first, so its errors come first
                      lambda d, f, dom, p: ZeroExtended(d, f, dom, inner_spec=spec_from_json(
                          p["inner"]), b=_typed(p["b"], float, "b"))),
}


def spec_to_json(spec: MetricSpec) -> dict:
    if spec.family not in _FAMILIES:
        raise ValueError(f"family {spec.family!r} is not serializable")
    params = _FAMILIES[spec.family][0](spec)
    if None in params.values():  # a profile given as a callable, not as text
        raise ValueError(f"{spec.family} profile is not expression-backed: not serializable")
    return {
        "family": spec.family,
        "dim": spec.dim,
        "field": spec.field.value,
        "domain": domain_to_json(spec.domain),
        "params": params,
    }


def spec_from_json(obj: dict) -> MetricSpec:
    """The spec of a JSON object in spec_to_json's form; ValueError names a
    missing key or a value of the wrong type."""
    if not isinstance(obj, dict):
        raise ValueError(f"a metric spec is a JSON object, not {type(obj).__name__}")
    if not isinstance(obj.get("params", {}), dict):
        raise ValueError(f"params is a JSON object, not {type(obj['params']).__name__}")
    try:
        return _spec_from_json(obj)
    except KeyError as exc:
        raise ValueError(f"the metric spec lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"a metric spec value has the wrong type: {exc}") from None


def _spec_from_json(obj: dict) -> MetricSpec:
    family = obj["family"]
    dim = _typed(obj["dim"], int, "dim")
    field = Field(obj["field"])
    domain = domain_from_json(obj["domain"]) if "domain" in obj else RadiusDomain.positive()
    params = obj.get("params", {})
    build = _FAMILIES[family][1] if isinstance(family, str) and family in _FAMILIES else None
    if build is None:
        raise ValueError(f"unknown metric family {family!r}")
    return build(dim, field, domain, params)
