"""Metric families on inner-product spaces.

A MetricSpec is a metric built from a canonical profile (lambda, theta,
vartheta or a sesquilinear phi/psi pair), a named built-in (Euclidean,
Fubini-Study, the dim-2 area metric, the norm quotient) or a zero extension.
eval_finsler forms the invariants r = |g|, ip = <h, g> and q once; each family
is a function of them (p = |ip|, |h| = hypot(p, q)/r, angle atan2(q, p)); only
a spec that reads_vectors (Custom, or a zero extension of one) sees vectors.
eval_batch does the same for the rows of two arrays in one pass, and
sample_pairs draws such rows.  A family is its rows kernel, _values; only the
five profile families keep a scalar _value too, for the Simpson sum's one
eval_finsler call per node.  Pointwise criteria live here too.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .errors import (EvalError, InvalidArgumentError, MismatchError, OutOfDomainError,
                     ZeroVectorError, check_counts, check_tolerances)
from .linalg import (
    Field,
    Vector,
    norm,
    norm_range_error,
    pair_invariants,
    pair_invariants_rows,
    random_gaussian_rows,
    random_rows_and_norms,
    row_norms,
)


class _Value:
    """Equality and hashing by value: over the type and the instance's attributes."""

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((type(self), *vars(self).values()))


# ---------------------------------------------------------------------------
# Radius domains

class RadiusDomain(_Value):
    """A union of open intervals in [0, inf), with an optional zero point."""

    def __init__(self, intervals: tuple[tuple[float, float], ...], includes_zero: bool = False):
        ivs = tuple(sorted((float(lo), float(hi)) for lo, hi in intervals))
        for lo, hi in ivs:
            if lo < 0.0 or not lo < hi:
                raise ValueError(f"invalid radius interval ({lo}, {hi})")
        for (_, hi1), (lo2, _) in zip(ivs, ivs[1:]):
            if hi1 > lo2:
                raise ValueError("radius intervals must be pairwise disjoint")
        self.intervals, self.includes_zero = ivs, includes_zero

    @staticmethod
    def positive() -> "RadiusDomain":
        return RadiusDomain(((0.0, math.inf),))

    def contains(self, r: float | np.ndarray) -> bool | np.ndarray:
        """Whether the radius r lies in the domain, or for an array of radii
        the mask of those that do (NaN lies nowhere)."""
        if len(self.intervals) == 1 and not self.includes_zero:
            ((lo, hi),) = self.intervals
            return (lo < r) & (r < hi)
        inside = (r == 0.0) & self.includes_zero
        for lo, hi in self.intervals:
            inside = inside | (lo < r) & (r < hi)
        return inside


def _radius_range(lo: float, hi: float) -> tuple[float, float, bool]:
    """Where a radius in the interval (lo, hi) is drawn: uniformly in (a, b),
    or log-uniformly (a and b are then logarithms) when hi is infinite."""
    if math.isfinite(hi):
        pad = 0.01 * (hi - lo)
        return lo + pad, hi - pad, False
    lo_eff = lo * 1.01 if lo > 0.0 else 0.05
    return math.log(lo_eff), math.log(max(8.0, 4.0 * lo_eff)), True


def sample_pairs(spec: MetricSpec, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n pairs (g, h) as the rows of two (n, dim) arrays of the spec's dtype.

    Only the spec's dim, field and domain are read, so a
    decompose.SesquiOracle serves as well.  |g| is drawn strictly inside an
    interval of the domain, chosen uniformly, by _radius_range's rules; g's
    direction and h are Gaussian.
    """
    ranges = np.array([_radius_range(lo, hi) for lo, hi in spec.domain.intervals])
    a, b, log_scale = ranges[rng.integers(len(ranges), size=n)].T
    radii = rng.uniform(a, b)
    np.exp(radii, out=radii, where=log_scale != 0.0)
    G, norms = random_rows_and_norms(n, spec.dim, spec.field, rng)
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

class RiemannProfile(NamedTuple):
    """The (phi, psi) pair of an invariant sesquilinear form; arguments are |g|^2."""

    phi: Callable[[float], float]
    psi: Callable[[float], float]

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


def _compiled(text: str, names: tuple[str, ...]) -> Callable[..., float]:
    """expressions.compile_positional(text, names).  The expression language
    loads with the first profile text, not at import: a metric without one
    never compiles it."""
    import finsler_iso.expressions  # dotted: -X importtime reports it

    return finsler_iso.expressions.compile_positional(text, names)


def lambda_profile(text: str) -> Callable[[float, float, float], float]:
    return _compiled(text, ("r", "p", "q"))


def theta_profile(text: str) -> Callable[[float, float], float]:
    return _compiled(text, ("r", "tau"))


def vartheta_profile(text: str) -> Callable[[float], float]:
    return _compiled(text, ("tau",))


def _ones(tau: np.ndarray) -> np.ndarray:
    return np.ones(np.shape(tau))


_ones.constant = 1.0


class _UnitVartheta:
    """norm_quotient's vartheta, the text "1", built without the expression
    language: the text, values and rows of vartheta_profile("1"), and equal
    to it with an equal hash, so the spec read back from its JSON is equal."""

    text = "1"
    _key = (("tau",), "1.0")  # the compiled profile's key: its names and canonical text
    rows = staticmethod(_ones)

    def __call__(self, tau: float) -> float:
        return 1.0

    def __eq__(self, other):
        return getattr(other, "_key", None) == self._key

    def __hash__(self):
        return hash(self._key)


class _SplitLambda(_Value):
    """A nonsym-lambda text over C, where complex p enters as the real pair
    (pre, pim): equal where its compiled text is."""

    def __init__(self, text: str):
        self.fn = _compiled(text, ("r", "pre", "pim", "q"))

    text = property(lambda self: self.fn.text)

    def __call__(self, r, p, q):
        return self.fn(r, p.real, p.imag, q)

    def rows(self, r, p, q):
        return self.fn.rows(r, p.real, p.imag, q)


def nonsym_lambda_profile(text: str, field: Field) -> Callable[[float, complex, float], float]:
    if field is Field.REAL:
        return _compiled(text, ("r", "p", "q"))
    return _SplitLambda(text)


def riemann_profile(phi_text: str, psi_text: str) -> RiemannProfile:
    return RiemannProfile(_compiled(phi_text, ("r",)), _compiled(psi_text, ("r",)))


def congruence_invariant_riemann(a: float, b: float) -> RiemannProfile:
    """The pair phi(r) = a/r, psi(r) = b/r^2; (1, -1) is the Fubini-Study profile.

    Under the pointwise criterion, positive definiteness of this family needs
    both a > 0 and a + b > 0 (the weaker condition a + b > 0 alone is
    sometimes quoted; the strict form is what check_positive_definite tests).
    """
    return riemann_profile(f"{float(a)!r}/r", f"{float(b)!r}/(r^2)")


@functools.cache
def fubini_study_profile() -> RiemannProfile:
    """Fubini-Study's (phi, psi), built on first use and then shared."""
    return congruence_invariant_riemann(1.0, -1.0)


# ---------------------------------------------------------------------------
# Metric specs

class MetricSpec(_Value):
    family = "?"
    congruence_invariant = False
    defined_at_zero = False  # rho_0 exists (zero extensions, custom metrics)
    reads_vectors = False  # _value and _values read the vectors, not the invariants alone
    alpha = 1.0  # the degree in h; lambda and custom specs set their own

    def __init__(self, dim: int, field: Field, domain: RadiusDomain):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim, self.field, self.domain = dim, field, domain

    def _value(self, r: float, ip: float | complex, q: float, g: Vector, h: Vector) -> float:
        """rho_g(h) from the invariants r = |g|, ip = <h, g> and q of checked
        vectors whose radius lies in the domain (r > 0 unless the spec is
        defined at 0); only a spec that reads_vectors reads g and h.  It is
        _values' one-row view, under eval_batch's errstate (so a NaN reaches
        eval_finsler's fallback); only the five profile families override it."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self._values(np.array([r]), np.array([ip]), np.array([q]),
                                      g.entries[None], h.entries[None])[0])

    def _values(self, r: np.ndarray, ip: np.ndarray, q: np.ndarray,
                G: np.ndarray | None, H: np.ndarray | None) -> np.ndarray:
        """rho on rows whose base points lie in the domain, from their invariants
        (G and H, the rows, may be None unless the spec reads_vectors)."""
        raise NotImplementedError


class Euclidean(MetricSpec):
    family = "euclidean"

    def _values(self, r, ip, q, G, H):
        return np.hypot(np.abs(ip), q) / r


class FubiniStudy(MetricSpec):
    """Fubini-Study on the punctured space, evaluated in canonical form.

    The value q/r^2 equals sqrt of the sesquilinear diagonal but stays
    accurate for nearly collinear (g, h), where the phi/psi expression
    cancels catastrophically.
    """

    family = "fubini-study"
    congruence_invariant = True

    @property
    def profile(self) -> RiemannProfile:
        """sigma's (phi, psi), the one pair fubini_study_profile builds."""
        return fubini_study_profile()

    def _values(self, r, ip, q, G, H):
        return q / (r * r)


def _where_nonzero(mask: np.ndarray, value: Callable, *rows: np.ndarray) -> np.ndarray:
    """value(*rows) on the rows where mask (a |h|, or eval_batch's inside) is not 0,
    and 0 on the others, as in the scalar forms, which skip the profile at |h| = 0."""
    if mask.all():
        return value(*rows)
    out = np.zeros(mask.shape)
    k = mask != 0.0
    out[k] = value(*(a[k] for a in rows))
    return out


class FromLambda(MetricSpec):
    """lambda(r, p, q): even in p and in q, homogeneous of degree alpha in (p, q)."""

    family = "lambda"

    def __init__(self, dim: int, field: Field, domain: RadiusDomain,
                 lam: Callable[[float, float, float], float], alpha: float = 1.0):
        super().__init__(dim, field, domain)
        self.lam, self.alpha = lam, _finite_coefficient(alpha, "alpha")

    def _value(self, r, ip, q, g, h):
        return float(self.lam(r, abs(ip), q))

    def _values(self, r, ip, q, G, H):
        return _array_form(self.lam)(r, np.abs(ip), q)


class FromTheta(MetricSpec):
    """rho_g(h) = |h| theta(|g|, tau) with tau = angle(g, h) in [0, pi/2]."""

    family = "theta"

    def __init__(self, dim: int, field: Field, domain: RadiusDomain,
                 theta: Callable[[float, float], float]):
        super().__init__(dim, field, domain)
        self.theta = theta

    def _value(self, r, ip, q, g, h):
        p = abs(ip)
        nh = math.hypot(p, q) / r
        return 0.0 if nh == 0.0 else nh * float(self.theta(r, math.atan2(q, p)))

    def _values(self, r, ip, q, G, H):
        fn = _array_form(self.theta)
        c = getattr(fn, "constant", None)  # a constant theta needs no angle
        p = np.abs(ip)
        nh = np.hypot(p, q) / r
        return _where_nonzero(nh, lambda nh, r, q, p: nh * (
            fn(r, np.arctan2(q, p)) if c is None else c), nh, r, q, p)


class FromNonSymLambda(MetricSpec):
    """lambda(r, p, q) with p = <h, g> a scalar in F; positively homogeneous, even in q."""

    family = "nonsym-lambda"

    def __init__(self, dim: int, field: Field, domain: RadiusDomain,
                 lam: Callable[[float, complex, float], float]):
        super().__init__(dim, field, domain)
        self.lam = lam

    def _value(self, r, ip, q, g, h):
        return float(self.lam(r, ip, q))

    def _values(self, r, ip, q, G, H):
        return _array_form(self.lam)(r, ip, q)


class FromRiemann(MetricSpec):
    """Finsler metric induced by a sesquilinear profile: sign(v) sqrt|v|."""

    family = "riemann"

    def __init__(self, dim: int, field: Field, domain: RadiusDomain, profile: RiemannProfile):
        super().__init__(dim, field, domain)
        self.profile = profile

    def _value(self, r, ip, q, g, h):
        r2, p = r * r, abs(ip)
        p2 = p * p  # |h|^2 = (p^2 + q^2) / r^2; a Python float's ** raises on overflow
        phi, psi = float(self.profile.phi(r2)), float(self.profile.psi(r2))
        v = (0.0 if phi == 0.0 else phi * (p2 + q * q) / r2) + (0.0 if psi == 0.0 else psi * p2)
        return 0.0 if v == 0.0 else math.copysign(math.sqrt(abs(v)), v)

    def _values(self, r, ip, q, G, H):
        r2 = r * r
        phi, psi = self.profile.phi_rows(r2), self.profile.psi_rows(r2)
        p2 = np.abs(ip) ** 2
        v = np.where(phi == 0.0, 0.0, phi * (p2 + q * q) / r2) + np.where(psi == 0.0, 0.0, psi * p2)
        return np.where(v == 0.0, 0.0, np.copysign(np.sqrt(np.abs(v)), v))


class CongruenceInvariant(MetricSpec):
    """rho_g(h) = (|h|/|g|) vartheta(angle(g, h)); invariant under all congruences."""

    family = "congruence-invariant"
    congruence_invariant = True

    def __init__(self, dim: int, field: Field, domain: RadiusDomain,
                 vartheta: Callable[[float], float]):
        super().__init__(dim, field, domain)
        self.vartheta = vartheta

    def _value(self, r, ip, q, g, h):
        p = abs(ip)
        nh = math.hypot(p, q) / r
        return 0.0 if nh == 0.0 else (nh / r) * float(self.vartheta(math.atan2(q, p)))

    def _values(self, r, ip, q, G, H):
        fn = _array_form(self.vartheta)
        c = getattr(fn, "constant", None)  # a constant vartheta needs no angle
        p = np.abs(ip)
        nh = np.hypot(p, q) / r
        return _where_nonzero(nh, lambda nh, r, q, p: (nh / r) * (
            fn(np.arctan2(q, p)) if c is None else c), nh, r, q, p)


def _finite_coefficient(value: float, name: str) -> float:
    if not math.isfinite(value):  # b: NaN values (inf * 0); alpha: void degree checks
        raise ValueError(f"{name} must be finite, got {value}")
    return value


class AreaDim2(MetricSpec):
    """b * |g| |h| sin(angle): b times the parallelogram area over R^2.

    Evaluated as b * q, which equals the sine form exactly but needs no
    angle near collinear pairs.
    """

    family = "area"

    def __init__(self, dim: int, field: Field, domain: RadiusDomain, b: float = 1.0):
        super().__init__(dim, field, domain)
        if dim != 2:
            raise ValueError("the area metric is defined in dimension 2 only")
        self.b = _finite_coefficient(b, "b")

    def _values(self, r, ip, q, G, H):
        return self.b * q


class ZeroExtended(MetricSpec):
    """An invariant metric on the punctured space extended by rho_0(h) = b |h|."""

    family = "zero-extended"
    defined_at_zero = True

    def __init__(self, dim: int, field: Field, domain: RadiusDomain, b: float,
                 inner_spec: MetricSpec):
        super().__init__(dim, field, domain)
        if not domain.includes_zero:
            raise ValueError("zero extension requires a domain including 0")
        if (inner_spec.dim, inner_spec.field, inner_spec.domain) != (
                dim, field, RadiusDomain(domain.intervals)):
            raise ValueError("the wrapped spec must have the dimension, field and radius "
                             "intervals of its extension, and exclude 0")
        self.b, self.inner_spec = _finite_coefficient(b, "b"), inner_spec

    reads_vectors = property(lambda self: self.inner_spec.reads_vectors)  # no setter

    def _values(self, r, ip, q, G, H):
        k = r != 0.0  # the others are rows at g = 0, where rho_0(h) = b |h|
        if k.all():  # elementwise kernels: the inner spec's values, bit for bit
            return self.inner_spec._values(r, ip, q, G, H)
        out = self.b * row_norms(H)
        out[k] = self.inner_spec._values(r[k], ip[k], q[k], G[k], H[k])
        return out


class Custom(MetricSpec):
    """A black-box metric callable of declared degree alpha in h; usable
    everywhere but not serializable."""

    family = "custom"
    defined_at_zero = True
    reads_vectors = True

    def __init__(self, dim: int, field: Field, domain: RadiusDomain,
                 fn: Callable[[Vector, Vector], float], alpha: float = 1.0):
        super().__init__(dim, field, domain)
        self.fn, self.alpha = fn, _finite_coefficient(alpha, "alpha")

    def _values(self, r, ip, q, G, H):  # the callable sees vectors: row by row
        f = self.field
        return np.array([float(self.fn(Vector(g, f), Vector(h, f))) for g, h in zip(G, H)])


def euclidean(dim: int, field: Field = Field.REAL) -> Euclidean:
    return Euclidean(dim, field, RadiusDomain.positive())


def fubini_study(dim: int, field: Field = Field.REAL) -> FubiniStudy:
    return FubiniStudy(dim, field, RadiusDomain.positive())


def norm_quotient(dim: int, field: Field = Field.REAL) -> CongruenceInvariant:
    return CongruenceInvariant(dim, field, RadiusDomain.positive(), _UnitVartheta())


def area_dim2(b: float = 1.0, field: Field = Field.REAL) -> AreaDim2:
    return AreaDim2(2, field, RadiusDomain.positive(), b)


def zero_extended(b: float, inner_spec: MetricSpec) -> ZeroExtended:
    domain = RadiusDomain(inner_spec.domain.intervals, includes_zero=True)
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
    (unless a Custom metric, which sees the vectors, takes g there).  Where
    the scalar path gives NaN or |<h, g>| overflows, eval_batch's value stands."""
    if not (g.field is spec.field is h.field and len(g.entries) == spec.dim == len(h.entries)):
        _check_compatible(spec, g, h)
    r = norm(g)
    inside = spec.domain.contains(r)
    if r == 0.0 or not inside:
        if (r == math.inf or r == 0.0 and not isinstance(spec, Custom)) and g.entries.any():
            raise norm_range_error(r)
        if not inside:
            raise OutOfDomainError(f"|g| = {r} is outside the radius domain")
        if not spec.defined_at_zero:
            raise OutOfDomainError("base point g = 0 is outside the metric's domain")
    # a spec that reads_vectors, or a zero extension at g = 0, reads no invariant
    ip, q = (0.0, 0.0) if r == 0.0 or spec.reads_vectors else pair_invariants(g, h, r)
    try:
        value = spec._value(r, ip, q, g, h)
    except OverflowError:  # abs of a complex <h, g> whose modulus overflows
        value = math.nan
    if value != value:  # eval_batch settles the one row: inf, or its EvalError
        value = float(eval_batch(spec, g.entries[None], h.entries[None])[0][0])
    return value


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
    # |g| (then outside), <h, g>, q and rho overflow to inf silently; a NaN value raises
    with np.errstate(over="ignore", invalid="ignore"):
        r, inside = _inside_rows(spec, G)
        values = _where_nonzero(inside, lambda r, G, H: spec._values(
            r, *pair_invariants_rows(G, H, r), G, H), r, G, H)
    return _refuse_nan(values), inside


def _refuse_nan(values: np.ndarray) -> np.ndarray:
    """values, unless one is NaN: then np.vdot's sum of squares is NaN, with no warning."""
    if math.isnan(np.vdot(values, values)):
        raise EvalError("metric value is undefined here (evaluates to NaN)")
    return values


def _inside_rows(spec: MetricSpec, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|g| per row of G and eval_batch's inside mask (|g| may overflow to inf: outside)."""
    r = row_norms(G)
    inside = spec.domain.contains(r)
    if spec.domain.includes_zero and (zero := r == 0.0).any():  # g = 0, or |g| underflows
        inside &= ~zero | (spec.defined_at_zero & (isinstance(spec, Custom) | ~G.any(axis=1)))
    return r, inside


def eval_sesquilinear(spec: MetricSpec, g: Vector, f: Vector, h: Vector):
    """sigma_g(f, h) = phi(|g|^2) <f,h> + psi(|g|^2) <f,g> <g,h>, a float over R
    and a complex over C: the one-row case of eval_sesquilinear_rows."""
    return eval_sesquilinear_rows(spec, g.entries[None], f.entries[None],
                                  h.entries[None])[0].item()


def eval_sesquilinear_rows(spec: MetricSpec, G: np.ndarray, F: np.ndarray,
                           H: np.ndarray) -> np.ndarray:
    """sigma of a Riemann-backed spec for the rows of three (N, dim) arrays of
    its dimension and dtype, in one pass.

    Raises where eval_batch marks a row outside (g = 0, a |g| that under- or
    overflows, a |g| outside the domain) or |g|^2 under- or overflows, and
    EvalError when any row's sigma is NaN (its terms overflow to opposite
    infinities).  A coefficient phi or psi that is 0 makes its term 0, even
    where the inner products overflow.
    """
    profile = sesquilinear_profile(spec)
    if not (G.shape == F.shape == H.shape == (len(G), spec.dim)
            and G.dtype == F.dtype == H.dtype == spec.field.dtype):
        raise MismatchError("sigma needs vectors or row arrays of the metric's dimension and field")
    with np.errstate(over="ignore"):
        r, inside = _inside_rows(spec, G)
        r2 = r ** 2
    degenerate = np.flatnonzero((r2 == 0.0) | (r2 == math.inf))
    if degenerate.size:
        k = degenerate[0]
        raise (norm_range_error(r2[k]) if G[k].any()
               else ZeroVectorError("sigma is undefined at g = 0"))
    if not inside.all():
        raise OutOfDomainError("a row's |g| is outside the radius domain")
    phi, psi = profile.phi_rows(r2), profile.psi_rows(r2)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN raises below
        sigma = (np.where(phi == 0.0, 0.0, _scaled(phi, np.vecdot(H, F)))
                 + np.where(psi == 0.0, 0.0, _scaled(psi, np.vecdot(G, F)) * np.vecdot(H, G)))
    if np.isnan(sigma).any():
        raise EvalError("sigma is undefined: phi(|g|^2)<f, h> + "
                        "psi(|g|^2)<f, g><g, h> is NaN")
    return sigma


def _scaled(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """c z for real c, scaling a complex z's real and imaginary parts apart:
    numpy's complex product would form 0 * inf = NaN from z = inf + 0j."""
    if z.dtype.kind == "c":
        return (c[:, None] * np.stack([z.real, z.imag], axis=1)).view(complex)[:, 0]
    return c * z


RIEMANN_BACKED = (FromRiemann, FubiniStudy)  # the specs with a sigma, and a (phi, psi) for it


def sesquilinear_profile(spec: MetricSpec) -> RiemannProfile:
    """The (phi, psi) pair of a Riemann-backed spec; InvalidArgumentError for any other."""
    if not isinstance(spec, RIEMANN_BACKED):
        raise InvalidArgumentError(f"family {spec.family!r} has no sesquilinear form: "
                                   "it is not Riemann-backed")
    return spec.profile


def induced_finsler(profile: RiemannProfile, dim: int, field: Field = Field.REAL,
                    domain: RadiusDomain = RadiusDomain.positive()) -> FromRiemann:
    """The Finsler metric sign(v) sqrt|v| with v = sigma_g(h, h), on the domain.

    Probes v on 64 pairs inside it from sample_pairs with default_rng(0) and
    emits a RuntimeWarning when any sampled v is negative, i.e. the profile
    is not positive semi-definite there.
    """
    spec = FromRiemann(dim, field, domain, profile)
    values, _ = eval_batch(spec, *sample_pairs(spec, 64, np.random.default_rng(0)))
    # sign(v) sqrt|v| < -1e-6 exactly when v < -1e-12.
    if (values < -1e-6).any():
        warnings.warn("sesquilinear profile takes negative values; induced "
                      "metric uses sign(v) sqrt|v|", RuntimeWarning, stacklevel=2)
    return spec


# ---------------------------------------------------------------------------
# Pointwise criteria

class PDVerdict(enum.Enum):
    POSITIVE_DEFINITE = "PD"
    SEMI_DEFINITE_DEGENERATE = "PSD-degenerate"
    INDEFINITE = "indefinite"


def _roots_inside(spec: MetricSpec, r: np.ndarray) -> np.ndarray:
    """Whether each |g|^2 = r > 0 has its root in the radius domain (of a
    spec, or of anything with a domain, such as a decompose.SesquiOracle)."""
    with np.errstate(invalid="ignore"):  # r < 0 has no root: NaN is outside
        return (r > 0.0) & spec.domain.contains(np.sqrt(r))


def check_positive_definite(spec: MetricSpec, r_samples: list[float],
                            tol: float = 1e-8) -> list[PDVerdict]:
    """Per-sample verdict of a Riemann-backed spec from the pair (phi(r),
    phi(r) + r psi(r)) at each r = |g|^2, whose root must lie in its domain.

    PD needs both strictly positive; the degenerate verdict means both are
    non-negative with the smaller vanishing within tol times the larger
    magnitude, so scaling the profile does not change a verdict.
    """
    profile = sesquilinear_profile(spec)
    check_counts(r_samples=len(r_samples))
    r = np.array(r_samples, dtype=float)
    outside = ~_roots_inside(spec, r)
    if outside.any():
        raise OutOfDomainError(f"sample |g|^2 = {r[outside][0]} is outside the radius domain")
    a = profile.phi_rows(r)
    c = a + r * profile.psi_rows(r)
    t = tol * np.maximum(np.abs(a), np.abs(c))
    return [PDVerdict.POSITIVE_DEFINITE if m > e
            else PDVerdict.SEMI_DEFINITE_DEGENERATE if m >= -e
            else PDVerdict.INDEFINITE
            for m, e in zip(np.where(c < a, c, a).tolist(), t.tolist())]


def check_kaehler(spec: MetricSpec, r_samples: list[float],
                  tol: float | None = None) -> list[bool]:
    """Whether psi matches the centered difference of phi, step max(1e-5, 1e-5 r),
    at each sample r = |g|^2 of a Riemann-backed spec.

    Meaningful over the complex field, where it characterizes the Kaehler
    property of the invariant Hermitean metric.
    """
    profile = sesquilinear_profile(spec)
    check_counts(r_samples=len(r_samples))
    r = np.array(r_samples, dtype=float)
    step = np.maximum(1e-5, 1e-5 * r)
    with np.errstate(invalid="ignore"):  # an infinite sample's r - step is NaN, in no domain
        near = ~(_roots_inside(spec, r - step) & _roots_inside(spec, r + step))
    if near.any():
        k = int(np.argmax(near))
        raise ValueError(f"sample |g|^2 = {r[k]} is outside the radius domain or closer "
                         f"than {step[k]} to its boundary")
    up, down = np.split(profile.phi_rows(np.concatenate([r + step, r - step])), 2)
    d = (up - down) / (2.0 * step)
    psi = profile.psi_rows(r)
    t = tol if tol is not None else 1e-6 * (1.0 + np.abs(psi))
    return (np.abs(psi - d) <= t).tolist()


def deviations(got: np.ndarray, want: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """|got - want| / (1 + |ref|) per row: every sampled check's relative deviation.

    A NaN deviation can come only from infinite values (eval_batch has no NaN):
    it counts as 0 where got and want are the same infinity and as inf
    otherwise, so a sample that is infinite on one side only fails a tolerance.
    """
    with np.errstate(invalid="ignore"):
        dev = np.abs(got - want) / (1.0 + np.abs(ref))
    nan = np.isnan(dev)
    if nan.any():
        dev[nan] = np.where(got[nan] == want[nan], 0.0, np.inf)
    return dev


def verdict(dev: np.ndarray, tol: float, rows: tuple[np.ndarray, ...],
            field: Field) -> tuple[bool, float, tuple[Vector, ...] | None]:
    """Every sampled check's reading of its deviations: (passed, largest,
    witness).  The check passes when the largest deviation is within tol,
    and has no witness then; otherwise the witness is the first row at the
    largest deviation, copied out of each of rows so a verdict does not keep
    every sample alive."""
    k = int(np.argmax(dev))
    largest = float(dev[k])
    passed = largest <= tol
    return passed, largest, None if passed else tuple(Vector(a[k].copy(), field) for a in rows)


# A sampled check tests nothing where every value it compares, on the samples
# and on their images, has |rho| at most ZERO_RHO: such values cannot tell a
# symmetry from a map that is none.
ZERO_RHO = 1e-12


def refuse_vacuous(*values: np.ndarray) -> None:
    """InvalidArgumentError when no entry of values has |rho| > ZERO_RHO."""
    if not any((np.abs(v) > ZERO_RHO).any() for v in values):
        raise InvalidArgumentError(f"the metric is 0 (|rho| <= {ZERO_RHO:g}) on every sampled "
                                   "pair and its image, so the check tests nothing")


class HomothetyVerdict(NamedTuple):
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
    the check fails loudly if every sample is skipped, and refuses
    (refuse_vacuous) where the metric is 0 on every kept sample and its
    image.  The deviations are deviations()'s and the verdict and witness
    verdict()'s.
    """
    if not 0.0 < alpha < math.inf or alpha == 1.0:
        raise InvalidArgumentError(f"alpha must be a finite positive number != 1, got {alpha}")
    check_tolerances(tol=tol)
    check_counts(n_samples=n_samples)
    G, H = sample_pairs(spec, n_samples, np.random.default_rng(seed))
    base, _ = eval_batch(spec, G, H)
    mapped, kept = eval_batch(spec, alpha * G, alpha * H)
    used = int(kept.sum())
    if used == 0:
        raise ValueError("all samples skipped: alpha * R does not meet R on the sampler")
    refuse_vacuous(base[kept], mapped[kept])
    dev = deviations(mapped, base, base)
    dev[~kept] = 0.0
    return HomothetyVerdict(*verdict(dev, tol, (G, H), spec.field), used, n_samples - used)


# ---------------------------------------------------------------------------
# Profile validation (sampling-based; profiles are black-box callables)

class ProfileValidation(NamedTuple):
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
    check_counts(grid_size=grid_size)
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
                lambda d, f, dom, p: induced_finsler(riemann_profile(p["phi"], p["psi"]),
                                                     d, f, dom)),
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
