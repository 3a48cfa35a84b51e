"""Inner-product arithmetic over R and C.

Vectors and dense linear maps carry an explicit scalar-field tag; mixed-field
operations are rejected.  The inner product is linear in the first slot and
conjugate-linear in the second, and that convention is used consistently
everywhere else in the package.  Every row-wise inner product is
np.vecdot(a, b), which conjugates a and runs np.vdot's dot routine, so row i
equals np.vdot(a[i], b[i]) bit for bit; every squared norm is one real dot
of a float64 view, over C of the interleaved parts (re_0, im_0, re_1, ...).
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError, MismatchError, OutOfDomainError, ZeroVectorError

DEFAULT_TOL = 1e-10


class Field(enum.Enum):
    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64) if self is Field.REAL else np.dtype(np.complex128)


class Vector:
    """A point or direction in F^n.  Build through :func:`vector`."""

    __slots__ = ("entries", "field")

    def __init__(self, entries: np.ndarray, field: Field):
        self.entries, self.field = entries, field

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):  # keep reprs short in error messages and reports
        return f"Vector({self.entries.tolist()!r}, {self.field.value})"


class LinearMap:
    """A dense dim_out x dim_in matrix over F.  Build through :func:`linear_map`."""

    __slots__ = ("entries", "field")

    def __init__(self, entries: np.ndarray, field: Field):
        self.entries, self.field = entries, field

    @property
    def dim_out(self) -> int:
        return self.entries.shape[0]

    @property
    def dim_in(self) -> int:
        return self.entries.shape[1]


def _coerce(arr: np.ndarray, field: Field | None, what: str) -> tuple[np.ndarray, Field]:
    if field is None:
        field = Field.COMPLEX if np.iscomplexobj(arr) else Field.REAL
    if field is Field.REAL and np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise MismatchError(f"real {what} cannot have complex entries")
        arr = arr.real
    arr = np.asarray(arr, dtype=field.dtype)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite")
    return arr, field


def vector(entries: Sequence | np.ndarray, field: Field | None = None) -> Vector:
    """Validated Vector constructor; infers the field when not given."""
    arr = np.atleast_1d(np.asarray(entries))
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError("vector must be one-dimensional with at least one entry")
    arr, field = _coerce(arr, field, "vector")
    return Vector(arr, field)


def linear_map(entries: Sequence | np.ndarray, field: Field | None = None) -> LinearMap:
    """Validated LinearMap constructor; infers the field when not given."""
    arr = np.atleast_2d(np.asarray(entries))
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("linear map must be a 2-d matrix")
    arr, field = _coerce(arr, field, "matrix")
    return LinearMap(arr, field)


def basis_vector(dim: int, index: int, field: Field = Field.REAL) -> Vector:
    e = np.zeros(dim, dtype=field.dtype)
    e[index] = 1.0
    return Vector(e, field)


def _check_pair(f: Vector, h: Vector) -> None:
    if f.dim != h.dim:
        raise MismatchError(f"dimension mismatch: {f.dim} vs {h.dim}")
    if f.field is not h.field:
        raise MismatchError(f"field mismatch: {f.field.value} vs {h.field.value}")


def inner(f: Vector, h: Vector) -> complex | float:
    """<f, h>: linear in f, conjugate-linear in h."""
    _check_pair(f, h)
    v = np.vdot(h.entries, f.entries)  # vdot conjugates its first argument
    return float(v.real) if f.field is Field.REAL else complex(v)


def _float_view(x: np.ndarray) -> np.ndarray:
    """x as float64s, a complex entry as its (re, im) pair; a complex x whose
    last axis is strided, such as a matrix column, is copied first."""
    return (x.copy() if x.dtype.kind == "c" and x.strides[-1] != x.itemsize else x).view(float)


def norm(h: Vector) -> float:
    """row_norms' formula for one vector (over R np.linalg.norm's, bit for bit)
    without its overhead.  np.vdot overflows to inf without the RuntimeWarning
    that ndarray.dot gives."""
    x = _float_view(h.entries)
    s = float(np.vdot(x, x))
    return float(row_norms(h.entries[None])[0]) if 0.0 < s < _TINY else math.sqrt(s)


def apply_map(T: LinearMap, v: Vector) -> Vector:
    if T.dim_in != v.dim:
        raise MismatchError(f"map expects dimension {T.dim_in}, got {v.dim}")
    if T.field is not v.field:
        raise MismatchError("map/vector field mismatch")
    return Vector(T.entries @ v.entries, v.field)


# The least normal float: a |g|^2 below it has lost bits to underflow.  Below
# _R_MIN = sqrt(_TINY), about 1.49e-154, r^2 is subnormal, so ip / r^2 loses
# bits; over C numpy forms it as ip * (1/r^2), which overflows below 7.46e-155.
_TINY = float(np.finfo(float).tiny)
_R_MIN = math.sqrt(_TINY)
_SAFE = 2.0 ** 968  # |<h,g>| < _SAFE r min(r, 1) keeps q's steps below 2^969, and so finite


def pair_invariants(g: Vector, h: Vector, r: float) -> tuple[float | complex, float]:
    """(<h, g>, q) for an unchecked pair whose r = |g| > 0 is already known.

    q = sqrt(|h|^2 |g|^2 - |<h, g>|^2) is formed as r |h - (<h,g>/r^2) g|,
    which stays accurate when h is nearly collinear with g.  <h, g> is a
    float over R and a complex over C.  An r below _R_MIN, or a step that may
    overflow (q is then inf or NaN), takes pair_invariants_rows, with no warning.
    """
    real = g.field is Field.REAL
    z = complex(ip := np.vdot(g.entries, h.entries))  # Python's parts: no numpy warning
    if real:  # Python floats round as numpy's do, at less cost; complex ones do not
        ip = z.real
    if r < _R_MIN or not abs(z.real) + abs(z.imag) < _SAFE * (r if r >= 1.0 else r * r):
        with np.errstate(over="ignore", invalid="ignore"):
            ip, q = pair_invariants_rows(g.entries[None], h.entries[None], np.array([r]))
        return (float(ip[0]) if real else complex(ip[0])), float(q[0])
    perp = (h.entries - (ip / (r * r)) * g.entries).view(float)  # fresh, so contiguous: _float_view
    q = r * math.sqrt(np.vdot(perp, perp))
    return (ip if real else z), q


def row_norms(G: np.ndarray) -> np.ndarray:
    """|g| = sqrt(x . x) for each row x of an (N, n) array's float view, equal
    to norm() row by row.  A row whose |g|^2 is subnormal but not 0 is measured
    again as m |g/m|, with m = max |g_i|, which keeps the bits it lost."""
    X = _float_view(G)
    s = np.vecdot(X, X)
    r = np.sqrt(s)
    if s.size and s.min() < _TINY:
        k = np.flatnonzero((s > 0.0) & (s < _TINY))
        m = np.abs(G[k]).max(axis=1)
        r[k] = m * row_norms(G[k] / m[:, None])
    return r


def pair_invariants_rows(G: np.ndarray, H: np.ndarray,
                         r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pair_invariants for the rows of (N, n) arrays: (<h, g>, q) per row.

    The same orthogonal-component form of q, with the same rule for an r
    below _R_MIN on those rows only; a row with r = 0 gets <h, g> = q = 0.
    """
    k = None
    plain = len(r) == 0 or r.min() >= _R_MIN  # no row with r = 0 or a tiny r
    if not plain:
        k = np.flatnonzero((r > 0.0) & (r < _R_MIN))  # rows k take (g/r, h) and r = 1
        rk, G, r = r[k], G.copy(), r.copy()
        G[k] /= rk[:, None]
        r[k] = 1.0
    ip = np.vecdot(G, H)
    c = ip / (r * r) if plain else np.divide(ip, r * r, out=np.zeros_like(ip), where=r > 0.0)
    cG = c[:, None] * G
    perp = np.subtract(H, cG, out=cG).view(float)  # in place; fresh, so contiguous: _float_view
    s = np.sqrt(np.vecdot(perp, perp))
    q = r * s if plain else np.multiply(r, s, out=np.zeros_like(s), where=r > 0.0)
    if k is not None:  # and scale their invariants back by r
        ip[k] *= rk
        q[k] *= rk
    return ip, q


def acute_angle(g: Vector, h: Vector) -> float:
    """Angle in [0, pi/2] between the F-lines through g and h.

    Invariant under multiplying either argument by any non-zero scalar;
    atan2(q, p) keeps it accurate for nearly collinear pairs.
    """
    checked_norm(h, "h")
    _, p, q = canonical_invariants(g, h)
    return math.atan2(q, p)


def norm_range_error(r: float, name: str = "g") -> OutOfDomainError:
    """The error for a vector g != 0 (or the one named) whose |g| (or |g|^2)
    is r = 0 or inf."""
    return OutOfDomainError(f"|{name}| {'overflows to inf' if r else 'underflows to 0'} "
                            f"although {name} != 0")


def checked_norm(v: Vector, name: str = "g") -> float:
    """|v|, named name in errors: ZeroVectorError at v = 0, OutOfDomainError
    where |v| underflows to 0 or overflows to inf."""
    n = norm(v)
    if n == 0.0 or n == math.inf:
        raise (norm_range_error(n, name) if v.entries.any()
               else ZeroVectorError(f"expected {name} != 0"))
    return n


def canonical_invariants(g: Vector, h: Vector) -> tuple[float, float, float]:
    """The complete isometry invariants (r, p, q) of the pair (g, h).

    r = |g|, p = |<h, g>| and q as in :func:`pair_invariants`.  Raises
    ZeroVectorError at g = 0, OutOfDomainError where |g| under- or overflows.
    """
    r = checked_norm(g)
    _check_pair(g, h)
    ip, q = pair_invariants(g, h, r)
    return r, abs(ip), q


def _complete_frame(cols: list[np.ndarray]) -> np.ndarray:
    """The given orthonormal columns, then columns that complete them to a
    unitary basis: one Householder QR, with the given columns written back."""
    A = np.stack(cols, axis=1)
    Q = np.linalg.qr(A, mode="complete")[0]
    Q[:, :len(cols)] = A
    return Q


def check_orthonormal(e: Vector, f: Vector, tol: float = DEFAULT_TOL) -> None:
    """InvalidArgumentError unless (e, f) is an orthonormal pair to within tol."""
    if abs(norm(e) - 1.0) > tol or abs(norm(f) - 1.0) > tol or abs(inner(e, f)) > tol:
        raise InvalidArgumentError("(e, f) must be an orthonormal pair")


def build_canonical_isometry(g: Vector, h: Vector, e: Vector, f: Vector,
                             tol: float = DEFAULT_TOL) -> LinearMap:
    """An isometry U with U g = |g| e and U h inside span{e, f}.

    U carries h to (<h,g>/|g|) e + mu q/|g| f where mu = <h,g>/|<h,g>| (taken
    to be 1 whenever <h,g> = 0), so <Uh, Ug> = <h, g> and the canonical
    invariants of (g, h) are preserved.  (e, f) must be orthonormal.
    """
    _check_pair(g, h)
    _check_pair(e, f)
    if g.dim != e.dim:
        raise MismatchError("frame dimension differs from vector dimension")
    if g.dim < 2:
        raise MismatchError("canonical isometry needs dimension >= 2")
    ng = checked_norm(g)
    check_orthonormal(e, f, tol)

    u1 = g.entries / ng
    ip = inner(h, g)
    w = h.entries - (ip / (ng * ng)) * g.entries
    nw = np.linalg.norm(w)
    # h collinear with g: the completion's first column stands in for w/|w|
    domain_basis = _complete_frame([u1, w / nw] if nw > tol * max(1.0, norm(h)) else [u1])
    mu = ip / abs(ip) if abs(ip) > 0.0 else 1.0
    target_basis = _complete_frame([e.entries, mu * f.entries])
    return LinearMap(target_basis @ domain_basis.conj().T, g.field)


def random_unitaries(n: int, dim: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    """n Haar-distributed unitaries (orthogonal over R) as an (n, dim, dim) array.

    One Gaussian draw and one stacked QR, with the R-diagonal phases pushed
    into Q.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    q, r = np.linalg.qr(random_gaussian_rows(n * dim, dim, field, rng).reshape(n, dim, dim))
    d = np.diagonal(r, axis1=1, axis2=2)
    absd = np.abs(d)
    ph = np.where(absd == 0.0, 1.0, d / np.where(absd == 0.0, 1.0, absd))
    return q * ph[:, None, :]


def random_unitary(dim: int, field: Field, seed: int) -> LinearMap:
    """Haar-distributed unitary (orthogonal over R), deterministic per seed:
    random_unitaries' one-matrix case on default_rng(seed)."""
    return LinearMap(random_unitaries(1, dim, field, np.random.default_rng(seed))[0], field)


def random_rotation(dim: int, seed: int) -> LinearMap:
    """Haar-random real isometry of determinant +1."""
    if dim < 2:
        raise ValueError("rotation needs dim >= 2")
    u = random_unitary(dim, Field.REAL, seed)
    m = np.array(u.entries)
    if np.linalg.det(m) < 0:
        m[:, 0] = -m[:, 0]
    return LinearMap(m, Field.REAL)


def singular_values(T: LinearMap) -> np.ndarray:
    """Singular values in descending order; length = min(dims)."""
    return np.linalg.svd(T.entries, compute_uv=False)


def random_gaussian_rows(n: int, dim: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    """An (n, dim) array of standard Gaussian entries over the field; over C
    (A + 1j B) / sqrt(2) bit for bit, which numpy forms as a multiply by
    1/sqrt(2), drawn into one buffer without that form's complex temporaries."""
    if field is Field.REAL:
        return rng.standard_normal((n, dim))
    out = np.empty((n, dim), np.complex128)
    out.real = rng.standard_normal((n, dim))  # all real parts, then all imaginary parts
    out.imag = rng.standard_normal((n, dim))
    parts = out.view(np.float64)
    parts *= 1.0 / np.sqrt(2.0)
    return out


def random_gaussian_vector(dim: int, field: Field, rng: np.random.Generator) -> Vector:
    return Vector(random_gaussian_rows(1, dim, field, rng)[0], field)


def random_vector_with_norm(dim: int, field: Field, r: float,
                            rng: np.random.Generator) -> Vector:
    v = random_gaussian_vector(dim, field, rng)
    n = norm(v)
    while n < 1e-12:  # astronomically unlikely; resample for safety
        v = random_gaussian_vector(dim, field, rng)
        n = norm(v)
    return Vector(v.entries * (r / n), field)
