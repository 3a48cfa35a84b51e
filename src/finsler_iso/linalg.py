"""Inner-product arithmetic over R and C.

Vectors and dense linear maps carry an explicit scalar-field tag; mixed-field
operations are rejected.  The inner product is linear in the first slot and
conjugate-linear in the second, and that convention is used consistently
everywhere else in the package.  Every row-wise inner product is
np.vecdot(a, b), which conjugates a and runs np.vdot's dot routine, so row i
equals np.vdot(a[i], b[i]) bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MismatchError, OutOfDomainError, ZeroVectorError

DEFAULT_TOL = 1e-10


class Field(enum.Enum):
    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64) if self is Field.REAL else np.dtype(np.complex128)


@dataclass(frozen=True, eq=False)
class Vector:
    """A point or direction in F^n.  Build through :func:`vector`."""

    entries: np.ndarray
    field: Field

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):  # keep reprs short in error messages and reports
        return f"Vector({self.entries.tolist()!r}, {self.field.value})"


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A dense dim_out x dim_in matrix over F.  Build through :func:`linear_map`."""

    entries: np.ndarray
    field: Field

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


def norm(h: Vector) -> float:
    """np.linalg.norm's own formula, bit for bit, without its overhead.  np.vdot
    overflows to inf without the RuntimeWarning that ndarray.dot gives."""
    x = h.entries
    if h.field is Field.REAL:
        return math.sqrt(np.vdot(x, x))
    re, im = x.real, x.imag
    return math.sqrt(np.vdot(re, re) + np.vdot(im, im))


def apply_map(T: LinearMap, v: Vector) -> Vector:
    if T.dim_in != v.dim:
        raise MismatchError(f"map expects dimension {T.dim_in}, got {v.dim}")
    if T.field is not v.field:
        raise MismatchError("map/vector field mismatch")
    return Vector(T.entries @ v.entries, v.field)


# The least r whose 1/r^2 is finite.  Over C, ip / r^2 is a complex division,
# which numpy forms as ip * (1/r^2): for a smaller r it overflows and q is NaN.
_R_MIN = 7.458340731200208e-155


def pair_invariants(g: Vector, h: Vector, r: float) -> tuple[float | complex, float]:
    """(<h, g>, q) for an unchecked pair whose r = |g| > 0 is already known.

    q = sqrt(|h|^2 |g|^2 - |<h, g>|^2) is formed as r |h - (<h,g>/r^2) g|,
    which stays accurate when h is nearly collinear with g.  <h, g> is a
    float over R and a complex over C.  Over C, an r below _R_MIN forms both
    from (g/r, h) and scales them back by r.
    """
    ip = np.vdot(g.entries, h.entries)
    real = g.field is Field.REAL
    if real:  # Python floats round as numpy's do, at less cost; complex ones do not
        ip = float(ip)
    elif r < _R_MIN:  # as in pair_invariants_rows
        ip, q = pair_invariants_rows(g.entries[None], h.entries[None], np.array([r]))
        return complex(ip[0]), float(q[0])
    perp = h.entries - (ip / (r * r)) * g.entries
    q = r * math.sqrt(np.vdot(perp, perp).real)
    return (ip if real else complex(ip)), q


def row_norms(G: np.ndarray) -> np.ndarray:
    """|g| for each row of an (N, n) array, equal to norm() row by row."""
    if G.dtype.kind == "c":
        return np.sqrt(np.vecdot(G.real, G.real) + np.vecdot(G.imag, G.imag))
    return np.sqrt(np.vecdot(G, G))


def pair_invariants_rows(G: np.ndarray, H: np.ndarray,
                         r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pair_invariants for the rows of (N, n) arrays: (<h, g>, q) per row.

    The same orthogonal-component form of q, with the same rule for an r
    below _R_MIN on those rows only; a row with r = 0 gets <h, g> = q = 0.
    """
    k = None
    if G.dtype.kind == "c" and len(r) > 0 and r.min() < _R_MIN:
        k = np.flatnonzero((r > 0.0) & (r < _R_MIN))  # rows k take (g/r, h) and r = 1
        rk, G, r = r[k], G.copy(), r.copy()
        G[k] /= rk[:, None]
        r[k] = 1.0
    ip = np.vecdot(G, H)
    c = ip / (r * r) if r.all() else np.divide(ip, r * r, out=np.zeros_like(ip), where=r > 0.0)
    perp = H - c[:, None] * G
    q = r * np.sqrt(np.vecdot(perp, perp).real)
    if k is not None:  # and scale their invariants back by r
        ip[k] *= rk
        q[k] *= rk
    return ip, q


def acute_angle(g: Vector, h: Vector) -> float:
    """Angle in [0, pi/2] between the F-lines through g and h.

    Invariant under multiplying either argument by any non-zero scalar;
    atan2(q, p) keeps it accurate for nearly collinear pairs.
    """
    if norm(h) == 0.0:
        raise ZeroVectorError("acute angle needs non-zero vectors")
    _, p, q = canonical_invariants(g, h)  # raises on g = 0
    return math.atan2(q, p)


def norm_range_error(r: float) -> OutOfDomainError:
    """The error for a base point g != 0 whose |g| (or |g|^2) is r = 0 or inf."""
    return OutOfDomainError(f"|g| {'overflows to inf' if r else 'underflows to 0'} "
                            f"at a non-zero base point")


def canonical_invariants(g: Vector, h: Vector) -> tuple[float, float, float]:
    """The complete isometry invariants (r, p, q) of the pair (g, h).

    r = |g|, p = |<h, g>| and q as in :func:`pair_invariants`.  Raises
    ZeroVectorError at g = 0, OutOfDomainError where |g| under- or overflows.
    """
    r = norm(g)
    if r == 0.0 or r == math.inf:
        raise (norm_range_error(r) if g.entries.any()
               else ZeroVectorError("canonical invariants need g != 0"))
    _check_pair(g, h)
    ip, q = pair_invariants(g, h, r)
    return r, abs(ip), q


def _orthonormal_extension(cols: list[np.ndarray], dim: int, dtype) -> np.ndarray:
    """Extend the given orthonormal columns to a full basis, deterministically.

    Gram-Schmidt over the standard basis in index order, with a second
    orthogonalization pass for stability.
    """
    basis = [np.asarray(c, dtype=dtype) for c in cols]
    for i in range(dim):
        if len(basis) == dim:
            break
        cand = np.zeros(dim, dtype=dtype)
        cand[i] = 1.0
        for b in basis:
            cand = cand - b * np.vdot(b, cand)
        n = np.linalg.norm(cand)
        if n < 1e-6:
            continue
        cand = cand / n
        for b in basis:
            cand = cand - b * np.vdot(b, cand)
        basis.append(cand / np.linalg.norm(cand))
    if len(basis) != dim:
        raise RuntimeError("orthonormal extension failed")  # unreachable for valid input
    return np.stack(basis, axis=1)


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
    ng = norm(g)
    if ng == 0.0:
        raise ZeroVectorError("canonical isometry needs g != 0")
    if abs(norm(e) - 1.0) > tol or abs(norm(f) - 1.0) > tol or abs(inner(e, f)) > tol:
        raise ValueError("(e, f) must be an orthonormal pair")

    dtype = g.field.dtype
    u1 = g.entries / ng
    ip = inner(h, g)
    w = h.entries - (ip / (ng * ng)) * g.entries
    nw = np.linalg.norm(w)
    if nw > tol * max(1.0, norm(h)):
        u2 = w / nw
    else:
        # h collinear with g: complete {g/|g|} over the standard basis.
        u2 = _orthonormal_extension([u1], g.dim, dtype)[:, 1]
    mu = ip / abs(ip) if abs(ip) > 0.0 else 1.0
    domain_basis = _orthonormal_extension([u1, u2], g.dim, dtype)
    target_basis = _orthonormal_extension([e.entries, mu * f.entries], g.dim, dtype)
    return LinearMap(target_basis @ domain_basis.conj().T, g.field)


def random_unitaries(n: int, dim: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    """n Haar-distributed unitaries (orthogonal over R) as an (n, dim, dim) array.

    One Gaussian draw and one stacked QR, with the R-diagonal phases pushed
    into Q.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if field is Field.REAL:
        a = rng.standard_normal((n, dim, dim))
    else:
        a = (rng.standard_normal((n, dim, dim))
             + 1j * rng.standard_normal((n, dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=1, axis2=2)
    absd = np.abs(d)
    ph = np.where(absd == 0.0, 1.0, d / np.where(absd == 0.0, 1.0, absd))
    return q * ph[:, None, :]


def random_unitary(dim: int, field: Field, seed: int) -> LinearMap:
    """Haar-distributed unitary (orthogonal over R), deterministic per seed:
    random_unitaries' one-matrix case on default_rng(seed)."""
    return LinearMap(random_unitaries(1, dim, field, np.random.default_rng(seed))[0], field)


def random_rotation(dim: int, seed: int, field: Field = Field.REAL) -> LinearMap:
    """Haar-random real isometry of determinant +1."""
    if field is not Field.REAL:
        raise MismatchError("rotations are defined over the real field")
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
    """An (n, dim) array of standard Gaussian entries over the field."""
    if field is Field.REAL:
        return rng.standard_normal((n, dim))
    return (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))) / np.sqrt(2.0)


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
