"""Curve lengths, projective pseudodistances and numerical geodesics.

Lengths integrate rho along a curve (composite Simpson for parametric
curves, per-segment midpoint sums for polylines).  Geodesic distance is
estimated by derivative-free coordinate descent over the interior vertices
of a polyline, which yields an upper bound on the infimum.  Each sweep of
the descent draws its directions at once, tabulates every position a vertex
can reach and measures them in one eval_batch call; its result equals the
one-vertex-at-a-time descent's bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import NonPositiveMetricError, OutOfDomainError, ZeroVectorError
from .linalg import (
    Field,
    Vector,
    canonical_invariants,
    conj,
    inner,
    norm,
    row_dots,
    row_norms,
)
from .metrics import MetricSpec, eval_batch, eval_finsler


@dataclass(frozen=True)
class ParametricCurve:
    """t -> gamma(t) on [a, b]; derivatives by centered differences of step 1e-6 max(1, |t|).

    The map must be evaluable slightly beyond the endpoints (one step).
    A map that carries a `rows` attribute, as circle_arc's and
    segment_curve's do, gives points() for all parameters in one call;
    otherwise points() stacks fn(t).
    """

    fn: Callable[[float], Vector]
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("curve needs a < b")

    def point(self, t: float) -> Vector:
        return self.fn(t)

    def velocity(self, t: float) -> Vector:
        s = 1e-6 * max(1.0, abs(t))
        p1, p0 = self.fn(t + s), self.fn(t - s)
        return Vector((p1.entries - p0.entries) / (2.0 * s), p1.field)

    def points(self, ts: np.ndarray) -> np.ndarray:
        """gamma(t) for each entry of ts, as the rows of an (N, dim) array."""
        rows = getattr(self.fn, "rows", None)
        if rows is not None:
            return rows(ts)
        return np.stack([self.fn(t).entries for t in ts.tolist()])

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        """velocity(t) for each entry of ts, with the same step per node."""
        s = 1e-6 * np.maximum(1.0, np.abs(ts))
        return (self.points(ts + s) - self.points(ts - s)) / (2.0 * s)[:, None]


def _curve_map(rows: Callable[[np.ndarray], np.ndarray], field: Field) -> Callable[[float], Vector]:
    """The scalar map t -> Vector of a curve given by its rows form, which it
    carries as .rows, so points and point agree bit for bit."""
    def fn(t: float) -> Vector:
        return Vector(rows(np.array([t], dtype=float))[0], field)
    fn.rows = rows
    return fn


@dataclass(frozen=True)
class Polyline:
    """Ordered vertices, vertex i of n at the parameter i/(n-1) of [0, 1]."""

    vertices: tuple[Vector, ...]
    a: ClassVar[float] = 0.0
    b: ClassVar[float] = 1.0

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("polyline needs at least two vertices")

    def point(self, t: float) -> Vector:
        m = len(self.vertices) - 1
        # the segment k whose start k/m is the last vertex parameter below t, or
        # the first or last segment: t*m estimates it, the parameters settle it
        k = min(max(math.ceil(t * m) - 1, 0), m - 1)
        if k > 0 and k / m >= t:
            k -= 1
        elif k < m - 1 and (k + 1) / m < t:
            k += 1
        w = (t - k / m) / ((k + 1) / m - k / m)
        u, v = self.vertices[k], self.vertices[k + 1]
        return Vector((1.0 - w) * u.entries + w * v.entries, u.field)


Curve = ParametricCurve | Polyline


def _warn_if_negative(values: np.ndarray) -> None:
    if np.any(values < 0.0):
        warnings.warn("metric takes negative values along the curve; the "
                      "integral is signed", RuntimeWarning, stacklevel=3)


def curve_length(spec: MetricSpec, curve: Curve, n_nodes: int = 1001) -> float:
    """Length of the curve under the metric.

    Parametric curves use composite Simpson quadrature on n_nodes (odd,
    >= 3); polylines use the exact sum of per-segment midpoint evaluations
    rho_mid(delta), all segments in one eval_batch call.  Negative integrand
    values raise a warning but still integrate.
    """
    if isinstance(curve, Polyline):
        V = np.stack([v.entries for v in curve.vertices])
        values, inside = eval_batch(spec, 0.5 * (V[:-1] + V[1:]), V[1:] - V[:-1])
        if not inside.all():
            raise OutOfDomainError("a segment midpoint is outside the metric's domain")
        _warn_if_negative(values)
        return float(values.sum())
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("Simpson quadrature needs an odd node count >= 3")
    ts = np.linspace(curve.a, curve.b, n_nodes)
    P, D = curve.points(ts), curve.velocities(ts)
    field = Field.COMPLEX if P.dtype.kind == "c" else Field.REAL
    # One eval_finsler call per node, not eval_batch: see FOUND in CHANGES.md
    # on perfbench/tests/test_tracer.py, which counts these calls.
    values = np.array([eval_finsler(spec, Vector(p, field), Vector(d, field))
                       for p, d in zip(P, D)])
    _warn_if_negative(values)
    hstep = (curve.b - curve.a) / (n_nodes - 1)
    weights = np.ones(n_nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(hstep / 3.0 * np.dot(weights, values))


# ---------------------------------------------------------------------------
# Projective pseudodistances

def delta1(g: Vector, h: Vector) -> float:
    """sin of the acute angle between the F-lines of g and h.

    Evaluated through the orthogonal component of h against g, which stays
    accurate for nearly collinear pairs.
    """
    nh = norm(h)
    if nh == 0.0:
        raise ZeroVectorError("delta1 needs non-zero vectors")
    _, _, q = canonical_invariants(g, h)  # raises on g = 0
    return min(1.0, q / (norm(g) * nh))


def delta2(g: Vector, h: Vector) -> float:
    """Chord distance between the unit-sphere intersections of the two F-lines."""
    ng, nh = norm(g), norm(h)
    if ng == 0.0 or nh == 0.0:
        raise ZeroVectorError("delta2 needs non-zero vectors")
    c = min(1.0, abs(inner(h, g)) / (ng * nh))
    return math.sqrt(max(0.0, 2.0 - 2.0 * c))


def polygonal_delta_length(which: str, curve: Curve, n_segments: int = 1000) -> float:
    """Sum of delta over a uniform parameter partition of the curve."""
    fn = {"delta1": delta1, "delta2": delta2}.get(which)
    if fn is None:
        raise ValueError("which must be 'delta1' or 'delta2'")
    ts = np.linspace(curve.a, curve.b, n_segments + 1)
    points = [curve.point(t) for t in ts]
    return float(sum(fn(u, v) for u, v in zip(points, points[1:])))


@dataclass(frozen=True)
class IntrinsificationTable:
    rows: tuple[tuple[float, float, float], ...]  # (step, delta1 ratio, delta2 ratio)
    sigma_value: float
    degenerate: bool


def intrinsification_ratio(curve: ParametricCurve, t: float,
                           s_steps: list[float]) -> IntrinsificationTable:
    """Ratios delta_i(gamma(t+s), gamma(t)) / s against the local sigma value.

    The reference is sqrt(sigma_gamma(gamma', gamma')) for the Fubini-Study
    form; the ratios converge to it as the steps shrink.  A vanishing
    derivative is reported, not asserted.
    """
    base = curve.point(t)
    if norm(base) == 0.0:
        raise ZeroVectorError("intrinsification needs gamma(t) != 0")
    vel = curve.velocity(t)
    degenerate = norm(vel) == 0.0
    r, _, q = canonical_invariants(base, vel)
    sigma_value = q / (r * r)
    rows = []
    for s in s_steps:
        u = t + s if t + s <= curve.b else t - s
        other = curve.point(u)
        rows.append((s, delta1(other, base) / s, delta2(other, base) / s))
    return IntrinsificationTable(tuple(rows), sigma_value, degenerate)


# ---------------------------------------------------------------------------
# Geodesic distance by polyline descent

@dataclass(frozen=True)
class GeodesicResult:
    distance: float
    path: Polyline
    initial_length: float
    iterations: int
    history: tuple[float, ...]
    stop_reason: str  # "zero-chord", "step-floor" or "iteration-cap"


_CHUNK_CAP = 4096

# What _segment_length reports for each segment.
_RESOLVED, _LEFT_DOMAIN, _NEGATIVE = 0, 1, 2


def _segment_length(spec: MetricSpec, U: np.ndarray, V: np.ndarray,
                    ell0: float) -> tuple[np.ndarray, np.ndarray]:
    """Refined midpoint lengths of the straight segments U[k] -> V[k].

    Two refinement rules guard the descent against quadrature exploits: a
    floor of chunks per unit ell0 (a single midpoint has spurious minimizers
    that collapse interior vertices onto the endpoints), and chunks no longer
    than 1/16 of the segment's distance to the origin (metrics can sweep
    their whole angular variation inside a near-origin passage, which coarse
    chunks would miss and undercount).  Segments that would need more than
    _CHUNK_CAP chunks are refused as unresolvable.

    Every chunk of every segment is evaluated in one eval_batch call.
    Returns (lengths, status): status[k] is _RESOLVED, or the first failure in
    chunk order, _LEFT_DOMAIN (refused, or a chunk midpoint outside the
    domain) or _NEGATIVE (a negative chunk value); lengths[k] is meaningful
    only for a resolved segment.
    """
    D = V - U
    length = row_norms(D)
    moving = length > 0.0
    t_star = np.minimum(np.maximum(
        -row_dots(conj(D), U).real / np.where(moving, length * length, 1.0), 0.0), 1.0)
    origin_gap = row_norms(U + t_star[:, None] * D)
    # chunk <= gap/16 keeps the midpoint bias of a near-origin sweep below
    # ~5e-4 even when the descent adversarially seeks quadrature error
    needed = np.maximum(length / ell0, 16.0 * length / np.maximum(origin_gap, 1e-300))
    refused = needed > _CHUNK_CAP
    m = np.where(moving & ~refused, np.minimum(np.maximum(np.ceil(needed), 4), _CHUNK_CAP),
                 0).astype(np.intp)
    seg = np.repeat(np.arange(len(m)), m)
    j = np.arange(len(seg)) - np.repeat(np.cumsum(m) - m, m)
    mids = U[seg] + ((j + 0.5) / m[seg])[:, None] * D[seg]
    steps = (D / np.maximum(m, 1)[:, None])[seg]
    values, inside = eval_batch(spec, mids, steps)
    # bincount adds each segment's chunks in order, from 0 for a segment without any
    lengths = np.bincount(seg, weights=values, minlength=len(m))
    status = refused * _LEFT_DOMAIN  # _RESOLVED = 0 elsewhere
    if not inside.all() or (values < 0.0).any():
        failed = np.flatnonzero(~inside | (values < 0.0))
        segs, first = np.unique(seg[failed], return_index=True)
        status[segs] = np.where(inside[failed[first]], _NEGATIVE, _LEFT_DOMAIN)
    return lengths, status


def _directions(rng: np.random.Generator, count: int, dim: int, field: Field) -> np.ndarray:
    """count seeded random unit directions in F^dim, as the rows of an array."""
    if field is Field.REAL:
        D = rng.standard_normal((count, dim))
    else:
        X = rng.standard_normal((count, 2, dim))
        D = X[:, 0] + 1j * X[:, 1]
    return D / row_norms(D)[:, None]


def _sweep_positions(verts: np.ndarray, step: float, rng: np.random.Generator,
                     field: Field) -> np.ndarray:
    """Every position one sweep can move each interior vertex to.

    Each vertex draws two directions d1, d2, which give its moves, in order,
    +step d1, -step d1, +step d2, -step d2.  Row S of vertex i's (16, dim)
    block is v_i plus the moves in the bitmask S, added in move order
    (row 0 is v_i), so each row is the float the greedy pass reaches when it
    accepts exactly the moves in S.
    """
    ni, dim = len(verts) - 2, verts.shape[1]
    D = _directions(rng, 2 * ni, dim, field).reshape(ni, 2, 1, dim)
    moves = (np.array([step, -step])[:, None] * D).reshape(ni, 4, dim)
    P = np.empty((ni, 16, dim), dtype=verts.dtype)
    P[:, 0] = verts[1:-1]
    for j in range(4):  # the subsets whose highest move is j: the lower ones plus move j
        P[:, 1 << j:2 << j] = P[:, :1 << j] + moves[:, j:j + 1]
    return P


def _initial_vertices(spec: MetricSpec, g: Vector, h: Vector, n_vertices: int,
                      rng: np.random.Generator, ell0: float) -> tuple[np.ndarray, list[float]]:
    """Straight chord, or an arc through a perturbed midpoint when the chord
    leaves the domain; returns the vertices and their segment lengths."""
    ts = np.linspace(0.0, 1.0, n_vertices)
    chord = [(1.0 - t) * g.entries + t * h.entries for t in ts]
    for attempt in range(8):
        verts = np.array(chord if attempt == 0 else _lifted_chord(g, h, n_vertices, rng))
        lengths, status = _segment_length(spec, verts[:-1], verts[1:], ell0)
        failed = np.flatnonzero(status)
        if len(failed) == 0:
            return verts, lengths.tolist()
        if status[failed[0]] == _NEGATIVE:
            raise NonPositiveMetricError("metric is negative along the path")
    raise ValueError("no valid initialization found inside the metric's domain")


def _lifted_chord(g: Vector, h: Vector, n_vertices: int,
                  rng: np.random.Generator) -> list[np.ndarray]:
    mid = 0.5 * (g.entries + h.entries)
    lift = mid + _directions(rng, 1, g.dim, g.field)[0] * 0.75 * max(norm(g), norm(h))
    half = (n_vertices + 1) // 2
    ts1 = np.linspace(0.0, 1.0, half)
    ts2 = np.linspace(0.0, 1.0, n_vertices - half + 1)
    leg1 = [(1.0 - t) * g.entries + t * lift for t in ts1]
    leg2 = [(1.0 - t) * lift + t * h.entries for t in ts2]
    return leg1 + leg2[1:]


def geodesic_distance(spec: MetricSpec, g: Vector, h: Vector, n_vertices: int = 13,
                      n_iterations: int = 150, seed: int = 0) -> GeodesicResult:
    """Upper bound on the geodesic distance between g and h.

    Coordinate descent over the interior vertices of a polyline, on the one
    random stream SeedSequence(seed).spawn(1)[0]: each vertex in turn tries
    the moves +-step along two random directions and keeps each one that
    shortens the path; the step halves after a sweep without improvement.
    Each sweep is measured in batches (see _sweep_positions).  The length
    sequence is non-increasing; negative metrics are refused.  The result
    says why the descent stopped: a zero chord (g = h), the step floor, or
    the iteration cap.  Raises ValueError unless n_vertices >= 3 and
    n_iterations >= 0.
    """
    if n_vertices < 3:
        raise ValueError("need at least one interior vertex")
    if n_iterations < 0:
        raise ValueError("need n_iterations >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    field = spec.field
    chord_len = float(np.linalg.norm(h.entries - g.entries))
    if chord_len == 0.0:
        line = Polyline(tuple([g] * (n_vertices - 1) + [h]))
        return GeodesicResult(0.0, line, 0.0, 0, (0.0,), "zero-chord")
    ell0 = chord_len / (4.0 * (n_vertices - 1))
    verts, seglen = _initial_vertices(spec, g, h, n_vertices, rng, ell0)
    total = sum(seglen)
    initial = total
    history = [total]
    step = chord_len / (n_vertices - 1)
    step_floor = 1e-6 * chord_len
    stop_reason = "iteration-cap"

    for _ in range(n_iterations):
        P = _sweep_positions(verts, step, rng, field)
        # Both segments of every candidate, measured against the vertices as
        # the sweep found them: prev -> cand first, then cand -> next.
        cands = P[:, 1:].reshape(-1, spec.dim)
        lengths, status = _segment_length(
            spec, np.concatenate([verts[:-2].repeat(15, axis=0), cands]),
            np.concatenate([cands, verts[2:].repeat(15, axis=0)]), ell0)
        lengths = lengths.reshape(2, -1, 15).tolist()
        ok = (status == _RESOLVED).reshape(2, -1, 15).tolist()
        improved = moved = False
        for i in range(1, n_vertices - 1):
            a, b, ok_a, ok_b = lengths[0][i - 1], lengths[1][i - 1], ok[0][i - 1], ok[1][i - 1]
            if moved:  # the previous vertex moved, so every left segment starts there now
                a, status = _segment_length(spec, verts[i - 1:i].repeat(15, axis=0),
                                            P[i - 1, 1:], ell0)
                a, ok_a = a.tolist(), (status == _RESOLVED).tolist()
            local = seglen[i - 1] + seglen[i]
            cur = 0  # the bitmask of the moves accepted so far, tried in move order
            for j in range(4):
                s = cur | 1 << j
                if ok_a[s - 1] and ok_b[s - 1] and a[s - 1] + b[s - 1] < local - 1e-15 * (1.0 + local):
                    cur, local = s, a[s - 1] + b[s - 1]
            moved = cur > 0
            if moved:
                verts[i] = P[i - 1, cur]
                seglen[i - 1], seglen[i] = a[cur - 1], b[cur - 1]
                improved = True
        total = sum(seglen)
        history.append(total)
        if not improved:
            step *= 0.5
            if step < step_floor:
                stop_reason = "step-floor"
                break

    path = Polyline(tuple(Vector(v.copy(), field) for v in verts))
    return GeodesicResult(total, path, initial, len(history) - 1, tuple(history), stop_reason)


def path_rows(path: Polyline) -> list[list[float]]:
    """CSV rows (t, x_1..x_n[, y_1..y_n]) for an optimized path, t = i/(n-1) at vertex i."""
    n = len(path.vertices)
    return [[i / (n - 1)] + (v.entries.tolist() if v.field is Field.REAL
                             else v.entries.real.tolist() + v.entries.imag.tolist())
            for i, v in enumerate(path.vertices)]


def segment_curve(g: Vector, h: Vector) -> ParametricCurve:
    """The straight segment from g to h on [0, 1]."""
    def rows(ts: np.ndarray) -> np.ndarray:
        return (1.0 - ts)[:, None] * g.entries + ts[:, None] * h.entries
    return ParametricCurve(_curve_map(rows, g.field), 0.0, 1.0)


def circle_arc(dim: int = 2, field: Field = Field.REAL, radius: float = 1.0,
               t0: float = 0.0, t1: float = 0.5 * math.pi) -> ParametricCurve:
    """The arc t -> radius (cos t, sin t, 0, ...) on [t0, t1]."""
    if dim < 2:
        raise ValueError("circle arc needs dim >= 2")

    def rows(ts: np.ndarray) -> np.ndarray:
        P = np.zeros((len(ts), dim), dtype=field.dtype)
        P[:, 0] = radius * np.cos(ts)
        P[:, 1] = radius * np.sin(ts)
        return P
    return ParametricCurve(_curve_map(rows, field), t0, t1)
