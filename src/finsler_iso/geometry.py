"""Curve lengths, projective pseudodistances and numerical geodesics.

Lengths integrate rho along a curve (composite Simpson for parametric
curves, on nested grids until two levels agree; per-segment midpoint sums
for polylines).  Geodesic distance is estimated by derivative-free
coordinate descent over the interior vertices of a polyline, which yields
an upper bound on the infimum.  Each sweep of the descent draws its
directions at once, tabulates every position a vertex can reach and
measures them in one _segment_length call, plus one call that measures
again the 15 left segments of each vertex whose left neighbour moved; its
result equals the one-vertex-at-a-time descent's bit for bit.  The segment
kernel evaluates every chunk of every spec from its segment's invariants, in
one call; only a spec that reads_vectors also gets the chunk rows.
"""

from __future__ import annotations

import math
import operator
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .errors import (InvalidArgumentError, NonPositiveMetricError, OutOfDomainError,
                     ZeroVectorError, check_counts)
from .linalg import (
    Field,
    Vector,
    canonical_invariants,
    checked_norm,
    norm,
    pair_invariants_rows,
    row_norms,
)
from .metrics import (MetricSpec, _check_compatible, _inside_rows, _refuse_nan, eval_batch,
                      eval_finsler, fubini_study)


class ParametricCurve:
    """t -> gamma(t) on [a, b], given by its rows form: points(ts) is the
    (N, dim) array of gamma at each entry of ts.  Velocities are centred
    differences of step 1e-6 max(1, |t|), so the map must be evaluable one
    step beyond the endpoints.  point and velocity are one-row views.
    """

    def __init__(self, points: Callable[[np.ndarray], np.ndarray], a: float, b: float):
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError("curve needs finite a < b")
        self.points, self.a, self.b = points, a, b

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        s = 1e-6 * np.maximum(1.0, np.abs(ts))
        return (self.points(ts + s) - self.points(ts - s)) / (2.0 * s)[:, None]

    def point(self, t: float) -> Vector:
        return _vectors(self.points(np.array([t], dtype=float)))[0]

    def velocity(self, t: float) -> Vector:
        return _vectors(self.velocities(np.array([t], dtype=float)))[0]


def _vectors(rows: np.ndarray) -> list[Vector]:
    """The rows of an array as Vectors of the field its dtype names."""
    field = Field.COMPLEX if rows.dtype.kind == "c" else Field.REAL
    return [Vector(row, field) for row in rows]


class Polyline:
    """Ordered vertices, the rows of an (n, dim) array; vertex i of n sits at
    the parameter i/(n-1) of [0, 1]."""

    def __init__(self, vertices: np.ndarray):
        if getattr(vertices, "ndim", None) != 2 or len(vertices) < 2:
            raise ValueError("polyline needs an (n, dim) array of n >= 2 vertices")
        self.vertices = vertices


def _warn_if_negative(values: np.ndarray) -> None:
    if np.any(values < 0.0):
        warnings.warn("metric takes negative values along the curve; the "
                      "integral is signed", RuntimeWarning, stacklevel=3)


# The default Simpson rule: nested grids from _SIMPSON_START nodes, each level
# doubling the intervals, until two levels agree to _SIMPSON_TOL relative (the
# 15 is Simpson's error ratio between levels) or the grid reaches _SIMPSON_CAP.
_SIMPSON_START, _SIMPSON_CAP, _SIMPSON_TOL = 33, 1025, 1e-10


def curve_length(spec: MetricSpec, curve: ParametricCurve | Polyline,
                 n_nodes: int | None = None) -> float:
    """Length of the curve under the metric.

    Parametric curves use composite Simpson quadrature.  By default it runs
    on nested grids of 33, 65, 129, ... nodes, each level evaluating only its
    new nodes, and returns the first level S_2n with |S_2n - S_n| <=
    15e-10 max(1, |S_2n|), or the 1025-node level when none converges.  An
    integrand that oscillates at a power-of-two frequency of [a, b] can
    agree with itself on two such grids and fool the test: pass n_nodes
    then.  Stopping at the cap raises one RuntimeWarning.  An explicit
    n_nodes (odd, >= 3, any value operator.index takes, else
    InvalidArgumentError) keeps that one fixed grid and never warns.
    Polylines use the exact sum of per-segment midpoint evaluations
    rho_mid(delta), all segments in one eval_batch call.  Negative integrand
    values raise one warning but still integrate.
    """
    if isinstance(curve, Polyline):
        V = curve.vertices
        values, inside = eval_batch(spec, 0.5 * (V[:-1] + V[1:]), V[1:] - V[:-1])
        if not inside.all():
            raise OutOfDomainError("a segment midpoint is outside the metric's domain")
        _warn_if_negative(values)
        return float(values.sum())
    if n_nodes is None:
        n, cap = _SIMPSON_START, _SIMPSON_CAP
    else:
        try:
            n = cap = operator.index(n_nodes)
        except TypeError:
            raise InvalidArgumentError("Simpson quadrature needs an integer node count, "
                                       f"got {n_nodes!r}") from None
        check_counts(3, n_nodes=n)
        if n % 2 == 0:
            raise InvalidArgumentError(f"Simpson quadrature needs an odd n_nodes, got {n}")
    values = _node_values(spec, curve, np.linspace(curve.a, curve.b, n))
    length = _simpson(values, curve)
    while n < cap:
        n = 2 * n - 1
        finer = np.empty(n)
        finer[::2] = values
        finer[1::2] = _node_values(spec, curve, np.linspace(curve.a, curve.b, n)[1::2])
        values, previous, length = finer, length, _simpson(finer, curve)
        if abs(length - previous) <= 15.0 * _SIMPSON_TOL * max(1.0, abs(length)):
            break
    else:
        if n_nodes is None:  # the default rule reached its cap without converging
            warnings.warn(f"Simpson quadrature stopped at the {cap}-node cap before two "
                          "levels agreed; the length may be inaccurate", RuntimeWarning,
                          stacklevel=2)
    _warn_if_negative(values)
    return length


def _node_values(spec: MetricSpec, curve: ParametricCurve, ts: np.ndarray) -> np.ndarray:
    """rho at the curve's point and velocity, one eval_finsler call per node, not
    eval_batch: see FOUND in CHANGES.md on perfbench/tests/test_tracer.py, which
    counts these calls."""
    P, D = curve.points(ts), curve.velocities(ts)
    field = Field.COMPLEX if P.dtype.kind == "c" else Field.REAL
    return np.array([eval_finsler(spec, Vector(p, field), Vector(d, field))
                     for p, d in zip(P, D)])


def _simpson(values: np.ndarray, curve: ParametricCurve) -> float:
    """Composite Simpson sum of values on the uniform grid of [a, b]."""
    n = len(values)
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((curve.b - curve.a) / (n - 1) / 3.0 * np.dot(weights, values))


# ---------------------------------------------------------------------------
# Projective pseudodistances

def _angle(g: Vector, h: Vector) -> tuple[float, float]:
    """cos and sin of the acute angle between the F-lines of g and h: the
    invariants p and q of the pair over r |h|.  Raises ZeroVectorError at
    g = 0 or h = 0, OutOfDomainError where |g| or |h| under- or overflows."""
    nh = checked_norm(h, "h")
    r, p, q = canonical_invariants(g, h)
    return p / (r * nh), q / (r * nh)


def delta1(g: Vector, h: Vector) -> float:
    """sin of the acute angle between the F-lines of g and h.

    Evaluated through the orthogonal component of h against g, which stays
    accurate for nearly collinear pairs.
    """
    return min(1.0, _angle(g, h)[1])


def delta2(g: Vector, h: Vector) -> float:
    """Chord distance between the unit-sphere intersections of the two F-lines."""
    return math.sqrt(max(0.0, 2.0 - 2.0 * min(1.0, _angle(g, h)[0])))


def polygonal_delta_length(which: str, curve: ParametricCurve, n_segments: int = 1000) -> float:
    """Sum of delta over a uniform partition of the curve into n_segments >= 1 parts."""
    fn = {"delta1": delta1, "delta2": delta2}.get(which)
    if fn is None:
        raise ValueError("which must be 'delta1' or 'delta2'")
    check_counts(n_segments=n_segments)
    points = _vectors(curve.points(np.linspace(curve.a, curve.b, n_segments + 1)))
    return float(sum(fn(u, v) for u, v in zip(points, points[1:])))


class IntrinsificationTable(NamedTuple):
    rows: tuple[tuple[float, float, float], ...]  # (step, delta1 ratio, delta2 ratio)
    sigma_value: float
    degenerate: bool


def intrinsification_ratio(curve: ParametricCurve, t: float,
                           s_steps: list[float]) -> IntrinsificationTable:
    """Ratios delta_i(gamma(t+s), gamma(t)) / s against the local sigma value.

    The reference is sqrt(sigma_gamma(gamma', gamma')) for the Fubini-Study
    form; the ratios converge to it as the steps shrink.  A vanishing
    derivative is reported, not asserted.  Raises ValueError unless t is in
    [a, b] and each step s is positive with t + s or t - s in [a, b].
    """
    if not curve.a <= t <= curve.b:
        raise ValueError(f"t = {t} is outside the curve's interval [{curve.a}, {curve.b}]")
    if not all(s > 0.0 and (t + s <= curve.b or t - s >= curve.a) for s in s_steps):
        raise ValueError("each step s must be positive, with t + s or t - s in [a, b]")
    base = curve.point(t)
    if norm(base) == 0.0:
        raise ZeroVectorError("intrinsification needs gamma(t) != 0")
    vel = curve.velocity(t)
    degenerate = norm(vel) == 0.0
    sigma_value = eval_finsler(fubini_study(base.dim, base.field), base, vel)
    rows = []
    for s in s_steps:
        u = t + s if t + s <= curve.b else t - s
        other = curve.point(u)
        rows.append((s, delta1(other, base) / s, delta2(other, base) / s))
    return IntrinsificationTable(tuple(rows), sigma_value, degenerate)


# ---------------------------------------------------------------------------
# Geodesic distance by polyline descent

class GeodesicResult(NamedTuple):
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

    Every chunk of every segment, whatever the spec, is evaluated in one call
    of the spec's family kernel, from the chunk's invariants (see _chunk_values).
    Returns (lengths, status): status[k] is _RESOLVED, or the first failure in
    chunk order, _LEFT_DOMAIN (refused, or a chunk midpoint outside the
    domain) or _NEGATIVE (a negative chunk value); lengths[k] is meaningful
    only for a resolved segment.  A NaN chunk value raises as in eval_batch.
    """
    D = V - U
    length = row_norms(D)
    moving = length > 0.0
    t_star = np.minimum(np.maximum(
        -np.vecdot(D, U).real / np.where(moving, length * length, 1.0), 0.0), 1.0)
    P = U + t_star[:, None] * D  # the point of the segment nearest to the origin
    origin_gap = row_norms(P)
    # chunk <= gap/16 keeps the midpoint bias of a near-origin sweep below
    # ~5e-4 even when the descent adversarially seeks quadrature error
    needed = np.maximum(length / ell0, 16.0 * length / np.maximum(origin_gap, 1e-300))
    refused = needed > _CHUNK_CAP
    # a segment that is not refused needs at most _CHUNK_CAP chunks
    m = np.where(moving & ~refused, np.maximum(np.ceil(needed), 4.0), 0.0).astype(np.intp)
    seg = np.arange(len(m)).repeat(m)
    values, inside = _chunk_values(spec, P, D, origin_gap, length, t_star, m)
    # bincount adds each segment's chunks in order, from 0 for a segment without
    # any; it gives int zeros when no segment has a chunk
    lengths = np.bincount(seg, weights=values, minlength=len(m)).astype(float, copy=False)
    status = refused * _LEFT_DOMAIN  # _RESOLVED = 0 elsewhere
    if not inside.all() or not (values >= 0.0).all():  # a NaN value fails here too
        _refuse_nan(values)
        failed = np.flatnonzero(~inside | (values < 0.0))
        segs, first = np.unique(seg[failed], return_index=True)
        status[segs] = np.where(inside[failed[first]], _NEGATIVE, _LEFT_DOMAIN)
    return lengths, status


def _chunk_values(spec: MetricSpec, P: np.ndarray, D: np.ndarray, gap: np.ndarray,
                  length: np.ndarray, t_star: np.ndarray,
                  m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho at the chunks' (midpoint, step) pairs and eval_batch's inside mask,
    segment k's m[k] chunks in order, from each segment's own invariants.

    Chunk j of m has midpoint P + tau D and step D/m, with tau = (j + 0.5)/m
    - t*, P the segment's point nearest to 0 and gap = |P|.  With (c0, q0) the
    invariants of (P, D) and C = |D|^2, its invariants are r^2 = gap^2 +
    tau (2 Re c0 + tau C), <h, g> = (c0 + tau C)/m and q = q0/m (the Gram
    determinant does not change when g moves along h).  Nothing in r^2
    cancels: Re c0 and tau share a sign wherever t* is clamped to 0 or 1, and
    where it is not, Re c0 is 0 up to rounding, far below gap^2 (a segment
    that is not refused has gap >= |D|/256).  So r > 0 on every chunk, where a
    zero extension is its inner spec.  A spec that reads_vectors also gets the
    chunk rows, midpoints P + tau D and steps D/m.
    """
    m_rows = m.astype(float).repeat(m)
    tau = (np.arange(0.5, len(m_rows)) - (m.cumsum() - m).repeat(m)) / m_rows - t_star.repeat(m)
    # the invariants, r and rho overflow to inf silently; a NaN raises in _segment_length
    with np.errstate(over="ignore", invalid="ignore"):
        c0, q0 = pair_invariants_rows(P, D, gap)
        tau_c = tau * (length * length).repeat(m)
        r = np.sqrt((gap * gap).repeat(m) + tau * ((2.0 * c0.real).repeat(m) + tau_c))
        ip = (c0.repeat(m) + tau_c) / m_rows
        q = q0.repeat(m) / m_rows
        inside = spec.domain.contains(r)
        G = H = None
        if spec.reads_vectors:  # the chunk rows
            H = D.repeat(m, axis=0)
            G, H = P.repeat(m, axis=0) + tau[:, None] * H, H / m_rows[:, None]
        if inside.all():
            return spec._values(r, ip, q, G, H), inside
        values = np.zeros(len(r))
        rows = (None, None) if G is None else (G[inside], H[inside])
        values[inside] = spec._values(r[inside], ip[inside], q[inside], *rows)
    return values, inside


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
    for attempt in range(8):
        verts = (_segment_rows(g.entries, h.entries, np.linspace(0.0, 1.0, n_vertices))
                 if attempt == 0 else _lifted_chord(g, h, n_vertices, rng))
        lengths, status = _segment_length(spec, verts[:-1], verts[1:], ell0)
        failed = np.flatnonzero(status)
        if len(failed) == 0:
            return verts, lengths.tolist()
        if status[failed[0]] == _NEGATIVE:
            raise NonPositiveMetricError("metric is negative along the path")
    raise ValueError("no valid initialization found inside the metric's domain")


def _lifted_chord(g: Vector, h: Vector, n_vertices: int,
                  rng: np.random.Generator) -> np.ndarray:
    mid = 0.5 * (g.entries + h.entries)
    lift = mid + _directions(rng, 1, g.dim, g.field)[0] * 0.75 * max(norm(g), norm(h))
    half = (n_vertices + 1) // 2
    leg1 = _segment_rows(g.entries, lift, np.linspace(0.0, 1.0, half))
    leg2 = _segment_rows(lift, h.entries, np.linspace(0.0, 1.0, n_vertices - half + 1))
    return np.concatenate([leg1, leg2[1:]])


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
    the iteration cap.  Raises InvalidArgumentError unless n_vertices >= 3
    and n_iterations >= 0, ValueError when g != h and the chord's length
    under- or overflows; MismatchError unless g and h have the spec's
    dimension and field; OutOfDomainError naming an endpoint outside the
    domain (one on the boundary of a radius interval is a valid start).
    """
    check_counts(3, n_vertices=n_vertices)
    check_counts(0, n_iterations=n_iterations)
    _check_compatible(spec, g, h)
    with np.errstate(over="ignore"):  # |g|, |h| or the chord may overflow: each is named below
        r, inside = _inside_rows(spec, np.stack([g.entries, h.entries]))
        chord_len = float(np.linalg.norm(h.entries - g.entries))
    # a path may start on the boundary of a radius interval: only chunk midpoints are evaluated
    inside |= (0.0 < r) & (r < math.inf) & np.any(
        [(lo <= r) & (r <= hi) for lo, hi in spec.domain.intervals], axis=0)
    for name, radius, ok in zip("gh", r.tolist(), inside.tolist()):
        if not ok:
            raise OutOfDomainError(f"endpoint {name} is outside the metric's domain "
                                   f"(|{name}| = {radius})")
    if np.array_equal(g.entries, h.entries):
        line = Polyline(np.stack([g.entries] * (n_vertices - 1) + [h.entries]))
        return GeodesicResult(0.0, line, 0.0, 0, (0.0,), "zero-chord")
    if chord_len == 0.0 or chord_len == math.inf:
        how = "overflows to inf" if chord_len else "underflows to 0"
        raise ValueError(f"the chord |h - g| {how} although g != h")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    ell0 = chord_len / (4.0 * (n_vertices - 1))
    verts, seglen = _initial_vertices(spec, g, h, n_vertices, rng, ell0)
    total = sum(seglen)
    initial = total
    history = [total]
    step = chord_len / (n_vertices - 1)
    step_floor = 1e-6 * chord_len
    stop_reason = "iteration-cap"

    for _ in range(n_iterations):
        P = _sweep_positions(verts, step, rng, spec.field)
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
                if ok_a[s - 1] and ok_b[s - 1] and a[s - 1] + b[s - 1] < local - 1e-15 * local:
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

    return GeodesicResult(total, Polyline(verts), initial, len(history) - 1, tuple(history),
                          stop_reason)


def path_rows(path: Polyline) -> list[list[float]]:
    """CSV rows (t, x_1..x_n[, y_1..y_n]) for an optimized path, t = i/(n-1) at vertex i."""
    V = path.vertices
    if V.dtype.kind == "c":
        V = np.concatenate([V.real, V.imag], axis=1)
    return [[i / (len(V) - 1)] + row for i, row in enumerate(V.tolist())]


def _segment_rows(u: np.ndarray, v: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """(1 - t) u + t v for each entry of ts, as the rows of an array."""
    return (1.0 - ts)[:, None] * u + ts[:, None] * v


def segment_curve(g: Vector, h: Vector) -> ParametricCurve:
    """The straight segment from g to h on [0, 1]."""
    return ParametricCurve(lambda ts: _segment_rows(g.entries, h.entries, ts), 0.0, 1.0)


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
    return ParametricCurve(rows, t0, t1)
