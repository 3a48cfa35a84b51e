"""Curve lengths, projective pseudodistances and numerical geodesics.

Lengths integrate rho along a curve (composite Simpson for parametric
curves, on nested grids until two levels agree; for polylines the segment
kernel the descent measures its paths with).  Geodesic distance is
estimated by derivative-free coordinate descent over the interior vertices
of a polyline, which yields an upper bound on the infimum.  The descent
starts from the shortest of the named families' exact geodesics (the chord,
the log-polar arc and, over C, the phase-aligned arc) and, at a half turn,
the lifted chord, a path through a randomly lifted midpoint.  A sweep
tabulates every position a vertex can reach; one _segment_length call
measures the odd interior vertices', which
share no segment, and a second the even ones'.  A sweep fails exactly when
no single move shortens the path, so one call screens the moves of a ladder
of sweeps, drawn at once, and only the first that passes is tabulated and
runs in full.  The result equals the one-vertex-at-a-time descent's bit for
bit under the same acceptance rule, _shortens.  The segment kernel measures
each segment by two Gauss-Legendre nodes per chunk, forms every node's
invariants from its segment's and evaluates every node of every spec in one
call; only a spec that reads_vectors also gets the node rows.  An unresolved
segment measures inf, so the descent compares lengths alone.
"""

from __future__ import annotations

import math
import operator
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .errors import (InvalidArgumentError, MismatchError, NonPositiveMetricError,
                     OutOfDomainError, ZeroVectorError, check_counts)
from .linalg import (
    _R_MIN,
    Field,
    Vector,
    canonical_invariants,
    checked_norm,
    norm,
    pair_invariants_rows,
    row_norms,
)
from .metrics import (MetricSpec, _check_compatible, _inside_rows, _refuse_nan, _where_nonzero,
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
    Negative integrand values raise one warning but still integrate.

    A polyline is measured as geodesic_distance measures its paths: one
    _segment_length call over its segments, at ell0 = max(|V[-1] - V[0]| /
    (4(n - 1)), longest segment / _CHUNK_CAP), summed left to right.  On a
    descent's own path the first term wins, so its length is the descent's
    distance bit for bit; the second keeps a closed polyline measurable.  A
    polyline whose width is not spec.dim or whose dtype is not the field's
    raises MismatchError, and one at a scale geodesic_distance refuses
    raises as it does: OutOfDomainError for a vertex whose |v| overflows,
    ValueError for a segment or chord that overflows, a segment whose ends
    differ but whose length underflows to 0, or every |v| below
    linalg._R_MIN.  A segment with a negative node value raises
    NonPositiveMetricError, and one with a node outside the domain, or that
    passes nearer the origin than the kernel resolves (through 0, say),
    OutOfDomainError.  A polyline that never moves (every finite vertex
    equal) has length 0 before the scale and the segments are checked, so
    at the origin and below linalg._R_MIN too, as a zero-chord path does.
    """
    if isinstance(curve, Polyline):
        return _polyline_length(spec, curve.vertices)
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
    if np.any(values < 0.0):
        warnings.warn("metric takes negative values along the curve; the "
                      "integral is signed", RuntimeWarning, stacklevel=2)
    return length


def _node_values(spec: MetricSpec, curve: ParametricCurve, ts: np.ndarray) -> np.ndarray:
    """rho at the curve's point and velocity, one eval_finsler call per node, not
    eval_batch: see FOUND in CHANGES.md on perfbench/tests/test_tracer.py, which
    counts these calls."""
    P, D = curve.points(ts), curve.velocities(ts)
    return np.array([eval_finsler(spec, p, d) for p, d in zip(_vectors(P), _vectors(D))])


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
    stop_reason: str  # "zero-chord", "infinite-start", "step-floor" or "iteration-cap"


_CHUNK_CAP = 4096

# What _segment_length reports for each segment.
_RESOLVED, _LEFT_DOMAIN, _NEGATIVE = 0, 1, 2

# The two Gauss-Legendre nodes of [0, 1], each of weight 1/2: exact for cubics.
_GAUSS_NODES = 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0)


def _segment_length(spec: MetricSpec, U: np.ndarray, V: np.ndarray,
                    ell0: float) -> tuple[np.ndarray, np.ndarray]:
    """Lengths of the straight segments U[k] -> V[k] by a composite two-point
    Gauss-Legendre rule, of order 4.

    Two refinement rules guard the descent against quadrature exploits: a
    floor of nodes per unit ell0 (a coarse rule has spurious minimizers that
    collapse interior vertices onto the endpoints), and nodes no further
    apart than 1/16 of the segment's distance to the origin (metrics can
    sweep their whole angular variation inside a near-origin passage, which
    coarse chunks would miss and undercount).  A segment takes about as many
    nodes as the rules need, and at least 4: m = max(ceil(needed/2), 2)
    chunks of two nodes.  Segments that would need more than _CHUNK_CAP nodes
    are refused as unresolvable, also where that need overflows, and so are
    segments whose ends differ but whose length underflows to 0.

    Every node of every segment, whatever the spec, is evaluated in one call
    of the spec's family kernel, from the segment's own invariants.  Chunk j
    of m has nodes P + tau D and step D/m, with tau = (j + 1/2 -+ 1/(2 sqrt
    3))/m - t*, P the segment's point nearest to 0 and gap = |P|; each node
    has weight 1/2.  With (c0, q0) the invariants of (P, D) and C = |D|^2, a
    node's invariants are r^2 = gap^2 + tau (2 Re c0 + tau C), <h, g> = (c0 +
    tau C)/m and q = q0/m (the Gram determinant does not change when g moves
    along h).  Nothing in r^2 cancels: Re c0 and tau share a sign wherever t*
    is clamped to 0 or 1, and where it is not, Re c0 is 0 up to rounding, far
    below gap^2 (a segment that is not refused has gap >= |D|/256).  So r > 0
    at every node, where a zero extension is its inner spec.  A spec that
    reads_vectors also gets the node rows, points P + tau D and steps D/m.

    Returns (lengths, status): status[k] is _RESOLVED, or the first failure in
    node order, _LEFT_DOMAIN (refused, or a node outside the domain) or
    _NEGATIVE (a negative node value); lengths[k] is inf exactly where
    status[k] is not _RESOLVED, so a sum of lengths that includes an
    unresolved segment never shortens a path.  A NaN node value raises as in
    eval_batch.
    """
    D = V - U
    length = row_norms(D)
    C = length * length
    moving = length > 0.0
    t_star = np.minimum(np.maximum(-np.vecdot(D, U).real / np.where(moving, C, 1.0), 0.0), 1.0)
    P = U + t_star[:, None] * D  # the point of the segment nearest to the origin
    gap = row_norms(P)
    # nodes <= gap/16 apart keep the bias of a near-origin sweep small even when
    # the descent adversarially seeks quadrature error; a need that overflows
    # to inf is refused below
    with np.errstate(over="ignore"):
        needed = np.maximum(length / ell0, 16.0 * length / np.maximum(gap, 1e-300))
    refused = needed > _CHUNK_CAP
    if not moving.all():  # ends that differ have a D != 0, though |D| may underflow
        refused |= ~moving & D.any(axis=1)
    # m chunks, a float; k = 2m, the node count as a repeat count, spreads each
    # segment's values over its nodes.  A segment that is not refused has at
    # most _CHUNK_CAP + 1 nodes
    m = np.where(moving & ~refused, np.maximum(np.ceil(0.5 * needed), 2.0), 0.0)
    k = 2 * m.astype(np.intp)
    m_rows = m.repeat(k)
    node = np.arange(len(m_rows)) - (k.cumsum() - k).repeat(k)  # a row's node in its segment
    tau = (node // 2 + _GAUSS_NODES[node % 2]) / m_rows - t_star.repeat(k)
    # the invariants, r and rho overflow to inf silently; a NaN raises below
    with np.errstate(over="ignore", invalid="ignore"):
        c0, q0 = pair_invariants_rows(P, D, gap)
        tau_c = tau * C.repeat(k)
        r = np.sqrt((gap * gap).repeat(k) + tau * ((2.0 * c0.real).repeat(k) + tau_c))
        ip = (c0.repeat(k) + tau_c) / m_rows
        q = (q0 / np.where(k > 0, m, 1.0)).repeat(k)
        inside = spec.domain.contains(r)
        rows = (r, ip, q)
        if spec.reads_vectors:  # the node rows
            H = D.repeat(k, axis=0)
            rows += (P.repeat(k, axis=0) + tau[:, None] * H, H / m_rows[:, None])
        values = _where_nonzero(inside, lambda r, ip, q, G=None, H=None: spec._values(
            r, ip, q, G, H), *rows)
    seg = np.arange(len(m)).repeat(k)
    status = refused * _LEFT_DOMAIN  # _RESOLVED = 0 elsewhere
    if not inside.all() or not (values >= 0.0).all():  # a NaN value fails here too
        _refuse_nan(values)
        failed = np.flatnonzero(~inside | (values < 0.0))
        segs, first = np.unique(seg[failed], return_index=True)
        status[segs] = np.where(inside[failed[first]], _NEGATIVE, _LEFT_DOMAIN)
    # bincount adds each segment's nodes in order, from 0 for a segment without
    # any; halving the sum weights each node 1/2
    return np.where(status == _RESOLVED,
                    0.5 * np.bincount(seg, weights=values, minlength=len(m)), np.inf), status


def _directions(rng: np.random.Generator, count: int, dim: int, field: Field) -> np.ndarray:
    """count seeded random unit directions in F^dim, as the rows of an array."""
    if field is Field.REAL:
        D = rng.standard_normal((count, dim))
    else:
        X = rng.standard_normal((count, 2, dim))
        D = X[:, 0] + 1j * X[:, 1]
    return D / row_norms(D)[:, None]


def _moves(rng: np.random.Generator, steps, ni: int, dim: int, field: Field) -> np.ndarray:
    """The moves of ni interior vertices in n sweeps at steps, as an (n, ni, 4,
    dim) array, from one draw, the stream of one sweep at a time.  Each vertex
    draws two directions d1, d2; its moves are +step d1, -step d1, +step d2,
    -step d2."""
    D = _directions(rng, len(steps) * 2 * ni, dim, field).reshape(-1, ni, 2, 1, dim)
    signed = np.multiply.outer(steps, [1.0, -1.0])[:, None, None, :, None]  # (n, 1, 1, 2, 1)
    return (signed * D).reshape(-1, ni, 4, dim)


def _sweep_positions(verts: np.ndarray, step: float, rng: np.random.Generator,
                     field: Field) -> np.ndarray:
    """Every position one sweep at step can move each interior vertex to, as
    an (ni, 16, dim) table.  Row S of vertex i's block is v_i plus the moves
    in the bitmask S (see _moves), added in move order (row 0 is v_i), so
    each row is the float the greedy pass reaches when it accepts exactly
    the moves in S.
    """
    moves = _moves(rng, [step], len(verts) - 2, verts.shape[1], field)[0]
    P = np.empty((len(moves), 16, verts.shape[1]), dtype=verts.dtype)
    P[:, 0] = verts[1:-1]
    for j in range(4):  # the subsets whose highest move is j: the lower ones plus move j
        P[:, 1 << j:2 << j] = P[:, :1 << j] + moves[:, j, None]
    return P


# A move must shorten its two segments by more than this fraction of their
# length.  The exact starts already measure up to 1.8e-6 relative from their
# closed forms, the error of the quadrature itself, so a smaller gain cannot be
# told from that error: below it the descent only chases the rule (at 1e-8 a
# Fubini-Study solve still ran up to 48 sweeps, at 1e-7 at most 29).  Being
# relative, the test keeps a pair scaled by 2^k at exactly 2^(k deg) the distance.
_MARGIN = 1e-7


def _shortens(length, local):
    """The descent's one acceptance rule: whether a move to this local length
    is kept, which it is when it beats local by more than _MARGIN of it."""
    return length < local - _MARGIN * local


def _screen(spec: MetricSpec, verts: np.ndarray, seglen: list[float], step: float,
            step_floor: float, rng: np.random.Generator, ell0: float,
            window: int) -> list[bool]:
    """The next sweeps on the unchanged path, told apart by their single moves.

    Takes up to window sweeps at step, step/2, ..., stopping at the one whose
    failure reaches the step floor, draws their moves at once (_moves) and
    measures both segments of every v + move against the path in one
    _segment_length call.  Until a vertex moves, the greedy walk tries single
    moves only, so a sweep moves a vertex exactly when one of them _shortens
    the path.  Returns, per sweep it settles, whether it runs in full: False
    up to the first that a single passes, then True, with the stream
    replayed to where drawing one sweep at a time leaves it before that
    sweep's draws; all False when none passes, after the whole window's.
    """
    steps = [step]
    while len(steps) < window and 0.5 * steps[-1] >= step_floor:
        steps.append(0.5 * steps[-1])
    n, ni, dim = len(steps), len(verts) - 2, spec.dim
    state = rng.bit_generator.state
    singles = (verts[1:-1, None] + _moves(rng, steps, ni, dim, spec.field)).reshape(-1, dim)
    prev, after = (np.tile(V.repeat(4, axis=0), (n, 1)) for V in (verts[:-2], verts[2:]))
    lengths, _ = _segment_length(spec, np.concatenate([prev, singles]),
                                 np.concatenate([singles, after]), ell0)
    a, b = lengths.reshape(2, n, -1)
    passes = _shortens(a + b, np.add(seglen[:-1], seglen[1:]).repeat(4)).any(axis=1)
    if not passes.any():
        return [False] * n
    j = int(passes.argmax())
    rng.bit_generator.state = state
    _directions(rng, j * 2 * ni, dim, spec.field)  # the draws of the sweeps before sweep j
    return [False] * j + [True]


def _initial_vertices(spec: MetricSpec, g: Vector, h: Vector, n_vertices: int,
                      rng: np.random.Generator, ell0: float) -> tuple[np.ndarray, list[float]]:
    """The shortest start whose segments all resolve, with its segment lengths.

    The candidates, measured in one _segment_length call, are the exact
    geodesics of the named families: the chord; the log-polar arc in the
    real plane of g and h, unless their real angle is 0 (at a half turn, in
    the plane _log_polar_rows picks); and over C the phase-aligned arc,
    which turns g to g e^{i phi} (phi = arg <h, g>) on g's own complex line,
    where Fubini-Study is 0, then takes the log-polar arc to h.  At a half
    turn, as _log_polar_rows reports it, the chord passes through 0, so a
    path through a randomly lifted midpoint is measured with them: it may be
    shorter than the arc, as for the euclidean metric.  The choice reads
    measured lengths only.  When none resolves, paths through other lifted
    midpoints are tried.  Only the lifted midpoints draw from rng.  A
    negative segment on any path measured raises NonPositiveMetricError.
    """
    u, v, n_seg = g.entries, h.entries, n_vertices - 1
    ts = np.linspace(0.0, 1.0, n_vertices)
    arc, half_turn = _log_polar_rows(u, v, ts)
    starts = [_segment_rows(u, v, ts), arc]
    if g.field is Field.COMPLEX:
        starts.append(_phase_aligned_rows(u, v, n_seg))
    if half_turn:
        starts.append(_lifted_chord(g, h, n_vertices, rng))
    starts = [verts for verts in starts if verts is not None]
    for _ in range(8):
        lengths, status = _segment_length(spec, np.concatenate([P[:-1] for P in starts]),
                                          np.concatenate([P[1:] for P in starts]), ell0)
        if (status == _NEGATIVE).any():
            raise NonPositiveMetricError("metric is negative along the path")
        rows, status = lengths.reshape(-1, n_seg).tolist(), status.reshape(-1, n_seg)
        resolved = [i for i in range(len(starts)) if not status[i].any()]
        if resolved:
            best = min(resolved, key=lambda i: sum(rows[i]))
            return starts[best], rows[best]
        starts = [_lifted_chord(g, h, n_vertices, rng)]
    raise ValueError("no valid initialization found inside the metric's domain")


# A half turn's |w| bound: on v = -k u, w is rounding noise of at most 7.1e-16.
_HALF_TURN = 1e-12


def _log_polar_rows(u: np.ndarray, v: np.ndarray,
                    ts: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """The log-polar arc from u to v at each entry of ts, from 0 to 1, and
    whether u and v make a half turn.  The arc is the radius |u| (|v|/|u|)^t
    times the unit direction at the angle t theta in their real plane, theta
    their real angle.  It takes no exp or log, so its rows scale with u and
    v exactly under powers of 2.  Its ends are u and v.  It is None where
    theta is 0, where |v|/|u| overflows, or where either end is 0, which is
    no half turn.  A half turn is theta = pi up to rounding: the part w of
    v's unit direction orthogonal to u's over R has |w| <= _HALF_TURN and
    the real part of <v, u> is negative.  There the real plane of u and v
    is not defined, and every plane through u holds a half turn: over R the
    arc turns toward the standard basis vector least along u, made
    orthogonal to u (None in dim 1, where no such vector is), and over C
    toward i u, on u's own complex line."""
    nu, nv = row_norms(np.stack([u, v])).tolist()
    if nu == 0.0 or nv == 0.0:
        return None, False
    a, b = u / nu, v / nv
    c = np.vdot(a, b).real
    w = b - c * a  # the part of v's direction orthogonal to a over R
    s = float(row_norms(w[None])[0])
    angle = math.atan2(s, c) * ts
    half_turn = bool(s <= _HALF_TURN and c < 0.0)
    if half_turn:
        if np.iscomplexobj(a):
            w, s = 1j * a, 1.0
        else:  # e_j - a_j a, for the basis vector e_j least along a
            j = int(np.abs(a).argmin())
            w = -a[j] * a
            w[j] += 1.0
            s = float(row_norms(w[None])[0])
    if s == 0.0 or nv / nu == math.inf:
        return None, half_turn
    rows = (nu * (nv / nu) ** ts)[:, None] * (np.cos(angle)[:, None] * a
                                              + np.sin(angle)[:, None] * (w / s))
    rows[0], rows[-1] = u, v
    return rows, half_turn


def _phase_aligned_rows(u: np.ndarray, v: np.ndarray, n_seg: int) -> np.ndarray | None:
    """u e^{i phi t}, phi = arg <v, u>, then the log-polar arc from u e^{i phi}
    to v, in n_seg segments split between the legs by the Euclidean lengths
    of their chords, with a vertex on the junction; None where phi is 0 (the
    log-polar arc itself), where either end is 0, or where the second leg is
    not defined."""
    nu, nv = row_norms(np.stack([u, v])).tolist()
    if nu == 0.0 or nv == 0.0:
        return None
    phi = float(np.angle(np.vdot(u / nu, v / nv)))  # unit vectors: <v, u> cannot underflow
    if phi == 0.0:
        return None
    turned = u * np.exp(1j * phi)
    # the legs over the larger end, whose squares cannot overflow
    legs = row_norms(np.stack([turned - u, v - turned]) / max(nu, nv))
    n1 = min(max(round(n_seg * legs[0] / legs.sum()), 1), n_seg - 1)
    arc, _ = _log_polar_rows(turned, v, np.linspace(0.0, 1.0, n_seg - n1 + 1))
    if arc is None:
        return None
    turn = u * np.exp(1j * phi * np.linspace(0.0, 1.0, n1 + 1))[:, None]
    return np.concatenate([turn[:-1], arc])


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

    The polyline starts on the shortest exact geodesic of the named families
    that resolves (see _initial_vertices), so a Fubini-Study, euclidean or
    norm-quotient pair starts at its distance up to the polyline's and the
    quadrature's error.  Then coordinate descent over its interior
    vertices, on the one random stream SeedSequence(seed).spawn(1)[0],
    which only a start through a lifted midpoint draws from before the
    sweeps.  A sweep draws two random directions per interior vertex, in
    vertex order; then the odd vertices 1, 3, 5, ... and after them the even
    ones 2, 4, ... each try the moves +-step along their two directions and
    keep each one that shortens their two segments by more than 1e-7 of their
    length (_shortens: a smaller gain is within the quadrature's error, so it
    is not taken); the step halves after a sweep without improvement.  The
    length sequence is non-increasing; negative metrics are refused.  The
    result says why the descent stopped: a zero chord (g = h), a start with
    a segment that measures inf (no move can shorten it, so the distance is
    inf after no sweep), the step floor, or the iteration cap.

    Vertices of one parity share no segment, so each half is measured in one
    _segment_length call: both segments of every position its vertices can
    reach (see _sweep_positions), against neighbours that do not move in
    that half.  A sweep that runs in full is two calls (one at three
    vertices), however many vertices move, and gives the moves of the walk
    one vertex at a time in that order.  Every segment a half measures must
    not have a NaN value, whether its position is taken or not.

    Before the first sweep a screen (see _screen) takes every sweep down to
    the step floor (17 at the default vertices), and after each failed one
    as many next sweeps as have failed in a row (1, 2, 4, ...), never past
    n_iterations.  Each that no single move passes fails and halves the
    step.  Only the first that one passes builds its table and runs in full,
    drawing its moves again where one sweep at a time leaves the stream; a
    sweep after one that moved does so directly.  So a solve from a
    finite start that never moves makes two _segment_length calls, the
    starts' and one screen's.  A failed sweep measures no multi-move
    position, and a NaN there does not raise; the single moves of the
    window's sweeps after the first that passes are measured though never
    taken, and a NaN there raises.

    Raises InvalidArgumentError unless n_vertices >= 3
    and n_iterations >= 0, ValueError when g != h and the chord's length
    under- or overflows, max(|g|, |h|) is below linalg._R_MIN (about
    1.49e-154), where the chunk invariants underflow, or the length of a
    step of the chord, (h - g)/(n_vertices - 1), underflows to 0;
    MismatchError unless g and h have the spec's dimension and field;
    OutOfDomainError naming an endpoint outside the domain (one on the
    boundary of a radius interval is a valid start).
    """
    check_counts(3, n_vertices=n_vertices)
    check_counts(0, n_iterations=n_iterations)
    _check_compatible(spec, g, h)
    with np.errstate(over="ignore"):  # |g|, |h| or the chord may overflow: each is named below
        r, inside = _inside_rows(spec, np.stack([g.entries, h.entries]))
        chord_len = norm(h.entries - g.entries)
    # a path may start on the boundary of a radius interval: only chunk midpoints are evaluated
    inside |= (0.0 < r) & (r < math.inf) & np.any(
        [(lo <= r) & (r <= hi) for lo, hi in spec.domain.intervals], axis=0)
    for name, radius, within in zip("gh", r.tolist(), inside.tolist()):
        if not within:
            raise OutOfDomainError(f"endpoint {name} is outside the metric's domain "
                                   f"(|{name}| = {radius})")
    if np.array_equal(g.entries, h.entries):
        line = Polyline(np.stack([g.entries] * (n_vertices - 1) + [h.entries]))
        return GeodesicResult(0.0, line, 0.0, 0, (0.0,), "zero-chord")
    if chord_len == 0.0 or chord_len == math.inf:
        how = "overflows to inf" if chord_len else "underflows to 0"
        raise ValueError(f"the chord |h - g| {how} although g != h")
    if (scale := max(r.tolist())) < _R_MIN:  # the kernel's invariants would underflow
        raise ValueError(f"the scale max(|g|, |h|) = {scale} is below {_R_MIN:.4g}, "
                         "too small to measure")
    if norm((h.entries - g.entries) / (n_vertices - 1)) == 0.0:
        raise ValueError(f"the chord |h - g| = {chord_len} is too short for {n_vertices - 1} "
                         "segments: their lengths underflow to 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    ell0 = chord_len / (4.0 * (n_vertices - 1))
    verts, seglen = _initial_vertices(spec, g, h, n_vertices, rng, ell0)
    initial = total = sum(seglen)
    if math.inf in seglen:  # no move shortens an inf segment, so the total stays inf
        return GeodesicResult(math.inf, Polyline(verts), math.inf, 0, (math.inf,),
                              "infinite-start")
    history = [total]
    step, step_floor = chord_len / (n_vertices - 1), 1e-6 * chord_len
    stop_reason = "iteration-cap"

    # the odd interior vertices, then the even (none at three vertices): the
    # vertices of one half share no segment
    halves = [i for i in (np.arange(1, n_vertices - 1, 2), np.arange(2, n_vertices - 1, 2))
              if len(i)]
    fails, moved, screened = 0, False, []
    for _ in range(n_iterations):
        if not (moved or screened):  # the whole ladder first, then as many as failed in a row
            left = n_iterations + 1 - len(history)
            screened = _screen(spec, verts, seglen, step, step_floor, rng, ell0,
                               min(fails, left) if fails else left)
        full = screened.pop(0) if screened else True
        P = _sweep_positions(verts, step, rng, spec.field) if full else None
        moved = False
        for i in halves if full else ():
            # Both segments of each candidate of this half, against neighbours
            # that do not move in it: prev -> cand first, then cand -> next.
            cands = P[i - 1, 1:].reshape(-1, spec.dim)
            lengths, _ = _segment_length(
                spec, np.concatenate([verts[i - 1].repeat(15, axis=0), cands]),
                np.concatenate([cands, verts[i + 1].repeat(15, axis=0)]), ell0)
            for k, a, b in zip(i.tolist(), *lengths.reshape(2, -1, 15).tolist()):
                # vertex k's greedy moves, as a bitmask tried in move order; an
                # unresolved segment measures inf, so no move through one passes
                local, cur = seglen[k - 1] + seglen[k], 0
                for j in range(4):
                    s = cur | 1 << j
                    if _shortens(length := a[s - 1] + b[s - 1], local):
                        cur, local = s, length
                if cur:
                    verts[k] = P[k - 1, cur]
                    seglen[k - 1], seglen[k], moved = a[cur - 1], b[cur - 1], True
        fails = 0 if moved else fails + 1
        total = sum(seglen)
        history.append(total)
        if not moved:
            step *= 0.5
            if step < step_floor:
                stop_reason = "step-floor"
                break

    return GeodesicResult(total, Polyline(verts), initial, len(history) - 1, tuple(history),
                          stop_reason)


def _polyline_length(spec: MetricSpec, V: np.ndarray) -> float:
    """curve_length of the polyline through the rows of V."""
    if V.shape[1] != spec.dim or V.dtype != spec.field.dtype:
        raise MismatchError(f"polyline vertices of shape {V.shape} and dtype {V.dtype} are "
                            f"not rows of dimension {spec.dim} of the {spec.field.value} "
                            f"field's {spec.field.dtype}")
    with np.errstate(over="ignore"):  # a radius or a length may overflow: each is named below
        r, seg = row_norms(V), row_norms(V[1:] - V[:-1])
        chord_len = norm(V[-1] - V[0])  # geodesic_distance's chord
    if not np.isfinite(r).all():  # |v| overflows to inf (or v is NaN): outside every domain
        raise OutOfDomainError(f"polyline vertex {int(np.argmin(np.isfinite(r)))} is outside "
                               "the metric's domain")
    if chord_len == math.inf or math.inf in seg:
        raise ValueError("a segment or the chord of the polyline overflows to inf")
    if (stuck := (seg == 0.0) & (V[1:] != V[:-1]).any(axis=1)).any():
        raise ValueError(f"the length of segment {int(stuck.argmax())} of the polyline "
                         "underflows to 0 although its ends differ")
    if (longest := float(seg.max())) == 0.0:  # every vertex equal
        return 0.0
    if (scale := float(r.max())) < _R_MIN:  # the kernel's invariants would underflow
        raise ValueError(f"the scale max |v| = {scale} is below {_R_MIN:.4g}, too small "
                         "to measure")
    ell0 = max(chord_len / (4.0 * (len(V) - 1)), longest / _CHUNK_CAP)
    lengths, status = _segment_length(spec, V[:-1], V[1:], ell0)
    if (status == _NEGATIVE).any():
        raise NonPositiveMetricError("metric is negative along the path")
    if status.any():
        raise OutOfDomainError("a segment leaves the metric's domain or passes nearer the "
                               "origin than the segment kernel resolves")
    return sum(lengths.tolist())  # in order, as geodesic_distance sums its segments


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
