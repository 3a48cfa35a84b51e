"""Shared fixtures: the standard spec battery and independent oracles."""

from __future__ import annotations

import heapq
import math

import numpy as np
from hypothesis import strategies as st

from finsler_iso import linalg as la
from finsler_iso import metrics as mm

POS = mm.RadiusDomain.positive()
OVERFLOWING_THETA = "exp(exp(2*r))"


# Three fixed theta profiles.  All are smooth with vanishing tau-derivative
# at tau = 0, the regularity the canonical-form round-trips rely on.

def theta_angular(r, tau):
    return 1.0 + math.cos(tau)


def theta_radial(r, tau):
    # log-periodic in r with period log 2: invariant under the homothety alpha = 2
    return (2.0 + math.sin(2.0 * math.pi * math.log(r) / math.log(2.0))) / r


def theta_mixed(r, tau):
    return (1.0 + math.sin(tau) ** 2) * (1.0 + 1.0 / (1.0 + r * r))


def nonsym_lambda(r, p, q):
    # positively homogeneous in (p, q), even in q, genuinely direction-dependent
    return math.sqrt(abs(p) ** 2 + q * q) + float(np.real(p))


def battery(dim: int, field: la.Field) -> list[tuple[str, mm.MetricSpec]]:
    """The standard spec battery used across invariance and round-trip suites."""
    specs = [
        ("euclidean", mm.euclidean(dim, field)),
        ("fubini-study", mm.fubini_study(dim, field)),
        ("norm-quotient", mm.norm_quotient(dim, field)),
        ("theta-angular", mm.FromTheta(dim, field, POS, theta_angular)),
        ("theta-radial", mm.FromTheta(dim, field, POS, theta_radial)),
        ("theta-mixed", mm.FromTheta(dim, field, POS, theta_mixed)),
        ("nonsym", mm.FromNonSymLambda(dim, field, POS, nonsym_lambda)),
    ]
    if dim == 2:
        specs.append(("area", mm.area_dim2(1.0, field)))
    return specs


def probe_battery(dim: int, field: la.Field) -> list[tuple[str, mm.MetricSpec]]:
    """The symmetric specs the congruence-theorem probe runs over."""
    return [(name, spec) for name, spec in battery(dim, field)
            if name not in ("nonsym", "area")]


def family_specs(dim: int, field: la.Field) -> list[mm.MetricSpec]:
    """Every family: the expression-backed ones, which evaluate rows through
    compiled array profiles (one of them overflowing to inf), the same
    families over bare callables, which are called element by element, a
    custom metric and a zero extension."""
    R = la.Field.REAL
    nonsym_text = "sqrt(p^2+q^2)+0.5*p" if field is R else "sqrt(pre^2+pim^2+q^2)+0.5*pre"
    specs = [
        mm.euclidean(dim, field),
        mm.fubini_study(dim, field),
        mm.norm_quotient(dim, field),
        mm.spec_from_json({"family": "congruence-invariant", "dim": dim, "field": field.value,
                           "params": {"vartheta": "1+sin(tau)^2"}}),
        mm.CongruenceInvariant(dim, field, POS, lambda tau: 1.0 + math.sin(tau) ** 2),
        mm.FromLambda(dim, field, POS, mm.lambda_profile("sqrt(p^2+2*q^2)/r")),
        mm.FromLambda(dim, field, POS, mm.lambda_profile(
            "max(p,q)+min(p,q)^2/(p+q+r)+exp(0-r)*log(1+q)*tan(0.5)")),
        mm.FromLambda(dim, field, POS, lambda r, p, q: math.sqrt(p * p + 2 * q * q) / r),
        mm.FromTheta(dim, field, POS, mm.theta_profile("1+cos(tau)")),
        mm.FromTheta(dim, field, POS, mm.theta_profile("(2+sin(tau)^3)*exp(0-r)")),
        mm.FromTheta(dim, field, POS, theta_angular),
        # overflows to inf for r > 3.3, so both sides of a check can be inf
        mm.FromTheta(dim, field, POS, mm.theta_profile(OVERFLOWING_THETA)),
        mm.FromNonSymLambda(dim, field, POS, mm.nonsym_lambda_profile(nonsym_text, field)),
        mm.FromNonSymLambda(dim, field, POS, nonsym_lambda),
        mm.induced_finsler(mm.riemann_profile("1+r", "1"), dim, field),
        mm.induced_finsler(mm.congruence_invariant_riemann(1.0, 0.5), dim, field),
        mm.Custom(dim, field, POS, fn=lambda g, h: la.norm(h) * (1.0 + abs(complex(g.entries[0])))),
        mm.zero_extended(2.0, mm.euclidean(dim, field)),
    ]
    if dim == 2:
        specs.append(mm.area_dim2(1.5, field))
    return specs


_UNARY = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "-")


def expression_texts(names):
    """Expression texts over names: numbers, variables, every operator and
    function, up to 8 leaves."""
    leaves = st.sampled_from(names) | st.sampled_from(("0", "0.5", "1", "2", "1e-3", "1e3"))

    def extend(sub):
        return (st.tuples(sub, st.sampled_from("+-*/^"), sub).map(lambda t: "({}{}{})".format(*t))
                | st.tuples(st.sampled_from(_UNARY), sub).map(lambda t: "{}({})".format(*t))
                | st.tuples(st.sampled_from(("min", "max")), sub, sub)
                .map(lambda t: "{}({},{})".format(*t)))
    return st.recursive(leaves, extend, max_leaves=8)


def pair_cases(min_exp: float, max_exp: float):
    """(seed, |g|, |h|, kind, eps) for near_pair, with eps = 10^e for e in
    [min_exp, max_exp]."""
    return st.tuples(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 4.0), st.floats(0.05, 4.0),
                     st.sampled_from(("generic", "collinear", "orthogonal")),
                     st.floats(min_exp, max_exp).map(lambda e: 10.0 ** e))


def near_pair(dim: int, field: la.Field, seed: int, ng: float, nh: float, kind: str,
              eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(g, h) with |g| = ng and |h| = nh: h generic, within eps of the line
    of g, or within eps of its orthogonal complement."""
    rng = np.random.default_rng(seed)
    u, w = la.random_gaussian_rows(2, dim, field, rng)
    u /= np.linalg.norm(u)
    w -= np.vdot(u, w) * u
    w /= np.linalg.norm(w)
    a, b = rng.standard_normal(2)
    if kind == "collinear":
        b *= eps
    elif kind == "orthogonal":
        a *= eps
    h = a * u * (np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) if field is la.Field.COMPLEX
                 else 1.0) + b * w
    return ng * u, nh * h / np.linalg.norm(h)


def sample_pair(spec: mm.MetricSpec, rng: np.random.Generator):
    g = la.random_vector_with_norm(spec.dim, spec.field, mm.sample_radius(spec.domain, rng), rng)
    h = la.random_gaussian_vector(spec.dim, spec.field, rng)
    return g, h


def knn_graph_distance(n_points: int = 2000, k: int = 56, seed: int = 0,
                       dim: int = 3) -> float:
    """Independent geodesic oracle: Dijkstra over a k-NN graph on the unit
    sphere with chord (delta2) edge weights, from e1 to e2."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n_points, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[0] = np.eye(dim)[0]
    pts[1] = np.eye(dim)[1]
    cos = np.abs(pts @ pts.T)
    np.clip(cos, 0.0, 1.0, out=cos)
    dmat = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * cos))
    np.fill_diagonal(dmat, np.inf)
    nbrs = np.argsort(dmat, axis=1)[:, :k]
    dist = np.full(n_points, np.inf)
    dist[0] = 0.0
    pq = [(0.0, 0)]
    while pq:
        du, u = heapq.heappop(pq)
        if du > dist[u]:
            continue
        if u == 1:
            break
        for v in nbrs[u]:
            nd = du + dmat[u, v]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(pq, (nd, int(v)))
    return float(dist[1])
