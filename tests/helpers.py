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
    (g,), (h,) = mm.sample_pairs(spec, 1, rng)
    return la.Vector(g, spec.field), la.Vector(h, spec.field)


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


# ---------------------------------------------------------------------------
# CLI argument vectors for the contract property test

# Vector entries at the edges of IEEE doubles, beside ordinary ones, then
# counts and numbers; the ones a command runs with are drawn more often than
# the ones it refuses (a nan or inf entry is a usage error).
_ENTRIES = st.sampled_from(("0", "1", "-1", "0.5", "-2")) | st.sampled_from((
    "0", "1e200", "-1e200", "1e-200", "-1e-200", "1e308", "1e-308", "1e-320"))
_NON_FINITE = st.sampled_from(("nan", "inf", "-inf"))
_COUNTS = st.sampled_from(("1", "2", "3") * 6 + ("0", "-1"))
_REALS = st.sampled_from(("0.5", "2", "1e-9", "1e200") * 3 + ("nan", "-1", "0", "inf"))
_NAMED = ("euclidean", "fubini-study", "norm-quotient", "area", "area:2", "theta:1+cos(tau)",
          "theta:exp(exp(2*r))", "vartheta:1+sin(tau)^2", "lambda:sqrt(p^2+2*q^2)/r",
          "lambda:max(p,q)+min(p,q)^2/(p+q+r)", "nonsym-lambda:sqrt(p^2+q^2)+0.5*p",
          "nonsym-lambda:sqrt(pre^2+pim^2+q^2)+0.5*pre", "riemann:1/r;-1/(r^2)",
          "riemann:1;-0.5/r", "riemann:1e308;-1e308", "riemann:1+r;1")
_SPEC_FILES = (
    {"family": "zero-extended", "domain": {"intervals": [[0.0, None]], "includes_zero": True},
     "params": {"b": 2.0, "inner": {"family": "euclidean"}}},
    {"family": "theta", "domain": {"intervals": [[0.5, 2.0]]}, "params": {"theta": "2+cos(tau)"}},
    {"family": "lambda", "params": {"lam": "p^2+q^2", "alpha": 2.0}},
    {"family": "riemann", "domain": {"intervals": [[0.5, None]]},
     "params": {"phi": "1/r", "psi": "-0.5/(r^2)"}},
    {"family": "theta", "params": {}},  # lacks its profile: a usage error
    {"family": "fubini-study"},
)


@st.composite
def _vector(draw, dim: int, field: str) -> str:
    """A vector's entries as the CLI reads them; one in ten holds a non-finite one."""
    entries = draw(st.lists(_ENTRIES, min_size=2 * dim, max_size=2 * dim))
    if draw(st.integers(0, 9)) == 0:
        entries[draw(st.integers(0, 2 * dim - 1))] = draw(_NON_FINITE)
    if field == "real":
        return ",".join(entries[:dim])
    return ",".join(f"{a}:{b}" for a, b in zip(entries[::2], entries[1::2]))


def _spec_file(dim: int, field: str):
    """A spec object for an @file metric, its inner spec (if any) of the same
    dim and field."""
    def build(obj):
        obj = {**obj, "dim": dim, "field": field}
        if obj["family"] == "zero-extended":
            inner = {**obj["params"]["inner"], "dim": dim, "field": field}
            obj["params"] = {**obj["params"], "inner": inner}
        return obj
    return st.sampled_from(_SPEC_FILES).map(build)


@st.composite
def cli_cases(draw):
    """(argv, spec): a finsler-iso command line over every command and check
    mode, and the spec object that its @SPEC metric stands for (None for a
    named or expression metric)."""
    dim, field = draw(st.integers(1, 5)), draw(st.sampled_from(("real", "complex")))
    spec = draw(st.none() | _spec_file(dim, field))
    metric = ["--metric", "@SPEC"] if spec else ["--metric", draw(st.sampled_from(_NAMED)),
                                                  "--dim", str(dim)]
    if field == "complex" or draw(st.booleans()):  # --field real is the default
        metric += ["--field", field]
    command = draw(st.sampled_from(("eval", "decompose", "check", "probe-main", "distance")))
    # --g=V, as a vector that starts with "-" would read as an option
    g, h = (f"--{name}={draw(_vector(dim, field))}" for name in "gh")
    if command == "eval":
        f = [f"--f={draw(_vector(dim, field))}"] if draw(st.booleans()) else []
        return ["eval", *metric, g, h, *f], spec
    if command == "distance":
        return ["distance", *metric, g, h, "--vertices", draw(st.sampled_from(("3", "5", "2"))),
                "--iterations", draw(_COUNTS), "--seed", "1"], spec
    if command == "decompose":
        return ["decompose", *metric, "--as", draw(st.sampled_from(("auto", "finsler", "riemann"))),
                "--r-min", draw(_REALS), "--r-max", draw(_REALS), "--r-steps", draw(_COUNTS),
                "--tau-steps", draw(_COUNTS)], spec
    if command == "probe-main":
        sl2 = ["--sl2", draw(_COUNTS)] if draw(st.booleans()) else []
        return ["probe-main", *metric, "--maps", draw(_COUNTS), "--samples", draw(_COUNTS),
                "--tol", draw(_REALS), "--min-sv-ratio", draw(_REALS), *sl2], spec
    which = draw(st.sampled_from(("invariance", "pd", "kaehler", "homothety")))
    rest = ["--samples", draw(_COUNTS)]
    if which in ("pd", "kaehler"):
        rest += ["--r-min", draw(_REALS), "--r-max", draw(_REALS)]
    else:
        rest += ["--seed", "1", "--tol", draw(_REALS)]
    if which == "homothety":
        rest += ["--alpha", draw(_REALS)]
    return ["check", which, *metric, *rest], spec
