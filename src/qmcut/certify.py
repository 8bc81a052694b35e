"""Certification: the rounding constants and audits of solved instances.

The constants alpha_gw (Goemans & Williamson 1995) and the guarantee ratio are
minima of quotients of monotone factors, bounded below on a cell from its
endpoints alone (Moore, Kearfott & Cloud 2009).  One branch and bound brackets
both: the best evaluated point is the value, and the least cell bound left, a
certified lower bound.  Instance audits check the inequalities the guarantee
rests on, each in closed form on the solution: monogamy slack, positive-overlap
sums, the cut probability arccos(G_ij)/pi and the per-edge guarantee
P_e b_e / share, which the audit tests against the certified lower constant of
the run's alpha0.  No audit draws a sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .energy import edge_closed_forms, edge_energy_bound
from .graph import Graph
from .oracle import DEFAULT_QUBIT_LIMIT, edge_energies, simulate
from .rounding import (ALPHA0_DEFAULT, EdgeParameters, build_circuit, check_alpha0,
                       compute_gammas, sample_assignment)
from .sdp import EPS_EXTRACT, VectorSolution

# Branch and bound stops once best value minus certified lower bound is under
# this.  The alpha_gw bracket then holds at most 24 100 cells (56 300 at 1e-9), and
# the ratio's argmin at alpha0 = 1e308 lands within 1e-6 of 1 (1.9e-6 away at 1e-7).
_BRACKET_TOL = 5e-9

# Widening of every cell bound for rounding, if numpy's arccos, exp and expm1 are within
# 4 ulp (sqrt is correctly rounded): a bound of 4 such calls and 20 rounded operations
# is within 40 ulp < 1e-14 relative.
_REL_SLACK = 1e-12

# Past either cap branch and bound retires every cell: the level cap bounds its time (the
# brackets here take under 30 halvings), the cap on cells to halve its memory (alpha_gw
# holds at most 24 100).  A bracket cut short is wider, and the audit reports its width.
_MAX_SPLITS = 64
_MAX_OPEN = 1 << 15


def _bracket_min(f, cell_lower, lo: float, hi: float) -> tuple[float, float, float]:
    """(certified lower, best value, argmin) of f on [lo, hi] by branch and bound.

    f is evaluated at every cell endpoint; cell_lower(a, b) bounds f below on
    [a, b].  Each level halves the cells whose bound is more than _BRACKET_TOL
    under the best value and retires the rest, keeping their least bound.
    """
    xs = np.array([lo, hi])
    a, b = xs[:1], xs[1:]
    best, arg, floor = math.inf, lo, math.inf
    for level in range(_MAX_SPLITS + 1):
        values = f(xs)
        k = int(np.argmin(values))
        if values[k] < best:
            best, arg = float(values[k]), float(xs[k])
        lower = cell_lower(a, b)
        split = lower < best - _BRACKET_TOL
        if level == _MAX_SPLITS or np.count_nonzero(split) > _MAX_OPEN:
            split[:] = False
        floor = min(floor, float(lower[~split].min(initial=math.inf)))
        a, b = a[split], b[split]
        if not a.size:
            break
        xs = a + (b - a) / 2.0
        a, b = np.concatenate((a, xs)), np.concatenate((xs, b))
    return min(floor, best), best, arg


def hyperplane_cut_objective(t):
    """Probability-to-share ratio of a hyperplane cut at inner product t."""
    return (np.arccos(t) / np.pi) / ((1.0 - t) / 2.0)


def _cut_cell_lower(a, b):
    """Lower bound of hyperplane_cut_objective on [a, b]: arccos t and 1 - t decrease."""
    return (np.arccos(b) / np.pi) / ((1.0 - a) / 2.0) * (1.0 - _REL_SLACK)


@lru_cache(maxsize=1)
def _alpha_gw_bracket() -> tuple[float, float, float]:
    # At t = 1 the objective is 0/0; past 1 - 1e-9 it is over 2.8e4, as arccos t >= sqrt(2(1 - t)).
    return _bracket_min(hyperplane_cut_objective, _cut_cell_lower, -1.0, 1.0 - 1e-9)


def alpha_gw() -> tuple[float, float]:
    """(value, argmin t) of the worst-case hyperplane cut ratio, ~0.8785672 (an upper bound)."""
    _, value, t = _alpha_gw_bracket()
    return value, t


def _cut_edge_bound(gamma, alpha0: float):
    """1 + s(A + B) + AB at A = B = e^(-alpha0 (1 - gamma)), s = sqrt(1 - e^(-2 alpha0 gamma)).

    1 - e^(-x) is formed by expm1, relative near x = 0.  alpha0 is scaled by gamma
    or 1 - gamma before the exact factor 2, so the endpoints give exponent 0, never
    inf * 0; only the doubling overflows, to -inf.
    """
    with np.errstate(over="ignore"):
        u = -np.expm1(-2.0 * (alpha0 * gamma))
        return (1.0
                + 2.0 * np.sqrt(u) * np.exp(-alpha0 * (1.0 - gamma))
                + np.exp(-2.0 * (alpha0 * (1.0 - gamma))))


def ratio_objective(gamma, alpha0: float):
    """Per-edge guarantee ratio as a function of the overlap gamma in [0, 1]."""
    return (alpha_gw()[0] / 6.0) * _cut_edge_bound(gamma, alpha0) * (2.0 + gamma) / (1.0 + gamma)


def _ratio_cell_lower(a, b, alpha0: float):
    """Lower bound of ratio_objective on [a, b] at the certified lower alpha_gw: the
    cut-edge bound does not decrease in gamma (no term does); (2 + gamma)/(1 + gamma) does."""
    return ((_alpha_gw_bracket()[0] / 6.0) * _cut_edge_bound(a, alpha0)
            * (2.0 + b) / (1.0 + b) * (1.0 - _REL_SLACK))


@lru_cache(maxsize=256)
def _ratio_bracket(alpha0: float) -> tuple[float, float, float]:
    check_alpha0(alpha0)
    return _bracket_min(lambda g: ratio_objective(g, alpha0),
                        lambda a, b: _ratio_cell_lower(a, b, alpha0), 0.0, 1.0)


def ratio_constant(alpha0: float = ALPHA0_DEFAULT) -> tuple[float, float]:
    """(value, argmin gamma) of the guarantee ratio minimized over gamma in [0, 1].

    The ratio is P(cut) * (cut-edge energy bound) / (SDP share), with
    v_ij . v0 = -1 - 2 gamma (see compute_gammas):

    - P(cut) >= (alpha_gw / 3)(2 + gamma), from one hyperplane cut on the
      singles Gram G with G_ij = v_ij . v0 / 3 = -(1 + 2 gamma)/3:
      arccos(G_ij)/pi >= alpha_gw (1 - G_ij)/2, with no axis average;
    - the cut-edge bound is edge_energy_bound = 1 + s(A + B) + AB with
      s = sin 2 theta = sqrt(1 - e^(-2 alpha0 gamma)) (theta_map) and
      A, B >= e^(-alpha0 (1 - gamma)) (positive_overlap_audit);
    - the share is 1 - v_ij . v0 = 2(1 + gamma).

    Overlaps gamma in (-1, 0) are dominated by gamma = 0, so the domain is
    [0, 1].  Proof: there theta = 0, so s = 0; positive_overlap_audit gives
    A, B >= e^(-alpha0), so the ratio is at least
    (alpha_gw / 6)(1 + e^(-2 alpha0))(2 + gamma)/(1 + gamma), and as
    (2 + gamma)/(1 + gamma) decreases, that is at least ratio_objective(0).

    The value is an upper bound that minimizer_consistency_audit brackets.  At
    alpha0 = 0.041 the minimum is at the endpoint gamma = 1, where the ratio
    is (alpha_gw / 2)(1 + sqrt(1 - e^(-2 alpha0))) = 0.56254007.  The max over
    alpha0 of the minimum lies where the two endpoint values meet,
    4x^2 + 5x - 8 = 0 with x = e^(-2 alpha0): alpha0* ~ 0.04106, value
    ~ 0.562624.  Both values truncate to the three-digit constant 0.562.
    """
    _, value, gamma = _ratio_bracket(alpha0)
    return value, gamma


def sweep_alpha0(lo: float = 0.0, hi: float = 0.2,
                 step: float = 1e-3) -> tuple[float, tuple[tuple[float, float], ...]]:
    """(argmax alpha0 of the certified lower bound, (alpha0, value) table) of the ratio."""
    alphas = [float(a) for a in np.arange(lo, hi + step / 2.0, step)]
    best = max(alphas, key=lambda a: _ratio_bracket(a)[0])
    return best, tuple((a, _ratio_bracket(a)[1]) for a in alphas)


# --------------------------------------------------------------------------- #
# Instance audits
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Audit:
    name: str
    passed: bool
    margin: float               # smallest signed slack observed across rows
    rows: tuple[dict, ...]


# Extraction noise every instance audit forgives: a margin passes at >= -_AUDIT_TOL.
_AUDIT_TOL = 10.0 * EPS_EXTRACT


def _instance_audit(name: str, rows: list[dict], key: str) -> Audit:
    """Audit whose margin is the least rows[key] over rows not skipped, 0 with none."""
    worst = min((r[key] for r in rows if not r.get("skipped")), default=0.0)
    return Audit(name=name, passed=worst >= -_AUDIT_TOL, margin=worst, rows=tuple(rows))


def monogamy_audit(vs: VectorSolution, g: Graph) -> Audit:
    """Per-vertex slack of the star bound: (d+1)/2 minus the star's share.

    A vertex of degree d can collect at most (d+1)/2 from its incident edges;
    on valid solutions every slack is nonnegative up to extraction noise.
    """
    rows = []
    for i in range(g.n):
        ids = g.neighbors[i]
        d = len(ids)
        star = sum(0.25 * (1.0 - vs.pair_sum_dot_unit(i, j)) for j in ids)
        rows.append({"vertex": i, "degree": d, "star_value": star, "slack": (d + 1) / 2.0 - star})
    return _instance_audit("monogamy", rows, "slack")


def _cut_probability(vs: VectorSolution, i: int, j: int) -> float:
    """Probability arccos(G_ij)/pi that one hyperplane cut on G separates i and j."""
    return math.acos(min(max(float(vs.G[i, j]), -1.0), 1.0)) / math.pi


def cut_probability_audit(vs: VectorSolution, g: Graph) -> Audit:
    """Exact cut probability per edge against (alpha_gw/3)(2 + gamma).

    One hyperplane cut on G (sample_assignment) separates i and j with
    probability arccos(G_ij)/pi (Goemans & Williamson 1995), and
    arccos(t)/pi >= alpha_gw (1 - t)/2 at t = G_ij = -(1 + 2 gamma)/3, with alpha_gw
    certified from below, is the bound; every margin is >= 0 up to extraction noise.
    """
    agw = _alpha_gw_bracket()[0]
    rows = []
    for (i, j), gamma in compute_gammas(vs, g).items():
        probability = _cut_probability(vs, i, j)
        bound = (agw / 3.0) * (2.0 + gamma)
        rows.append({"edge": f"{i}-{j}", "probability": probability, "bound": bound,
                     "margin": probability - bound})
    return _instance_audit("cut_probability", rows, "margin")


def per_edge_ratio_audit(vs: VectorSolution, g: Graph, alpha0: float = ALPHA0_DEFAULT,
                         seed: int = 0, sim_limit: int = DEFAULT_QUBIT_LIMIT) -> Audit:
    """Per-edge guarantee P_e b_e / share against the certified lower constant of alpha0.

    Each edge e = ij (in g.edges order) gets, from the solution alone:
      share = 1 - v_ij . v0 = 2 (1 + gamma), its SDP energy <4 h_e>;
      probability P_e = arccos(G_ij)/pi, the chance that the cut separates i and j;
      bound b_e = 1 + s(A + B) + AB, the edge's edge_energy_bound;
      guaranteed = P_e b_e / share, the edge's link of the paper's chain;
      expected = (P_e c_e + (1 - P_e) u_e) / share, its exact expected energy over
        the SDP's, from the cut and uncut values (c_e, u_e) of edge_closed_forms.
    u_e = 1 - plus >= 0 and c_e >= b_e (edge_closed_forms), so guaranteed <=
    expected, up to rounding.  The audit passes when every guaranteed is at
    least the certified lower constant of alpha0 (minimizer_consistency_audit's
    ratio_constant lower), less _AUDIT_TOL = 10 EPS_EXTRACT; the margin is
    guaranteed minus that constant.

    Why it holds: with gamma+ = max(gamma, 0), P_e >= alpha_gw (2 + gamma)/3
    (cut_probability_audit), s = sqrt(1 - e^(-2 alpha0 gamma+)) (theta_map), and
    A, B >= e^(-alpha0 (1 - gamma+)), since cos 2 theta_ik = e^(-alpha0 gamma_ik+) and
    the positive overlaps at each end sum to at most 1 (positive_overlap_audit).
    So guaranteed >= (alpha_gw / 6)(1 + 2 s e^(-alpha0 (1 - gamma+))
    + e^(-2 alpha0 (1 - gamma+)))(2 + gamma)/(1 + gamma), which is
    ratio_objective(gamma) for gamma >= 0 and at least ratio_objective(0) for
    gamma < 0 (ratio_constant), both at the true alpha_gw.  That is at least the
    ratio's minimum over [0, 1], which its certified lower bound bounds from
    below.  Both audits hold up to extraction noise, and so does this one.

    Edges with share <= 1e-6 are listed as skipped.  Within the simulator limit
    the statevector checks the closed forms once, on sample_assignment(vs,
    seed), and a gap above 1e-12 raises AssertionError; the rows depend on
    neither seed nor sim_limit.
    """
    params = EdgeParameters.from_solution(vs, g, alpha0)
    cut, uncut = edge_closed_forms(params, g)
    if g.n <= sim_limit:
        first = sample_assignment(vs, seed)
        simulated = edge_energies(simulate(build_circuit(first, params, g), limit=sim_limit), g)
        for (i, j, _), c, u, value in zip(g.edges, cut, uncut, simulated):
            closed = c if first.z[i] != first.z[j] else u
            if not abs(value - closed) <= 1e-12 * max(1.0, abs(value)):
                raise AssertionError(f"first sample, edge {i}-{j}: statevector energy {value} "
                                     f"and closed form {closed} differ by more than 1e-12")
    lower = _ratio_bracket(alpha0)[0]
    rows = []
    for (i, j, _), c, u, bound in zip(g.edges, cut.tolist(), uncut.tolist(),
                                      edge_energy_bound(params, g).tolist()):
        share = 1.0 - vs.pair_sum_dot_unit(i, j)
        if share <= 1e-6:
            rows.append({"edge": f"{i}-{j}", "share": share, "skipped": True})
            continue
        probability = _cut_probability(vs, i, j)
        guaranteed = probability * bound / share
        rows.append({"edge": f"{i}-{j}", "share": share, "probability": probability,
                     "bound": bound, "guaranteed": guaranteed,
                     "expected": (probability * c + (1.0 - probability) * u) / share,
                     "margin": guaranteed - lower, "skipped": False})
    return _instance_audit("per_edge_ratio", rows, "margin")


def positive_overlap_audit(vs: VectorSolution, g: Graph) -> Audit:
    """Per-vertex slack 1 minus the sum of positive overlaps gamma over incident edges.

    This is the inequality that keeps the neighbor cosine products of every
    edge bounded below, and it follows from the star bound on valid solutions;
    every slack is nonnegative up to extraction noise.
    """
    gammas = compute_gammas(vs, g)
    totals = dict.fromkeys(range(g.n), 0.0)
    for (i, j), gm in gammas.items():
        if gm > 0.0:
            totals[i] += gm
            totals[j] += gm
    rows = [{"vertex": i, "positive_overlap_sum": totals[i], "slack": 1.0 - totals[i]}
            for i in range(g.n)]
    return _instance_audit("positive_overlap_sum", rows, "slack")


def minimizer_consistency_audit(alpha0: float = ALPHA0_DEFAULT) -> Audit:
    """Each constant's certified bracket must be at most 1e-6 wide: one row per
    constant, upper the value alpha_gw or ratio_constant(alpha0) returns."""
    rows = tuple({"constant": name, "lower": lower, "upper": upper, "width": upper - lower}
                 for name, (lower, upper, _) in (("alpha_gw", _alpha_gw_bracket()),
                                                 ("ratio_constant", _ratio_bracket(alpha0))))
    widest = max(row["width"] for row in rows)
    return Audit(name="minimizer_consistency", passed=widest <= 1e-6, margin=1e-6 - widest,
                 rows=rows)


# --------------------------------------------------------------------------- #
# Certificate
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Certificate:
    alpha_gw: float
    alpha_gw_argmin_t: float
    ratio_constant: float
    ratio_argmin_gamma: float
    alpha0_used: float
    audits: tuple[Audit, ...]

    def __post_init__(self):
        if not (0.0 < self.alpha_gw < 1.0):
            raise ValueError(f"alpha_gw {self.alpha_gw} outside (0, 1)")
        if not (0.0 < self.ratio_constant < 1.0):
            raise ValueError(f"ratio constant {self.ratio_constant} outside (0, 1)")

    def all_passed(self) -> bool:
        return all(a.passed for a in self.audits)


def build_certificate(vs: VectorSolution | None = None, g: Graph | None = None,
                      alpha0: float = ALPHA0_DEFAULT, seed: int = 0,
                      sim_limit: int = DEFAULT_QUBIT_LIMIT) -> Certificate:
    """Constants plus, when a solved instance is supplied, the full audit set."""
    agw, agw_t = alpha_gw()
    ratio, ratio_gamma = ratio_constant(alpha0)
    audits = (minimizer_consistency_audit(alpha0),)
    if vs is not None:
        if g is None:
            raise ValueError("a graph is required to audit a vector solution")
        audits += (monogamy_audit(vs, g), positive_overlap_audit(vs, g),
                   cut_probability_audit(vs, g),
                   per_edge_ratio_audit(vs, g, alpha0=alpha0, seed=seed, sim_limit=sim_limit))
    return Certificate(alpha_gw=agw, alpha_gw_argmin_t=agw_t, ratio_constant=ratio,
                       ratio_argmin_gamma=ratio_gamma, alpha0_used=alpha0, audits=audits)
