"""Numerical certification: the rounding constants and audits of solved instances.

The two scalar constants are obtained by dense-grid bracketing plus
golden-section refinement of smooth 1-D objectives.  Instance audits check the
structural inequalities that the approximation guarantee rests on: per-vertex
monogamy slack, cut-probability lower bounds, positive-overlap sums, and
Monte-Carlo per-edge approximation ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .energy import edge_energy_bound
from .graph import Graph
from .oracle import DEFAULT_QUBIT_LIMIT, pauli_pair_expectations, simulate
from .rounding import (ALPHA0_DEFAULT, EdgeParameters, build_circuit, check_alpha0,
                       compute_gammas, sample_assignment, sample_seeds)
from .sdp import VectorSolution

# Threshold the per-edge Monte-Carlo ratios are audited against: the floor to
# three digits of ratio_constant(ALPHA0_DEFAULT) = 0.5625401, so the audit
# tests against a threshold that lies below the proven constant.
RATIO_TARGET = 0.562

# Default Monte-Carlo sample counts of the cut-probability and per-edge ratio audits.
CUT_SAMPLES = 100_000
RATIO_SAMPLES = 20_000

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def grid_golden_min(f, lo: float, hi: float, points: int = 10001,
                    tol: float = 1e-8) -> tuple[float, float]:
    """Dense-grid bracketing then golden-section refinement; returns (x*, f(x*))."""
    xs = np.linspace(lo, hi, points)
    vals = f(xs)
    k = int(np.argmin(vals))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, points - 1)]
    x = _golden_refine(lambda t: float(f(t)), float(a), float(b), tol)
    fx = float(f(x))
    # The refined point can only improve on the bracketing grid point.
    if vals[k] < fx:
        x, fx = float(xs[k]), float(vals[k])
    return x, fx


def hyperplane_cut_objective(t):
    """Probability-to-share ratio of a hyperplane cut at inner product t."""
    t = np.asarray(t, dtype=float)
    return (np.arccos(t) / np.pi) / ((1.0 - t) / 2.0)


@lru_cache(maxsize=1)
def alpha_gw() -> tuple[float, float]:
    """(value, argmin t) of the worst-case hyperplane cut ratio; ~0.8785672."""
    t, val = grid_golden_min(hyperplane_cut_objective, -1.0, 1.0 - 1e-9, points=20001)
    return val, t


def ratio_objective(gamma, alpha0: float, agw: float | None = None):
    """Per-edge guarantee ratio as a function of the overlap gamma in [0, 1]."""
    if agw is None:
        agw = alpha_gw()[0]
    gamma = np.asarray(gamma, dtype=float)
    sin_term = np.sqrt(np.clip(1.0 - np.exp(-2.0 * alpha0 * gamma), 0.0, None))
    bracket = (1.0
               + 2.0 * sin_term * np.exp(-alpha0 * (1.0 - gamma))
               + np.exp(-2.0 * alpha0 * (1.0 - gamma)))
    return (agw / 6.0) * bracket * (2.0 + gamma) / (1.0 + gamma)


def ratio_constant(alpha0: float = ALPHA0_DEFAULT, points: int = 10001) -> tuple[float, float]:
    """(value, argmin gamma) of the guarantee ratio minimized over gamma in [0, 1].

    The ratio is P(cut) * (cut-edge energy bound) / (SDP share), with
    v_ij . v0 = -1 - 2 gamma (see compute_gammas):

    - P(cut) >= (alpha_gw / 3)(2 + gamma), from the axis average of
      arccos(t_a)/pi >= alpha_gw (1 - t_a)/2 with sum_a t_a = v_ij . v0;
    - the cut-edge bound is edge_energy_bound = 1 + s(A + B) + AB with
      s = sin 2 theta = sqrt(1 - e^(-2 alpha0 gamma)) (theta_map) and
      A, B >= e^(-alpha0 (1 - gamma)) (positive_overlap_audit);
    - the share is 1 - v_ij . v0 = 2(1 + gamma).

    Overlaps below zero are dominated by gamma = 0 (the angle is zero there and
    the remaining factor decreases toward zero), so the minimization domain is
    exactly [0, 1].

    At alpha0 = 0.041 the minimum is at the endpoint gamma = 1, where the ratio
    is (alpha_gw / 2)(1 + sqrt(1 - e^(-2 alpha0))) = 0.56254007.  The max over
    alpha0 of the minimum lies where the two endpoint values meet,
    4x^2 + 5x - 8 = 0 with x = e^(-2 alpha0): alpha0* ~ 0.04106, value
    ~ 0.562624.  Both values truncate to the three-digit constant 0.562.
    """
    check_alpha0(alpha0)
    agw = alpha_gw()[0]
    gamma, val = grid_golden_min(lambda g: ratio_objective(g, alpha0, agw), 0.0, 1.0,
                                 points=points)
    return val, gamma


def ratio_constant_grid_only(alpha0: float = ALPHA0_DEFAULT, points: int = 10001) -> float:
    """Dense-grid minimum alone, as an independent check on the refined value."""
    gammas = np.linspace(0.0, 1.0, points)
    return float(np.min(ratio_objective(gammas, alpha0)))


def sweep_alpha0(lo: float = 0.0, hi: float = 0.2, step: float = 1e-3,
                 points: int = 2001) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Guarantee constant across alpha0; returns (argmax alpha0, (alpha0, value) table)."""
    table = []
    best = (lo, -math.inf)
    for alpha0 in np.arange(lo, hi + step / 2.0, step):
        val = ratio_constant(float(alpha0), points=points)[0]
        table.append((float(alpha0), val))
        if val > best[1]:
            best = (float(alpha0), val)
    return best[0], tuple(table)


# --------------------------------------------------------------------------- #
# Instance audits
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Audit:
    name: str
    passed: bool
    margin: float               # smallest signed slack observed across rows
    rows: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "margin": self.margin,
                "rows": list(self.rows)}


def monogamy_audit(vs: VectorSolution, g: Graph) -> Audit:
    """Per-vertex slack of the star bound: (d+1)/2 minus the star's share.

    A vertex of degree d can collect at most (d+1)/2 from its incident edges;
    on valid solutions every slack is nonnegative up to extraction noise.
    """
    tol = 10.0 * vs.eps_extract
    rows = []
    worst = math.inf
    for i in range(g.n):
        ids = g.neighbors[i]
        d = len(ids)
        star = sum(0.25 * (1.0 - vs.pair_sum_dot_unit(i, j)) for j in ids)
        slack = (d + 1) / 2.0 - star
        worst = min(worst, slack)
        rows.append({"vertex": i, "degree": d, "star_value": star, "slack": slack})
    worst = 0.0 if not rows else worst
    return Audit(name="monogamy", passed=worst >= -tol, margin=worst, rows=tuple(rows))


def cut_probability_audit(vs: VectorSolution, g: Graph, samples: int = CUT_SAMPLES,
                          seed: int = 0) -> Audit:
    """Empirical cut frequency per edge against (alpha_gw/3)(2 + gamma) - 5 sigma.

    Sampling is vectorized in chunks but distributed identically to
    sample_assignment: a uniform axis and independent normal directions.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    gammas = compute_gammas(vs, g)
    agw = alpha_gw()[0]
    singles = np.stack([vs.singles(a) for a in (1, 2, 3)])
    edges = [(i, j) for (i, j) in gammas]
    counts = dict.fromkeys(edges, 0)
    rng = np.random.default_rng(seed)
    done = 0
    while done < samples:
        size = min(20_000, samples - done)
        axes = rng.integers(0, 3, size=size)
        r = rng.standard_normal((size, vs.dim))
        bits = np.empty((size, g.n), dtype=bool)
        for av in range(3):
            mask = axes == av
            if mask.any():
                bits[mask] = (r[mask] @ singles[av].T) >= 0.0
        for i, j in edges:
            counts[(i, j)] += int(np.count_nonzero(bits[:, i] ^ bits[:, j]))
        done += size
    sigma = math.sqrt(0.25 / samples)
    rows = []
    worst = math.inf
    for i, j in edges:
        empirical = counts[(i, j)] / samples
        bound = (agw / 3.0) * (2.0 + gammas[(i, j)])
        margin = empirical - (bound - 5.0 * sigma)
        worst = min(worst, margin)
        rows.append({"edge": f"{i}-{j}", "empirical": empirical, "bound": bound,
                     "sigma": sigma, "margin": margin})
    worst = 0.0 if not rows else worst
    return Audit(name="cut_probability", passed=worst >= 0.0, margin=worst, rows=tuple(rows))


def per_edge_ratio_audit(vs: VectorSolution, g: Graph, samples: int = RATIO_SAMPLES,
                         alpha0: float = ALPHA0_DEFAULT, seed: int = 0,
                         sim_limit: int = DEFAULT_QUBIT_LIMIT) -> Audit:
    """Monte-Carlo per-edge ratio E[<4 H_ij>] / (v0 - v_ij).v0 against the target.

    Per-sample edge energies are exact (statevector) when the instance fits the
    simulator, otherwise the certified lower bound is used.  Edges with a
    vanishing share are skipped and listed.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    params = EdgeParameters.from_solution(vs, g, alpha0)
    edges = [(i, j) for i, j, _ in g.edges]
    shares = {(i, j): 1.0 - vs.pair_sum_dot_unit(i, j) for i, j in edges}
    sums = dict.fromkeys(edges, 0.0)
    sq_sums = dict.fromkeys(edges, 0.0)
    exact_mode = g.n <= sim_limit
    for sd in sample_seeds(seed, samples):
        assign = sample_assignment(vs, sd)
        if exact_mode:
            psi = simulate(build_circuit(assign, params, g), limit=sim_limit)
            for i, j in edges:
                xx, yy, zz = pauli_pair_expectations(psi, i, j)
                val = 1.0 - xx - yy - zz
                sums[(i, j)] += val
                sq_sums[(i, j)] += val * val
        else:
            for i, j in edges:
                val = edge_energy_bound(params, assign, g, (i, j))
                sums[(i, j)] += val
                sq_sums[(i, j)] += val * val
    rows = []
    worst = math.inf
    for i, j in edges:
        share = shares[(i, j)]
        if share <= 1e-6:
            rows.append({"edge": f"{i}-{j}", "share": share, "skipped": True})
            continue
        mean = sums[(i, j)] / samples
        var = max(sq_sums[(i, j)] / samples - mean * mean, 0.0) * samples / max(samples - 1, 1)
        sigma = math.sqrt(var / samples) / share
        ratio = mean / share
        margin = ratio - (RATIO_TARGET - 5.0 * sigma)
        worst = min(worst, margin)
        rows.append({"edge": f"{i}-{j}", "share": share, "ratio": ratio, "sigma": sigma,
                     "margin": margin, "skipped": False, "exact": exact_mode})
    worst = 0.0 if worst is math.inf else worst
    return Audit(name="per_edge_ratio", passed=worst >= 0.0, margin=worst, rows=tuple(rows))


def positive_overlap_audit(vs: VectorSolution, g: Graph) -> Audit:
    """Per-vertex sum of positive overlaps gamma over incident edges, capped at 1.

    This is the inequality that keeps the neighbor cosine products of every
    edge bounded below, and it follows from the star bound on valid solutions.
    """
    gammas = compute_gammas(vs, g)
    tol = 10.0 * vs.eps_extract
    totals = dict.fromkeys(range(g.n), 0.0)
    for (i, j), gm in gammas.items():
        if gm > 0.0:
            totals[i] += gm
            totals[j] += gm
    rows = []
    worst = math.inf
    for i in range(g.n):
        slack = 1.0 + tol - totals[i]
        worst = min(worst, slack)
        rows.append({"vertex": i, "positive_overlap_sum": totals[i], "slack": slack})
    worst = 0.0 if not rows else worst
    return Audit(name="positive_overlap_sum", passed=worst >= 0.0, margin=worst,
                 rows=tuple(rows))


def minimizer_consistency_audit(alpha0: float = ALPHA0_DEFAULT) -> Audit:
    """Dense-grid and golden-refined minima of the ratio objective must agree."""
    refined = ratio_constant(alpha0)[0]
    grid = ratio_constant_grid_only(alpha0)
    diff = abs(refined - grid)
    return Audit(name="minimizer_consistency", passed=diff <= 1e-6, margin=1e-6 - diff,
                 rows=({"refined": refined, "grid": grid, "difference": diff},))


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

    @property
    def monogamy_worst_slack(self) -> float | None:
        """Margin of the monogamy audit, or None when it was not run."""
        return next((a.margin for a in self.audits if a.name == "monogamy"), None)

    def all_passed(self) -> bool:
        return all(a.passed for a in self.audits)

    def to_json_dict(self) -> dict:
        return {
            "alpha_gw": self.alpha_gw,
            "alpha_gw_argmin_t": self.alpha_gw_argmin_t,
            "ratio_constant": self.ratio_constant,
            "ratio_argmin_gamma": self.ratio_argmin_gamma,
            "alpha0_used": self.alpha0_used,
            "monogamy_worst_slack": self.monogamy_worst_slack,
            "audits": [a.to_json_dict() for a in self.audits],
        }


def build_certificate(vs: VectorSolution | None = None, g: Graph | None = None,
                      alpha0: float = ALPHA0_DEFAULT, cut_samples: int = CUT_SAMPLES,
                      ratio_samples: int = RATIO_SAMPLES, seed: int = 0,
                      sim_limit: int = DEFAULT_QUBIT_LIMIT) -> Certificate:
    """Constants plus, when a solved instance is supplied, the full audit set."""
    agw, agw_t = alpha_gw()
    ratio, ratio_gamma = ratio_constant(alpha0)
    audits: list[Audit] = [minimizer_consistency_audit(alpha0)]
    if vs is not None:
        if g is None:
            raise ValueError("a graph is required to audit a vector solution")
        audits.append(monogamy_audit(vs, g))
        audits.append(positive_overlap_audit(vs, g))
        audits.append(cut_probability_audit(vs, g, samples=cut_samples, seed=seed))
        audits.append(per_edge_ratio_audit(vs, g, samples=ratio_samples, alpha0=alpha0,
                                           seed=seed, sim_limit=sim_limit))
    return Certificate(
        alpha_gw=agw,
        alpha_gw_argmin_t=agw_t,
        ratio_constant=ratio,
        ratio_argmin_gamma=ratio_gamma,
        alpha0_used=alpha0,
        audits=tuple(audits),
    )
