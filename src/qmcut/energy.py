"""Closed-form energies of the rounded circuit state, per edge and in total.

A cut edge (p, q), oriented so z_p = 0, has an exact <4 H_pq> in the rotation
angles of the edges incident to p and q: 1 + s(A + B) + (even-subset sum),
with s = sin(2 theta_pq) and A, B the cosine products over the other
neighbours of p and of q.  Keeping only the empty subset, AB, gives the lower
bound 1 + s(A + B) + AB that the 0.562 guarantee rests on.  _cut_edge_terms is
the one place these products are formed.  Uncut edges take the trivial lower
bound 0 (each edge term is PSD).  Energies are carried as <4 H_ij> and divided
by 4 only when weighted totals are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Graph
from .rounding import Assignment, EdgeParameters


@dataclass(frozen=True)
class EdgeEnergy:
    edge: tuple[int, int]
    weight: float
    cut: bool
    exact: float | None     # <4 H_ij>, closed form; cut edges only
    bound: float            # lower bound on <4 H_ij>


@dataclass(frozen=True)
class EdgeEnergyReport:
    edges: tuple[EdgeEnergy, ...]
    bound_total: float              # sum w * bound / 4
    exact_total: float              # sum w * exact / 4 with 0 on uncut edges
    uncut_edges: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "mode": "exact_where_cut",
            "edges": [
                {
                    "edge": f"{i}-{j}",
                    "weight": e.weight,
                    "cut": e.cut,
                    "exact": e.exact,
                    "bound": e.bound,
                }
                for e in self.edges
                for i, j in [e.edge]
            ],
            "bound_total": self.bound_total,
            "exact_total": self.exact_total,
            "uncut_edges": [f"{i}-{j}" for i, j in self.uncut_edges],
        }


def _theta(params: EdgeParameters, i: int, j: int) -> float:
    return params.theta[(i, j) if i < j else (j, i)]


def _orient_cut(assign: Assignment, edge: tuple[int, int]) -> tuple[int, int]:
    """Return the edge as (p, q) with z_p = 0, z_q = 1; reject uncut edges."""
    i, j = edge
    zi, zj = assign.z[i], assign.z[j]
    if zi == zj:
        raise ValueError(f"edge ({i},{j}) is not cut; the closed form applies to cut edges only")
    return (i, j) if zi == 0 else (j, i)


def _check_nonnegative_thetas(params: EdgeParameters) -> None:
    worst = min(params.theta.values(), default=0.0)
    if worst < 0.0:
        raise ValueError(f"negative rotation angle {worst}; the bound requires theta >= 0")


def _cut_edge_terms(params: EdgeParameters, nbrs: tuple[tuple[int, ...], ...], p: int,
                    q: int) -> tuple[float, float, float, float]:
    """(s_pq, A, B, even_subset_sum) of the cut edge (p, q) with z_p = 0.

    With c = cos(2 theta) and s = sin(2 theta):
      A = prod over k in N(p)\\{q} of c_pk,  B = prod over k in N(q)\\{p} of c_kq,
      even_subset_sum = (1/2) [prod over common k of (c_pk c_kq + s_pk s_kq)
                               + prod over common k of (c_pk c_kq - s_pk s_kq)]
                        * (non-common cosine factors of A and B).
    The product form sums the even-subset expansion exactly while staying
    finite when some cos(2 theta) vanishes, and costs O(deg) per edge.
    """
    cos_p = {k: math.cos(2.0 * _theta(params, p, k)) for k in nbrs[p] if k != q}
    cos_q = {k: math.cos(2.0 * _theta(params, k, q)) for k in nbrs[q] if k != p}
    s_pq = math.sin(2.0 * _theta(params, p, q))

    A = math.prod(cos_p.values())
    B = math.prod(cos_q.values())

    plus, minus = 1.0, 1.0
    for k in sorted(cos_p.keys() & cos_q.keys()):
        sp_, sq_ = math.sin(2.0 * _theta(params, p, k)), math.sin(2.0 * _theta(params, k, q))
        plus *= cos_p[k] * cos_q[k] + sp_ * sq_
        minus *= cos_p[k] * cos_q[k] - sp_ * sq_
    rest = math.prod(c for k, c in cos_p.items() if k not in cos_q)
    rest *= math.prod(c for k, c in cos_q.items() if k not in cos_p)
    return s_pq, A, B, 0.5 * (plus + minus) * rest


def _cut_edge_energies(params: EdgeParameters, nbrs: tuple[tuple[int, ...], ...], p: int,
                       q: int) -> tuple[float, float]:
    """(bound, exact) <4 H_pq> of the cut edge (p, q) with z_p = 0."""
    s_pq, A, B, even_subset_sum = _cut_edge_terms(params, nbrs, p, q)
    return 1.0 + s_pq * (A + B) + A * B, 1.0 + s_pq * A + s_pq * B + even_subset_sum


def edge_pauli_terms(params: EdgeParameters, assign: Assignment, g: Graph,
                     edge: tuple[int, int]) -> tuple[float, float, float]:
    """(<X_p X_q>, <Y_p Y_q>, <Z_p Z_q>) on a cut edge, oriented so z_p = 0.

    <XX> = -s_pq A, <YY> = -s_pq B and <ZZ> = -even_subset_sum, in the terms
    of _cut_edge_terms.
    """
    p, q = _orient_cut(assign, edge)
    s_pq, A, B, even_subset_sum = _cut_edge_terms(params, g.neighbors, p, q)
    return -s_pq * A, -s_pq * B, -even_subset_sum


def edge_energy_exact(params: EdgeParameters, assign: Assignment, g: Graph,
                      edge: tuple[int, int]) -> float:
    """Exact <4 H_ij> on a cut edge (orientation-free)."""
    return _cut_edge_energies(params, g.neighbors, *_orient_cut(assign, edge))[1]


def edge_energy_bound(params: EdgeParameters, assign: Assignment, g: Graph,
                      edge: tuple[int, int]) -> float:
    """Lower bound on <4 H_ij>: empty-subset truncation on cut edges, 0 otherwise.

    Requires every rotation angle to be nonnegative; for angles in [0, pi/4]
    the dropped even-subset terms are nonnegative, so bound <= exact.
    """
    _check_nonnegative_thetas(params)
    i, j = edge
    if assign.z[i] == assign.z[j]:
        return 0.0
    return _cut_edge_energies(params, g.neighbors, *_orient_cut(assign, edge))[0]


def total_energy(params: EdgeParameters, assign: Assignment, g: Graph) -> EdgeEnergyReport:
    """Weighted energy report: bounds on every edge, closed forms on cut edges.

    Uncut edges contribute 0 to the exact total and are listed, so the exact
    total is itself a lower bound on the true state energy.
    """
    _check_nonnegative_thetas(params)
    rows = []
    bound_total = 0.0
    exact_total = 0.0
    uncut = []
    for i, j, w in g.edges:
        cut = assign.z[i] != assign.z[j]
        if cut:
            bound, exact = _cut_edge_energies(params, g.neighbors, *_orient_cut(assign, (i, j)))
        else:
            bound, exact = 0.0, None
            uncut.append((i, j))
        rows.append(EdgeEnergy(edge=(i, j), weight=w, cut=cut, exact=exact, bound=bound))
        bound_total += w * bound / 4.0
        exact_total += w * (exact if exact is not None else 0.0) / 4.0
    return EdgeEnergyReport(
        edges=tuple(rows),
        bound_total=bound_total,
        exact_total=exact_total,
        uncut_edges=tuple(uncut),
    )
