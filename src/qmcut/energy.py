"""Closed-form energies of the rounded circuit state, per edge and in total.

A cut edge (p, q), oriented so z_p = 0, has an exact <4 H_pq> in the rotation
angles of the edges incident to p and q: 1 + s(A + B) + (even-subset sum),
with s = sin(2 theta_pq) and A, B the cosine products over the other
neighbours of p and of q.  Keeping only the empty subset, AB, gives the lower
bound 1 + s(A + B) + AB that the 0.562 guarantee rests on.  An uncut edge has
an exact closed form too, 1 - plus * rest in the names of _cut_edge_terms,
which is the one place these products are formed.  The bound path scores
uncut edges 0 instead (each edge term is PSD), so its totals stay lower
bounds.  Energies are carried as <4 H_ij> and divided by 4 only when weighted
totals are formed.

Every edge's energy depends on z only through that edge's cut bit
(edge_closed_forms shows why), and the closed forms are written so that
swapping p and q gives the same float.  So a caller scoring many samples
forms each edge's cut and uncut values once per run (edge_closed_forms) and
picks one of the two by the cut bits of each sample (cut_energies).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

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


def _cut_edge_terms(params: EdgeParameters, nbrs: tuple[tuple[int, ...], ...], p: int,
                    q: int) -> tuple[float, float, float, float, float, float]:
    """(s_pq, A, B, even_subset_sum, plus, rest) of the edge (p, q).

    With c = cos(2 theta) and s = sin(2 theta):
      A = prod over k in N(p)\\{q} of c_pk,  B = prod over k in N(q)\\{p} of c_kq,
      plus = prod over common k of (c_pk c_kq + s_pk s_kq),
      minus = prod over common k of (c_pk c_kq - s_pk s_kq),
      rest = the cosine factors of A and B over neighbours that are not common,
      even_subset_sum = (1/2) (plus + minus) rest.
    The cut edge with z_p = 0 reads 1 + s_pq (A + B) + even_subset_sum and the
    uncut edge 1 - plus rest.  The product form sums the even-subset expansion
    exactly while staying finite when some cos(2 theta) vanishes, and costs
    O(deg) per edge.  Swapping p and q swaps A and B and gives the same float
    for every other term.
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
    return s_pq, A, B, 0.5 * (plus + minus) * rest, plus, rest


def _cut_edge_energies(params: EdgeParameters, nbrs: tuple[tuple[int, ...], ...], p: int,
                       q: int) -> tuple[float, float]:
    """(bound, exact) <4 H_pq> of the cut edge (p, q) with z_p = 0.

    Swapping p and q swaps A and B, and A + B and A * B round the same both
    ways, so both values are the same float for either orientation.
    """
    s_pq, A, B, even_subset_sum, _, _ = _cut_edge_terms(params, nbrs, p, q)
    return 1.0 + s_pq * (A + B) + A * B, 1.0 + s_pq * (A + B) + even_subset_sum


def edge_pauli_terms(params: EdgeParameters, assign: Assignment, g: Graph,
                     edge: tuple[int, int]) -> tuple[float, float, float]:
    """(<X_p X_q>, <Y_p Y_q>, <Z_p Z_q>) on a cut edge, oriented so z_p = 0.

    <XX> = -s_pq A, <YY> = -s_pq B and <ZZ> = -even_subset_sum, in the terms
    of _cut_edge_terms.
    """
    p, q = _orient_cut(assign, edge)
    s_pq, A, B, even_subset_sum, _, _ = _cut_edge_terms(params, g.neighbors, p, q)
    return -s_pq * A, -s_pq * B, -even_subset_sum


def edge_energy_exact(params: EdgeParameters, assign: Assignment, g: Graph,
                      edge: tuple[int, int]) -> float:
    """Exact <4 H_ij> on a cut edge (orientation-free)."""
    return _cut_edge_energies(params, g.neighbors, *_orient_cut(assign, edge))[1]


def edge_energy_bound(params: EdgeParameters, assign: Assignment, g: Graph,
                      edge: tuple[int, int]) -> float:
    """Lower bound on <4 H_ij>: empty-subset truncation on cut edges, 0 otherwise.

    EdgeParameters holds only nonnegative angles; for angles in [0, pi/4] the
    dropped even-subset terms are nonnegative, so bound <= exact.
    """
    i, j = edge
    if assign.z[i] == assign.z[j]:
        return 0.0
    return _cut_edge_energies(params, g.neighbors, *_orient_cut(assign, edge))[0]


def cut_values(edge_value: Callable[[EdgeParameters, Assignment, Graph, tuple[int, int]], float],
               params: EdgeParameters, g: Graph) -> tuple[float, ...]:
    """edge_value (such as edge_energy_bound) of every edge while it is cut.

    One value per edge in g.edges order, read on the assignment that sets only
    z_i = 1; every sample that cuts the edge gives the same float.
    """
    values = []
    for i, j, _ in g.edges:
        only_i = Assignment(z=tuple(int(k == i) for k in range(g.n)), r_seed=0)
        values.append(edge_value(params, only_i, g, (i, j)))
    return tuple(values)


def edge_closed_forms(params: EdgeParameters, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Exact <4 H_e> of every edge while it is cut and while it is not, in g.edges order.

    The cut value 1 + s(A + B) + even_subset_sum is the float edge_energy_exact
    gives, and the uncut value is 1 - plus * rest (_cut_edge_terms).  They are
    the only two values an edge takes: its energy depends on z only through
    its cut bit.  Why: V = (X + Y)/sqrt(2) maps X to Y and Y to X under
    conjugation and |b> to a phase times |1 - b>, so the state drawn with bit k
    flipped is V_k times the state drawn without the flip, up to a phase
    (the bit sets the letter of every gate at k).  V_k acts on one qubit, so it
    leaves <4 h_e> = 2 (1 - <SWAP_e>) alone when k is not on e, and V_p V_q
    commutes with SWAP_pq, so flipping both ends leaves it alone too.
    With theta in [0, pi/4], which EdgeParameters guarantees, every factor s,
    A, B and rest is >= 0, and |c_pk c_kq - s_pk s_kq| <= c_pk c_kq + s_pk s_kq
    gives |minus| <= plus, so even_subset_sum >= 0.  So cut - uncut =
    s(A + B) + even_subset_sum + plus * rest >= 0: cutting an edge never lowers
    its energy.
    """
    cut, uncut = [], []
    for i, j, _ in g.edges:
        s_ij, A, B, even_subset_sum, plus, rest = _cut_edge_terms(params, g.neighbors, i, j)
        cut.append(1.0 + s_ij * (A + B) + even_subset_sum)
        uncut.append(1.0 - plus * rest)
    return np.array(cut), np.array(uncut)


def cut_energies(Z: np.ndarray, g: Graph, cut: np.ndarray, uncut: np.ndarray) -> np.ndarray:
    """Energy of every row of a (samples, n) bit matrix Z from per-edge values.

    Each edge adds w cut / 4 on the rows that cut it and w uncut / 4 on the
    others, in g.edges order.  With (cut, uncut) from edge_closed_forms each
    energy is its sample's exact state energy.  With uncut = 0 it is
    total_energy(...).exact_total of its sample, the same float: those are
    total_energy's terms in its order.
    """
    energies = np.zeros(len(Z))
    for (i, j, w), c, u in zip(g.edges, cut, uncut):
        energies += np.where(Z[:, i] != Z[:, j], w * c / 4.0, w * u / 4.0)
    return energies


def total_energy(params: EdgeParameters, assign: Assignment, g: Graph) -> EdgeEnergyReport:
    """Weighted energy report: bounds on every edge, closed forms on cut edges.

    Uncut edges contribute 0 to the exact total and are listed, so the exact
    total is itself a lower bound on the true state energy.
    """
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
