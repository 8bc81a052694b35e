"""Closed-form energies of the rounded circuit state, per edge and in total.

An edge's <4 H_ij> depends on z only through its cut bit (edge_closed_forms),
and both of its values are closed forms in the rotation angles of the edges
incident to i and j, formed in _cut_edge_terms: 1 + s(A + B) + (even-subset
sum) when cut, with s = sin(2 theta_ij) and A, B the cosine products over the
other neighbours of i and of j, and 1 - plus * rest when uncut.  Keeping only
the empty subset, AB, gives the lower bound 1 + s(A + B) + AB on a cut edge
that the 0.562 guarantee rests on (edge_energy_bound).  Energies are carried
as <4 H_ij> and divided by 4 only when weighted totals are formed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .graph import Graph
from .rounding import Assignment, EdgeParameters


@dataclass(frozen=True)
class EdgeEnergy:
    edge: tuple[int, int]
    weight: float
    cut: bool
    exact: float            # <4 H_ij>, closed form for the edge's cut bit
    bound: float            # lower bound on <4 H_ij>


@dataclass(frozen=True)
class EdgeEnergyReport:
    edges: tuple[EdgeEnergy, ...]
    bound_total: float              # sum w * bound / 4
    exact_total: float              # sum w * exact / 4, the state's energy

    def to_json_dict(self) -> dict:
        payload = asdict(self)
        for row in payload["edges"]:
            row["edge"] = "{}-{}".format(*row["edge"])
        return payload


def _theta(params: EdgeParameters, i: int, j: int) -> float:
    return params.theta[(i, j) if i < j else (j, i)]


def _cut_edge_terms(params: EdgeParameters, nbrs: tuple[tuple[int, ...], ...], p: int,
                    q: int) -> tuple[float, float, float, float, float, float]:
    """(s_pq, A, B, even_subset_sum, plus, rest) of the edge (p, q).

    With c = cos(2 theta) and s = sin(2 theta):
      A = prod over k in N(p)\\{q} of c_pk,  B = prod over k in N(q)\\{p} of c_kq,
      plus = prod over common k of (c_pk c_kq + s_pk s_kq),
      minus = prod over common k of (c_pk c_kq - s_pk s_kq),
      rest = the cosine factors of A and B over neighbours that are not common,
      even_subset_sum = (1/2) (plus + minus) rest.
    The cut edge reads 1 + s_pq (A + B) + even_subset_sum and the uncut edge
    1 - plus rest.  The product form sums the even-subset expansion exactly
    while staying finite when some cos(2 theta) vanishes, and costs O(deg) per
    edge.  Swapping p and q swaps A and B and gives the same float for every
    other term, and for A + B and A * B.
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


def edge_energy_bound(params: EdgeParameters, assign: Assignment, g: Graph,
                      edge: tuple[int, int]) -> float:
    """Lower bound on <4 H_ij>: 1 + s(A + B) + AB on cut edges, 0 otherwise.

    EdgeParameters holds only nonnegative angles; for angles in [0, pi/4] the
    dropped even-subset terms are nonnegative, so bound <= exact.
    """
    i, j = edge
    if assign.z[i] == assign.z[j]:
        return 0.0
    s_ij, A, B, _, _, _ = _cut_edge_terms(params, g.neighbors, i, j)
    return 1.0 + s_ij * (A + B) + A * B


def edge_closed_forms(params: EdgeParameters, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Exact <4 H_e> of every edge while it is cut and while it is not, in g.edges order.

    The cut value is 1 + s(A + B) + even_subset_sum and the uncut value
    1 - plus * rest (_cut_edge_terms).  They are the only two values an edge
    takes: its energy depends on z only through its cut bit.  Why:
    V = (X + Y)/sqrt(2) maps X to Y and Y to X under conjugation and |b> to a
    phase times |1 - b>, so the state drawn with bit k flipped is V_k times the
    state drawn without the flip, up to a phase (the bit sets the letter of
    every gate at k).  V_k acts on one qubit, so it
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
    energy is its sample's exact state energy, the same float as
    total_energy(...).exact_total: those are total_energy's terms in its
    order.  With uncut = 0 it is the sum of the cut edges' exact values, a
    lower bound because every edge term is >= 0.
    """
    energies = np.zeros(len(Z))
    for (i, j, w), c, u in zip(g.edges, cut, uncut):
        energies += np.where(Z[:, i] != Z[:, j], w * c / 4.0, w * u / 4.0)
    return energies


def total_energy(params: EdgeParameters, assign: Assignment, g: Graph) -> EdgeEnergyReport:
    """Weighted energy report of one sample: each edge's exact value and bound.

    An edge's exact value is its closed form for the sample's cut bit
    (edge_closed_forms), so the exact total is the state's energy; its bound
    is edge_energy_bound, 0 on uncut edges.
    """
    rows = []
    for (i, j, w), c, u in zip(g.edges, *edge_closed_forms(params, g)):
        cut = assign.z[i] != assign.z[j]
        rows.append(EdgeEnergy(edge=(i, j), weight=w, cut=cut, exact=float(c if cut else u),
                               bound=edge_energy_bound(params, assign, g, (i, j))))
    return EdgeEnergyReport(edges=tuple(rows),
                            bound_total=sum((e.weight * e.bound / 4.0 for e in rows), 0.0),
                            exact_total=sum((e.weight * e.exact / 4.0 for e in rows), 0.0))
