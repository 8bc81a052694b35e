"""Closed-form energies of the rounded circuit state, per edge and in total.

An edge's <4 H_pq> depends on z only through its cut bit (edge_closed_forms),
and both of its values are products over the other vertices k of the angles at
the edge's two ends, formed for every edge at once in _edge_products from
c = cos 2 theta and s = sin 2 theta: 1 + s_pq (A + B) + (plus + minus)/2 when
cut, with A and B the products of c_pk and of c_kq and plus, minus those of
c_pk c_kq +- s_pk s_kq, and 1 - plus when uncut.  Keeping only the empty-subset
term AB of (plus + minus)/2 gives the lower bound 1 + s_pq (A + B) + AB on a
cut edge that the 0.562 guarantee rests on (edge_energy_bound).  Energies are
carried as <4 H_pq> and divided by 4 only when weighted totals are formed.
"""

from __future__ import annotations

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


def _edge_products(params: EdgeParameters, g: Graph) -> tuple[np.ndarray, ...]:
    """(s_pq, A, B, plus, minus) of every edge e = (p, q), p < q, in g.edges order.

    One pass of products over the n x n matrices c = cos 2 theta and s = sin 2 theta,
    with c = 1 and s = 0 off the edges (the diagonal included).  Over the vertices
    k other than p and q:
      A = prod c_pk,  B = prod c_kq,
      plus = prod (c_pk c_kq + s_pk s_kq),  minus = prod (c_pk c_kq - s_pk s_kq);
    a vertex next to one end only contributes its cosine, one next to neither 1.
    """
    p, q = np.array([e[:2] for e in g.edges], dtype=np.intp).reshape(-1, 2).T
    theta = np.array([params.theta[(i, j)] for i, j, _ in g.edges])
    c, s = np.ones((g.n, g.n)), np.zeros((g.n, g.n))
    c[p, q] = c[q, p] = np.cos(2.0 * theta)
    s[p, q] = s[q, p] = np.sin(2.0 * theta)
    # Row e of cp, sp runs over k at p and of cq, sq at q; the edge's own factor
    # becomes 1 (its sine meets the zero diagonal of s at the other end).
    rows = np.arange(len(p))
    cp, cq, sp, sq = c[p], c[q], s[p], s[q]
    cp[rows, q] = cq[rows, p] = 1.0
    cc, ss = cp * cq, sp * sq
    return s[p, q], cp.prod(axis=1), cq.prod(axis=1), (cc + ss).prod(axis=1), (cc - ss).prod(axis=1)


def _edge_values(params: EdgeParameters, g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cut, uncut, bound) <4 H_e> of every edge, in g.edges order:
    1 + s_pq (A + B) + (plus + minus)/2, 1 - plus and 1 + s_pq (A + B) + AB."""
    s_pq, A, B, plus, minus = _edge_products(params, g)
    return (1.0 + s_pq * (A + B) + (plus + minus) / 2.0, 1.0 - plus,
            1.0 + s_pq * (A + B) + A * B)


def edge_energy_bound(params: EdgeParameters, g: Graph) -> np.ndarray:
    """Lower bound 1 + s(A + B) + AB on <4 H_e> of every edge while it is cut, in g.edges order.

    It keeps the empty-subset term AB of the cut value's (plus + minus)/2
    (edge_closed_forms), so it is at most the cut value for the nonnegative
    angles EdgeParameters holds.
    """
    return _edge_values(params, g)[2]


def edge_closed_forms(params: EdgeParameters, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Exact <4 H_e> of every edge while it is cut and while it is not, in g.edges order.

    The cut value is 1 + s(A + B) + (plus + minus)/2 and the uncut value
    1 - plus (_edge_values).  They are the only two values an edge takes: its
    energy depends on z only through its cut bit.  Why:
    V = (X + Y)/sqrt(2) maps X to Y and Y to X under conjugation and |b> to a
    phase times |1 - b>, so the state drawn with bit k flipped is V_k times the
    state drawn without the flip, up to a phase (the bit sets the letter of
    every gate at k).  V_k acts on one qubit, so it
    leaves <4 h_e> = 2 (1 - <SWAP_e>) alone when k is not on e, and V_p V_q
    commutes with SWAP_pq, so flipping both ends leaves it alone too.
    The factors of plus and minus are cos 2(theta_pk - theta_kq) and
    cos 2(theta_pk + theta_kq), so no factor exceeds 1 and uncut >= 0.  With
    theta in [0, pi/4], which EdgeParameters guarantees, c and s are >= 0, so
    s, A and B are >= 0 and each factor of plus is at least the absolute value
    of minus's: plus >= |minus|.  So cut - uncut = s(A + B) + (plus + minus)/2
    + plus >= 0: cutting an edge never lowers its energy.  Expanded,
    (plus + minus)/2 is the sum over the even subsets T of the common
    neighbours of prod over T of s_pk s_kq times the cosines c_pk c_kq off T and
    the one-end cosines; every term is >= 0, and T empty gives AB, so
    edge_energy_bound <= cut.
    """
    cut, uncut, _ = _edge_values(params, g)
    return cut, uncut


def cut_energies(Z: np.ndarray, g: Graph, cut: np.ndarray, uncut: np.ndarray) -> np.ndarray:
    """Energy of every row of a (samples, n) bit matrix Z from per-edge values.

    Each edge adds w cut / 4 on the rows that cut it and w uncut / 4 on the
    others, in g.edges order.  With (cut, uncut) from edge_closed_forms each
    energy is its sample's exact state energy, the same float as
    total_energy(...).exact_total: those are total_energy's terms in its
    order.  With uncut = 0 it is the sum of the cut edges' exact values, a
    lower bound because every edge term is >= 0.  Each term is formed as
    (w / 4) value: division by 4 is exact, so in the normal range it is the
    same float as w value / 4, and a weight near the float limit does not
    overflow before the division.
    """
    energies = np.zeros(len(Z))
    for (i, j, w), c, u in zip(g.edges, cut, uncut):
        energies += np.where(Z[:, i] != Z[:, j], w / 4.0 * c, w / 4.0 * u)
    return energies


def total_energy(params: EdgeParameters, assign: Assignment, g: Graph) -> EdgeEnergyReport:
    """Weighted energy report of one sample: each edge's exact value and bound.

    An edge's exact value is its closed form for the sample's cut bit
    (edge_closed_forms), so the exact total is the state's energy; its bound
    is edge_energy_bound on cut edges and 0 on uncut ones.
    """
    rows = []
    for (i, j, w), c, u, b in zip(g.edges, *(v.tolist() for v in _edge_values(params, g))):
        cut = assign.z[i] != assign.z[j]
        rows.append(EdgeEnergy(edge=(i, j), weight=w, cut=cut, exact=c if cut else u,
                               bound=b if cut else 0.0))
    return EdgeEnergyReport(edges=tuple(rows),
                            bound_total=sum((e.weight / 4.0 * e.bound for e in rows), 0.0),
                            exact_total=sum((e.weight / 4.0 * e.exact for e in rows), 0.0))
