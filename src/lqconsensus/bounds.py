"""Certified upper/lower bounds on J(P) and J_w(P) from effective resistance.

Two bound families are provided.  The resistance theorem works on the network
C_{P*P} = n P^T Pi P (the conductance matrix of the multiplicative
reversiblization); the topology theorem needs only the unit-conductance
resistance of the undirected support graph together with the entry extremes
and the maximum in-degree.  Both need only the average resistance
R_bar = tr(L^+)/n (`average_resistance`); only the resistance sandwich builds
all-pairs resistances.  Lower bounds are certified exactly when P*P = PP*;
the hypothetical values are always reported so the failure region of the
lower bound can be mapped.  Each theorem's arithmetic is written once, in a
function of its constants (`resistance_theorem`, `topology_theorem`,
`normal_corollary`); the `*_bounds` functions take those constants from a
dense matrix, and `pipeline.torus_fields` from the FFT of a torus generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNormal, OutOfRange
from .lqcost import lq_cost_exact
from .resistance import (
    average_resistance,
    conductance_matrix,
    effective_resistance,
    unit_conductance,
)
from .stochastic_core import ConsensusMatrix, classify

# Edges of G(P*P) whose pivots `reversiblization_support` searches at once.
PIVOT_CHUNK = 1024


@dataclass(frozen=True)
class BoundsReport:
    """Bound values, the constants they were built from, and applicability.

    Lower values are always populated; `lower_applicable` states whether they
    are certified (`classify(P).commuting`: P*P = PP* within the fixed
    CLASSIFICATION_TOL) or hypothetical.
    The normal-matrix corollary bounds J only, so its weighted fields are None.
    """

    theorem: str
    j_upper: float | None
    j_lower: float | None
    jw_upper: float | None
    jw_lower: float | None
    lower_applicable: bool
    constants: dict


@dataclass(frozen=True, eq=False)
class FuzzSupport:
    """Edges of G(P*P) built combinatorially from back-and-forth paths, as
    read-only index arrays in row-major order.

    An edge {u, v} exists iff some pivot node w has directed edges (w, u) and
    (w, v).  `edges` is m x 2 with u < v in each row, `pivots[k]` is the
    smallest-index witness of edge k, and `new_edges` (k x 2) are the edges
    absent from G(P).
    """

    edges: np.ndarray
    pivots: np.ndarray
    new_edges: np.ndarray


def f_delta(delta: int) -> float:
    """The in-degree factor f(delta) = 4 delta^2 + 2 delta - 2, stated for
    delta >= 1 (only one node has delta_in = 0); raises OutOfRange below."""
    if delta < 1:
        raise OutOfRange(f"f(delta) is stated for delta >= 1, got {delta}")
    return float(4 * delta * delta + 2 * delta - 2)


def reversiblization_conductance(P: ConsensusMatrix):
    """C_{P*P} = Phi(P*P) = n P^T Pi P, formed from the cached flow
    (`ConsensusMatrix.reversiblization_flow`) without building P*P."""
    c = P.n * P.reversiblization_flow
    c = (c + c.T) / 2.0
    return conductance_matrix(c)


def resistance_theorem(n: int, pi_min: float, pi_max: float, r_bar: float,
                       lower_applicable: bool) -> BoundsReport:
    """The resistance theorem from its constants, R_bar = R_bar(C_{P*P}):
    J <= (pi_max^3 n^2 / pi_min) R_bar and J_w <= pi_max^3 n^3 R_bar; the
    lower bounds swap min and max."""
    lo, hi = pi_min, pi_max
    return BoundsReport(
        theorem="resistance",
        j_upper=hi ** 3 * n * n / lo * r_bar,
        j_lower=lo ** 3 * n * n / hi * r_bar,
        jw_upper=hi ** 3 * n ** 3 * r_bar,
        jw_lower=lo ** 3 * n ** 3 * r_bar,
        lower_applicable=lower_applicable,
        constants={"n": n, "pi_min": lo, "pi_max": hi, "r_bar": r_bar},
    )


def topology_theorem(n: int, pi_min: float, pi_max: float, p_min: float,
                     p_max: float, delta_in: int, delta_out: int, r_bar: float,
                     lower_applicable: bool) -> BoundsReport:
    """The topology theorem from its constants, R_bar = R_bar(G(P)) with
    unit conductances and f = f_delta(delta_in):
    J <= pi_max^3 n R_bar / (p_min^2 pi_min^2) and
    J_w <= pi_max^3 n^2 R_bar / (p_min^2 pi_min); the lower bounds swap the
    extremes and divide by f, or are 0.0 at delta_in = 0, where R_bar = 0."""
    lo, hi = pi_min, pi_max
    f_in = f_delta(delta_in) if delta_in else None
    return BoundsReport(
        theorem="topology",
        j_upper=hi ** 3 * n / (p_min ** 2 * lo ** 2) * r_bar,
        j_lower=lo ** 3 * n / (p_max ** 2 * f_in * hi ** 2) * r_bar if f_in else 0.0,
        jw_upper=hi ** 3 * n * n / (p_min ** 2 * lo) * r_bar,
        jw_lower=lo ** 3 * n * n / (p_max ** 2 * f_in * hi) * r_bar if f_in else 0.0,
        lower_applicable=lower_applicable,
        constants={
            "n": n, "pi_min": lo, "pi_max": hi, "p_min": p_min, "p_max": p_max,
            "delta_in": delta_in, "delta_out": delta_out, "f_delta_in": f_in,
            "r_bar": r_bar,
        },
    )


def normal_corollary(n: int, p_min: float, p_max: float, delta_in: int,
                     r_bar: float) -> BoundsReport:
    """The normal-matrix corollary from its constants, R_bar = R_bar(G(P)):
    R_bar / (p_max^2 f(delta_in)) <= J <= R_bar / p_min^2, with the lower
    bound 0.0 at delta_in = 0, where R_bar = 0."""
    f_in = f_delta(delta_in) if delta_in else None
    return BoundsReport(
        theorem="normal",
        j_upper=r_bar / p_min ** 2,
        j_lower=r_bar / (p_max ** 2 * f_in) if f_in else 0.0,
        jw_upper=None,
        jw_lower=None,
        lower_applicable=True,
        constants={
            "n": n, "p_min": p_min, "p_max": p_max, "delta_in": delta_in,
            "f_delta_in": f_in, "r_bar": r_bar,
        },
    )


def theorem_resistance_bounds(P: ConsensusMatrix) -> BoundsReport:
    """`resistance_theorem` on P: R_bar = tr(L^+)/n of C_{P*P}, and lower
    bounds certified when P*P = PP*, as `classify` decides it.
    """
    inv = P.invariant
    rbar = average_resistance(reversiblization_conductance(P))
    return resistance_theorem(P.n, inv.pi_min, inv.pi_max, rbar,
                              classify(P).commuting)


def theorem_topology_bounds(P: ConsensusMatrix) -> BoundsReport:
    """`topology_theorem` on P: needs only R_bar(G(P)), the entry extremes
    p_min/p_max, the invariant measure extremes, and the maximum in-degree
    (excluding self loops).  The lower bounds are certified when
    `classify(P).commuting`.
    """
    inv = P.invariant
    graphs = P.graphs
    return topology_theorem(P.n, inv.pi_min, inv.pi_max, graphs.p_min,
                            graphs.p_max, graphs.delta_in, graphs.delta_out,
                            average_resistance(P.support_network),
                            classify(P).commuting)


def corollary_normal_bounds(P: ConsensusMatrix) -> BoundsReport:
    """`normal_corollary` on P, a two-sided bound on J for normal P:
    R_bar(G(P)) / (p_max^2 f(delta_in)) <= J <= R_bar(G(P)) / p_min^2.

    Raises NotNormal unless `classify(P).normal`.
    """
    if not classify(P).normal:
        raise NotNormal("the corollary applies to normal consensus matrices only")
    graphs = P.graphs
    return normal_corollary(P.n, graphs.p_min, graphs.p_max, graphs.delta_in,
                            average_resistance(P.support_network))


def reversiblization_support(P: ConsensusMatrix) -> FuzzSupport:
    """The support of G(P*P) from pivots alone, never forming P*P numerically.

    {u, v} is an edge iff column u and column v of the directed support share
    a positive row w (the pivot).  Ties break to the smallest index.  Every
    edge of G(P) survives because self loops make u itself a pivot for (u, v).
    The shared-row counts come from a float product, exact below 2^53; the
    pivots from one argmax per PIVOT_CHUNK edges over the rows of the
    transposed support, so the boolean temporary is PIVOT_CHUNK x n.
    """
    s = P.support
    indicator = s.astype(float)
    edges = np.argwhere(np.triu(indicator.T @ indicator > 0, 1))
    u, v = edges.T
    columns = np.ascontiguousarray(s.T)
    pivots = np.empty(len(edges), dtype=np.intp)
    for start in range(0, len(edges), PIVOT_CHUNK):
        chunk = slice(start, start + PIVOT_CHUNK)
        pivots[chunk] = np.argmax(columns[u[chunk]] & columns[v[chunk]], axis=1)
    new_edges = edges[~P.graphs.undirected[u, v]]
    for array in (edges, pivots, new_edges):
        array.setflags(write=False)
    return FuzzSupport(edges=edges, pivots=pivots, new_edges=new_edges)


@dataclass(frozen=True, eq=False)
class SandwichMargins:
    """Least per-pair slack of the resistance sandwich between G(P) and G(P*P).

    min_upper_margin = min R(G(P)) - R(G(P*P)) and min_lower_margin =
    min R(G(P*P)) - R(G(P)) / (4 delta - 2), both expected nonnegative;
    `variant` records whether delta_in (commuting case) or delta_out was
    used, and `support` is the G(P*P) support search the margins were
    computed on.
    """

    min_upper_margin: float
    min_lower_margin: float
    delta_used: int
    variant: str
    support: FuzzSupport


def resistance_sandwich_check(P: ConsensusMatrix) -> SandwichMargins:
    """Evaluate (1/(4 delta - 2)) R_uv(G(P)) <= R_uv(G(P*P)) <= R_uv(G(P)).

    delta is delta_in when `classify(P).commuting`, delta_out otherwise.
    The one bound that needs all-pairs `effective_resistance`, on G(P) and
    G(P*P); the validate battery's sandwich suite (`_suite_sandwich`) and
    `analyze` call it.
    """
    graphs = P.graphs
    fuzz = reversiblization_support(P)
    u, v = fuzz.edges.T
    adj = np.zeros((P.n, P.n), dtype=bool)
    adj[u, v] = adj[v, u] = True
    r_base = effective_resistance(P.support_network)
    r_fuzz = effective_resistance(unit_conductance(adj))
    if classify(P).commuting:
        delta, variant = graphs.delta_in, "in"
    else:
        delta, variant = graphs.delta_out, "out"
    upper = r_base - r_fuzz
    # delta = 0 only on one node, where every resistance is 0.
    lower = r_fuzz - r_base / (4.0 * delta - 2.0) if delta else r_fuzz
    return SandwichMargins(
        min_upper_margin=float(upper.min()),
        min_lower_margin=float(lower.min()),
        delta_used=delta,
        variant=variant,
        support=fuzz,
    )


def hypothetical_lower_violation(P: ConsensusMatrix) -> float:
    """How far the uncertified resistance-theorem lower value sits above J(P).

    Positive values reproduce the failure mechanism of the lower bound on
    noncommuting matrices; nonpositive values mean the hypothetical lower
    happens to sit below J.
    """
    report = theorem_resistance_bounds(P)
    return float(report.j_lower - lq_cost_exact(P).j)
