"""The evaluation pipeline: `evaluate` computes J, J_w and the bound columns
of one consensus matrix, gates them in a ResultRow and describes how they
were found.  It parses no options and writes no files; the command-line
module does both.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .bounds import (
    corollary_normal_bounds,
    normal_corollary,
    resistance_theorem,
    theorem_resistance_bounds,
    theorem_topology_bounds,
    topology_theorem,
)
from .errors import Disconnected, InvalidGenerator, LqConsensusError, NotIrreducible
from .graph_gen import CayleyGenerator
from .lqcost import LqReport, lq_cost_exact, lq_cost_truncated
from .resistance import _nonzero_spectrum
from .stochastic_core import SUPPORT_THRESHOLD, classify

__all__ = ["ResultRow", "evaluate", "torus_fields"]

BOUND_SLACK_REL = 1e-9
BOUND_SLACK_ABS = 1e-12


@dataclass(frozen=True)
class ResultRow:
    """One experiment data point; its fields, in order, are the CSV columns
    (CSV_COLUMNS), and nothing run-dependent is among them, so reruns with
    the same master seed are byte-identical.

    j_exact_rel_err is |J_trunc - J_exact| / J_exact, the relative error of
    the truncated series against the exact cost, on geometric rows where that
    cross-check ran; it is empty elsewhere.

    Construction is the gate.  Its inequalities are listed once, as (smaller
    field, larger field, bound name) in GATED and CERTIFIED_LOWER: the costs
    below every upper bound and above norm_j_lower, and above the theorems'
    lower bounds only when lower_applicable certifies them.  Each one whose
    two fields are populated (`gated`) must have a `margin` of at least 0,
    that is, hold up to BOUND_SLACK_REL relative plus BOUND_SLACK_ABS
    absolute slack; otherwise LqConsensusError names the bound.
    """

    GATED = (
        ("j", "res_j_upper", "the resistance-theorem J upper bound"),
        ("j", "topo_j_upper", "the topology-theorem J upper bound"),
        ("j", "norm_j_upper", "the normal-corollary J upper bound"),
        ("j_weighted", "res_jw_upper", "the resistance-theorem weighted upper bound"),
        ("j_weighted", "topo_jw_upper", "the topology-theorem weighted upper bound"),
        ("norm_j_lower", "j", "the normal-corollary J lower bound"),
    )
    CERTIFIED_LOWER = (
        ("res_j_lower", "j", "the resistance-theorem J lower bound"),
        ("topo_j_lower", "j", "the topology-theorem J lower bound"),
        ("res_jw_lower", "j_weighted", "the resistance-theorem weighted lower bound"),
        ("topo_jw_lower", "j_weighted", "the topology-theorem weighted lower bound"),
    )

    experiment: str
    n: int
    d: int | None
    case: int | None
    instance: int
    epsilon: float | None
    j: float
    j_weighted: float
    j_exact_rel_err: float | None
    res_rbar: float
    res_j_upper: float
    res_j_lower: float
    res_jw_upper: float
    res_jw_lower: float
    topo_rbar: float
    topo_j_upper: float
    topo_j_lower: float
    topo_jw_upper: float
    topo_jw_lower: float
    norm_j_upper: float | None
    norm_j_lower: float | None
    lower_applicable: bool
    j_normalized: float | None

    def gated(self) -> list:
        """The entries of GATED, and of CERTIFIED_LOWER when lower_applicable,
        whose two fields are both populated."""
        table = self.GATED + (self.CERTIFIED_LOWER if self.lower_applicable else ())
        return [(smaller, larger, name) for smaller, larger, name in table
                if getattr(self, smaller) is not None and getattr(self, larger) is not None]

    def margin(self, smaller: str, larger: str) -> float:
        """larger (1 + BOUND_SLACK_REL) + BOUND_SLACK_ABS - smaller, for two
        field names: negative exactly when the gate refuses the pair."""
        return (getattr(self, larger) * (1.0 + BOUND_SLACK_REL) + BOUND_SLACK_ABS
                - getattr(self, smaller))

    def __post_init__(self):
        for smaller, larger, name in self.gated():
            if self.margin(smaller, larger) < 0:
                raise LqConsensusError(
                    f"result row violates {name}:"
                    f" {getattr(self, smaller)} > {getattr(self, larger)}")


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))

# The growth law g(N) of J on N nodes in dimension d, by name: the paper's
# rates on Z_n^d, which j_normalized = J / g(N) and `growth_fit` use.
GROWTH_LAWS = {1: "N", 2: "log(N)", 3: "1"}


def _growth(d: int, nodes):
    """g(N): N in d=1, log N in d=2, 1 in d=3 (see GROWTH_LAWS)."""
    if d == 1:
        return nodes
    if d == 2:
        return np.log(nodes)
    return 1.0


def growth_fit(d: int, nodes, mean_j) -> dict:
    """The least-squares fit mean J ~ a g(N) + b over the sizes, with
    g = GROWTH_LAWS[d], as growth_g, growth_a, growth_b and
    growth_rel_residual = ||mean J - fit|| / ||mean J|| (2-norms).  In d = 3,
    where g is constant, b alone is fitted and growth_a is None."""
    x = np.asarray(nodes, dtype=float)
    y = np.asarray(mean_j, dtype=float)
    columns = [np.ones_like(x)] if d == 3 else [_growth(d, x), np.ones_like(x)]
    design = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    a, b = (None, coef[0]) if d == 3 else coef
    residual = np.linalg.norm(y - design @ coef) / np.linalg.norm(y)
    return {"growth_g": GROWTH_LAWS[d], "growth_a": a, "growth_b": b,
            "growth_rel_residual": residual}


def _bound_columns(res, topo, norm) -> dict:
    """The res_*, topo_* and lower_applicable columns from the two theorems'
    reports, then the norm_* columns from the corollary's unless it is None."""
    fields = {}
    for name, bounds in (("res", res), ("topo", topo)):
        fields[f"{name}_rbar"] = bounds.constants["r_bar"]
        fields[f"{name}_j_upper"] = bounds.j_upper
        fields[f"{name}_j_lower"] = bounds.j_lower
        fields[f"{name}_jw_upper"] = bounds.jw_upper
        fields[f"{name}_jw_lower"] = bounds.jw_lower
    fields["lower_applicable"] = res.lower_applicable
    if norm is not None:
        fields["norm_j_upper"] = norm.j_upper
        fields["norm_j_lower"] = norm.j_lower
    return fields


def _dense_fields(matrix):
    """The dense twin of `torus_fields`: the LqReport of `lq_cost_exact` and
    the bound columns of the theorem functions, the norm_* ones if
    `classify(matrix).normal`."""
    report = lq_cost_exact(matrix)
    res = theorem_resistance_bounds(matrix)
    topo = theorem_topology_bounds(matrix)
    norm = corollary_normal_bounds(matrix) if classify(matrix).normal else None
    return report, _bound_columns(res, topo, norm)


def torus_fields(gen: CayleyGenerator, side: int):
    """J, J_w and the bound columns of the Cayley matrix P_uv = g(u - v mod
    side) on Z_side^d in closed form, without building P.

    P is circulant: its eigenvalues are lambda = fftn(g), it is normal (so
    commuting and doubly stochastic) and pi = 1/N exactly, N = side^d.  Both
    R_bar are tr(L^+)/N, with the dense route's null-space rule
    (`resistance._nonzero_spectrum`) applied to the Laplacian's symbol:
    - J = J_w = (1/N) sum 1 / (1 - |lambda_k|^2) over k != 0 is the
      resistance theorem's R_bar: C_{P*P} = P^T P has Laplacian I - P^T P,
      with diagonal 1 - sum_h g_h^2.
    - The topology theorem's and the corollary's R_bar is (1/N) sum 1 / mu_k,
      with mu the symbol of the unit Laplacian of G(P), whose edges are the
      nonzero offsets and their negatives, and whose diagonal is the degree.
    - p_min and p_max are the weights of g, and delta_in = delta_out is its
      number of nonzero offsets.
    An offset of weight at most SUPPORT_THRESHOLD is no edge, as in G(P).
    The bounds come from the theorem functions the dense route uses.

    Returns the LqReport (method "fft", spectral_gap the smallest
    1 - |lambda_k|^2) and the bound columns, in the dense route's order.
    Raises InvalidGenerator for side < 3, and NotIrreducible where the rule
    finds either Laplacian disconnected, as the dense route raises
    Disconnected on the Cayley matrix.
    """
    if side < 3:
        raise InvalidGenerator(f"torus side {side} must be at least 3")
    d = gen.d
    g = np.zeros((side,) * d)
    for h in gen.offsets:
        g[tuple(x % side for x in h)] += gen.weights[h]
    n = g.size
    support = g > SUPPORT_THRESHOLD
    weights = g[support]
    support.flat[0] = False
    # Index -h mod side of every axis: reverse, then shift by one.
    edges = support | np.roll(np.flip(support), 1, axis=tuple(range(d)))
    degree = int(edges.sum())
    lam = np.fft.fftn(g).ravel()
    gaps = 1.0 - (lam.real ** 2 + lam.imag ** 2)
    gaps[0] = 0.0  # lambda_0 = sum g = 1: the constant mode is the null vector
    mu = degree - np.fft.fftn(edges.astype(float)).real.ravel()
    try:
        gaps = _nonzero_spectrum(gaps, 1.0 - float(np.sum(g ** 2)))
        mu = _nonzero_spectrum(mu, degree)
    except Disconnected as exc:
        raise NotIrreducible(
            f"the torus Z_{side}^{d} is reducible or numerically so: {exc}") from exc
    j = float(np.sum(1.0 / gaps) / n)
    support_rbar = float(np.sum(1.0 / mu) / n)
    pi = 1.0 / n
    p_min, p_max = float(weights.min()), float(weights.max())
    delta = int(support.sum())
    bounds = _bound_columns(
        resistance_theorem(n, pi, pi, j, True),
        topology_theorem(n, pi, pi, p_min, p_max, delta, delta, support_rbar, True),
        normal_corollary(n, p_min, p_max, delta, support_rbar))
    report = LqReport(j=j, j_weighted=j, t0_term=(n - 1) / n, method="fft",
                      spectral_gap=float(gaps.min()))
    return report, bounds


def evaluate(source, cross_check: bool = False, nodes: int | None = None,
             **labels):
    """Compute, gate and describe one matrix.

    `source` is a ConsensusMatrix, whose J, J_w and bound columns come from
    `lq_cost_exact` and the theorem functions, or the (LqReport, bound
    columns) pair of a closed form, as `torus_fields` gives it.  With
    `cross_check` the truncated series also runs on the matrix, and its
    relative error against J becomes j_exact_rel_err.  `nodes` is the node
    count N that j_normalized = J / g(N) uses, in dimension `labels["d"]`.
    Columns that neither the cost, the bounds nor `labels` give are empty.

    Returns the gated ResultRow, the LqReport and the detail dict: the
    method, then whichever of steps_used, stein_residual and spectral_gap
    the report has, then the series' truncated_steps if it ran.
    """
    report, bounds = source if isinstance(source, tuple) else _dense_fields(source)
    detail = {"method": report.method}
    for key in ("steps_used", "stein_residual", "spectral_gap"):
        if getattr(report, key) is not None:
            detail[key] = getattr(report, key)
    if cross_check:
        check = lq_cost_truncated(source)
        labels["j_exact_rel_err"] = abs(check.j - report.j) / report.j
        detail["truncated_steps"] = check.steps_used
    if nodes is not None:
        labels["j_normalized"] = report.j / _growth(labels["d"], nodes)
    row = ResultRow(**{**dict.fromkeys(CSV_COLUMNS), **labels, **bounds,
                       "j": report.j, "j_weighted": report.j_weighted})
    return row, report, detail
