"""Resistor networks: Laplacians, effective resistance, and the Phi/Psi maps.

A conductance matrix is symmetric, nonnegative and irreducible; its Laplacian
is L(C) = diag(C 1) - C, so diagonal entries of C never matter.  The effective
resistance between nodes a and b is (e_a - e_b)^T L(C)^+ (e_a - e_b), with the
pseudoinverse L(C)^+ taken from one symmetric eigendecomposition; the average
R_bar = tr(L(C)^+)/n needs only the eigenvalues.  One null-space rule,
`_nonzero_spectrum`, reads every Laplacian spectrum, the torus symbols too.

Connectivity of a network is exact reachability from node 0 on the support
C > 0 (`stochastic_core.reach`); self loops cannot change it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    Disconnected,
    NegativeEntry,
    NotReversible,
    NotSymmetric,
    ZeroDiagonal,
)
from .stochastic_core import (
    CLASSIFICATION_TOL,
    ConsensusMatrix,
    InvariantMeasure,
    classify,
    reach,
    validate_consensus,
)

SYMMETRY_TOL = 1e-12
# Laplacian eigenvalues at most this fraction of the largest diagonal entry
# count as the null space, so a second one means a disconnected network.
CONNECTIVITY_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class ConductanceMatrix:
    n: int
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class ResistanceMatrix:
    """All-pairs effective resistances; symmetric with zero diagonal."""

    values: np.ndarray


def conductance_matrix(entries) -> ConductanceMatrix:
    """Validate and wrap a conductance matrix.

    Symmetry and sign are required within the fixed SYMMETRY_TOL, and
    symmetry is then enforced exactly; the support (ignoring the diagonal)
    must be connected.
    """
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotSymmetric("matrix has non-finite entries")
    asym = float(np.abs(a - a.T).max())
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"asymmetry {asym} exceeds tolerance {SYMMETRY_TOL}")
    if (a < -SYMMETRY_TOL).any():
        i, j = np.argwhere(a < -SYMMETRY_TOL)[0]
        raise NegativeEntry(f"conductance ({i}, {j}) = {a[i, j]} is negative")
    a = (a + a.T) / 2.0
    a[a < 0.0] = 0.0
    n = a.shape[0]
    reached = reach(a > 0.0)
    if reached != (1 << n) - 1:
        first = (~reached & (reached + 1)).bit_length() - 1
        raise Disconnected(
            f"conductance support is disconnected: node 0 reaches "
            f"{reached.bit_count()} of {n} nodes; node {first} is not reached")
    a.setflags(write=False)
    return ConductanceMatrix(n=n, entries=a)


def unit_conductance(adjacency) -> ConductanceMatrix:
    """Unit conductances on an undirected adjacency; self loops are dropped."""
    a = np.asarray(adjacency)
    sym = (a | a.T) if a.dtype == bool else ((a != 0) | (a.T != 0))
    c = sym.astype(float)
    np.fill_diagonal(c, 0.0)
    return conductance_matrix(c)


def laplacian(C: ConductanceMatrix) -> np.ndarray:
    """L(C) = diag(C 1) - C."""
    return np.diag(C.entries.sum(axis=1)) - C.entries


def _nonzero_spectrum(w: np.ndarray, scale: float) -> np.ndarray:
    """The nonzero part of a Laplacian spectrum `w`, in its given order.

    Eigenvalues at most CONNECTIVITY_RTOL times `scale`, the Laplacian's
    largest diagonal entry, are null; a null space of dimension above one
    raises Disconnected naming the spectral gap (second smallest eigenvalue).
    """
    threshold = CONNECTIVITY_RTOL * scale
    null = w <= threshold
    if null.sum() > 1:
        raise Disconnected(
            f"Laplacian null space has dimension {null.sum()}: spectral gap "
            f"{np.partition(w, 1)[1]:.2e} is below the null-space threshold "
            f"{threshold:.2e}")
    return w[~null]


def effective_resistance(C: ConductanceMatrix) -> ResistanceMatrix:
    """All-pairs effective resistance of the network, from the Laplacian
    pseudoinverse: it inverts the eigenvalues that `_nonzero_spectrum` keeps.
    Only the resistance sandwich needs all pairs; the bounds read R_bar from
    `average_resistance`.
    """
    L = laplacian(C)
    w, v = np.linalg.eigh(L)
    nonzero = _nonzero_spectrum(w, float(np.diagonal(L).max()))
    # w ascends, so the null space is its leading block.
    inv_w = np.zeros_like(w)
    inv_w[len(w) - len(nonzero):] = 1.0 / nonzero
    h = (v * inv_w[None, :]) @ v.T
    d = np.diagonal(h)
    r = d[:, None] + d[None, :] - 2.0 * h
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 0.0)
    r[r < 0.0] = 0.0
    r.setflags(write=False)
    return ResistanceMatrix(values=r)


def average_resistance(C: ConductanceMatrix) -> float:
    """R_bar = (1/2n^2) sum_{u,v} R_uv = tr(L(C)^+)/n: (1/n) sum 1/lambda
    over the Laplacian eigenvalues that `_nonzero_spectrum` keeps, with no
    n x n resistance matrix built.
    """
    L = laplacian(C)
    w = _nonzero_spectrum(np.linalg.eigvalsh(L), float(np.diagonal(L).max()))
    return float(np.sum(1.0 / w) / C.n)


def weighted_average_resistance(R: ResistanceMatrix, pi) -> float:
    """R_bar_w = (1/2) * sum_{u,v} R_uv pi_u pi_v."""
    p = pi.pi if isinstance(pi, InvariantMeasure) else np.asarray(pi, dtype=float)
    if p.shape[0] != R.values.shape[0]:
        raise DimensionMismatch(
            f"pi has length {p.shape[0]}, resistance matrix is {R.values.shape[0]} nodes")
    return float(0.5 * p @ R.values @ p)


def phi_map(P: ConsensusMatrix, alpha: float | None = None) -> ConductanceMatrix:
    """Phi_alpha(P) = alpha * Pi P, defined for reversible P only.

    Reversibility is `classify(P).reversible`; otherwise NotReversible names
    the asymmetry |Pi P - P^T Pi|.  With alpha = n (the default) this is the
    canonical network whose random walk is P.  The sum of all entries of the
    result equals alpha.
    """
    if not classify(P).reversible:
        raise NotReversible(f"Pi P has asymmetry {P.classification_residuals['reversible']}, "
                            f"exceeds tolerance {CLASSIFICATION_TOL}")
    if alpha is None:
        alpha = float(P.n)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    pip = P.invariant.pi[:, None] * P.entries
    c = alpha * (pip + pip.T) / 2.0
    return conductance_matrix(c)


def psi_map(C: ConductanceMatrix) -> ConsensusMatrix:
    """Psi(C) = diag(C 1)^{-1} C, the reversible consensus matrix of the network.

    Requires a strictly positive diagonal so the result satisfies the standing
    positive-diagonal assumption; the invariant measure of the result is
    proportional to the row sums of C.
    """
    d = np.diagonal(C.entries)
    if (d <= 0.0).any():
        i = int(np.argmax(d <= 0.0))
        raise ZeroDiagonal(f"conductance diagonal at node {i} is {d[i]}")
    rows = C.entries.sum(axis=1)
    return validate_consensus(C.entries / rows[:, None])
