"""Resistor networks: Laplacians, effective resistance, and the Phi/Psi maps.

A conductance matrix is symmetric, nonnegative and irreducible; its Laplacian
is L(C) = diag(C 1) - C, so diagonal entries of C never matter.  The effective
resistance between nodes a and b is (e_a - e_b)^T L(C)^+ (e_a - e_b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph, csr_matrix

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
    validate_consensus,
)

SYMMETRY_TOL = 1e-12
# Laplacian eigenvalues below this fraction of the largest diagonal entry
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
    method: str

    def pair(self, u: int, v: int) -> float:
        return float(self.values[u, v])


def conductance_matrix(entries, tol: float = SYMMETRY_TOL) -> ConductanceMatrix:
    """Validate and wrap a conductance matrix.

    Symmetry is required within `tol` and then enforced exactly; the support
    (ignoring the diagonal) must be connected.
    """
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotSymmetric("matrix has non-finite entries")
    asym = float(np.abs(a - a.T).max())
    if asym > tol:
        raise NotSymmetric(f"asymmetry {asym} exceeds tolerance {tol}")
    if (a < -tol).any():
        i, j = np.argwhere(a < -tol)[0]
        raise NegativeEntry(f"conductance ({i}, {j}) = {a[i, j]} is negative")
    a = (a + a.T) / 2.0
    a[a < 0.0] = 0.0
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    ncomp, _ = csgraph.connected_components(csr_matrix(off > 0.0), directed=False)
    if ncomp > 1:
        raise Disconnected(f"conductance support has {ncomp} components")
    a.setflags(write=False)
    return ConductanceMatrix(n=a.shape[0], entries=a)


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


def _null_space_threshold(L: np.ndarray) -> float:
    return CONNECTIVITY_RTOL * float(np.diagonal(L).max() if L.shape[0] else 1.0)


def _check_connected(eigvals: np.ndarray, L: np.ndarray) -> None:
    threshold = _null_space_threshold(L)
    null_dim = int((eigvals < threshold).sum())
    if null_dim > 1:
        raise Disconnected(
            f"Laplacian null space has dimension {null_dim}: spectral gap "
            f"{eigvals[1]:.2e} is below the null-space threshold {threshold:.2e}")


def effective_resistance(C: ConductanceMatrix, method: str = "pseudoinverse") -> ResistanceMatrix:
    """All-pairs effective resistance of the network.

    `method` selects the computation route: "pseudoinverse" (symmetric
    eigendecomposition of the Laplacian) or "grounded" (ground node 0 and
    solve the reduced system), kept as an independent cross-check.
    """
    L = laplacian(C)
    n = C.n
    if method == "pseudoinverse":
        w, v = np.linalg.eigh(L)
        _check_connected(w, L)
        inv_w = np.where(w < _null_space_threshold(L), 0.0, 1.0 / np.where(w == 0, 1.0, w))
        h = (v * inv_w[None, :]) @ v.T
    elif method == "grounded":
        w = np.linalg.eigvalsh(L)
        _check_connected(w, L)
        h = np.zeros((n, n))
        h[1:, 1:] = np.linalg.solve(L[1:, 1:], np.eye(n - 1))
    else:
        raise ValueError(f"unknown method {method!r}")
    d = np.diagonal(h)
    r = d[:, None] + d[None, :] - 2.0 * h
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 0.0)
    r[r < 0.0] = 0.0
    r.setflags(write=False)
    return ResistanceMatrix(values=r, method=method)


def average_resistance(R: ResistanceMatrix) -> float:
    """R_bar = (1 / 2n^2) * sum over all ordered pairs of R_uv."""
    n = R.values.shape[0]
    return float(R.values.sum() / (2.0 * n * n))


def weighted_average_resistance(R: ResistanceMatrix, pi) -> float:
    """R_bar_w = (1/2) * sum_{u,v} R_uv pi_u pi_v."""
    p = pi.pi if isinstance(pi, InvariantMeasure) else np.asarray(pi, dtype=float)
    if p.shape[0] != R.values.shape[0]:
        raise DimensionMismatch(
            f"pi has length {p.shape[0]}, resistance matrix is {R.values.shape[0]} nodes")
    return float(0.5 * p @ R.values @ p)


def phi_map(P: ConsensusMatrix, alpha: float | None = None,
            tol: float = CLASSIFICATION_TOL) -> ConductanceMatrix:
    """Phi_alpha(P) = alpha * Pi P, defined for reversible P only.

    With alpha = n (the default) this is the canonical network whose
    random walk is P.  The sum of all entries of the result equals alpha.
    """
    pi = P.invariant.pi
    pip = pi[:, None] * P.entries
    asym = float(np.abs(pip - pip.T).max())
    if asym > tol:
        raise NotReversible(f"Pi P has asymmetry {asym}, exceeds tolerance {tol}")
    if alpha is None:
        alpha = float(P.n)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
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


def save_conductance_csv(C: ConductanceMatrix, path) -> None:
    np.savetxt(path, C.entries, delimiter=",", fmt="%.17g")


def load_conductance_csv(path, tol: float = 1e-9) -> ConductanceMatrix:
    """Parse a CSV conductance matrix; the looser default tolerance absorbs
    decimal round-trip asymmetry in hand-written files."""
    a = np.loadtxt(path, delimiter=",", ndmin=2)
    return conductance_matrix(a, tol=tol)


def save_resistance_csv(R: ResistanceMatrix, path) -> None:
    np.savetxt(path, R.values, delimiter=",", fmt="%.17g")
