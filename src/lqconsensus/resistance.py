"""Resistor networks: Laplacians, effective resistance, and the Phi/Psi maps.

A conductance matrix is symmetric, nonnegative and irreducible; its Laplacian
is L(C) = diag(C 1) - C, so diagonal entries of C never matter.  The effective
resistance between nodes a and b is (e_a - e_b)^T L(C)^+ (e_a - e_b).  Each
network caches one certified factor: the inverse U^{-1} of the Cholesky
factor of M = U^T U = L(C) + 11^T/n, whose inverse H = U^{-1} U^{-T} is
L(C)^+ + 11^T/n on a connected network: the added term cancels in every
resistance and adds 1 to the trace.  The average R_bar = tr(L(C)^+)/n reads
||U^{-1}||_F^2 and all-pairs R reads H, so a network is factored once
however many of the two are asked for.  One null-space rule decides
connectivity: Laplacian eigenvalues at most CONNECTIVITY_RTOL times the
largest diagonal entry are null.  The factor certifies the spectral gap
above that threshold at no extra cost (`ConductanceMatrix._cholesky_inverse`);
only when it cannot does `_nonzero_spectrum` read the eigenvalues, as it
reads the torus symbols.

Connectivity of a network is exact reachability from node 0 on the support
C > 0 (`stochastic_core.reach`); self loops cannot change it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    Disconnected,
    NegativeEntry,
    NotReversible,
    NotSymmetric,
    SolveFailure,
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
    """Validated conductance matrix; its certified Cholesky inverse is cached."""

    n: int
    entries: np.ndarray

    @cached_property
    def _cholesky_inverse(self) -> tuple[np.ndarray, float]:
        """(U^{-1}, tr H) for the Cholesky factor M = U^T U of M = L(C) +
        11^T/n, where H = M^{-1} = L(C)^+ + 11^T/n and tr H = ||U^{-1}||_F^2.

        The null-space rule refuses iff lambda_2 <= tau = CONNECTIVITY_RTOL *
        max diag L.  Since lambda_min(M) = min(lambda_2, 1) and ||H||_2 <=
        tr H, tr H * tau < 1 certifies lambda_2 > tau.  Only when that
        certificate or the factorization fails do the eigenvalues decide,
        through `_nonzero_spectrum`; a failed factorization of a network they
        accept raises SolveFailure.  A refusal is not cached.
        """
        from scipy.linalg import lapack

        L = laplacian(self)
        scale = float(np.diagonal(L).max())
        u, info = lapack.dpotrf(L + 1.0 / self.n)
        trace = np.inf
        if info == 0:
            u, info = lapack.dtrtri(u, overwrite_c=1)
            trace = float(np.vdot(u, u))
        if info != 0 or not trace * CONNECTIVITY_RTOL * scale < 1.0:
            _nonzero_spectrum(np.linalg.eigvalsh(L), scale)
            if info != 0:
                raise SolveFailure(
                    f"Cholesky inverse of L + 11^T/n failed (LAPACK info {info}) "
                    f"on a network whose spectrum passes the null-space rule")
        u.setflags(write=False)
        return u, trace


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
    It reads the torus symbols, and decides a dense network whose Cholesky
    factor cannot certify the gap (`ConductanceMatrix._cholesky_inverse`).
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
    """All-pairs effective resistance of the network, R_uv = H_uu + H_vv -
    2 H_uv with H = U^{-1} U^{-T} = L(C)^+ + 11^T/n, formed by LAPACK
    `dlauum` from the network's cached factor (`_cholesky_inverse`, which
    applies the null-space rule): the product `dpotri` forms.  The resistance
    sandwich and the validate battery's Green-identity suite need all pairs;
    the bounds read R_bar from `average_resistance`.
    """
    from scipy.linalg import lapack

    h, _ = lapack.dlauum(C._cholesky_inverse[0])
    d = np.diagonal(h)
    r = np.triu(d[:, None] + d[None, :] - 2.0 * h, 1)
    r = r + r.T
    r[r < 0.0] = 0.0
    r.setflags(write=False)
    return ResistanceMatrix(values=r)


def average_resistance(C: ConductanceMatrix) -> float:
    """R_bar = (1/2n^2) sum_{u,v} R_uv = tr(L(C)^+)/n = (||U^{-1}||_F^2 - 1)/n,
    from the network's cached factor (`_cholesky_inverse`, which applies the
    null-space rule), with no n x n resistance matrix built.
    """
    return (C._cholesky_inverse[1] - 1.0) / C.n


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
