"""Resistor networks: Laplacians, effective resistance, and the Phi/Psi maps.

A conductance matrix is symmetric, nonnegative and irreducible; its Laplacian
is L(C) = diag(C 1) - C, so diagonal entries of C never matter.  The effective
resistance between nodes a and b is (e_a - e_b)^T L(C)^+ (e_a - e_b).  Each
network caches one certified factor: the inverse K^{-1} of the lower Cholesky
factor of M = K K^T = L(C) + 11^T/n, whose inverse H = K^{-T} K^{-1} is
L(C)^+ + 11^T/n on a connected network: the added term cancels in every
resistance and adds 1 to the trace.  The average R_bar = tr(L(C)^+)/n reads
||K^{-1}||_F^2 and all-pairs R reads H, so a network is factored once
however many of the two are asked for.  The factor and its inverse take
numpy alone: `np.linalg.cholesky`, then `_lower_inverse`, which splits the
triangle into halves and joins them by GEMMs.  One null-space rule decides
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
    classify,
    reach,
    validate_consensus,
)

SYMMETRY_TOL = 1e-12
# Laplacian eigenvalues at most this fraction of the largest diagonal entry
# count as the null space, so a second one means a disconnected network.
CONNECTIVITY_RTOL = 1e-10
# Triangles of at most this many rows are inverted whole (`_lower_inverse`).
INVERSE_LEAF = 48


@dataclass(frozen=True, eq=False)
class ConductanceMatrix:
    """Validated conductance matrix; its certified Cholesky inverse is cached."""

    n: int
    entries: np.ndarray

    @cached_property
    def _cholesky_inverse(self) -> tuple[np.ndarray, float]:
        """(K^{-1}, tr H) for the lower Cholesky factor K of M = K K^T =
        L(C) + 11^T/n, where H = M^{-1} = L(C)^+ + 11^T/n and tr H =
        ||K^{-1}||_F^2.

        The null-space rule refuses iff lambda_2 <= tau = CONNECTIVITY_RTOL *
        max diag L.  Since lambda_min(M) = min(lambda_2, 1) and ||H||_2 <=
        tr H, tr H * tau < 1 certifies lambda_2 > tau.  Only when that
        certificate or the factorization fails do the eigenvalues decide,
        through `_nonzero_spectrum`; a failed factorization (numpy's
        LinAlgError) on a network they accept raises SolveFailure.  A
        refusal is not cached.
        """
        L = laplacian(self)
        scale = float(np.diagonal(L).max())
        try:
            inverse = _lower_inverse(np.linalg.cholesky(L + 1.0 / self.n))
        except np.linalg.LinAlgError as error:
            _nonzero_spectrum(np.linalg.eigvalsh(L), scale)
            raise SolveFailure(
                f"Cholesky inverse of L + 11^T/n failed ({error}) on a network "
                f"whose spectrum passes the null-space rule") from error
        trace = float(np.vdot(inverse, inverse))
        if not trace * CONNECTIVITY_RTOL * scale < 1.0:
            _nonzero_spectrum(np.linalg.eigvalsh(L), scale)
        inverse.setflags(write=False)
        return inverse, trace


def _lower_inverse(k: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular `k`: [[A, 0], [B, D]]^{-1} =
    [[A^{-1}, 0], [-D^{-1} B A^{-1}, D^{-1}]], so the halves recurse and the
    corner takes two GEMMs.  A triangle of at most INVERSE_LEAF rows is
    inverted by np.linalg.inv through its transpose: LU of an
    upper-triangular matrix swaps no rows, so the zeros above the diagonal
    stay exact.  That inverse solves against the identity in about 8n^3/3
    flops, eight times a triangular inverse's n^3/3, so it is kept to the
    leaves.
    """
    n = k.shape[0]
    if n <= INVERSE_LEAF:
        return np.linalg.inv(k.T).T
    m = n // 2
    out = np.zeros_like(k)
    out[:m, :m] = _lower_inverse(k[:m, :m])
    out[m:, m:] = _lower_inverse(k[m:, m:])
    out[m:, :m] = -(out[m:, m:] @ k[m:, :m]) @ out[:m, :m]
    return out


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


def effective_resistance(C: ConductanceMatrix) -> np.ndarray:
    """All-pairs effective resistance of the network as a read-only array,
    symmetric with zero diagonal: R_uv = H_uu + H_vv - 2 H_uv with H =
    K^{-T} K^{-1} = L(C)^+ + 11^T/n, one product of the network's cached
    factor (`_cholesky_inverse`, which applies the null-space rule) with its
    own transpose, which numpy hands to BLAS syrk.  The resistance sandwich
    and the validate battery's Green-identity suite need all pairs; the
    bounds read R_bar from `average_resistance`.
    """
    inverse = C._cholesky_inverse[0]
    h = inverse.T @ inverse
    d = np.diagonal(h)
    r = np.triu(d[:, None] + d[None, :] - 2.0 * h, 1)
    r = r + r.T
    r[r < 0.0] = 0.0
    r.setflags(write=False)
    return r


def average_resistance(C: ConductanceMatrix) -> float:
    """R_bar = (1/2n^2) sum_{u,v} R_uv = tr(L(C)^+)/n = (||K^{-1}||_F^2 - 1)/n,
    from the network's cached factor (`_cholesky_inverse`, which applies the
    null-space rule), with no n x n resistance matrix built.
    """
    return (C._cholesky_inverse[1] - 1.0) / C.n


def weighted_average_resistance(R: np.ndarray, pi) -> float:
    """R_bar_w = (1/2) * sum_{u,v} R_uv pi_u pi_v, for all-pairs resistances
    R and a measure pi, both arrays."""
    p = np.asarray(pi, dtype=float)
    if p.shape[0] != R.shape[0]:
        raise DimensionMismatch(
            f"pi has length {p.shape[0]}, resistance matrix is {R.shape[0]} nodes")
    return float(0.5 * p @ R @ p)


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
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
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
