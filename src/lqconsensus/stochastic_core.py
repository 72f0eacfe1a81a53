"""Consensus matrices: validation, invariant measures, time reversal, classification.

A consensus matrix is row stochastic, irreducible (strongly connected directed
support) and has a strictly positive diagonal.  Its invariant measure pi is the
positive left eigenvector of eigenvalue 1, normalized to sum 1, so that
P^t -> 1 pi^T.

Irreducibility is exact reachability on the support: `reach` packs each row of
a boolean adjacency into one Python int and runs a breadth-first search from
node 0 that ORs each reached node's row once.  `strong_component` intersects
the nodes node 0 reaches along the support and along its transpose, and the
support is strongly connected iff that component holds every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEntry,
    NotIrreducible,
    NotStochastic,
    SolveFailure,
    ZeroDiagonal,
)

VALIDATION_TOL = 1e-9
CLASSIFICATION_TOL = 1e-9
INVARIANT_RESIDUAL_TOL = 1e-10
POWER_ITERATION_MAX_STEPS = 200_000
SUPPORT_THRESHOLD = 1e-14
# Rows of an adjacency that `reach` copies and packs at a time.
PACK_BAND = 256


@dataclass(frozen=True, eq=False)
class InvariantMeasure:
    """Positive left eigenvector pi of P with pi^T P = pi^T and sum(pi) = 1.

    `route` names the solver that produced pi: "lstsq", or "power_iteration"
    when least squares misses the residual gate or gives a nonpositive entry.
    """

    pi: np.ndarray
    residual: float
    route: str

    @property
    def pi_min(self) -> float:
        return float(self.pi.min())

    @property
    def pi_max(self) -> float:
        return float(self.pi.max())


@dataclass(frozen=True, eq=False)
class SupportGraphs:
    """The symmetrization of the directed support (ConsensusMatrix.support),
    and degree and entry extremes.  Degrees exclude self loops; p_min and
    p_max range over the entries on the support, diagonal included.
    """

    undirected: np.ndarray
    delta_in: int
    delta_out: int
    p_min: float
    p_max: float


@dataclass(frozen=True)
class MatrixClass:
    """Classification flags with the inclusion structure enforced."""

    reversible: bool
    normal: bool
    commuting: bool
    doubly_stochastic: bool

    def __post_init__(self):
        if self.normal and not (self.doubly_stochastic and self.commuting):
            raise ValueError("normal implies doubly stochastic and commuting")
        if self.reversible and not self.commuting:
            raise ValueError("reversible implies commuting")


@dataclass(frozen=True, eq=False)
class ConsensusMatrix:
    """Validated dense consensus matrix, without settings; derived structure is cached."""

    n: int
    entries: np.ndarray

    @cached_property
    def support(self) -> np.ndarray:
        """Directed support G(P), self loops included: entries > SUPPORT_THRESHOLD."""
        s = self.entries > SUPPORT_THRESHOLD
        s.setflags(write=False)
        return s

    @cached_property
    def invariant(self) -> InvariantMeasure:
        return _solve_invariant(self)

    @cached_property
    def reversal(self) -> np.ndarray:
        """Entries of the time reversal P* = Pi^{-1} P^T Pi, a consensus
        matrix with the same invariant measure (`validate_consensus` wraps
        it)."""
        pi = self.invariant.pi
        star = (self.entries.T * pi[None, :]) / pi[:, None]
        star.setflags(write=False)
        return star

    @cached_property
    def graphs(self) -> SupportGraphs:
        return _build_support_graphs(self)

    @cached_property
    def classification_residuals(self) -> dict:
        """Max-norm residuals of the identities that `classify` tests, by flag."""
        return _classification_residuals(self)

    @cached_property
    def support_network(self):
        """The unit-conductance network of G(P), which the topology theorem,
        the normal corollary and the resistance sandwich share, and with it
        its cached Cholesky factor."""
        from .resistance import unit_conductance
        return unit_conductance(self.graphs.undirected)


def validate_consensus(entries) -> ConsensusMatrix:
    """Check the consensus-matrix assumptions and wrap the entries.

    Raises DimensionMismatch (empty or not square), NotStochastic,
    NegativeEntry, ZeroDiagonal or NotIrreducible, naming the offending row
    or node.  Sign, diagonal and row sums are checked to VALIDATION_TOL.
    Irreducibility is checked on the support: an entry is a structural zero
    iff it is at most SUPPORT_THRESHOLD, the same rule for matrices built in
    memory and for matrices parsed from text.
    """
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise NotStochastic(f"entry ({i}, {j}) is not finite")
    if (a < -VALIDATION_TOL).any():
        i, j = np.argwhere(a < -VALIDATION_TOL)[0]
        raise NegativeEntry(f"entry ({i}, {j}) = {a[i, j]} is negative")
    diag = np.diagonal(a)
    if (diag <= VALIDATION_TOL).any():
        i = int(np.argmax(diag <= VALIDATION_TOL))
        raise ZeroDiagonal(
            f"diagonal entry at node {i} is {diag[i]}, must exceed {VALIDATION_TOL}")
    row_err = np.abs(a.sum(axis=1) - 1.0)
    if (row_err > VALIDATION_TOL).any():
        i = int(np.argmax(row_err))
        raise NotStochastic(f"row {i} sums to {a[i].sum()}, off by {row_err[i]}")
    a.setflags(write=False)
    matrix = ConsensusMatrix(n=n, entries=a)
    component = strong_component(matrix.support)
    if component != (1 << n) - 1:
        outsider = (~component & (component + 1)).bit_length() - 1
        raise NotIrreducible(
            f"support graph is not strongly connected: the strongly connected "
            f"component of node 0 has {component.bit_count()} of {n} nodes; "
            f"node {outsider} is not reachable from/to node 0")
    return matrix


def reach(adjacency) -> int:
    """Bitmask of the nodes reachable from node 0 along a boolean adjacency.

    Bit i is set iff node i is reachable (node 0 included).  Each row is packed
    into one int and a breadth-first search ORs each reached node's row once.
    """
    a = np.asarray(adjacency, dtype=bool)
    width = (a.shape[1] + 7) // 8
    bands = []
    for start in range(0, a.shape[0], PACK_BAND):
        band = a[start:start + PACK_BAND]
        if not band.flags.c_contiguous:
            # Packing a strided view is far slower than packing a contiguous
            # copy, and one copy of a whole transposed view misses the cache
            # and the TLB on nearly every entry.  A band is first copied in
            # the original's memory order, then transposed while it is small.
            band = np.ascontiguousarray(band.copy(order="K"))
        bands.append(np.packbits(band, axis=1, bitorder="little").tobytes())
    packed = b"".join(bands)
    rows = [int.from_bytes(packed[i:i + width], "little")
            for i in range(0, len(packed), width)]
    seen = frontier = 1
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~seen
        seen |= frontier
    return seen


def strong_component(support) -> int:
    """Bitmask of the strongly connected component of node 0 in `support`."""
    s = np.asarray(support, dtype=bool)
    return reach(s) & reach(s.T)


def _invariant_residual(a: np.ndarray, pi: np.ndarray) -> float:
    return float(np.abs(pi @ a - pi).max())


def _solve_invariant(P: ConsensusMatrix) -> InvariantMeasure:
    # Least squares on the stacked system [P^T - I; 1^T] pi = [0; 1]: the
    # eigenvector condition plus normalization in one deterministic solve.
    a = P.entries
    n = P.n
    lhs = np.vstack([a.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    residual = _invariant_residual(a, pi)
    route = "lstsq"
    if residual > INVARIANT_RESIDUAL_TOL or (pi <= 0).any():
        pi, residual = _power_iteration(a)
        route = "power_iteration"
    if residual > INVARIANT_RESIDUAL_TOL:
        raise SolveFailure(
            f"invariant measure residual {residual} exceeds {INVARIANT_RESIDUAL_TOL}")
    if (pi <= 0).any():
        raise SolveFailure("invariant measure has a nonpositive entry")
    pi = pi / pi.sum()
    pi.setflags(write=False)
    return InvariantMeasure(pi=pi, residual=residual, route=route)


def _power_iteration(a: np.ndarray):
    # Stop when every entry changes by at most 1e-15 of itself, so entries
    # far below the largest one converge as well.
    n = a.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(POWER_ITERATION_MAX_STEPS):
        nxt = pi @ a
        nxt /= nxt.sum()
        if (np.abs(nxt - pi) <= 1e-15 * nxt).all():
            pi = nxt
            break
        pi = nxt
    return pi, _invariant_residual(a, pi)


def multiplicative_reversiblization(P: ConsensusMatrix) -> ConsensusMatrix:
    """P* P: reversible, same invariant measure, strictly positive diagonal."""
    return validate_consensus(P.reversal @ P.entries)


def classify(P: ConsensusMatrix) -> MatrixClass:
    """Flags for reversible, normal, commuting (P*P = PP*) and doubly stochastic.

    Each flag tests the max norm of its defining residual, cached on P,
    against the fixed CLASSIFICATION_TOL.  The inclusion structure (normal
    implies doubly stochastic and commuting, reversible implies commuting) is
    enforced on the result.
    """
    r = P.classification_residuals
    reversible = r["reversible"] <= CLASSIFICATION_TOL
    normal = r["normal"] <= CLASSIFICATION_TOL
    commuting = r["commuting"] <= CLASSIFICATION_TOL or reversible or normal
    doubly = r["doubly_stochastic"] <= CLASSIFICATION_TOL or normal
    return MatrixClass(reversible=reversible, normal=normal,
                       commuting=commuting, doubly_stochastic=doubly)


def _classification_residuals(P: ConsensusMatrix) -> dict:
    """|Pi P - P^T Pi|, |P^T P - P P^T|, |P* P - P P*| and |1^T P - 1^T|."""
    a = P.entries
    pi = P.invariant.pi
    pip = pi[:, None] * a
    return {
        "reversible": float(np.abs(pip - pip.T).max()),
        "normal": float(np.abs(a.T @ a - a @ a.T).max()),
        "commuting": float(np.abs(P.reversal @ a - a @ P.reversal).max()),
        "doubly_stochastic": float(np.abs(a.sum(axis=0) - 1.0).max()),
    }


def _build_support_graphs(P: ConsensusMatrix) -> SupportGraphs:
    directed = P.support
    undirected = directed | directed.T
    undirected.setflags(write=False)
    off = directed & ~np.eye(P.n, dtype=bool)
    nonzero = P.entries[directed]
    return SupportGraphs(
        undirected=undirected,
        delta_in=int(off.sum(axis=0).max()),
        delta_out=int(off.sum(axis=1).max()),
        p_min=float(nonzero.min()),
        p_max=float(nonzero.max()),
    )


def save_matrix_csv(matrix, path) -> None:
    """Write a matrix (ConsensusMatrix or array) as plain CSV, one row per line."""
    a = matrix.entries if isinstance(matrix, ConsensusMatrix) else np.asarray(matrix)
    np.savetxt(path, a, delimiter=",", fmt="%.17g")


def load_matrix_csv(path) -> ConsensusMatrix:
    """Parse a CSV matrix and validate it as a consensus matrix.

    The rules are those of `validate_consensus`, so a matrix gets the same
    verdict whether it is built in memory or read back from its file.
    """
    a = np.loadtxt(path, delimiter=",", ndmin=2)
    return validate_consensus(a)
