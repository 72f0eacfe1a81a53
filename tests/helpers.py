"""Seeded matrix generators shared by the test modules.

These are written against the public API only (validate_consensus and the
generator helpers), independently of any private construction code in the
package, so they double as a cross-check of the validation path.
"""
import numpy as np
from scipy.sparse import csgraph, csr_matrix
from scipy.spatial.distance import cdist

from lqconsensus import (
    Disconnected,
    NotIrreducible,
    conductance_matrix,
    laplacian,
    validate_consensus,
)
from lqconsensus import graph_gen, lqcost


def uniform(n):
    """The validated n x n matrix with every entry 1/n."""
    return validate_consensus(np.full((n, n), 1.0 / n))


def random_consensus(rng, n, density=0.6):
    """Random irreducible row-stochastic matrix with positive diagonal."""
    while True:
        support = rng.random((n, n)) < density
        np.fill_diagonal(support, True)
        a = np.where(support, 0.05 + rng.random((n, n)), 0.0)
        a /= a.sum(axis=1, keepdims=True)
        try:
            return validate_consensus(a)
        except NotIrreducible:
            continue


def random_reversible(rng, n, density=0.6):
    """Row normalization of a random symmetric conductance matrix.

    Detailed balance holds with pi proportional to the row sums, so the
    result is reversible by construction.
    """
    while True:
        c = np.where(rng.random((n, n)) < density, 0.05 + rng.random((n, n)), 0.0)
        c = np.triu(c, 1)
        c = c + c.T
        np.fill_diagonal(c, 0.05 + rng.random(n))
        try:
            return validate_consensus(c / c.sum(axis=1, keepdims=True))
        except NotIrreducible:
            continue


def random_circulant(rng, n):
    """Random circulant consensus matrix (normal, hence commuting)."""
    row = rng.random(n) + 0.05
    row /= row.sum()
    a = np.empty((n, n))
    for u in range(n):
        a[u] = np.roll(row, u)
    return validate_consensus(a)


def sparse_consensus(rng, n, density):
    """Random sparse, usually non-normal consensus matrix: a directed cycle
    plus self-loops keeps it irreducible and aperiodic, and extra arcs drawn
    with probability `density` break its symmetry."""
    support = rng.random((n, n)) < density
    support[np.arange(n), (np.arange(n) + 1) % n] = True
    np.fill_diagonal(support, True)
    a = np.where(support, 0.05 + rng.random((n, n)), 0.0)
    return validate_consensus(a / a.sum(axis=1, keepdims=True))


def sparse_circulant(rng, n, density):
    """Random circulant consensus matrix whose generator always holds offsets
    0 and 1 (irreducible, aperiodic) and each other offset with probability
    `density`."""
    row = np.where(rng.random(n) < density, 0.05 + rng.random(n), 0.0)
    row[:2] = 0.05 + rng.random(2)
    row /= row.sum()
    return validate_consensus(np.array([np.roll(row, u) for u in range(n)]))


def random_symmetric_support(rng, n, density=0.5):
    """Symmetric support but independent entry values in each direction."""
    while True:
        mask = rng.random((n, n)) < density
        mask = mask & mask.T
        mask |= np.triu(rng.random((n, n)) < 0.2, 1)
        mask |= mask.T
        np.fill_diagonal(mask, True)
        a = np.where(mask, 0.05 + rng.random((n, n)), 0.0)
        a /= a.sum(axis=1, keepdims=True)
        try:
            return validate_consensus(a)
        except NotIrreducible:
            continue


def random_conductance(rng, n, density=0.7):
    """Random connected conductance matrix with strictly positive diagonal."""
    while True:
        mask = np.triu(rng.random((n, n)) < density, 1)
        c = np.where(mask, 0.1 + rng.random((n, n)), 0.0)
        c = c + c.T
        np.fill_diagonal(c, 0.1 + rng.random(n))
        try:
            return conductance_matrix(c)
        except Disconnected:
            continue


def two_clique_entries(n, coupling):
    """Entries of two uniform cliques of n/2 nodes joined by one edge of
    weight `coupling`, not validated."""
    h = n // 2
    a = np.zeros((n, n))
    a[:h, :h] = a[h:, h:] = 1.0 / h
    a[0, h] = a[h, 0] = coupling
    a[0, 0] -= coupling
    a[h, h] -= coupling
    return a


def two_cliques(n, coupling):
    """The validated two-clique matrix of `two_clique_entries`."""
    return validate_consensus(two_clique_entries(n, coupling))


def truncated_series_dense(P):
    """(J, J_w, terms) of the truncated series by dense powers: term t is
    formed as P^t - 1 pi^T from P^t = P^{t-1} @ P, under lq_cost_truncated's
    stopping rule.  A reference for its sparse recurrence."""
    pi = P.invariant.pi
    n = P.n
    target = np.outer(np.ones(n), pi)
    power = np.eye(n)
    j = jw = 0.0
    consecutive = steps = 0
    for _ in range(lqcost.TRUNCATED_MAX_TERMS + 1):
        b = power - target
        term = float((b * b).sum()) / n
        jw += float((pi[:, None] * b * b).sum())
        j += term
        steps += 1
        if term < lqcost.TRUNCATED_DELTA:
            consecutive += 1
            if consecutive >= lqcost.TRUNCATED_WINDOW:
                break
        else:
            consecutive = 0
        power = power @ P.entries
    return j, jw, steps


def rho_n_floyd_warshall(graph, coordinates):
    """min over node pairs of d_E(u,v) / d_G(u,v), with the hop distances
    d_G from Floyd-Warshall: an oracle for rho_check's bit-parallel
    breadth-first search."""
    dg = csgraph.floyd_warshall(csr_matrix(np.asarray(graph, dtype=float)),
                                directed=False, unweighted=True)
    de = cdist(coordinates, coordinates)
    iu = np.triu_indices(len(coordinates), 1)
    return float((de[iu] / dg[iu]).min())


def grounded_resistance(C):
    """All-pairs effective resistance by grounding node 0 and solving the
    reduced Laplacian system: an oracle for effective_resistance's
    pseudoinverse route.  Assumes C is connected."""
    L = laplacian(C)
    n = C.n
    h = np.zeros((n, n))
    h[1:, 1:] = np.linalg.solve(L[1:, 1:], np.eye(n - 1))
    d = np.diagonal(h)
    return d[:, None] + d[None, :] - 2.0 * h


def spectral_resistance(C):
    """All-pairs effective resistance from the pseudoinverse of one symmetric
    eigendecomposition of L(C), dropping its smallest eigenvalue: an oracle
    for effective_resistance's Cholesky route.  Assumes C is connected."""
    w, v = np.linalg.eigh(laplacian(C))
    inv_w = np.zeros_like(w)
    inv_w[1:] = 1.0 / w[1:]
    h = (v * inv_w[None, :]) @ v.T
    d = np.diagonal(h)
    r = d[:, None] + d[None, :] - 2.0 * h
    np.fill_diagonal(r, 0.0)
    return r


def spectral_rbar(C):
    """R_bar = tr(L(C)^+)/n as the sum of 1/lambda over the eigenvalues of
    L(C) less the smallest: an oracle for average_resistance's Cholesky
    route.  Assumes C is connected."""
    w = np.linalg.eigvalsh(laplacian(C))
    return float(np.sum(1.0 / w[1:]) / C.n)


def stein_by_doubling(abar, max_doublings=100):
    """(Y, doublings) of Y = Abar Y Abar^T + I by plain doubling: every
    update A Y A^T takes two products, and the loop stops only once an
    added update is below 1e-16 entrywise.  A reference for
    `lqcost._solve_dual_stein`'s cheaper first update and earlier stop."""
    y = np.eye(abar.shape[0])
    a = abar.copy()
    for doublings in range(1, max_doublings + 1):
        update = a @ y @ a.T
        step = float(np.abs(update).max())
        y += update
        if step < 1e-16:
            return y, doublings
        a = a @ a
    raise AssertionError(f"no convergence in {max_doublings} doublings")


def gamma_check_full_grid(coordinates, l, gamma):
    """The coverage certificate by one query of the whole grid of
    (GAMMA_GRID_DIVISIONS + 1)^d points: a reference for `gamma_check`,
    which queries no point and reads the grid as lines."""
    from scipy.spatial import cKDTree

    divisions = graph_gen.GAMMA_GRID_DIVISIONS
    coords = np.asarray(coordinates, dtype=float)
    d = coords.shape[1]
    step = l / divisions
    margin = gamma - step * np.sqrt(d) / 2.0
    if margin < 0:
        return False
    axes = [np.arange(divisions + 1) * step for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    dist, _ = cKDTree(coords).query(grid)
    return bool(dist.max() <= margin)
