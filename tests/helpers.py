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


def rho_n_floyd_warshall(graph, coordinates):
    """min over node pairs of d_E(u,v) / d_G(u,v), with the hop distances
    d_G from Floyd-Warshall: an oracle for rho_check's Dijkstra route."""
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
