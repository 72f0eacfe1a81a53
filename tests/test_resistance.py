import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix

import lqconsensus
from lqconsensus import (
    Disconnected,
    DimensionMismatch,
    GeometricParams,
    NegativeEntry,
    NotReversible,
    NotSymmetric,
    SolveFailure,
    ZeroDiagonal,
    average_resistance,
    cayley_case1_generator,
    cayley_matrix,
    conductance_matrix,
    effective_resistance,
    laplacian,
    p_epsilon,
    phi_map,
    psi_map,
    resistance_sandwich_check,
    reversiblization_conductance,
    sample_geometric,
    unit_conductance,
    validate_consensus,
    weighted_average_resistance,
)
from lqconsensus.resistance import INVERSE_LEAF, _lower_inverse, _nonzero_spectrum
from helpers import (
    grounded_resistance,
    random_reversible,
    spectral_rbar,
    spectral_resistance,
    two_clique_entries,
)


def ring_adjacency(n):
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        adj[u, (u + 1) % n] = True
        adj[(u + 1) % n, u] = True
    return adj


def complete_conductance(n, value=1.0):
    c = np.full((n, n), value)
    np.fill_diagonal(c, 0.0)
    return conductance_matrix(c)


def random_conductance(rng, n, density=0.7, with_diagonal=False):
    while True:
        c = np.where(rng.random((n, n)) < density, rng.random((n, n)) + 0.1, 0.0)
        c = np.triu(c, 1)
        c = c + c.T
        if with_diagonal:
            c += np.diag(rng.random(n) + 0.1)
        try:
            return conductance_matrix(c)
        except Disconnected:
            continue


class TestConductanceMatrix:
    def test_symmetrized_exactly(self, rng):
        c = random_conductance(rng, 6)
        np.testing.assert_array_equal(c.entries, c.entries.T)
        assert not c.entries.flags.writeable

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            conductance_matrix([[0.0, 1.0], [2.0, 0.0]])

    @pytest.mark.parametrize("asymmetry, accepted", [
        (1e-13, True), (1e-11, False), (1e-10, False)])
    def test_symmetry_tolerance(self, asymmetry, accepted):
        # SYMMETRY_TOL is 1e-12; an accepted matrix is symmetrized exactly.
        a = np.ones((4, 4)) - np.eye(4)
        a[0, 1] += asymmetry
        if accepted:
            c = conductance_matrix(a)
            np.testing.assert_array_equal(c.entries, (a + a.T) / 2.0)
            return
        with pytest.raises(NotSymmetric):
            conductance_matrix(a)

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntry):
            conductance_matrix([[0.0, -1.0], [-1.0, 0.0]])

    def test_non_finite_rejected(self):
        # NaN compares false with everything, so it is refused before the
        # symmetry and sign tests could let it through.
        with pytest.raises(NotSymmetric, match="non-finite"):
            conductance_matrix([[0.0, np.nan], [np.nan, 0.0]])

    def test_disconnected_rejected(self):
        c = np.zeros((4, 4))
        c[0, 1] = c[1, 0] = 1.0
        c[2, 3] = c[3, 2] = 1.0
        with pytest.raises(Disconnected):
            conductance_matrix(c)

    @pytest.mark.parametrize("seed", range(20))
    def test_disconnected_message_names_first_unreached_node(self, seed):
        # Node 0 reaches exactly its scipy component; the first node outside
        # it is the one named.  Self loops connect nothing.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        edges = np.triu(rng.random((n, n)) < rng.uniform(1.0, 6.0) / n, 1)
        c = (edges | edges.T) * (0.1 + rng.random((n, n)))
        c = (c + c.T) / 2.0
        np.fill_diagonal(c, 1.0)
        ncomp, labels = csgraph.connected_components(csr_matrix(edges), directed=False)
        if ncomp == 1:
            assert conductance_matrix(c).n == n
            return
        size = int((labels == labels[0]).sum())
        first = int(np.argmax(labels != labels[0]))
        with pytest.raises(Disconnected) as info:
            conductance_matrix(c)
        assert str(info.value) == (
            f"conductance support is disconnected: node 0 reaches {size} of "
            f"{n} nodes; node {first} is not reached")

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            conductance_matrix(np.zeros((0, 0)))

    def test_diagonal_values_allowed(self):
        c = conductance_matrix([[0.5, 1.0], [1.0, 0.5]])
        assert c.entries[0, 0] == 0.5

    def test_unit_conductance_drops_self_loops(self):
        adj = np.eye(3, dtype=bool) | ring_adjacency(3)
        c = unit_conductance(adj)
        assert c.entries.diagonal().max() == 0.0
        assert set(np.unique(c.entries)) == {0.0, 1.0}


class TestLaplacian:
    def test_two_node_form(self):
        L = laplacian(conductance_matrix([[0.0, 2.5], [2.5, 0.0]]))
        np.testing.assert_allclose(L, [[2.5, -2.5], [-2.5, 2.5]])

    def test_complete_graph_form(self):
        L = laplacian(complete_conductance(3))
        np.testing.assert_allclose(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_self_loops_do_not_change_laplacian(self, rng):
        base = random_conductance(rng, 5)
        shifted = conductance_matrix(base.entries + np.diag(rng.random(5)))
        np.testing.assert_allclose(laplacian(shifted), laplacian(base), atol=1e-12)


class TestEffectiveResistance:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_two_node_reciprocal(self, c):
        R = effective_resistance(conductance_matrix([[0.0, c], [c, 0.0]]))
        assert R[0, 1] == pytest.approx(1.0 / c, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 8])
    def test_cycle_closed_form(self, n):
        R = effective_resistance(unit_conductance(ring_adjacency(n)))
        for u in range(n):
            for v in range(n):
                k = min((u - v) % n, (v - u) % n)
                assert R[u, v] == pytest.approx(k * (n - k) / n, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_complete_graph_closed_form(self, n):
        R = effective_resistance(complete_conductance(n))
        off = R[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(off, 2.0 / n, atol=1e-10)

    def test_result_is_a_read_only_array(self):
        R = effective_resistance(complete_conductance(4))
        assert type(R) is np.ndarray and R.shape == (4, 4)
        assert not R.flags.writeable

    def test_methods_agree(self, rng):
        for _ in range(20):
            c = random_conductance(rng, int(rng.integers(3, 12)))
            r1 = effective_resistance(c)
            r2 = grounded_resistance(c)
            assert np.abs(r1 - r2).max() <= 1e-9

    def test_metric_properties(self, rng):
        c = random_conductance(rng, 8)
        r = effective_resistance(c)
        np.testing.assert_array_equal(r, r.T)
        assert r.diagonal().max() == 0.0
        assert r.min() >= 0.0
        # triangle inequality over all ordered triples
        assert (r[:, :, None] <= r[:, None, :] + r[None, :, :] + 1e-10).all()

    def test_rayleigh_monotonicity(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 9))
            c = random_conductance(rng, n)
            bump = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.4), 1)
            stronger = conductance_matrix(c.entries + bump + bump.T)
            r_before = effective_resistance(c)
            r_after = effective_resistance(stronger)
            assert (r_after <= r_before + 1e-9).all()

    def test_self_loops_do_not_change_resistance(self, rng):
        base = random_conductance(rng, 5)
        shifted = conductance_matrix(base.entries + np.diag(rng.random(5)))
        np.testing.assert_allclose(effective_resistance(shifted),
                                   effective_resistance(base), atol=1e-10)


def all_pairs_mean(C):
    """R_bar = (1/2n^2) sum_{u,v} R_uv, from all-pairs resistance."""
    return effective_resistance(C).sum() / (2.0 * C.n * C.n)


class TestAverageResistance:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(2, 60), density=st.floats(0.0, 1.0),
           spread=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_trace_formula_matches_all_pairs_mean(self, n, density, spread, seed):
        # Weights over 10^-spread .. 10^spread on a random spanning path plus
        # random chords, so every network is connected.  Both formulas were
        # within 3.3e-14 of a 40-digit tr(L^+)/n on 40 such networks; their
        # round-off grows with the condition of L (3e-12 each, of opposite
        # signs, on a 7-node path with weights over six decades).
        rng = np.random.default_rng(seed)
        chords = np.triu(rng.random((n, n)) < density, 1)
        order = rng.permutation(n)
        chords[order[:-1], order[1:]] = True
        c = np.where(chords | chords.T, 10.0 ** rng.uniform(-spread, spread, (n, n)), 0.0)
        C = conductance_matrix(np.triu(c, 1) + np.triu(c, 1).T)
        assert average_resistance(C) == pytest.approx(all_pairs_mean(C), rel=1e-12)

    def test_trace_formula_on_the_300_node_workload_graph(self):
        # The 300-node geometric graph of the benchmark's geometric workload
        # at seed 1: its support and its reversiblization network.
        P = sample_geometric(GeometricParams(), 300, 2, seed=[1, 2, 300, 0]).matrix
        for C in (unit_conductance(P.graphs.undirected),
                  reversiblization_conductance(P)):
            assert average_resistance(C) == pytest.approx(all_pairs_mean(C),
                                                          rel=1e-12)

    @pytest.mark.parametrize("weight, connected", [
        (1e-6, True), (1e-11, False), (1e-13, False)])
    def test_same_null_space_verdict_as_all_pairs(self, weight, connected):
        # Two 20-cliques of conductance 1/20 joined by one edge: the Fiedler
        # value, about weight / 10, against the threshold CONNECTIVITY_RTOL
        # * 0.95.  Accepted, R_bar is (6 k(k - 1) r + 2k^2 / weight) / 2n^2
        # with k = 20, n = 40 and r = 2, the resistance within a clique.
        # Both formulas lose about eps ||L|| / lambda_2 ~ 2e-9 of it (6e-10
        # and 1e-9 here).
        C = conductance_matrix(two_clique_entries(40, weight))
        if connected:
            exact = (6 * 380 * 2 + 2 * 400 / weight) / 3200
            assert average_resistance(C) == pytest.approx(exact, rel=1e-7)
            assert all_pairs_mean(C) == pytest.approx(exact, rel=1e-7)
            return
        with pytest.raises(Disconnected, match="null space has dimension 2"):
            average_resistance(C)
        with pytest.raises(Disconnected, match="null space has dimension 2"):
            effective_resistance(C)

    def test_one_node_network_has_zero_average(self):
        C = conductance_matrix([[0.0]])
        assert average_resistance(C) == 0.0
        assert effective_resistance(C).tolist() == [[0.0]]


def chord_network(n, density, spread, seed):
    """The connected network of `test_trace_formula_matches_all_pairs_mean`:
    a random spanning path plus random chords, weights over 10^-spread ..
    10^spread."""
    rng = np.random.default_rng(seed)
    chords = np.triu(rng.random((n, n)) < density, 1)
    order = rng.permutation(n)
    chords[order[:-1], order[1:]] = True
    c = np.where(chords | chords.T, 10.0 ** rng.uniform(-spread, spread, (n, n)), 0.0)
    return conductance_matrix(np.triu(c, 1) + np.triu(c, 1).T)


def workload_matrix():
    """The 300-node geometric graph of the benchmark's geometric workload at
    seed 1."""
    return sample_geometric(GeometricParams(), 300, 2, seed=[1, 2, 300, 0]).matrix


def networks(P):
    """The unit-conductance support network of P and its reversiblization
    network C_{P*P}."""
    return unit_conductance(P.graphs.undirected), reversiblization_conductance(P)


# Prints the SHA-256 of the bytes of effective_resistance and
# average_resistance on chord networks of n nodes.
BITS_PIN = """
import hashlib
import numpy as np
from lqconsensus import average_resistance, conductance_matrix, effective_resistance
digest = hashlib.sha256()
for n in (3, 64, 300, 1000):
    rng = np.random.default_rng(n)
    chords = np.triu(rng.random((n, n)) < 0.1, 1)
    order = rng.permutation(n)
    chords[order[:-1], order[1:]] = True
    c = np.where(chords | chords.T, 10.0 ** rng.uniform(-1, 1, (n, n)), 0.0)
    C = conductance_matrix(np.triu(c, 1) + np.triu(c, 1).T)
    digest.update(effective_resistance(C).tobytes())
    digest.update(np.float64(average_resistance(C)).tobytes())
print(digest.hexdigest())
"""


class TestCholeskyRoute:
    """The Cholesky route against the eigendecomposition formulas it
    replaced, which are kept as oracles in tests/helpers.py."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(2, 60), density=st.floats(0.0, 1.0),
           spread=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_spectral_oracles(self, n, density, spread, seed):
        # On 400 seeded draws of this generator the largest disagreement was
        # 4.8e-14 entry by entry and 3.0e-14 in R_bar.
        C = chord_network(n, density, spread, seed)
        np.testing.assert_allclose(effective_resistance(C),
                                   spectral_resistance(C), rtol=1e-12, atol=0)
        assert average_resistance(C) == pytest.approx(spectral_rbar(C), rel=1e-12)

    def test_matches_spectral_oracles_on_the_300_node_workload_graph(self):
        for C in networks(workload_matrix()):
            np.testing.assert_allclose(effective_resistance(C),
                                       spectral_resistance(C), rtol=1e-12, atol=0)
            assert average_resistance(C) == pytest.approx(spectral_rbar(C), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, INVERSE_LEAF, INVERSE_LEAF + 1, 97, 301])
    def test_lower_inverse_is_an_exact_triangle(self, n):
        # Sizes on both sides of the leaf and odd splits below the root.
        a = np.random.default_rng(n).random((n, n))
        k = np.linalg.cholesky(a @ a.T + n * np.eye(n))
        inverse = _lower_inverse(k)
        assert not np.triu(inverse, 1).any()
        np.testing.assert_allclose(inverse @ k, np.eye(n), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("threads", ["1", None],
                             ids=["one_blas_thread", "default_blas_threads"])
    def test_fresh_processes_give_identical_bits(self, threads):
        # R's bits may differ between BLAS thread settings, but two fresh
        # processes under one setting agree byte for byte, which is what
        # byte-identical reruns of results.csv need.
        src = str(Path(lqconsensus.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        digests = [subprocess.run([sys.executable, "-c", BITS_PIN], env=env, check=True,
                                  capture_output=True, text=True).stdout
                   for _ in range(2)]
        assert len(digests[0].strip()) == 64
        assert digests[0] == digests[1]

    def test_verdict_is_the_spectral_rule(self):
        # Two 20-cliques joined by couplings from 1e-12 to 1e-8: their
        # Fiedler values, about coupling / 10, straddle the null-space
        # threshold tau = CONNECTIVITY_RTOL * 0.95 ~ 9.5e-11.
        verdicts = []
        for weight in np.logspace(-12, -8, 41):
            C = conductance_matrix(two_clique_entries(40, weight))
            L = laplacian(C)
            try:
                _nonzero_spectrum(np.linalg.eigvalsh(L), float(np.diagonal(L).max()))
                expected = None
            except Disconnected as error:
                expected = str(error)
            for route in (effective_resistance, average_resistance):
                if expected is None:
                    route(C)
                else:
                    with pytest.raises(Disconnected) as refused:
                        route(C)
                    assert str(refused.value) == expected
            verdicts.append(expected is None)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_eigenvalues_decide_where_the_certificate_fails(self, monkeypatch):
        # Ten unit-conductance pairs, each tied to node 0 by conductance
        # 6e-10: Laplacian eigenvalues near 3e-10 = 3 tau, so the network is
        # connected, yet tr(H) tau > 1.  The eigenvalues accept it, and the
        # Cholesky values stand.  The network is a tree, so R_uv is the sum
        # of the edge resistances 1/c on the path; the Cholesky route was
        # within 7e-8 of it, the spectral oracle 2.9e-6.  The network caches
        # its factor, so the eigenvalues decide once for both routes.
        k, w = 10, 6e-10
        c = np.zeros((2 * k + 1, 2 * k + 1))
        pairs = np.arange(1, 2 * k + 1, 2)
        c[pairs, pairs + 1] = c[pairs + 1, pairs] = 1.0
        c[0, pairs] = c[pairs, 0] = w
        C = conductance_matrix(c)
        edge_resistance = np.zeros_like(c)
        edge_resistance[c > 0] = 1.0 / c[c > 0]
        exact = csgraph.shortest_path(csr_matrix(edge_resistance), directed=False)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(1) or eigvalsh(a))
        np.testing.assert_allclose(effective_resistance(C), exact,
                                   rtol=1e-6, atol=0)
        assert average_resistance(C) == pytest.approx(exact.sum() / (2 * C.n ** 2),
                                                      rel=1e-6)
        assert len(calls) == 1

    def test_failed_factorization_is_a_solve_failure(self, monkeypatch):
        # A factorization that fails on a network the eigenvalues accept is
        # an error of the solve; on a network they refuse, their verdict.
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        connected = complete_conductance(4)
        split = conductance_matrix(two_clique_entries(40, 1e-12))
        for route in (effective_resistance, average_resistance):
            with pytest.raises(SolveFailure, match="Matrix is not positive definite"):
                route(connected)
            with pytest.raises(Disconnected, match="null space has dimension 2"):
                route(split)

    def test_no_eigendecomposition_away_from_refusal(self, monkeypatch):
        matrices = [
            workload_matrix(),
            cayley_matrix(16, cayley_case1_generator(2, seed=[1, 1, 2, 16, 0])),
            p_epsilon(0.1),
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for P in matrices:
            for C in networks(P):
                assert average_resistance(C) > 0.0
                assert effective_resistance(C).max() > 0.0
            resistance_sandwich_check(P)


class TestAverages:
    def test_complete_three_average(self):
        C = complete_conductance(3)
        assert average_resistance(C) == pytest.approx(2.0 / 9, abs=1e-12)

    def test_uniform_weights_reduce_to_average(self, rng):
        c = random_conductance(rng, 6)
        R = effective_resistance(c)
        assert weighted_average_resistance(R, np.full(6, 1 / 6)) == pytest.approx(
            average_resistance(c), abs=1e-12)

    def test_weighted_average_complete_three(self):
        R = effective_resistance(complete_conductance(3, value=1.0 / 3))
        assert weighted_average_resistance(R, np.full(3, 1 / 3)) == pytest.approx(
            2.0 / 3, abs=1e-12)

    def test_weighted_average_accepts_invariant_measure(self):
        P = validate_consensus(np.full((4, 4), 0.25))
        R = effective_resistance(complete_conductance(4))
        got = weighted_average_resistance(R, P.invariant.pi)
        assert got == pytest.approx(average_resistance(complete_conductance(4)),
                                    abs=1e-12)

    def test_dimension_mismatch(self):
        R = effective_resistance(complete_conductance(3))
        with pytest.raises(DimensionMismatch):
            weighted_average_resistance(R, np.full(4, 0.25))

    def test_reversible_sandwich(self, rng):
        # n^2 pi_min^2 R_bar <= R_bar_w <= n^2 pi_max^2 R_bar with pi taken
        # from the random walk of the network
        for _ in range(20):
            n = int(rng.integers(3, 10))
            c = random_conductance(rng, n, with_diagonal=True)
            pi = psi_map(c).invariant
            rbar = average_resistance(c)
            rbar_w = weighted_average_resistance(effective_resistance(c), pi.pi)
            assert n * n * pi.pi_min**2 * rbar <= rbar_w + 1e-12
            assert rbar_w <= n * n * pi.pi_max**2 * rbar + 1e-12


class TestNetworkMaps:
    def test_phi_of_uniform(self):
        P = validate_consensus(np.full((3, 3), 1.0 / 3))
        c = phi_map(P)
        np.testing.assert_allclose(c.entries, 1.0 / 3, atol=1e-12)
        assert c.entries.sum() == pytest.approx(3.0, abs=1e-12)

    def test_phi_entry_sum_is_alpha(self, rng):
        P = random_reversible(rng, 5)
        assert phi_map(P, alpha=7.5).entries.sum() == pytest.approx(7.5, abs=1e-9)

    def test_psi_phi_round_trip(self, rng):
        for _ in range(10):
            P = random_reversible(rng, int(rng.integers(3, 9)))
            back = psi_map(phi_map(P))
            assert np.abs(back.entries - P.entries).max() <= 1e-12

    def test_phi_psi_round_trip_scales(self, rng):
        c = random_conductance(rng, 6, with_diagonal=True)
        alpha = 2.0
        back = phi_map(psi_map(c), alpha=alpha)
        np.testing.assert_allclose(back.entries,
                                   alpha / c.entries.sum() * c.entries, atol=1e-12)

    def test_phi_rejects_nonreversible(self):
        with pytest.raises(NotReversible):
            phi_map(p_epsilon(0.1))

    def test_phi_rejects_nonpositive_alpha(self):
        # A non-finite alpha gets the same refusal, before any arithmetic.
        P = validate_consensus(np.full((3, 3), 1.0 / 3))
        for alpha in (0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="alpha must be positive"):
                phi_map(P, alpha=alpha)

    def test_psi_rejects_zero_diagonal(self):
        with pytest.raises(ZeroDiagonal):
            psi_map(complete_conductance(3))

    def test_psi_invariant_measure_tracks_row_sums(self, rng):
        c = random_conductance(rng, 5, with_diagonal=True)
        pi = psi_map(c).invariant.pi
        rows = c.entries.sum(axis=1)
        np.testing.assert_allclose(pi, rows / rows.sum(), atol=1e-9)

