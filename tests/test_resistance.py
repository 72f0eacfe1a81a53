import numpy as np
import pytest

from lqconsensus import (
    Disconnected,
    DimensionMismatch,
    NegativeEntry,
    NotReversible,
    NotSymmetric,
    ZeroDiagonal,
    average_resistance,
    conductance_matrix,
    effective_resistance,
    laplacian,
    load_conductance_csv,
    p_epsilon,
    phi_map,
    psi_map,
    save_conductance_csv,
    unit_conductance,
    validate_consensus,
    weighted_average_resistance,
)
from helpers import grounded_resistance, random_reversible


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

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntry):
            conductance_matrix([[0.0, -1.0], [-1.0, 0.0]])

    def test_disconnected_rejected(self):
        c = np.zeros((4, 4))
        c[0, 1] = c[1, 0] = 1.0
        c[2, 3] = c[3, 2] = 1.0
        with pytest.raises(Disconnected):
            conductance_matrix(c)

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
        assert R.values[0, 1] == pytest.approx(1.0 / c, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 8])
    def test_cycle_closed_form(self, n):
        R = effective_resistance(unit_conductance(ring_adjacency(n)))
        for u in range(n):
            for v in range(n):
                k = min((u - v) % n, (v - u) % n)
                assert R.values[u, v] == pytest.approx(k * (n - k) / n, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_complete_graph_closed_form(self, n):
        R = effective_resistance(complete_conductance(n))
        off = R.values[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(off, 2.0 / n, atol=1e-10)

    def test_methods_agree(self, rng):
        for _ in range(20):
            c = random_conductance(rng, int(rng.integers(3, 12)))
            r1 = effective_resistance(c).values
            r2 = grounded_resistance(c)
            assert np.abs(r1 - r2).max() <= 1e-9

    def test_metric_properties(self, rng):
        c = random_conductance(rng, 8)
        r = effective_resistance(c).values
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
            r_before = effective_resistance(c).values
            r_after = effective_resistance(stronger).values
            assert (r_after <= r_before + 1e-9).all()

    def test_self_loops_do_not_change_resistance(self, rng):
        base = random_conductance(rng, 5)
        shifted = conductance_matrix(base.entries + np.diag(rng.random(5)))
        np.testing.assert_allclose(effective_resistance(shifted).values,
                                   effective_resistance(base).values, atol=1e-10)


class TestAverages:
    def test_complete_three_average(self):
        R = effective_resistance(complete_conductance(3))
        assert average_resistance(R) == pytest.approx(2.0 / 9, abs=1e-12)

    def test_uniform_weights_reduce_to_average(self, rng):
        c = random_conductance(rng, 6)
        R = effective_resistance(c)
        assert weighted_average_resistance(R, np.full(6, 1 / 6)) == pytest.approx(
            average_resistance(R), abs=1e-12)

    def test_weighted_average_complete_three(self):
        R = effective_resistance(complete_conductance(3, value=1.0 / 3))
        assert weighted_average_resistance(R, np.full(3, 1 / 3)) == pytest.approx(
            2.0 / 3, abs=1e-12)

    def test_weighted_average_accepts_invariant_measure(self):
        P = validate_consensus(np.full((4, 4), 0.25))
        R = effective_resistance(complete_conductance(4))
        got = weighted_average_resistance(R, P.invariant)
        assert got == pytest.approx(average_resistance(R), abs=1e-12)

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
            R = effective_resistance(c)
            rbar = average_resistance(R)
            rbar_w = weighted_average_resistance(R, pi)
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

    def test_psi_rejects_zero_diagonal(self):
        with pytest.raises(ZeroDiagonal):
            psi_map(complete_conductance(3))

    def test_psi_invariant_measure_tracks_row_sums(self, rng):
        c = random_conductance(rng, 5, with_diagonal=True)
        pi = psi_map(c).invariant.pi
        rows = c.entries.sum(axis=1)
        np.testing.assert_allclose(pi, rows / rows.sum(), atol=1e-9)


class TestConductanceFiles:
    def test_round_trip(self, rng, tmp_path):
        c = random_conductance(rng, 6, with_diagonal=True)
        path = tmp_path / "network.csv"
        save_conductance_csv(c, path)
        back = load_conductance_csv(path)
        assert np.abs(back.entries - c.entries).max() <= 1e-15

    def test_load_rejects_asymmetry(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n2,0\n")
        with pytest.raises(NotSymmetric):
            load_conductance_csv(path)
