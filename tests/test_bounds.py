import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqconsensus import (
    Disconnected,
    NotNormal,
    OutOfRange,
    average_resistance,
    cayley_case1,
    cayley_case2,
    circle_matrix,
    commuting_example,
    corollary_normal_bounds,
    f_delta,
    hypothetical_lower_violation,
    lq_cost_exact,
    multiplicative_reversiblization,
    p_epsilon,
    phi_map,
    resistance_sandwich_check,
    reversiblization_conductance,
    reversiblization_support,
    theorem_resistance_bounds,
    theorem_topology_bounds,
    unit_conductance,
    validate_consensus,
)
from lqconsensus import bounds
from helpers import (
    random_circulant,
    random_consensus,
    random_symmetric_support,
    sparse_circulant,
    sparse_consensus,
    uniform,
)


def fuzz_adjacency(P):
    """Dense undirected adjacency of the combinatorial support of P*P."""
    adj = np.zeros((P.n, P.n), dtype=bool)
    u, v = reversiblization_support(P).edges.T
    adj[u, v] = adj[v, u] = True
    return adj


class TestFDelta:
    def test_values(self):
        assert f_delta(1) == 4.0
        assert f_delta(2) == 18.0
        assert f_delta(26) == 2754.0

    @pytest.mark.parametrize("delta", [0, -1])
    def test_refuses_delta_below_one(self, delta):
        # f(0) = -2 would flip the sign of a lower bound.
        with pytest.raises(OutOfRange, match=f"delta >= 1, got {delta}"):
            f_delta(delta)

    def test_one_node_lower_bounds_are_positive_zero(self):
        # The 1-node matrix is the only one with delta_in = 0; its R_bar are
        # 0, and its lower bounds are +0.0 from no factor at all.
        P = validate_consensus([[1.0]])
        topo = theorem_topology_bounds(P)
        norm = corollary_normal_bounds(P)
        assert topo.constants["delta_in"] == 0
        assert topo.constants["f_delta_in"] is norm.constants["f_delta_in"] is None
        lowers = [topo.j_lower, topo.jw_lower, norm.j_lower,
                  resistance_sandwich_check(P).min_lower_margin]
        assert all(x == 0.0 and np.copysign(1.0, x) == 1.0 for x in lowers)


class TestReversiblizationConductance:
    def test_matches_network_of_reversiblization(self, rng):
        # C_{P*P} formed directly must equal Phi applied to the validated P*P
        for _ in range(10):
            P = random_consensus(rng, int(rng.integers(3, 9)))
            direct = reversiblization_conductance(P)
            via_map = phi_map(multiplicative_reversiblization(P))
            assert np.abs(direct.entries - via_map.entries).max() <= 1e-10

    def test_uniform_value(self):
        c = reversiblization_conductance(uniform(3))
        np.testing.assert_allclose(c.entries, 1.0 / 3, atol=1e-12)

    def test_bits_of_n_pt_pi_p_symmetrized(self, rng):
        # Read from the cached flow, the network keeps the bits of
        # n P^T (Pi P) symmetrized.
        for _ in range(5):
            P = random_consensus(rng, int(rng.integers(3, 12)))
            a, pi = P.entries, P.invariant.pi
            c = P.n * (a.T @ (pi[:, None] * a))
            np.testing.assert_array_equal(reversiblization_conductance(P).entries,
                                          (c + c.T) / 2.0)


class TestResistanceTheorem:
    def test_uniform_three_is_tight(self):
        report = theorem_resistance_bounds(uniform(3))
        cost = lq_cost_exact(uniform(3))
        for value in [report.j_upper, report.j_lower]:
            assert value == pytest.approx(2.0 / 3, abs=1e-10)
        for value in [report.jw_upper, report.jw_lower]:
            assert value == pytest.approx(2.0 / 3, abs=1e-10)
        assert report.lower_applicable
        assert cost.j == pytest.approx(2.0 / 3, abs=1e-12)
        assert report.constants["r_bar"] == pytest.approx(2.0 / 3, abs=1e-10)

    def test_upper_bounds_hold(self, rng):
        for _ in range(30):
            P = random_consensus(rng, int(rng.integers(3, 11)))
            report = theorem_resistance_bounds(P)
            cost = lq_cost_exact(P)
            assert cost.j <= report.j_upper * (1 + 1e-9)
            assert cost.j_weighted <= report.jw_upper * (1 + 1e-9)
            assert report.theorem == "resistance"

    def test_lower_bounds_hold_when_certified(self):
        instances = [commuting_example(), p_epsilon(0.5), cayley_case2(4, 2),
                     circle_matrix(6, 0.3, 0.3), circle_matrix(7, 0.4, 0.1)]
        for P in instances:
            report = theorem_resistance_bounds(P)
            assert report.lower_applicable
            cost = lq_cost_exact(P)
            assert report.j_lower <= cost.j * (1 + 1e-9)
            assert report.jw_lower <= cost.j_weighted * (1 + 1e-9)

    def test_noncommuting_lower_not_certified(self):
        assert not theorem_resistance_bounds(p_epsilon(0.1)).lower_applicable

    def test_near_reducible_error_names_the_spectral_gap(self):
        # Two uniform 20-cliques joined by one edge of weight 1e-12: validation
        # accepts the matrix, but the second Laplacian eigenvalue of C_{P*P}
        # falls below the null-space threshold, and the error says by how much.
        a = np.zeros((40, 40))
        a[:20, :20] = a[20:, 20:] = 1.0 / 20
        a[0, 20] = a[20, 0] = 1e-12
        a[0, 0] -= 1e-12
        a[20, 20] -= 1e-12
        P = validate_consensus(a)
        with pytest.raises(Disconnected, match="null space has dimension 2") as info:
            theorem_resistance_bounds(P)
        match = re.search(r"spectral gap (\S+) is below the null-space "
                          r"threshold (\S+)$", str(info.value))
        assert match is not None
        gap, threshold = float(match.group(1)), float(match.group(2))
        assert gap == pytest.approx(2.0e-13, rel=0.05)
        assert threshold == pytest.approx(9.52e-11, rel=0.01)

    def test_lower_fields_always_populated(self):
        report = theorem_resistance_bounds(p_epsilon(0.1))
        assert report.j_lower is not None
        assert report.jw_lower is not None


class TestTheoremProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(2, 30), density=st.floats(0.0, 0.3),
           seed=st.integers(0, 2**32 - 1))
    def test_upper_bounds_hold_on_sparse_matrices(self, n, density, seed):
        P = sparse_consensus(np.random.default_rng(seed), n, density)
        cost = lq_cost_exact(P)
        for report in (theorem_resistance_bounds(P), theorem_topology_bounds(P)):
            assert cost.j <= report.j_upper * (1 + 1e-9)
            assert cost.j_weighted <= report.jw_upper * (1 + 1e-9)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(2, 30), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_lower_bounds_hold_on_circulants(self, n, density, seed):
        P = sparse_circulant(np.random.default_rng(seed), n, density)
        cost = lq_cost_exact(P)
        for report in (theorem_resistance_bounds(P), theorem_topology_bounds(P)):
            assert report.lower_applicable
            assert report.j_lower <= cost.j * (1 + 1e-9)
            assert report.jw_lower <= cost.j_weighted * (1 + 1e-9)


class TestTopologyTheorem:
    def test_uniform_three_values(self):
        report = theorem_topology_bounds(uniform(3))
        assert report.j_upper == pytest.approx(2.0, abs=1e-10)
        assert report.j_lower == pytest.approx(1.0 / 9, abs=1e-10)
        assert report.jw_upper == pytest.approx(2.0, abs=1e-10)
        assert report.jw_lower == pytest.approx(1.0 / 9, abs=1e-10)
        assert report.constants["delta_in"] == 2
        assert report.constants["f_delta_in"] == 18.0
        assert report.constants["r_bar"] == pytest.approx(2.0 / 9, abs=1e-12)

    def test_upper_bounds_hold(self, rng):
        for _ in range(30):
            P = random_consensus(rng, int(rng.integers(3, 11)))
            report = theorem_topology_bounds(P)
            cost = lq_cost_exact(P)
            assert cost.j <= report.j_upper * (1 + 1e-9)
            assert cost.j_weighted <= report.jw_upper * (1 + 1e-9)

    def test_lower_bounds_hold_when_certified(self, rng):
        for _ in range(10):
            P = random_circulant(rng, int(rng.integers(4, 9)))
            report = theorem_topology_bounds(P)
            assert report.lower_applicable
            cost = lq_cost_exact(P)
            assert report.j_lower <= cost.j * (1 + 1e-9)
            assert report.jw_lower <= cost.j_weighted * (1 + 1e-9)

    def test_torus_case2_gap_is_f_of_two(self):
        report = theorem_topology_bounds(cayley_case2(4, 2))
        assert report.j_upper / report.j_lower == pytest.approx(18.0, rel=1e-12)

    def test_torus_case1_gap_formula(self):
        gen, P = cayley_case1(3, 3, seed=5)
        report = theorem_topology_bounds(P)
        p_lo = report.constants["p_min"]
        p_hi = report.constants["p_max"]
        expected = f_delta(26) * (p_hi / p_lo) ** 2
        assert report.j_upper / report.j_lower == pytest.approx(expected, rel=1e-9)
        assert report.j_upper / report.j_lower <= 275400.0 * (1 + 1e-9)


class TestNormalCorollary:
    def test_uniform_three_values(self):
        report = corollary_normal_bounds(uniform(3))
        assert report.j_upper == pytest.approx(2.0, abs=1e-10)
        assert report.j_lower == pytest.approx(1.0 / 9, abs=1e-10)
        assert report.jw_upper is None
        assert report.jw_lower is None
        assert report.lower_applicable

    def test_symmetric_ring_bounds_hold(self):
        P = circle_matrix(8, 0.3, 0.3)
        report = corollary_normal_bounds(P)
        j = lq_cost_exact(P).j
        assert report.j_lower <= j * (1 + 1e-9)
        assert j <= report.j_upper * (1 + 1e-9)

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormal):
            corollary_normal_bounds(p_epsilon(0.1))
        with pytest.raises(NotNormal):
            corollary_normal_bounds(commuting_example())

    def test_coincides_with_topology_theorem_for_normal(self, rng):
        # with pi uniform the topology bounds on J reduce to the corollary
        for _ in range(5):
            P = random_circulant(rng, int(rng.integers(4, 9)))
            topo = theorem_topology_bounds(P)
            norm = corollary_normal_bounds(P)
            assert norm.j_upper == pytest.approx(topo.j_upper, rel=1e-12)
            assert norm.j_lower == pytest.approx(topo.j_lower, rel=1e-12)

    def test_bounds_hold_on_circulants(self, rng):
        for _ in range(20):
            P = random_circulant(rng, int(rng.integers(3, 10)))
            report = corollary_normal_bounds(P)
            j = lq_cost_exact(P).j
            assert report.j_lower <= j * (1 + 1e-9)
            assert j <= report.j_upper * (1 + 1e-9)


class TestReversiblizationSupport:
    def test_matches_numeric_support(self, rng):
        for _ in range(100):
            P = random_consensus(rng, int(rng.integers(3, 10)),
                                 density=float(rng.uniform(0.25, 0.9)))
            fuzz = reversiblization_support(P)
            star = P.invariant.pi[:, None] * P.entries
            numeric = P.entries.T @ star
            numeric_edges = [
                (u, v)
                for u in range(P.n) for v in range(u + 1, P.n)
                if numeric[u, v] > 1e-14
            ]
            np.testing.assert_array_equal(fuzz.edges,
                                          np.reshape(numeric_edges, (-1, 2)))

    def test_every_base_edge_survives(self, rng):
        P = random_consensus(rng, 8, density=0.3)
        und = P.graphs.undirected
        fuzz = reversiblization_support(P)
        u, v = fuzz.edges.T
        kept = und[u, v]
        np.testing.assert_array_equal(fuzz.edges[kept], np.argwhere(np.triu(und, 1)))
        np.testing.assert_array_equal(fuzz.new_edges, fuzz.edges[~kept])

    def test_pivots_are_smallest_witnesses(self, rng):
        P = random_consensus(rng, 7, density=0.4)
        s = P.support
        fuzz = reversiblization_support(P)
        for (u, v), w in zip(fuzz.edges.tolist(), fuzz.pivots.tolist()):
            assert s[w, u] and s[w, v]
            for smaller in range(w):
                assert not (s[smaller, u] and s[smaller, v])

    def test_symmetric_support_gives_two_step_edges(self, rng):
        # when the support is symmetric, G(P*P) equals the support of P^2
        for _ in range(10):
            P = random_symmetric_support(rng, int(rng.integers(4, 9)))
            two_step = np.linalg.matrix_power(P.entries, 2)
            expected = [
                (u, v)
                for u in range(P.n) for v in range(u + 1, P.n)
                if two_step[u, v] > 1e-14 or two_step[v, u] > 1e-14
            ]
            np.testing.assert_array_equal(reversiblization_support(P).edges,
                                          np.reshape(expected, (-1, 2)))

    @staticmethod
    def whole_search(P):
        """(edges, pivots, new_edges) from one argmax over the n x |edges|
        boolean array, the search the chunks replace."""
        s = P.support
        indicator = s.astype(float)
        u, v = np.nonzero(np.triu(indicator.T @ indicator > 0, 1))
        pivots = np.argmax(s[:, u] & s[:, v], axis=0)
        new = ~(s | s.T)[u, v]
        return (np.column_stack([u, v]), pivots,
                np.column_stack([u[new], v[new]]))

    def assert_whole_search(self, P, fuzz):
        for got, want in zip((fuzz.edges, fuzz.pivots, fuzz.new_edges),
                             self.whole_search(P)):
            np.testing.assert_array_equal(got, want)

    def test_chunks_match_the_whole_search(self, rng, monkeypatch):
        monkeypatch.setattr(bounds, "PIVOT_CHUNK", 7)
        for _ in range(30):
            P = random_consensus(rng, int(rng.integers(12, 40)),
                                 density=float(rng.uniform(0.1, 0.6)))
            fuzz = reversiblization_support(P)
            assert len(fuzz.edges) > 2 * bounds.PIVOT_CHUNK
            self.assert_whole_search(P, fuzz)

    def test_dense_support_matches_the_whole_search(self, rng):
        P = random_consensus(rng, 400, density=0.9)
        fuzz = reversiblization_support(P)
        assert len(fuzz.edges) > 10 * bounds.PIVOT_CHUNK
        self.assert_whole_search(P, fuzz)

    def test_epsilon_chain_support(self):
        fuzz = reversiblization_support(p_epsilon(0.25))
        assert fuzz.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert fuzz.pivots.tolist() == [0, 2, 1]
        assert fuzz.new_edges.shape == (0, 2)

    def test_fields_are_read_only_index_arrays(self, rng):
        fuzz = reversiblization_support(random_consensus(rng, 9, density=0.3))
        m, k = len(fuzz.edges), len(fuzz.new_edges)
        assert (fuzz.edges.shape, fuzz.pivots.shape, fuzz.new_edges.shape) == (
            (m, 2), (m,), (k, 2))
        for array in (fuzz.edges, fuzz.pivots, fuzz.new_edges):
            assert array.dtype.kind == "i"
            assert not array.flags.writeable
        assert (fuzz.edges[:, 0] < fuzz.edges[:, 1]).all()


class TestResistanceSandwich:
    def test_uniform_three_is_tight_above(self):
        margins = resistance_sandwich_check(uniform(3))
        assert margins.min_upper_margin == pytest.approx(0.0, abs=1e-12)
        assert margins.min_lower_margin >= -1e-12
        assert margins.variant == "in"
        assert margins.delta_used == 2

    def test_margins_nonnegative(self, rng):
        for _ in range(50):
            P = random_consensus(rng, int(rng.integers(3, 11)),
                                 density=float(rng.uniform(0.25, 0.9)))
            margins = resistance_sandwich_check(P)
            assert margins.min_upper_margin >= -1e-9
            assert margins.min_lower_margin >= -1e-9

    def test_variant_tracks_commutation(self):
        assert resistance_sandwich_check(p_epsilon(0.25)).variant == "out"
        assert resistance_sandwich_check(commuting_example()).variant == "in"


class TestSimpleMonotonicity:
    def test_average_resistance_bracket(self, rng):
        # 1/(n pi_max (delta_in + 1) p_max^2) R_bar(G(P*P))
        #   <= R_bar(C_{P*P}) <= 1/(n pi_min p_min^2) R_bar(G(P*P))
        for _ in range(30):
            P = random_consensus(rng, int(rng.integers(3, 10)))
            graphs = P.graphs
            inv = P.invariant
            weighted = average_resistance(reversiblization_conductance(P))
            topological = average_resistance(unit_conductance(fuzz_adjacency(P)))
            upper = topological / (P.n * inv.pi_min * graphs.p_min**2)
            lower = topological / (
                P.n * inv.pi_max * (graphs.delta_in + 1) * graphs.p_max**2)
            assert lower <= weighted * (1 + 1e-9)
            assert weighted <= upper * (1 + 1e-9)

    def test_uniform_three_lower_is_tight(self):
        P = uniform(3)
        weighted = average_resistance(reversiblization_conductance(P))
        topological = average_resistance(unit_conductance(fuzz_adjacency(P)))
        lower = topological / (3 * (1 / 3) * 3 * (1 / 3) ** 2)
        assert weighted == pytest.approx(lower, rel=1e-12)


class TestHypotheticalLower:
    def test_violation_region_is_real(self):
        # the uncertified resistance-theorem lower value sits strictly above
        # J throughout the small-epsilon regime
        for eps in [0.001, 0.005, 0.01, 0.02]:
            assert hypothetical_lower_violation(p_epsilon(eps)) > 0.0

    def test_certified_point_sits_below(self):
        # at epsilon = 1/2 the chain commutes, so the bound is a real lower
        # bound and the violation must be nonpositive
        assert hypothetical_lower_violation(p_epsilon(0.5)) < 0.0

    @pytest.mark.xfail(
        strict=True,
        reason="the stated property extends the violation region to "
               "epsilon = 0.1, but the hypothetical lower value crosses "
               "below J near epsilon = 0.034; see the epsilon sweep audit",
    )
    def test_violation_region_as_stated(self):
        for eps in [0.01, 0.05, 0.1]:
            assert hypothetical_lower_violation(p_epsilon(eps)) > 0.0
