from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix

from lqconsensus import (
    DimensionMismatch,
    MatrixClass,
    NegativeEntry,
    NotIrreducible,
    NotStochastic,
    ZeroDiagonal,
    circle_matrix,
    cayley_case1,
    cayley_case1_generator,
    cayley_case2,
    cayley_matrix,
    classify,
    commuting_example,
    load_matrix_csv,
    multiplicative_reversiblization,
    p_epsilon,
    save_matrix_csv,
    time_reversal,
    validate_consensus,
)
from lqconsensus.stochastic_core import (
    SUPPORT_THRESHOLD,
    reach,
    strong_component,
)
from helpers import (
    random_consensus,
    random_reversible,
    two_clique_entries,
    uniform,
)


class TestValidateConsensus:
    def test_uniform_accepted(self):
        P = uniform(3)
        assert P.n == 3
        assert not P.entries.flags.writeable
        np.testing.assert_allclose(P.entries.sum(axis=1), 1.0)

    def test_identity_not_irreducible(self):
        with pytest.raises(NotIrreducible):
            validate_consensus(np.eye(4))

    def test_zero_diagonal_detected(self):
        # the epsilon-chain matrix evaluated at epsilon = 0 has two zero
        # diagonal entries; the validator must name the first offending node
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]])
        with pytest.raises(ZeroDiagonal, match="node 0"):
            validate_consensus(a)

    def test_row_sum_failure_names_row(self):
        a = np.full((3, 3), 1.0 / 3)
        a[1, 1] += 0.1
        with pytest.raises(NotStochastic, match="row 1"):
            validate_consensus(a)

    def test_negative_entry(self):
        a = np.array([[0.6, 0.5, -0.1], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]])
        with pytest.raises(NegativeEntry):
            validate_consensus(a)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            validate_consensus(np.ones((2, 3)) / 3)

    def test_empty_matrix_rejected(self):
        # a 0-node matrix used to pass and then fail later layers with a
        # bare ValueError from a reduction over an empty array
        with pytest.raises(DimensionMismatch):
            validate_consensus(np.zeros((0, 0)))

    def test_non_finite_rejected(self):
        a = np.full((3, 3), 1.0 / 3)
        a[0, 0] = np.nan
        with pytest.raises(NotStochastic):
            validate_consensus(a)

    def test_periodic_but_positive_diagonal_ok(self):
        # strong connectivity plus positive diagonal is the whole contract:
        # a directed cycle with self loops passes
        P = circle_matrix(5, 0.4, 0.0)
        assert P.n == 5


class TestInvariantMeasure:
    def test_uniform_measure(self):
        inv = uniform(4).invariant
        np.testing.assert_allclose(inv.pi, 0.25, atol=1e-12)
        assert inv.residual <= 1e-10
        assert inv.route == "lstsq"

    def test_circulant_measure_is_uniform(self):
        inv = circle_matrix(6, 0.3, 0.2).invariant
        np.testing.assert_allclose(inv.pi, 1.0 / 6, atol=1e-10)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.5])
    def test_epsilon_chain_closed_form(self, eps):
        inv = p_epsilon(eps).invariant
        expected = np.array([1.0, 1.0, 2.0 - 2.0 * eps]) / (4.0 - 2.0 * eps)
        np.testing.assert_allclose(inv.pi, expected, atol=1e-10)

    def test_random_measures_are_stationary(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 12))
            P = random_consensus(rng, n)
            inv = P.invariant
            assert inv.residual <= 1e-10
            assert abs(inv.pi.sum() - 1.0) <= 1e-12
            assert inv.pi.min() > 0
            np.testing.assert_allclose(inv.pi @ P.entries, inv.pi, atol=1e-9)

    def test_power_iteration_fallback_on_tiny_entries(self):
        # A birth-death chain with pi_k proportional to (up/down)^k: least
        # squares returns an entry of about -4e-17 here, so only the
        # power-iteration fallback gives a positive measure.
        n, up, down = 10, 0.005, 0.5
        a = np.diag(np.full(n - 1, up), 1) + np.diag(np.full(n - 1, down), -1)
        a += np.diag(1.0 - a.sum(axis=1))
        inv = validate_consensus(a).invariant
        r = up / down
        assert (inv.pi > 0).all()
        assert inv.pi_min == pytest.approx(r ** (n - 1) * (1 - r) / (1 - r ** n),
                                           rel=1e-4)
        assert inv.residual <= 1e-15
        assert inv.route == "power_iteration"

    def test_power_iteration_converges_in_every_entry(self):
        # Same chain: pi_k is proportional to (up/down)^k, entries spanning
        # 18 decades, so each one is checked relative to its exact value.
        n, up, down = 10, 0.005, 0.5
        a = np.diag(np.full(n - 1, up), 1) + np.diag(np.full(n - 1, down), -1)
        a += np.diag(1.0 - a.sum(axis=1))
        pi = validate_consensus(a).invariant.pi
        r = Fraction(up) / Fraction(down)
        total = sum(r ** k for k in range(n))
        for k in range(n):
            assert pi[k] == pytest.approx(float(r ** k / total), rel=1e-12, abs=0)

    def test_extremes_and_diag(self):
        inv = p_epsilon(0.25).invariant
        assert inv.pi_min == inv.pi.min()
        assert inv.pi_max == inv.pi.max()
        np.testing.assert_array_equal(np.diag(inv.diag), inv.pi)


class TestTimeReversal:
    def test_uniform_fixed_point(self):
        P = uniform(5)
        np.testing.assert_allclose(time_reversal(P).entries, P.entries, atol=1e-12)

    def test_involution(self, rng):
        for _ in range(10):
            P = random_consensus(rng, int(rng.integers(3, 10)))
            back = time_reversal(time_reversal(P))
            assert np.abs(back.entries - P.entries).max() <= 1e-12

    def test_preserves_invariant_measure(self, rng):
        P = random_consensus(rng, 7)
        np.testing.assert_allclose(time_reversal(P).invariant.pi, P.invariant.pi,
                                   atol=1e-10)

    def test_reversible_matrix_is_fixed(self, rng):
        P = random_reversible(rng, 6)
        assert np.abs(time_reversal(P).entries - P.entries).max() <= 1e-9

    def test_entries_are_the_cached_reversal(self, rng):
        P = random_consensus(rng, 6)
        assert P.reversal is P.reversal
        assert not P.reversal.flags.writeable
        np.testing.assert_array_equal(time_reversal(P).entries, P.reversal)


class TestMultiplicativeReversiblization:
    def test_reversible_gives_square(self, rng):
        P = random_reversible(rng, 6)
        M = multiplicative_reversiblization(P)
        np.testing.assert_allclose(M.entries, P.entries @ P.entries, atol=1e-12)

    def test_result_is_reversible(self, rng):
        for _ in range(10):
            P = random_consensus(rng, int(rng.integers(3, 10)))
            M = multiplicative_reversiblization(P)
            flow = M.invariant.pi[:, None] * M.entries
            assert np.abs(flow - flow.T).max() <= 1e-10

    def test_same_invariant_measure(self, rng):
        P = random_consensus(rng, 8)
        M = multiplicative_reversiblization(P)
        np.testing.assert_allclose(M.invariant.pi, P.invariant.pi, atol=1e-9)

    def test_uniform_fixed_point(self):
        P = uniform(4)
        np.testing.assert_allclose(
            multiplicative_reversiblization(P).entries, P.entries, atol=1e-12)


class TestClassify:
    def test_commuting_but_not_reversible_example(self):
        cls = classify(commuting_example())
        assert cls.commuting
        assert not cls.reversible
        assert not cls.normal
        assert not cls.doubly_stochastic

    def test_asymmetric_circulant_is_normal_not_reversible(self):
        cls = classify(circle_matrix(5, 0.3, 0.2))
        assert cls.normal
        assert cls.doubly_stochastic
        assert cls.commuting
        assert not cls.reversible

    def test_symmetric_circulant_is_reversible(self):
        cls = classify(circle_matrix(6, 0.3, 0.3))
        assert cls.reversible
        assert cls.normal

    def test_epsilon_chain_is_not_commuting(self):
        assert not classify(p_epsilon(0.1)).commuting

    def test_epsilon_half_is_commuting(self):
        assert classify(p_epsilon(0.5)).commuting

    def test_reversible_implies_commuting(self, rng):
        # row normalizations of symmetric matrices are reversible; the flag
        # implication must hold with zero violations
        for _ in range(100):
            cls = classify(random_reversible(rng, int(rng.integers(3, 9))))
            assert cls.reversible
            assert cls.commuting

    def test_flag_implications_enforced(self):
        with pytest.raises(ValueError):
            MatrixClass(reversible=False, normal=True, commuting=True,
                        doubly_stochastic=False)
        with pytest.raises(ValueError):
            MatrixClass(reversible=True, normal=False, commuting=False,
                        doubly_stochastic=False)


class TestSupportGraphs:
    def test_epsilon_chain_degrees(self):
        g = p_epsilon(0.1).graphs
        assert g.delta_in == 1
        assert g.delta_out == 1
        assert g.delta_undirected == 2
        assert g.p_min == pytest.approx(0.1)
        assert g.p_max == pytest.approx(0.9)

    def test_torus_case2_in_degree(self):
        assert cayley_case2(4, 2).graphs.delta_in == 2
        assert cayley_case2(3, 3).graphs.delta_in == 3

    def test_torus_case1_in_degree(self):
        _, P = cayley_case1(4, 3, seed=0)
        assert P.graphs.delta_in == 26

    def test_undirected_is_symmetrization(self, rng):
        P = random_consensus(rng, 9, density=0.3)
        g = P.graphs
        np.testing.assert_array_equal(g.undirected, g.directed | g.directed.T)
        assert g.directed.diagonal().all()

    def test_entry_extremes_cover_diagonal(self, rng):
        P = random_consensus(rng, 7)
        g = P.graphs
        nz = P.entries[P.entries > 0]
        assert g.p_min == pytest.approx(nz.min())
        assert g.p_max == pytest.approx(nz.max())


class TestMatrixFiles:
    def test_round_trip(self, rng, tmp_path):
        P = random_consensus(rng, 8)
        path = tmp_path / "matrix.csv"
        save_matrix_csv(P, path)
        Q = load_matrix_csv(path)
        assert np.abs(P.entries - Q.entries).max() <= 1e-15
        np.testing.assert_array_equal(P.support, Q.support)
        np.testing.assert_allclose(P.invariant.pi, Q.invariant.pi, atol=1e-12)

    def test_load_rejects_non_stochastic(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.5,0.6\n")
        with pytest.raises(NotStochastic, match="row 1"):
            load_matrix_csv(path)

    def test_load_rejects_reducible(self, tmp_path):
        path = tmp_path / "reducible.csv"
        path.write_text("1,0\n0,1\n")
        with pytest.raises(NotIrreducible):
            load_matrix_csv(path)

    @pytest.mark.parametrize("coupling", [1e-6, 1e-9, 1e-12, 1e-14, 1e-15, 1e-16])
    def test_same_verdict_in_memory_and_from_file(self, tmp_path, coupling):
        # One structural-zero rule: a coupling at or below SUPPORT_THRESHOLD
        # is no edge, whether the matrix is built in memory or read back.
        a = two_clique_entries(40, coupling)
        path = tmp_path / "cliques.csv"
        save_matrix_csv(a, path)
        verdicts = []
        for build in (lambda: validate_consensus(a), lambda: load_matrix_csv(path)):
            try:
                build()
                verdicts.append("accepted")
            except NotIrreducible:
                verdicts.append("NotIrreducible")
        expected = "accepted" if coupling > SUPPORT_THRESHOLD else "NotIrreducible"
        assert verdicts == [expected, expected]


def scipy_components(support, directed):
    """(component count, labels) from scipy: the reference for `reach`."""
    return csgraph.connected_components(csr_matrix(support), directed=directed,
                                        connection="strong")


def reach_verdicts(support):
    """(strongly connected, connected as an undirected graph) from `reach`."""
    full = (1 << support.shape[0]) - 1
    return (strong_component(support) == full,
            reach(support | support.T) == full)


def scipy_verdicts(support):
    return (scipy_components(support, True)[0] == 1,
            scipy_components(support | support.T, False)[0] == 1)


def random_support(seed, n, density, symmetric):
    rng = np.random.default_rng(seed)
    support = rng.random((n, n)) < density
    return support | support.T if symmetric else support


def two_cliques_one_arc(n):
    """Two complete halves joined by the single arc (0, n // 2)."""
    h = n // 2
    support = np.zeros((n, n), dtype=bool)
    support[:h, :h] = support[h:, h:] = True
    support[0, h] = True
    return support


supports = st.builds(random_support, seed=st.integers(0, 2**32 - 1),
                     n=st.integers(1, 40), density=st.floats(0.02, 0.9),
                     symmetric=st.booleans())


class TestReach:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(support=supports)
    def test_verdicts_match_scipy(self, support):
        assert reach_verdicts(support) == scipy_verdicts(support)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(support=supports)
    def test_mask_is_the_breadth_first_closure(self, support):
        # Bit i is set iff scipy's shortest path from node 0 to i is finite.
        dist = csgraph.shortest_path(csr_matrix(support), directed=True,
                                     unweighted=True, indices=0)
        expected = sum(1 << i for i in np.flatnonzero(np.isfinite(dist)))
        assert reach(support) == expected

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(support=supports)
    def test_strong_component_matches_scipy_labels(self, support):
        labels = scipy_components(support, True)[1]
        expected = sum(1 << i for i in np.flatnonzero(labels == labels[0]))
        assert strong_component(support) == expected

    @pytest.mark.parametrize("shape", ["ring", "path"])
    def test_2000_node_directed_chain(self, shape):
        n = 2000
        support = np.zeros((n, n), dtype=bool)
        support[np.arange(n - 1), np.arange(1, n)] = True
        if shape == "ring":
            support[n - 1, 0] = True
        assert reach_verdicts(support) == scipy_verdicts(support)
        assert reach_verdicts(support) == (shape == "ring", True)

    def test_576_node_workload_torus(self):
        # The largest torus of the benchmark's torus workload at seed 1.
        gen = cayley_case1_generator(2, seed=[1, 1, 2, 24, 0])
        support = cayley_matrix(24, gen).support
        assert reach_verdicts(support) == scipy_verdicts(support) == (True, True)

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_two_cliques_joined_by_one_arc(self, n):
        support = two_cliques_one_arc(n)
        assert reach_verdicts(support) == scipy_verdicts(support) == (False, True)
        assert reach(support) == (1 << n) - 1
        assert strong_component(support) == (1 << n // 2) - 1


class TestNotIrreducibleMessage:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(support=supports)
    def test_names_scipy_outsider_and_component_size(self, support):
        # The outsider is the smallest node outside node 0's strongly
        # connected component, as scipy labels it.
        np.fill_diagonal(support, True)
        a = support / support.sum(axis=1, keepdims=True)
        ncomp, labels = scipy_components(support, True)
        if ncomp == 1:
            validate_consensus(a)
            return
        outsider = int(np.argmax(labels != labels[0]))
        size = int((labels == labels[0]).sum())
        n = support.shape[0]
        with pytest.raises(NotIrreducible) as info:
            validate_consensus(a)
        assert str(info.value) == (
            f"support graph is not strongly connected: the strongly connected "
            f"component of node 0 has {size} of {n} nodes; "
            f"node {outsider} is not reachable from/to node 0")

    def test_two_cliques_joined_by_one_arc(self):
        support = two_cliques_one_arc(10)
        with pytest.raises(NotIrreducible, match="has 5 of 10 nodes; node 5 "):
            validate_consensus(support / support.sum(axis=1, keepdims=True))
