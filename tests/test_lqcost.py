import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_lyapunov

from lqconsensus import (
    GeometricParams,
    SolveFailure,
    SteinDivergence,
    circle_matrix,
    green_matrix,
    lq_cost_exact,
    lq_cost_truncated,
    noisy_consensus_estimate,
    p_epsilon,
    sample_geometric,
    trace_pair,
)
from lqconsensus import lqcost
from helpers import (
    random_circulant,
    random_consensus,
    random_reversible,
    sparse_consensus,
    stein_by_doubling,
    truncated_series_dense,
    two_cliques,
    uniform,
)


def series_cost(P, terms=60_000, tol=1e-14):
    """Brute-force partial sums of J and J_w, independent of the solvers."""
    pi = P.invariant.pi
    n = P.n
    target = np.outer(np.ones(n), pi)
    power = np.eye(n)
    j = jw = 0.0
    for _ in range(terms):
        b = power - target
        term = float((b * b).sum()) / n
        j += term
        jw += float((pi[:, None] * b * b).sum())
        if term < tol:
            break
        power = power @ P.entries
    return j, jw


def lyapunov_cost(P):
    """J and J_w from two primal Stein equations X = Abar^T X Abar + Q, solved
    by scipy; independent of the package's dual doubling solver."""
    pi = P.invariant.pi
    n = P.n
    abar = P.entries - np.outer(np.ones(n), pi)
    x = solve_discrete_lyapunov(abar.T, np.eye(n))
    x_w = solve_discrete_lyapunov(abar.T, np.diag(pi))
    sum_pi2 = float(pi @ pi)
    j = (float(np.trace(x)) - 2.0 + n * sum_pi2) / n
    jw = (1.0 - sum_pi2) + float(np.trace(x_w)) - 1.0
    return j, jw


class TestGreenMatrix:
    def test_uniform_closed_form(self):
        g = green_matrix(uniform(3))
        np.testing.assert_allclose(g, np.eye(3) - np.full((3, 3), 1 / 3),
                                   atol=1e-12)
        assert np.trace(g) == pytest.approx(2.0, abs=1e-12)

    def test_result_is_a_read_only_array(self):
        g = green_matrix(uniform(4))
        assert type(g) is np.ndarray and g.shape == (4, 4)
        assert not g.flags.writeable

    def test_annihilation_identities(self, rng):
        for _ in range(15):
            P = random_consensus(rng, int(rng.integers(3, 12)))
            g = green_matrix(P)
            assert np.abs(g.sum(axis=1)).max() <= 1e-9
            assert np.abs(P.invariant.pi @ g).max() <= 1e-9

    def test_matches_series_definition(self, rng):
        P = random_consensus(rng, 5)
        pi = P.invariant.pi
        target = np.outer(np.ones(5), pi)
        total = np.zeros((5, 5))
        power = np.eye(5)
        for _ in range(20_000):
            total += power - target
            power = power @ P.entries
        assert np.abs(green_matrix(P) - total).max() <= 1e-8

    @pytest.mark.parametrize("make", [lambda: uniform(3),
                                      lambda: two_cliques(40, 1e-6)])
    def test_identity_gate_fires_on_a_wrong_inverse(self, make, monkeypatch):
        # The gate is relative to max|G|, so a shift of 1e-6 max|G| must
        # still be refused on a matrix whose G is large.
        P = make()
        shift = 1e-6 * np.abs(green_matrix(P)).max()
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: inv(m) + shift)
        with pytest.raises(SolveFailure, match="Green matrix identities"):
            green_matrix(P)

    def test_singular_inverse_is_a_solve_failure(self, monkeypatch):
        def singular(m):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(SolveFailure, match="inverse failed: Singular matrix"):
            green_matrix(uniform(3))


class TestExactCost:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_uniform_closed_form(self, n):
        report = lq_cost_exact(uniform(n))
        assert report.j == pytest.approx((n - 1) / n, abs=1e-12)
        assert report.j_weighted == pytest.approx((n - 1) / n, abs=1e-12)
        assert report.method == "exact"

    def test_lazy_cycle_closed_form(self):
        report = lq_cost_exact(circle_matrix(3, 0.5, 0.0))
        assert report.j == pytest.approx(8.0 / 9, abs=1e-10)

    def test_epsilon_chain_pinned_value(self):
        # frozen against an independent 60k-term series evaluation
        assert lq_cost_exact(p_epsilon(0.1)).j == pytest.approx(
            1.2668874626811868, abs=1e-9)

    def test_doubly_stochastic_weights_coincide(self, rng):
        for _ in range(10):
            P = random_circulant(rng, int(rng.integers(3, 10)))
            report = lq_cost_exact(P)
            assert report.j_weighted == pytest.approx(report.j, abs=1e-10)

    def test_t0_term_formula(self, rng):
        P = random_consensus(rng, 6)
        pi = P.invariant.pi
        n = P.n
        expected = (n - 2.0 + n * float(pi @ pi)) / n
        assert lq_cost_exact(P).t0_term == pytest.approx(expected, abs=1e-12)

    def test_matches_series(self, rng):
        for _ in range(8):
            P = random_consensus(rng, int(rng.integers(3, 10)))
            report = lq_cost_exact(P)
            j, jw = series_cost(P)
            assert report.j == pytest.approx(j, rel=1e-9)
            assert report.j_weighted == pytest.approx(jw, rel=1e-9)
            assert report.stein_residual <= 1e-11

    def test_weighted_sandwich(self, rng):
        # (1/(n pi_max)) J_w <= J <= (1/(n pi_min)) J_w
        for _ in range(20):
            P = random_consensus(rng, int(rng.integers(3, 12)))
            inv = P.invariant
            r = lq_cost_exact(P)
            assert r.j_weighted / (P.n * inv.pi_max) <= r.j + 1e-12
            assert r.j <= r.j_weighted / (P.n * inv.pi_min) + 1e-12

    def test_large_matrix_uses_iterative_path(self, rng):
        P = random_consensus(rng, 70, density=0.2)
        report = lq_cost_exact(P)
        truncated = lq_cost_truncated(P)
        assert report.j == pytest.approx(truncated.j, rel=1e-4)
        assert report.stein_residual <= 1e-11

    def test_matches_lyapunov_oracle(self, rng):
        for n in range(2, 61):
            P = random_consensus(rng, n)
            report = lq_cost_exact(P)
            j, jw = lyapunov_cost(P)
            assert report.j == pytest.approx(j, rel=1e-12)
            assert report.j_weighted == pytest.approx(jw, rel=1e-12)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(2, 40), density=st.floats(0.0, 0.3),
           seed=st.integers(0, 2**32 - 1))
    def test_sparse_non_normal_matches_lyapunov_oracle(self, n, density, seed):
        P = sparse_consensus(np.random.default_rng(seed), n, density)
        report = lq_cost_exact(P)
        j, jw = lyapunov_cost(P)
        assert report.j == pytest.approx(j, rel=1e-12)
        assert report.j_weighted == pytest.approx(jw, rel=1e-12)
        assert lq_cost_truncated(P).j <= report.j * (1 + 1e-12)

    def test_near_reducible_two_cliques(self):
        # A valid matrix with J ~ 1.25e5: its Stein solution is large, so an
        # absolute residual gate at 1e-11 refused it; the relative one passes.
        # The slow mode has 1 - lambda^2 ~ 2e-7, which amplifies rounding by
        # ~5e6, so two double-precision solvers agree only to ~1e-9.
        P = two_cliques(40, 1e-6)
        report = lq_cost_exact(P)
        j, jw = lyapunov_cost(P)
        assert report.j == pytest.approx(j, rel=1e-8)
        assert report.j_weighted == pytest.approx(jw, rel=1e-8)
        assert report.j_weighted == pytest.approx(report.j, rel=1e-12)
        assert report.stein_residual <= 1e-11

    def test_residual_gate_fires_on_a_wrong_solution(self, monkeypatch):
        solve = lqcost._solve_dual_stein

        def off_by_1e6(abar):
            y, doublings = solve(abar)
            return y + 1e-6, doublings

        monkeypatch.setattr(lqcost, "_solve_dual_stein", off_by_1e6)
        with pytest.raises(SteinDivergence):
            lq_cost_exact(p_epsilon(0.1))


class TestSteinDivergence:
    """`_solve_dual_stein` refuses a matrix whose series does not converge:
    at once when an update overflows, otherwise after STEIN_MAX_DOUBLINGS."""

    def test_overflow_is_refused(self):
        # Abar = 2 I: the updates grow as 2^(2^k) and overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SteinDivergence, match="non-finite values"):
                lqcost._solve_dual_stein(2.0 * np.eye(2))

    def test_no_convergence_is_refused(self):
        # Abar = I: Y doubles each time and stays finite, but no update
        # ever falls below the stopping threshold.
        limit = lqcost.STEIN_MAX_DOUBLINGS
        with pytest.raises(SteinDivergence, match=f"did not converge in {limit} steps"):
            lqcost._solve_dual_stein(np.eye(2))


class TestSteinStoppingRule:
    """The one-product first update and the stop on the entrywise bound
    |a_i| |a_j| tr(Y) leave J, J_w and the Stein residual bit for bit those
    of plain doubling, and save at most the last doubling."""

    @staticmethod
    def assert_same_bits(P):
        report = lq_cost_exact(P)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lqcost, "_solve_dual_stein", stein_by_doubling)
            reference = lq_cost_exact(P)
        assert report.j == reference.j
        assert report.j_weighted == reference.j_weighted
        assert report.stein_residual == reference.stein_residual
        assert report.steps_used in (reference.steps_used,
                                     reference.steps_used - 1)
        return report, reference

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(n=st.integers(2, 40), kind=st.sampled_from(
               ["dense", "reversible", "sparse", "circulant"]),
           density=st.floats(0.0, 0.6), seed=st.integers(0, 2**32 - 1))
    def test_consensus_matrices(self, n, kind, density, seed):
        rng = np.random.default_rng(seed)
        P = {"dense": lambda: random_consensus(rng, n, max(density, 0.1)),
             "reversible": lambda: random_reversible(rng, n, max(density, 0.1)),
             "sparse": lambda: sparse_consensus(rng, n, density),
             "circulant": lambda: random_circulant(rng, n)}[kind]()
        self.assert_same_bits(P)

    def test_workload_graph(self):
        P = sample_geometric(GeometricParams(), 300, 2, seed=[1, 2, 300, 0]).matrix
        report, reference = self.assert_same_bits(P)
        assert report.steps_used == reference.steps_used - 1


class TestTruncatedCost:
    def test_uniform_stops_after_window(self):
        report = lq_cost_truncated(uniform(4))
        assert report.j == pytest.approx(0.75, abs=1e-12)
        assert report.steps_used == 11
        assert report.method == "truncated"

    def test_matches_exact(self):
        for P in [p_epsilon(0.25), circle_matrix(8, 0.3, 0.2)]:
            exact = lq_cost_exact(P)
            trunc = lq_cost_truncated(P)
            assert trunc.j == pytest.approx(exact.j, rel=1e-5)
            assert trunc.j_weighted == pytest.approx(exact.j_weighted, rel=1e-5)

    def test_t_max_caps_terms(self, monkeypatch):
        monkeypatch.setattr(lqcost, "TRUNCATED_MAX_TERMS", 3)
        report = lq_cost_truncated(p_epsilon(0.001))
        assert report.steps_used == 4


class TestTruncatedRecurrence:
    """The sparse recurrence B_{t+1} = P B_t against the dense powers
    P^t - 1 pi^T: the same number of terms, J and J_w within 1e-13."""

    @staticmethod
    def assert_matches_dense(P):
        report = lq_cost_truncated(P)
        j, jw, steps = truncated_series_dense(P)
        assert report.steps_used == steps
        assert abs(report.j - j) <= 1e-13 * j
        assert abs(report.j_weighted - jw) <= 1e-13 * jw

    def test_validate_sized_matrices(self, rng):
        for n in range(3, 13):
            for P in (random_consensus(rng, n), random_reversible(rng, n),
                      sparse_consensus(rng, n, 0.1)):
                self.assert_matches_dense(P)

    def test_epsilon_chain(self):
        self.assert_matches_dense(p_epsilon(1e-3))

    @pytest.mark.parametrize("n, d", [(25, 2), (100, 2), (200, 2), (125, 3)])
    def test_geometric_matrices(self, n, d):
        inst = sample_geometric(GeometricParams(), n, d, seed=[11, d, n, 0])
        self.assert_matches_dense(inst.matrix)


class TestNoisyConsensus:
    def test_deterministic_in_seed(self):
        P = p_epsilon(0.5)
        a = noisy_consensus_estimate(P, horizon=20, trials=40, seed=7)
        b = noisy_consensus_estimate(P, horizon=20, trials=40, seed=7)
        c = noisy_consensus_estimate(P, horizon=20, trials=40, seed=8)
        assert a == b
        assert a != c

    def test_chunking_does_not_change_result(self):
        P = uniform(3)
        a = noisy_consensus_estimate(P, horizon=15, trials=50, seed=3, chunk=7)
        b = noisy_consensus_estimate(P, horizon=15, trials=50, seed=3, chunk=64)
        assert a == b

    def test_chunk_sizes_agree_bit_for_bit(self):
        # Each block's sum is formed on its own and the sums are added in
        # block order, so the chunk size cannot move even the last bit.
        trials = 3000
        assert trials % lqcost.MC_BLOCK
        for P in (p_epsilon(0.2), circle_matrix(8, 0.3, 0.2)):
            values = {noisy_consensus_estimate(P, horizon=40, trials=trials,
                                               seed=3, chunk=chunk)
                      for chunk in (1, 7, 1000, 4096, trials)}
            assert len(values) == 1

    def test_block_is_keyed_by_seed_and_block_index(self):
        # One full block: x(0) and then one noise array per step, all from
        # default_rng([seed, 0]).
        P = circle_matrix(5, 0.3, 0.2)
        m, seed, horizon = lqcost.MC_BLOCK, 11, 25
        rng = np.random.default_rng([seed, 0])
        x = rng.standard_normal((m, P.n))
        for _ in range(horizon):
            x = x @ P.entries.T + rng.standard_normal((m, P.n))
        e = x - (x @ P.invariant.pi)[:, None]
        expected = float((e * e).sum()) / (m * P.n)
        assert noisy_consensus_estimate(P, horizon=horizon, trials=m,
                                        seed=seed) == expected

    def test_time_steps_are_streamed(self):
        # Holding every step's noise would take 4096 * 501 * 4 * 8 B = 65 MB.
        P = uniform(4)
        tracemalloc.start()
        try:
            noisy_consensus_estimate(P, horizon=500, trials=4096, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_uniform_sanity(self):
        got = noisy_consensus_estimate(uniform(4), horizon=50, trials=4000, seed=0)
        assert got == pytest.approx(0.75, rel=0.1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            noisy_consensus_estimate(uniform(3), horizon=0, trials=10, seed=0)
        with pytest.raises(ValueError):
            noisy_consensus_estimate(uniform(3), horizon=10, trials=0, seed=0)

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_rejects_nonpositive_chunk(self, chunk):
        with pytest.raises(ValueError, match="chunk"):
            noisy_consensus_estimate(uniform(3), horizon=10, trials=10, seed=0,
                                     chunk=chunk)


class TestTracePair:
    def test_time_zero_traces(self, rng):
        P = random_consensus(rng, 6)
        left, right = trace_pair(P, 0)
        assert left == pytest.approx(6.0, abs=1e-12)
        assert right == pytest.approx(6.0, abs=1e-12)

    def test_inequality_random(self, rng):
        for _ in range(40):
            P = random_consensus(rng, int(rng.integers(3, 10)))
            for t in range(9):
                left, right = trace_pair(P, t)
                assert left <= right + 1e-9

    def test_equality_reversible(self, rng):
        for _ in range(10):
            P = random_reversible(rng, int(rng.integers(3, 9)))
            for t in range(7):
                left, right = trace_pair(P, t)
                assert left == pytest.approx(right, abs=1e-10)

    def test_equality_normal(self):
        P = circle_matrix(5, 0.3, 0.2)
        for t in range(7):
            left, right = trace_pair(P, t)
            assert left == pytest.approx(right, abs=1e-10)

    def test_strict_gap_on_epsilon_chain(self):
        left, right = trace_pair(p_epsilon(0.05), 5)
        assert right - left > 1e-6

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            trace_pair(p_epsilon(0.5), -1)
