import itertools

import numpy as np
import pytest

from lqconsensus import (
    CayleyGenerator,
    Disconnected,
    GeometricParams,
    InfeasibleDensity,
    InvalidGenerator,
    InvalidWeights,
    OutOfRange,
    RejectionExhausted,
    audit_block,
    cayley_case1,
    cayley_case1_generator,
    cayley_case2,
    cayley_case2_generator,
    cayley_matrix,
    circle_matrix,
    classify,
    commuting_example,
    gamma_check,
    load_edge_list,
    lq_cost_exact,
    p_epsilon,
    rho_check,
    sample_geometric,
    save_coordinates_csv,
    save_edge_list,
    time_reversal,
)
from lqconsensus import graph_gen
from helpers import rho_n_floyd_warshall


class TestCayleyGenerator:
    def test_valid_generator(self):
        gen = CayleyGenerator(d=2, weights={(0, 0): 0.5, (1, 0): 0.3, (0, 1): 0.2})
        assert gen.offsets == ((0, 0), (0, 1), (1, 0))

    def test_offset_entries_restricted(self):
        with pytest.raises(InvalidGenerator):
            CayleyGenerator(d=1, weights={(0,): 0.5, (2,): 0.5})

    def test_offset_dimension_checked(self):
        with pytest.raises(InvalidGenerator):
            CayleyGenerator(d=2, weights={(0, 0): 0.5, (1,): 0.5})

    def test_zero_offset_required(self):
        with pytest.raises(InvalidGenerator):
            CayleyGenerator(d=1, weights={(1,): 0.5, (-1,): 0.5})

    def test_weights_positive(self):
        with pytest.raises(InvalidGenerator):
            CayleyGenerator(d=1, weights={(0,): 1.0, (1,): 0.0})

    def test_weights_sum_to_one(self):
        with pytest.raises(InvalidGenerator):
            CayleyGenerator(d=1, weights={(0,): 0.5, (1,): 0.4})


class TestCayleyMatrix:
    def test_one_dimensional_matches_circle(self):
        # dyadic weights so both construction routes agree bit for bit
        gen = CayleyGenerator(d=1, weights={(0,): 0.5, (1,): 0.375, (-1,): 0.125})
        P = cayley_matrix(6, gen)
        np.testing.assert_array_equal(P.entries,
                                      circle_matrix(6, 0.375, 0.125).entries)

    def test_orientation_swap_transposes(self):
        gen = CayleyGenerator(d=1, weights={(0,): 0.5, (-1,): 0.375, (1,): 0.125})
        P = cayley_matrix(6, gen)
        np.testing.assert_array_equal(P.entries,
                                      circle_matrix(6, 0.125, 0.375).entries)

    def test_small_torus_rejected(self):
        gen = CayleyGenerator(d=1, weights={(0,): 0.5, (1,): 0.5})
        with pytest.raises(InvalidGenerator):
            cayley_matrix(2, gen)

    def test_rows_are_translates(self):
        gen = CayleyGenerator(d=2, weights={(0, 0): 0.4, (1, 0): 0.3, (0, -1): 0.3})
        P = cayley_matrix(4, gen)
        # entry (u, v) depends only on u - v mod n, coordinatewise
        nodes = [(a, b) for a in range(4) for b in range(4)]
        for i, u in enumerate(nodes):
            for j, v in enumerate(nodes):
                diff = ((u[0] - v[0]) % 4, (u[1] - v[1]) % 4)
                key = tuple(x if x <= 1 else x - 4 for x in diff)
                expected = gen.weights.get(key, 0.0)
                assert P.entries[i, j] == expected

    def test_cayley_matrices_are_normal(self):
        gen = CayleyGenerator(d=2, weights={(0, 0): 0.4, (1, 1): 0.35, (-1, 0): 0.25})
        cls = classify(cayley_matrix(5, gen))
        assert cls.normal
        assert cls.doubly_stochastic


class TestCayleyCase1:
    @pytest.mark.parametrize("d,lo,hi", [(2, 0.05, 0.2), (3, 0.01, 0.1)])
    def test_default_ranges(self, d, lo, hi):
        gen, P = cayley_case1(3, d, seed=1)
        w = np.array(list(gen.weights.values()))
        assert len(gen.weights) == 3**d
        assert (w >= lo).all() and (w <= hi).all()
        assert P.n == 3**d

    def test_matrix_matches_generator(self):
        gen, P = cayley_case1(4, 2, seed=2)
        np.testing.assert_array_equal(P.entries, cayley_matrix(4, gen).entries)

    def test_deterministic_in_seed(self):
        gen_a, _ = cayley_case1(3, 2, seed=9)
        gen_b, _ = cayley_case1(3, 2, seed=9)
        gen_c, _ = cayley_case1(3, 2, seed=10)
        assert gen_a.weights == gen_b.weights
        assert gen_a.weights != gen_c.weights

    def test_narrow_band_exhausts(self, monkeypatch):
        # nine weights summing to 1 can all lie in [0.11, 0.112] (at 1/9,
        # for one), but a uniform draw essentially never lands there
        monkeypatch.setattr(graph_gen, "CASE1_MAX_DRAWS", 50)
        with pytest.raises(RejectionExhausted, match="after 50 draws"):
            cayley_case1(3, 2, p_min=0.11, p_max=0.112)

    @pytest.mark.parametrize("d,p_min,p_max", [
        (2, 0.2, 0.3),     # 9 * p_min > 1: the weights would sum above 1
        (2, 0.01, 0.1),    # 9 * p_max < 1: the weights would sum below 1
        (3, 0.04, 0.05),   # 27 * p_min > 1
        (3, 0.001, 0.03),  # 27 * p_max < 1
    ])
    def test_infeasible_band_fails_before_drawing(self, monkeypatch, d, p_min, p_max):
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was seeded for an infeasible band")
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(OutOfRange, match="cannot all lie"):
            cayley_case1(4, d, p_min=p_min, p_max=p_max)
        with pytest.raises(OutOfRange, match="cannot all lie"):
            cayley_case1_generator(d, p_min=p_min, p_max=p_max)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 7, [5, 1, 2, 24, 3]])
    def test_default_band_draws_the_same_weights(self, d, seed):
        # The rejection loop written out: uniform draws over {-1, 0, 1}^d in
        # product order, normalized, until all lie in the default band.
        lo, hi = {2: (0.05, 0.2), 3: (0.01, 0.1)}[d]
        rng = np.random.default_rng(seed)
        while True:
            raw = rng.random(3 ** d)
            w = raw / raw.sum()
            if ((w >= lo) & (w <= hi)).all():
                break
        expected = dict(zip(itertools.product((-1, 0, 1), repeat=d), w.tolist()))
        assert cayley_case1_generator(d, seed=seed).weights == expected
        assert cayley_case1(3, d, seed=seed)[0].weights == expected

    def test_dimension_gate(self):
        with pytest.raises(OutOfRange):
            cayley_case1(3, 1)

    def test_in_degree_is_full_neighborhood(self):
        _, P = cayley_case1(4, 2, seed=0)
        assert P.graphs.delta_in == 8
        _, P = cayley_case1(3, 3, seed=0)
        assert P.graphs.delta_in == 26


class TestCayleyCase2:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_in_degree_equals_dimension(self, d):
        P = cayley_case2(3, d)
        assert P.graphs.delta_in == d
        assert classify(P).commuting

    def test_one_dimensional_is_lazy_ring(self):
        P = cayley_case2(3, 1)
        np.testing.assert_allclose(P.entries, circle_matrix(3, 0.5, 0.0).entries,
                                   atol=1e-15)
        assert lq_cost_exact(P).j == pytest.approx(8.0 / 9, abs=1e-10)

    def test_dimension_gate(self):
        with pytest.raises(OutOfRange):
            cayley_case2(3, 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matrix_of_generator(self, d):
        gen = cayley_case2_generator(d)
        assert len(gen.weights) == d + 1
        np.testing.assert_array_equal(cayley_case2(4, d).entries,
                                      cayley_matrix(4, gen).entries)


class TestEpsilonChain:
    def test_entries(self):
        P = p_epsilon(0.25)
        np.testing.assert_array_equal(P.entries, [
            [0.25, 0.75, 0.0], [0.0, 0.25, 0.75], [0.5, 0.0, 0.5]])

    @pytest.mark.parametrize("eps", [0.0, -0.1, 0.6])
    def test_range_gate(self, eps):
        with pytest.raises(OutOfRange):
            p_epsilon(eps)

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.25, 0.5])
    def test_eigenvalues_closed_form(self, eps):
        got = np.sort_complex(np.linalg.eigvals(p_epsilon(eps).entries))
        real = eps - 0.25
        imag = 0.5 * np.sqrt(1.75 - 2.0 * eps)
        expected = np.sort_complex(
            np.array([1.0, real + 1j * imag, real - 1j * imag]))
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_commutes_only_at_one_half(self):
        assert classify(p_epsilon(0.5)).commuting
        for eps in [0.1, 0.25, 0.49]:
            assert not classify(p_epsilon(eps)).commuting


class TestCommutingExample:
    def test_classification(self):
        P = commuting_example()
        cls = classify(P)
        assert P.n == 4
        assert cls.commuting
        assert not cls.reversible
        assert not cls.normal
        assert not cls.doubly_stochastic

    def test_commutation_residual(self):
        P = commuting_example()
        star = time_reversal(P).entries
        residual = np.abs(star @ P.entries - P.entries @ star).max()
        assert residual <= 1e-12


class TestCircleMatrix:
    def test_entry_placement(self):
        P = circle_matrix(5, 0.3, 0.2)
        for u in range(5):
            assert P.entries[u, u] == pytest.approx(0.5)
            assert P.entries[u, (u - 1) % 5] == pytest.approx(0.3)
            assert P.entries[u, (u + 1) % 5] == pytest.approx(0.2)

    def test_uniform_invariant_measure(self):
        P = circle_matrix(7, 0.25, 0.35)
        np.testing.assert_allclose(P.invariant.pi, 1.0 / 7, atol=1e-10)

    def test_symmetric_weights_are_reversible(self):
        assert classify(circle_matrix(6, 0.3, 0.3)).reversible

    @pytest.mark.parametrize("p,q", [(0.5, 0.5), (0.7, 0.4), (-0.1, 0.5), (0.0, 0.0)])
    def test_weight_gate(self, p, q):
        with pytest.raises(InvalidWeights):
            circle_matrix(5, p, q)

    def test_size_gate(self):
        with pytest.raises(OutOfRange):
            circle_matrix(1, 0.3, 0.3)


class TestGeometricParams:
    def test_defaults(self):
        params = GeometricParams()
        assert (params.s, params.r) == (0.1, 1.0)
        assert (params.gamma, params.rho) == (1.0, 0.052)
        assert (params.p_e, params.p_d) == (0.8, 0.1)
        assert (params.c, params.b) == (0.5, 0.8)
        assert (params.pi_bar_min, params.pi_bar_max) == (0.1, 3.0)

    def test_gates(self):
        with pytest.raises(OutOfRange):
            GeometricParams(s=1.0, r=1.0)
        with pytest.raises(OutOfRange):
            GeometricParams(p_e=0.0)
        with pytest.raises(OutOfRange):
            GeometricParams(p_d=0.5)
        with pytest.raises(OutOfRange):
            GeometricParams(b=0.0)
        with pytest.raises(OutOfRange):
            GeometricParams(pi_bar_min=3.0, pi_bar_max=3.0)
        with pytest.raises(OutOfRange):
            GeometricParams(gamma=0.0)


class TestGammaCheck:
    def test_center_node_passes(self):
        assert gamma_check(np.array([[0.5, 0.5]]), l=1.0, gamma=0.75)

    def test_conservative_near_boundary(self):
        # the true covering radius is sqrt(2)/2 ~ 0.7071; the grid margin
        # makes the certificate refuse values only slightly above it
        assert not gamma_check(np.array([[0.5, 0.5]]), l=1.0, gamma=0.71)

    def test_empty_corner_fails(self):
        coords = np.array([[0.1, 0.1], [0.2, 0.1], [0.1, 0.2]])
        assert not gamma_check(coords, l=2.0, gamma=1.0)

    def test_tiny_gamma_fails_fast(self):
        assert not gamma_check(np.array([[0.5, 0.5]]), l=1.0, gamma=0.001)

    def test_pass_implies_true_coverage(self, rng):
        # one-sided guarantee: every accepted configuration really covers the
        # box at radius gamma, confirmed on a 10x finer grid
        l, gamma = 2.0, 1.0
        passes = 0
        for _ in range(20):
            coords = rng.random((12, 2)) * l
            if not gamma_check(coords, l, gamma):
                continue
            passes += 1
            fine = np.stack(np.meshgrid(*(np.linspace(0, l, 301),) * 2,
                                        indexing="ij"), axis=-1).reshape(-1, 2)
            dists = np.sqrt(((fine[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
            assert dists.min(axis=1).max() <= gamma
        assert passes > 0


class TestRhoCheck:
    def test_two_nodes(self):
        coords = np.array([[0.0, 0.0], [0.7, 0.0]])
        adj = np.array([[False, True], [True, False]])
        ok, rho_n = rho_check(adj, coords, rho=0.5)
        assert ok
        assert rho_n == pytest.approx(0.7)

    def test_straight_path(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
        ok, rho_n = rho_check(adj, coords, rho=0.9)
        assert ok
        assert rho_n == pytest.approx(1.0)

    def test_detour_lowers_ratio(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1]])
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 2] = adj[2, 0] = adj[1, 2] = adj[2, 1] = True
        ok, rho_n = rho_check(adj, coords, rho=0.9)
        assert not ok
        assert rho_n == pytest.approx(0.5)

    def test_disconnected_raises(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(Disconnected):
            rho_check(np.zeros((2, 2), dtype=bool), coords, rho=0.5)

    @pytest.mark.parametrize("n, d", [(30, 2), (80, 2), (60, 3)])
    def test_rho_n_matches_floyd_warshall(self, n, d):
        # The sampler's rho_n and a direct call both equal the all-pairs
        # Floyd-Warshall ratio, on the accepted graph and on a sparser one.
        inst = sample_geometric(GeometricParams(), n, d, seed=[7, d, n, 0])
        coords, graph = inst.coordinates, inst.graph
        expected = rho_n_floyd_warshall(graph, coords)
        assert inst.measured["rho_n"] == expected
        assert rho_check(graph, coords, rho=0.0) == (True, expected)
        rng = np.random.default_rng(n)
        path = np.zeros_like(graph)
        order = rng.permutation(n)
        path[order[:-1], order[1:]] = path[order[1:], order[:-1]] = True
        sparse = path | (graph & (rng.random(graph.shape) < 0.3))
        sparse |= sparse.T
        assert rho_check(sparse, coords, rho=0.0)[1] == \
            rho_n_floyd_warshall(sparse, coords)


class TestSampleGeometric:
    def test_accepted_instance_invariants(self):
        params = GeometricParams()
        inst = sample_geometric(params, n=25, d=2, seed=[0, 2, 25, 0])
        coords = inst.coordinates
        n = 25
        l = params.c * n**0.5
        assert coords.shape == (n, 2)
        assert coords.min() >= 0.0 and coords.max() <= l
        de = np.sqrt(((coords[:, None] - coords[None, :]) ** 2).sum(-1))
        iu = np.triu_indices(n, 1)
        assert de[iu].min() >= params.s
        assert de[inst.graph].max() <= params.r
        assert inst.measured["s_n"] >= params.s
        assert inst.measured["r_n"] <= params.r
        assert inst.measured["rho_n"] >= params.rho
        assert inst.measured["gamma_ok"]
        # directed support sits inside the undirected graph
        P = inst.matrix
        off_support = P.support & ~np.eye(n, dtype=bool)
        assert not (off_support & ~inst.graph).any()
        nz = P.entries[P.entries > 0]
        assert nz.min() >= params.b / n
        npi = n * P.invariant.pi
        assert npi.min() >= params.pi_bar_min
        assert npi.max() <= params.pi_bar_max
        assert inst.audit["attempts"] >= 1
        assert inst.audit["pi_check"] == "symmetric"

    def test_deterministic_in_seed(self):
        params = GeometricParams()
        a = sample_geometric(params, n=20, d=2, seed=11)
        b = sample_geometric(params, n=20, d=2, seed=11)
        c = sample_geometric(params, n=20, d=2, seed=12)
        np.testing.assert_array_equal(a.coordinates, b.coordinates)
        np.testing.assert_array_equal(a.matrix.entries, b.matrix.entries)
        assert not np.array_equal(a.coordinates, c.coordinates)

    def test_direction_deletion_creates_one_way_edges(self):
        params = GeometricParams(p_d=0.45)
        for seed in range(6):
            inst = sample_geometric(params, n=25, d=2, seed=seed,
                                    max_attempts=2000)
            sup = inst.matrix.support
            one_way = inst.graph & (sup ^ sup.T)
            if one_way.any():
                return
        pytest.fail("no asymmetric edge produced at p_d = 0.45 across 6 seeds")

    def test_infeasible_density(self, monkeypatch):
        params = GeometricParams(s=0.99, r=1.0)
        monkeypatch.setattr(graph_gen, "NODE_ATTEMPT_CAP", 200)
        with pytest.raises(InfeasibleDensity, match="within 200 attempts"):
            sample_geometric(params, n=30, d=2, seed=0)

    def test_unreachable_ratio_exhausts(self):
        params = GeometricParams(rho=10.0)
        with pytest.raises(RejectionExhausted):
            sample_geometric(params, n=15, d=2, seed=0, max_attempts=3)

    def test_argument_gates(self):
        with pytest.raises(OutOfRange):
            sample_geometric(GeometricParams(), n=1, d=2, seed=0)
        with pytest.raises(OutOfRange):
            sample_geometric(GeometricParams(), n=10, d=4, seed=0)


class TestGeometricFiles:
    def test_coordinate_and_edge_round_trip(self, tmp_path):
        inst = sample_geometric(GeometricParams(), n=20, d=2, seed=3)
        cpath = tmp_path / "coords.csv"
        epath = tmp_path / "edges.txt"
        save_coordinates_csv(inst, cpath)
        save_edge_list(inst, epath)
        coords = np.loadtxt(cpath, delimiter=",")
        assert np.abs(coords - inst.coordinates).max() <= 1e-15
        adj = load_edge_list(epath, n=20)
        np.testing.assert_array_equal(adj > 0, inst.graph)

    def test_edge_list_round_trip_infers_n(self, tmp_path):
        # An accepted graph is connected, so every node appears in some edge.
        inst = sample_geometric(GeometricParams(), n=25, d=2, seed=5)
        path = tmp_path / "edges.txt"
        save_edge_list(inst, path)
        for line in path.read_text().splitlines():
            u, v = map(int, line.split())
            assert 0 <= u < v < 25
        np.testing.assert_array_equal(load_edge_list(path), inst.graph.astype(float))

    def test_edge_list_weights(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 0.5\n\n1 2\n")
        np.testing.assert_array_equal(load_edge_list(path, n=4), [
            [0.0, 0.5, 0.0, 0.0], [0.5, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("text,n,lineno", [
        # negative indexing would wrap -1 to the last node
        pytest.param("0 1\n-1 2\n", None, 2, id="negative"),
        pytest.param("0 1\n2 -1\n", 3, 2, id="negative-given-n"),
        pytest.param("0 1\n1 3\n", 3, 2, id="equal-to-n"),
        pytest.param("\n0 7\n", 5, 2, id="after-blank-line"),
    ])
    def test_edge_list_id_out_of_range(self, tmp_path, text, n, lineno):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        with pytest.raises(OutOfRange, match=f"edges.txt:{lineno}: "):
            load_edge_list(path, n=n)

    @pytest.mark.parametrize("text,lineno", [
        pytest.param("0\n", 1, id="one-field"),
        pytest.param("0 1\n\n2\n", 3, id="blank-lines-count"),
        pytest.param("0 1 0.5 9\n", 1, id="four-fields"),
        pytest.param("0 one\n", 1, id="word-id"),
        pytest.param("0 1.5\n", 1, id="float-id"),
        pytest.param("0 1 heavy\n", 1, id="word-weight"),
    ])
    def test_edge_list_malformed_line(self, tmp_path, text, lineno):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        message = rf"edges.txt:{lineno}: expected 'u v \[weight\]'"
        with pytest.raises(ValueError, match=message):
            load_edge_list(path)

    def test_audit_block_lists_measurements(self):
        inst = sample_geometric(GeometricParams(), n=15, d=2, seed=4)
        block = audit_block(inst)
        for key in ["s_n=", "r_n=", "rho_n=", "gamma_ok=", "attempts=",
                    "pi_check=symmetric"]:
            assert key in block
