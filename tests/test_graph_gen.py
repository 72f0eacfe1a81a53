import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix

from lqconsensus import (
    CayleyGenerator,
    Disconnected,
    GeometricParams,
    InfeasibleDensity,
    InvalidGenerator,
    InvalidWeights,
    OutOfRange,
    RejectionExhausted,
    cayley_case1,
    cayley_case1_generator,
    cayley_case2,
    cayley_case2_generator,
    cayley_matrix,
    circle_matrix,
    classify,
    commuting_example,
    gamma_check,
    lq_cost_exact,
    p_epsilon,
    rho_check,
    sample_geometric,
)
from lqconsensus import graph_gen
from helpers import gamma_check_full_grid, rho_n_floyd_warshall


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

    @pytest.mark.parametrize("d,p_min,p_max,seed", [
        (2, 0.08, 0.15, 0), (2, 0.08, 0.15, 2), (3, 0.015, 0.08, 0)])
    def test_draw_budget_is_exact_across_blocks(self, monkeypatch, d, p_min,
                                                p_max, seed):
        # k is the count of single draws the written-out loop takes to accept
        # a weight vector; the band needs more than one block of draws.
        # A budget of k draws still finds it, a budget of k - 1 does not.
        rng = np.random.default_rng(seed)
        k = 0
        while True:
            k += 1
            raw = rng.random(3 ** d)
            w = raw / raw.sum()
            if ((w >= p_min) & (w <= p_max)).all():
                break
        assert k > graph_gen.CASE1_BLOCK
        expected = dict(zip(itertools.product((-1, 0, 1), repeat=d), w.tolist()))
        monkeypatch.setattr(graph_gen, "CASE1_MAX_DRAWS", k)
        assert cayley_case1_generator(d, p_min, p_max, seed=seed).weights == expected
        monkeypatch.setattr(graph_gen, "CASE1_MAX_DRAWS", k - 1)
        with pytest.raises(RejectionExhausted, match=f"after {k - 1} draws"):
            cayley_case1_generator(d, p_min, p_max, seed=seed)

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
        star = P.reversal
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


def lattice_with_hole(d, hole):
    """Nodes every 0.5 on [0, 2]^d, less those within 0.6 of the hole's
    centre: none, the box's centre, or the centre of the face x_d = 0."""
    nodes = np.array(list(itertools.product(np.arange(5) * 0.5, repeat=d)))
    if hole == "none":
        return nodes
    centre = np.ones(d)
    if hole == "face":
        centre[-1] = 0.0
    return nodes[np.linalg.norm(nodes - centre, axis=1) >= 0.6]


def face_coverage(coords, l):
    """The largest nearest-node distance over the grid points on the faces
    of [0, l]^d."""
    divisions = graph_gen.GAMMA_GRID_DIVISIONS
    d = coords.shape[1]
    ticks = np.array(list(itertools.product(range(divisions + 1), repeat=d)))
    face = ticks[((ticks == 0) | (ticks == divisions)).any(axis=1)] * (l / divisions)
    return np.linalg.norm(face[:, None, :] - coords[None], axis=2).min(axis=1).max()


class TestGammaFacesFirst:
    """`gamma_check` queries the face points first and the interior only if
    they pass; its verdict is that of one query of the whole grid."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_hole_on_a_face_or_inside(self, d):
        l, gamma = 2.0, 0.6
        margin = gamma - l / graph_gen.GAMMA_GRID_DIVISIONS * np.sqrt(d) / 2
        whole = lattice_with_hole(d, "none")
        assert gamma_check(whole, l, gamma) and gamma_check_full_grid(whole, l, gamma)
        inside = lattice_with_hole(d, "interior")
        assert face_coverage(inside, l) <= margin
        assert not gamma_check(inside, l, gamma)
        assert not gamma_check_full_grid(inside, l, gamma)
        face = lattice_with_hole(d, "face")
        assert face_coverage(face, l) > margin
        assert not gamma_check(face, l, gamma)
        assert not gamma_check_full_grid(face, l, gamma)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(d=st.sampled_from([1, 2, 3]),
           layout=st.sampled_from(["none", "interior", "face", "uniform"]),
           jitter=st.floats(0.0, 0.15), gamma=st.floats(0.05, 1.5),
           count=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_one_query_of_the_grid(self, d, layout, jitter, gamma,
                                               count, seed):
        rng = np.random.default_rng(seed)
        l = 2.0
        if layout == "uniform":
            coords = rng.random((count, d)) * l
        else:
            coords = lattice_with_hole(d, layout)
            coords = coords + rng.uniform(-jitter, jitter, coords.shape)
        assert gamma_check(coords, l, gamma) == gamma_check_full_grid(coords, l, gamma)

    def test_agrees_on_placed_nodes(self):
        params = GeometricParams()
        verdicts = []
        for n, d in [(100, 2), (300, 2), (60, 3), (200, 1)]:
            l = params.c * n ** (1.0 / d)
            for seed in range(10):
                coords = graph_gen._place_nodes(np.random.default_rng([seed, n, d]),
                                                n, d, l, params.s,
                                                {"nodes_rejected": 0})
                verdicts.append(gamma_check(coords, l, params.gamma))
                assert verdicts[-1] == gamma_check_full_grid(coords, l, params.gamma)
        assert 0 < sum(verdicts) < len(verdicts)


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

    @pytest.mark.parametrize("n, d", [(30, 2), (80, 2), (60, 3), (343, 3)])
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


def random_graph(seed, n, density, isolated, path, symmetric):
    """A random undirected graph with arcs of probability `density`, a random
    path through all nodes when `path` (long hop distances), then the share
    `isolated` of its nodes cut off.  Unless `symmetric`, each edge is given
    in one direction only."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < density, 1)
    if path:
        order = rng.permutation(n)
        adj[order[:-1], order[1:]] = True
    cut = rng.random(n) < isolated
    adj[cut] = False
    adj[:, cut] = False
    return adj | adj.T if symmetric else adj


# n runs past 128, so the packed rows span up to three 64-bit words; the
# second range draws more graphs near that size.
graphs = st.builds(random_graph, seed=st.integers(0, 2**32 - 1),
                   n=st.integers(1, 130) | st.integers(100, 130),
                   density=st.floats(0.0, 0.1),
                   isolated=st.sampled_from([0.0, 0.02, 0.3]),
                   path=st.booleans(), symmetric=st.booleans())


class TestHopDistances:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(graph=graphs)
    def test_matches_floyd_warshall(self, graph):
        # Every finite distance and every unreached (inf) pair agree.
        expected = csgraph.floyd_warshall(csr_matrix(graph.astype(float)),
                                          directed=False, unweighted=True)
        assert np.array_equal(graph_gen._hop_distances(graph), expected)
        n = graph.shape[0]
        coords = np.random.default_rng(n).random((n, 2))
        if np.isinf(expected).any():
            with pytest.raises(Disconnected):
                rho_check(graph, coords, rho=0.0)
        else:
            rho_n = rho_n_floyd_warshall(graph, coords) if n > 1 else np.inf
            assert rho_check(graph, coords, rho=0.0) == (True, rho_n)


def place_nodes_by_norm(rng, n, d, l, s):
    """(coordinates, nodes_rejected) by the rule `_place_nodes` replaces:
    one draw per candidate, and a candidate's gap is np.linalg.norm's
    minimum over all placed nodes."""
    coords = np.empty((n, d))
    rejected = 0
    for placed in range(n):
        for _ in range(graph_gen.NODE_ATTEMPT_CAP):
            candidate = rng.random(d) * l
            if placed == 0 or np.linalg.norm(
                    coords[:placed] - candidate, axis=1).min() >= s:
                break
            rejected += 1
        else:
            raise InfeasibleDensity(
                f"could not place node {placed} of {n} at spacing {s} "
                f"in [0, {l}]^{d} within {graph_gen.NODE_ATTEMPT_CAP} attempts")
        coords[placed] = candidate
    return coords, rejected


class CountingGenerator:
    """A generator that records the shape of every `random` call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.shapes = []

    def random(self, shape):
        self.shapes.append(shape)
        return self.rng.random(shape)


class FixedDraws:
    """Prepared uniform draws, handed out in order whatever the shape asked."""

    def __init__(self, rows):
        self.values = np.ravel(rows).tolist()

    def random(self, shape):
        size = int(np.prod(shape))
        assert size <= len(self.values), "more draws than prepared"
        drawn, self.values = self.values[:size], self.values[size:]
        return np.array(drawn).reshape(shape)


def reference_placement(rng, n, d, l, s, audit):
    coords, rejected = place_nodes_by_norm(rng, n, d, l, s)
    audit["nodes_rejected"] += rejected
    return coords


class TestPlaceNodes:
    @pytest.mark.parametrize("n, d", [(25, 2), (300, 2), (50, 3), (343, 3),
                                      (20, 1), (200, 1)])
    def test_same_draws_and_verdicts_as_the_norm_rule(self, n, d):
        # The same coordinates, rejections and generator state as the norm
        # rule, at the sampler's default spacing and box.
        params = GeometricParams()
        l = params.c * n ** (1.0 / d)
        for seed in range(3):
            rng = np.random.default_rng([seed, n])
            audit = {"nodes_rejected": 0}
            coords = graph_gen._place_nodes(rng, n, d, l, params.s, audit)
            reference = np.random.default_rng([seed, n])
            expected, rejected = place_nodes_by_norm(reference, n, d, l, params.s)
            assert np.array_equal(coords, expected)
            assert audit["nodes_rejected"] == rejected
            assert rng.random() == reference.random()

    @pytest.mark.parametrize("n, d, s", [(60, 2, 0.3), (40, 3, 0.45), (30, 1, 0.25)])
    def test_crowded_spacing_draws_only_the_candidates_tried(self, n, d, s):
        # At a spacing near jamming most candidates are refused, so the
        # candidates come in many blocks; every block is drawn in full and
        # tried, so the generator ends where single draws would.
        l = 0.5 * n ** (1.0 / d)
        for seed in range(3):
            rng = CountingGenerator([seed, n, 7])
            audit = {"nodes_rejected": 0}
            coords = graph_gen._place_nodes(rng, n, d, l, s, audit)
            reference = np.random.default_rng([seed, n, 7])
            expected, rejected = place_nodes_by_norm(reference, n, d, l, s)
            assert np.array_equal(coords, expected)
            assert audit["nodes_rejected"] == rejected > n
            assert len(rng.shapes) > 3
            assert sum(rows for rows, _ in rng.shapes) == n + rejected
            assert rng.rng.random() == reference.random()

    def test_a_gap_that_rounds_to_the_spacing_is_kept(self):
        # The squared gap 0.01 lies below s*s = 0.010000000000000002, but
        # its root is exactly s = 0.1, so the norm rule keeps the candidate;
        # comparing squares would refuse it.
        rows = [[0.5, 0.5], [0.5309429189646006, 0.5950922487164446]]
        audit = {"nodes_rejected": 0}
        coords = graph_gen._place_nodes(FixedDraws(rows), 2, 2, 1.0, 0.1, audit)
        expected, rejected = place_nodes_by_norm(FixedDraws(rows), 2, 2, 1.0, 0.1)
        assert audit["nodes_rejected"] == rejected == 0
        assert np.array_equal(coords, expected)

    @pytest.mark.parametrize("d, s", [(2, 0.6), (1, 0.9)])
    def test_infeasible_density_names_the_same_node(self, monkeypatch, d, s):
        monkeypatch.setattr(graph_gen, "NODE_ATTEMPT_CAP", 30)
        n = 40
        l = 0.5 * n ** (1.0 / d)
        with pytest.raises(InfeasibleDensity) as expected:
            place_nodes_by_norm(np.random.default_rng(3), n, d, l, s)
        assert "within 30 attempts" in str(expected.value)
        with pytest.raises(InfeasibleDensity) as raised:
            graph_gen._place_nodes(np.random.default_rng(3), n, d, l, s,
                                   {"nodes_rejected": 0})
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("n, d", [(60, 2), (150, 2), (50, 3)])
    def test_sampler_is_unchanged_under_the_norm_rule(self, monkeypatch, n, d):
        params = GeometricParams()
        for seed in range(2):
            inst = sample_geometric(params, n, d, seed=[seed, n])
            with monkeypatch.context() as patch:
                patch.setattr(graph_gen, "_place_nodes", reference_placement)
                expected = sample_geometric(params, n, d, seed=[seed, n])
            assert np.array_equal(inst.coordinates, expected.coordinates)
            assert np.array_equal(inst.matrix.entries, expected.matrix.entries)
            assert inst.audit == expected.audit


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
        for max_attempts in (0, -1):
            with pytest.raises(OutOfRange, match="must be at least 1"):
                sample_geometric(GeometricParams(), n=10, d=2, seed=0,
                                 max_attempts=max_attempts)


def instance_digest(inst):
    """SHA-256 of an instance's coordinates, graph, entries and audit."""
    h = hashlib.sha256()
    for array in (inst.coordinates, inst.graph, inst.matrix.entries):
        h.update(array.tobytes())
    h.update(repr(sorted(inst.audit.items())).encode())
    return h.hexdigest()


class TestSamplerDigests:
    """Instances drawn before placement, the pair draws and the screens ran
    on arrays, pinned bit for bit; d = 1 runs at c = 0.2, where placement
    refuses hundreds of candidates and every screen refuses some attempt."""

    @pytest.mark.parametrize("n, d, c, seed, digest", [
        (25, 2, 0.5, 0, "40264246d4cb3e06241be17764ab328f70c53971066a3cb3df6c7283fdd25961"),
        (25, 2, 0.5, 1, "39ccd56bad76280f3187db2b64816c270a8dc5f51cd8e96a6e60bcc16b73559f"),
        (300, 2, 0.5, 0, "93b9ddd1574d9a29064b369f01881c62545ff977576662c5aac86aec17c37e69"),
        (300, 2, 0.5, 1, "dc2e244e4dccf8105681bf4c5c31457ef15a39647a5f327f026459d433957a51"),
        (60, 3, 0.5, 0, "cfbbc746e9b0d7226dcf4692a1ca24cc711212554be1afcc19113145ee37ccf6"),
        (60, 3, 0.5, 1, "2a19f2bfc5003014b0ff48bd85c4147d3ad704668f345f95b3ff3ea4f12b0eac"),
        (200, 1, 0.2, 0, "262d833fec7956df3322884aa3b4e2ea629422d388c3f0eb184cd4060c80b6a6"),
        (200, 1, 0.2, 1, "4543002c56dba91dffe4bad1527c42d7bcb22bccfddca6d52b496f029851b69b"),
    ])
    def test_instance_is_unchanged(self, n, d, c, seed, digest):
        inst = sample_geometric(GeometricParams(c=c), n, d, seed=[seed, d, n])
        assert instance_digest(inst) == digest
