"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises the public API only, carries its own tolerance, and
enforces its runtime budget.  The conftest hook prints one summary line per
criterion after the run.  The one expected-failure test documents a lower
bound that does not hold over its full advertised parameter range; the
companion test pins the region where it does hold.
"""

import time

import numpy as np
import pytest
from helpers import (
    random_circulant,
    random_conductance,
    random_consensus,
    random_reversible,
    uniform,
)
from scipy.spatial import cKDTree

from lqconsensus import (
    GeometricParams,
    cayley_case1,
    cayley_case2,
    circle_matrix,
    classify,
    commuting_example,
    effective_resistance,
    gamma_check,
    green_matrix,
    hypothetical_lower_violation,
    lq_cost_exact,
    lq_cost_truncated,
    multiplicative_reversiblization,
    noisy_consensus_estimate,
    p_epsilon,
    phi_map,
    psi_map,
    resistance_sandwich_check,
    reversiblization_support,
    rho_check,
    sample_geometric,
    theorem_resistance_bounds,
    theorem_topology_bounds,
    trace_pair,
    weighted_average_resistance,
)

EPSILON_GRID = np.geomspace(1e-3, 0.5, 100)


def commuting_collection():
    """100 commuting matrices: circulants, both Cayley families, and the
    4-node commuting pair example."""
    out = [commuting_example()]
    out += [cayley_case2(n, 1) for n in range(3, 9)]
    out += [cayley_case2(n, 2) for n in (3, 4, 5)]
    out.append(cayley_case2(3, 3))
    out += [cayley_case1(3, 2, seed=i)[1] for i in range(10)]
    out += [cayley_case1(3, 3, seed=i)[1] for i in range(5)]
    rng = np.random.default_rng(417)
    while len(out) < 100:
        out.append(random_circulant(rng, int(rng.integers(3, 13))))
    return out


def budget(record_property, t0, limit):
    elapsed = time.perf_counter() - t0
    record_property("elapsed_s", elapsed)
    assert elapsed < limit


def test_criterion_01_closed_form_costs(record_property):
    t0 = time.perf_counter()
    for n in range(3, 11):
        assert lq_cost_exact(uniform(n)).j == pytest.approx((n - 1) / n, abs=1e-10)
    ring = circle_matrix(3, 0.5, 0.0)
    assert lq_cost_exact(ring).j == pytest.approx(8 / 9, abs=1e-8)
    assert lq_cost_truncated(ring).j == pytest.approx(8 / 9, abs=1e-8)
    budget(record_property, t0, 1.0)


def test_criterion_02_trace_lemma(record_property, rng):
    t0 = time.perf_counter()
    for _ in range(200):
        P = random_consensus(rng, int(rng.integers(3, 13)))
        left, right = trace_pair(P, int(rng.integers(0, 9)))
        assert left <= right + 1e-9
    for _ in range(25):
        P = random_reversible(rng, int(rng.integers(3, 13)))
        for t in range(9):
            left, right = trace_pair(P, t)
            assert abs(left - right) <= 1e-9
    budget(record_property, t0, 10.0)


def test_criterion_03_green_resistance_identity(record_property, rng):
    t0 = time.perf_counter()
    for _ in range(100):
        P = psi_map(random_conductance(rng, int(rng.integers(3, 13))))
        r_bar_w = weighted_average_resistance(
            effective_resistance(phi_map(P)), P.invariant.pi)
        assert abs(r_bar_w - np.trace(green_matrix(P)) / P.n) <= 1e-8
    budget(record_property, t0, 10.0)


def test_criterion_04_bound_validity(record_property, rng):
    t0 = time.perf_counter()
    for _ in range(200):
        P = random_consensus(rng, int(rng.integers(3, 13)))
        j = lq_cost_exact(P).j
        for report in (theorem_resistance_bounds(P), theorem_topology_bounds(P)):
            assert j <= report.j_upper * (1 + 1e-9)
    matrices = commuting_collection()
    assert len(matrices) == 100
    for P in matrices:
        j = lq_cost_exact(P).j
        for report in (theorem_resistance_bounds(P), theorem_topology_bounds(P)):
            assert report.lower_applicable
            assert report.j_lower <= j * (1 + 1e-9)
    budget(record_property, t0, 60.0)


def test_criterion_05_uniform_tightness(record_property):
    t0 = time.perf_counter()
    P = uniform(3)
    j = lq_cost_exact(P).j
    report = theorem_resistance_bounds(P)
    assert j == pytest.approx(2 / 3, abs=1e-10)
    for value in (report.j_upper, report.j_lower,
                  report.jw_upper, report.jw_lower):
        assert value == pytest.approx(2 / 3, abs=1e-10)
    record_property("elapsed_s", time.perf_counter() - t0)


def test_criterion_06_epsilon_sweep(record_property):
    t0 = time.perf_counter()
    assert EPSILON_GRID[-1] == 0.5
    for eps in EPSILON_GRID:
        P = p_epsilon(eps)
        j = lq_cost_exact(P).j
        assert j <= theorem_resistance_bounds(P).j_upper * (1 + 1e-9)
        assert j <= theorem_topology_bounds(P).j_upper * (1 + 1e-9)
    half = p_epsilon(0.5)
    report = theorem_resistance_bounds(half)
    assert report.lower_applicable
    assert report.j_lower <= lq_cost_exact(half).j * (1 + 1e-9)
    budget(record_property, t0, 5.0)


@pytest.mark.xfail(
    strict=True,
    reason="the hypothetical lower value crosses below the exact cost near "
    "epsilon = 0.034, so it does not dominate on the whole stated range "
    "up to 0.1; see the epsilon sweep audit",
)
def test_criterion_06b_hypothetical_lower_stated(record_property):
    t0 = time.perf_counter()
    for eps in EPSILON_GRID[EPSILON_GRID <= 0.1]:
        assert hypothetical_lower_violation(p_epsilon(eps)) > 0
    budget(record_property, t0, 5.0)


def test_criterion_06b_measured_region(record_property):
    t0 = time.perf_counter()
    small = EPSILON_GRID[EPSILON_GRID <= 0.02]
    assert small.size > 0
    for eps in small:
        assert hypothetical_lower_violation(p_epsilon(eps)) > 0
    assert hypothetical_lower_violation(p_epsilon(0.5)) < 0
    budget(record_property, t0, 5.0)


def test_criterion_07_resistance_sandwich(record_property, rng):
    t0 = time.perf_counter()
    for _ in range(100):
        P = random_consensus(rng, int(rng.integers(3, 13)))
        margins = resistance_sandwich_check(P)
        expected = "in" if classify(P).commuting else "out"
        assert margins.variant == expected
        assert margins.min_upper_margin >= -1e-9
        assert margins.min_lower_margin >= -1e-9
    commuting = [commuting_example(), cayley_case2(4, 2)]
    commuting += [random_circulant(rng, int(rng.integers(3, 13)))
                  for _ in range(10)]
    for P in commuting:
        margins = resistance_sandwich_check(P)
        assert margins.variant == "in"
        assert margins.min_upper_margin >= -1e-9
        assert margins.min_lower_margin >= -1e-9
    budget(record_property, t0, 60.0)


def test_criterion_08_cayley_scaling(record_property):
    t0 = time.perf_counter()
    ratios2 = [lq_cost_exact(cayley_case2(n, 2)).j / np.log(n * n)
               for n in (8, 12, 16, 20, 24)]
    assert max(ratios2) / min(ratios2) <= 3.0
    costs3 = [lq_cost_exact(cayley_case2(n, 3)).j for n in (4, 6, 8)]
    assert max(costs3) / min(costs3) <= 2.0
    budget(record_property, t0, 120.0)


def test_criterion_09_geometric_instances(record_property):
    t0 = time.perf_counter()
    params = GeometricParams()
    n, d = 25, 2
    l = params.c * n ** (1.0 / d)
    fine = np.linspace(0.0, l, 301)
    mesh = np.meshgrid(fine, fine, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    for i in range(15):
        inst = sample_geometric(params, n, d, seed=[0, d, n, i])
        coords = inst.coordinates
        assert coords.shape == (n, d)
        assert coords.min() >= 0.0 and coords.max() <= l
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        iu = np.triu_indices(n, 1)
        assert dist[iu].min() >= params.s
        assert inst.measured["s_n"] == pytest.approx(dist[iu].min())
        graph = inst.graph
        assert np.array_equal(graph, graph.T)
        assert not graph.diagonal().any()
        assert dist[graph].max() <= params.r
        assert inst.measured["r_n"] == pytest.approx(dist[graph].max())
        entries = inst.matrix.entries
        off = ~np.eye(n, dtype=bool)
        assert ((entries > 0) & off <= graph).all()
        assert (entries.diagonal() > 0).all()
        assert entries[entries > 0].min() >= params.b / n
        npi = n * inst.matrix.invariant.pi
        assert npi.min() >= params.pi_bar_min
        assert npi.max() <= params.pi_bar_max
        assert gamma_check(coords, l, params.gamma)
        covered, _ = cKDTree(coords).query(grid)
        assert covered.max() <= params.gamma
        flag, rho_n = rho_check(graph, coords, params.rho)
        assert flag and rho_n >= params.rho
        assert inst.measured["rho_n"] == pytest.approx(rho_n)
        assert inst.audit["attempts"] >= 1
    budget(record_property, t0, 120.0)


def test_criterion_10_monte_carlo(record_property):
    t0 = time.perf_counter()
    for seed, P in ((0, uniform(4)), (1, p_epsilon(0.5))):
        j = lq_cost_exact(P).j
        estimate = noisy_consensus_estimate(P, horizon=500, trials=100_000,
                                            seed=seed)
        assert abs(estimate - j) / j <= 0.05
    budget(record_property, t0, 120.0)


def test_criterion_11_support_and_truncation(record_property, rng):
    t0 = time.perf_counter()
    for _ in range(100):
        P = random_consensus(rng, int(rng.integers(3, 13)))
        fuzz = reversiblization_support(P)
        product = multiplicative_reversiblization(P).entries
        numeric = [(u, v) for u in range(P.n) for v in range(u + 1, P.n)
                   if product[u, v] > 1e-14]
        np.testing.assert_array_equal(fuzz.edges, np.reshape(numeric, (-1, 2)))
        exact = lq_cost_exact(P).j
        truncated = lq_cost_truncated(P).j
        assert abs(truncated - exact) <= 1e-5 * exact
    budget(record_property, t0, 30.0)
