"""LQ cost of consensus: exact Stein-equation route, truncated series, Green
matrix, noisy-consensus Monte Carlo, and the reversiblization trace pair.

J(P) = (1/n) sum_{t>=0} ||P^t - 1 pi^T||_F^2 and the weighted variant J_w(P)
inserts Pi inside the trace.  Both sums split their t = 0 term off from the
rest: with Abar = P - 1 pi^T one has P^t - 1 pi^T = Abar^t for t >= 1 but not
for t = 0.  Both tails come from the one dual Stein fixed point
Y = Abar Y Abar^T + I, whose solution is Y = sum_{t>=0} Abar^t (Abar^t)^T:
sum_{t>=1} ||Abar^t||_F^2 = tr(Y) - n and
sum_{t>=1} tr(Pi Abar^t (Abar^t)^T) = pi^T diag(Y) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolveFailure, SteinDivergence
from .stochastic_core import ConsensusMatrix

STEIN_RESIDUAL_TOL = 1e-11
STEIN_MAX_DOUBLINGS = 100
GREEN_IDENTITY_TOL = 1e-9
# Trials per Monte Carlo block: each block draws from its own generator.
MC_BLOCK = 1024
# The truncated series' stopping rule (see `lq_cost_truncated`).
TRUNCATED_MAX_TERMS = 10_000
TRUNCATED_DELTA = 1e-5
TRUNCATED_WINDOW = 10


@dataclass(frozen=True)
class LqReport:
    """J and J_w with how they were computed, named by `method`.

    An "exact" report gives the number of Stein doublings whose update was
    added in `steps_used` and the relative Stein residual in
    `stein_residual`; a "truncated" report gives the number of series terms
    in `steps_used`, under the fixed stopping rule of `lq_cost_truncated`;
    an "fft" report (a Cayley torus in closed form, from
    `pipeline.torus_fields`) gives the smallest 1 - |lambda_k|^2 over
    the nonzero frequencies in `spectral_gap`.
    """

    j: float
    j_weighted: float
    t0_term: float
    method: str
    steps_used: int | None = None
    stein_residual: float | None = None
    spectral_gap: float | None = None


def green_matrix(P: ConsensusMatrix) -> np.ndarray:
    """G(P) = sum_{t>=0} (P^t - 1 pi^T) as a read-only array, computed from
    one dense inverse: (I - P + 1 pi^T)^{-1} - 1 pi^T.

    The identities G 1 = 0 and pi^T G = 0 are gated relative to max|G|:
    neither max-norm may exceed GREEN_IDENTITY_TOL * max|G|.
    """
    pi = P.invariant.pi
    n = P.n
    target = np.outer(np.ones(n), pi)
    try:
        g = np.linalg.inv(np.eye(n) - P.entries + target) - target
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"Green matrix inverse failed: {exc}") from exc
    right = float(np.abs(g.sum(axis=1)).max())
    left = float(np.abs(pi @ g).max())
    limit = GREEN_IDENTITY_TOL * float(np.abs(g).max())
    if not (right <= limit and left <= limit):
        raise SolveFailure(
            f"Green matrix identities violated: |G 1| = {right}, |pi^T G| = {left}"
            f" exceed {GREEN_IDENTITY_TOL} * max|G| = {limit}")
    g.setflags(write=False)
    return g


def _solve_dual_stein(abar: np.ndarray):
    """Y = Abar Y Abar^T + I by doubling; returns (Y, number of doublings
    whose update was added).

    After k doublings Y holds sum_{t < 2^k} Abar^t (Abar^t)^T.  The first
    update, Abar Abar^T, takes one product.  The loop stops once an update
    is below 1e-16 entrywise.  Once one is below 1e-8 (testing sooner costs
    more than it saves on small matrices), it also stops before computing
    an update that could not change Y: Y is positive semidefinite, so
    |a_i| |a_j| tr(Y) bounds entry (i, j) of the next update A Y A^T, and
    one below 1e-16 and below 2^-55 |y_ij|, half of half an ulp, would be
    added without changing a bit, and the loop would stop after it.
    """
    y = np.eye(abar.shape[0])
    a = abar.copy()
    # a @ a.T would go to syrk, which rounds differently from a @ y @ a.T.
    update = abar @ a.T
    for doublings in range(1, STEIN_MAX_DOUBLINGS + 1):
        step = float(np.abs(update).max())
        if not np.isfinite(step):
            raise SteinDivergence("Stein doubling produced non-finite values")
        y += update
        if step < 1e-16:
            return y, doublings
        a = a @ a
        if step < 1e-8:
            rows = np.sqrt((a * a).sum(axis=1))
            # Written over the added update: the test needs no new n x n array.
            bound = np.multiply.outer(rows, rows * y.trace(), out=update)
            if bound.max() < 1e-16:
                bound *= 2.0 ** 55
                if (bound < np.abs(y)).all():
                    return y, doublings
        update = a @ y @ a.T
    raise SteinDivergence(f"Stein doubling did not converge in {STEIN_MAX_DOUBLINGS} steps")


def lq_cost_exact(P: ConsensusMatrix) -> LqReport:
    """J and J_w from one dual Stein solve; exact up to solver tolerance.

    The t = 0 contribution to J is tr((I - pi 1^T)(I - 1 pi^T)) / n, which
    expands to (n - 2 + n sum(pi^2)) / n; for J_w it is 1 - sum(pi^2).
    `steps_used` is the number of doublings whose update was added and
    `stein_residual` the relative backward error
    max|Abar Y Abar^T + I - Y| / max|Y|, which must not exceed
    STEIN_RESIDUAL_TOL.
    """
    pi = P.invariant.pi
    n = P.n
    abar = P.entries - np.outer(np.ones(n), pi)
    y, doublings = _solve_dual_stein(abar)
    residual = (float(np.abs(abar @ y @ abar.T + np.eye(n) - y).max())
                / float(np.abs(y).max()))
    if not residual <= STEIN_RESIDUAL_TOL:
        raise SteinDivergence(
            f"relative Stein residual {residual} exceeds {STEIN_RESIDUAL_TOL}")
    sum_pi2 = float(pi @ pi)
    t0 = (n - 2.0 + n * sum_pi2) / n
    j = t0 + (float(np.trace(y)) - n) / n
    jw = (1.0 - sum_pi2) + float(pi @ np.diag(y)) - 1.0
    return LqReport(j=j, j_weighted=jw, t0_term=t0, method="exact",
                    steps_used=doublings, stein_residual=residual)


def lq_cost_truncated(P: ConsensusMatrix) -> LqReport:
    """Partial sums of J and J_w with the double stopping rule.

    Term t is ||B_t||_F^2 / n for J and sum_u pi_u ||row u of B_t||^2 for
    J_w, with B_0 = I - 1 pi^T, B_1 = P - 1 pi^T and B_{t+1} = P B_t: since
    pi^T Abar = 0, P Abar^t = Abar^{t+1}, so after the first step no term
    subtracts 1 pi^T.  P multiplies as a CSR matrix, at the cost of its
    nonzeros rather than n^2 per row.  The sum ends at
    t = TRUNCATED_MAX_TERMS, or at the first point where the change of the
    partial sum of J stays below TRUNCATED_DELTA (absolute) for
    TRUNCATED_WINDOW consecutive steps.  `steps_used` counts the terms
    actually accumulated.
    """
    from scipy.sparse import csr_matrix

    pi = P.invariant.pi
    n = P.n
    target = np.outer(np.ones(n), pi)
    sparse = csr_matrix(P.entries)
    b = np.eye(n) - target
    j = 0.0
    jw = 0.0
    consecutive = 0
    for t in range(TRUNCATED_MAX_TERMS + 1):
        rows = np.einsum("ij,ij->i", b, b)
        term = float(rows.sum()) / n
        jw += float(pi @ rows)
        j += term
        if t == 0:
            t0 = term
        if term < TRUNCATED_DELTA:
            consecutive += 1
            if consecutive >= TRUNCATED_WINDOW:
                break
        else:
            consecutive = 0
        b = P.entries - target if t == 0 else sparse @ b
    return LqReport(j=j, j_weighted=jw, t0_term=t0, method="truncated",
                    steps_used=t + 1)


def noisy_consensus_estimate(P: ConsensusMatrix, horizon: int, trials: int,
                             seed: int, chunk: int = 4096) -> float:
    """Monte Carlo estimate of (1/n) E ||(I - 1 pi^T) x(horizon)||^2.

    The noisy consensus runs x(t+1) = P x(t) + n(t) with x(0) and all n(t)
    independent standard normal vectors; the stationary value of the estimate
    is J(P).  The trials fall into fixed blocks of MC_BLOCK (the last one may
    be shorter).  Block b draws all of its noise from one generator,
    `default_rng([seed, b])`: first x(0) as one (m_b, n) array, then one
    (m_b, n) array per step.  The time steps are streamed, so only the
    current state and one noise buffer are held.  `chunk` is the number of
    trials advanced together, rounded down to whole blocks and at least one
    block.  Each block's squared deviations are summed on their own and the
    sums added in block order, so the estimate is the same to the bit for
    every `chunk`.
    """
    if horizon < 1 or trials < 1:
        raise ValueError("horizon and trials must be at least 1")
    if chunk < 1:
        raise ValueError(f"chunk={chunk} must be at least 1")
    pi = P.invariant.pi
    pt = np.ascontiguousarray(P.entries.T)
    n = P.n
    step = max(chunk // MC_BLOCK, 1) * MC_BLOCK
    total = 0.0
    for lo in range(0, trials, step):
        m = min(step, trials - lo)
        rows = [slice(k, min(k + MC_BLOCK, m)) for k in range(0, m, MC_BLOCK)]
        rngs = [np.random.default_rng([seed, (lo + r.start) // MC_BLOCK])
                for r in rows]
        x = np.empty((m, n))
        nxt = np.empty_like(x)
        noise = np.empty_like(x)
        for rng, r in zip(rngs, rows):
            rng.standard_normal(out=x[r])
        for _ in range(horizon):
            for rng, r in zip(rngs, rows):
                rng.standard_normal(out=noise[r])
            # Each row of the product is formed from its own row of x alone,
            # so advancing blocks together leaves every block's bits as they
            # are when it advances alone (the chunk tests check this).
            np.matmul(x, pt, out=nxt)
            nxt += noise
            x, nxt = nxt, x
        for r in rows:
            e = x[r] - (x[r] @ pi)[:, None]
            total += float((e * e).sum())
    return total / (trials * n)


def trace_pair(P: ConsensusMatrix, t: int) -> tuple[float, float]:
    """(tr((P*)^t P^t), tr((P*P)^t)); the first never exceeds the second."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    star = P.reversal
    a = P.entries
    left = float(np.trace(
        np.linalg.matrix_power(star, t) @ np.linalg.matrix_power(a, t)))
    right = float(np.trace(np.linalg.matrix_power(star @ a, t)))
    return left, right
