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
GREEN_IDENTITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GreenMatrix:
    """G(P) = sum_{t>=0} (P^t - 1 pi^T); annihilates 1 on the right and pi on the left."""

    values: np.ndarray

    @property
    def trace(self) -> float:
        return float(np.trace(self.values))


@dataclass(frozen=True)
class LqReport:
    """J and J_w with how they were computed.

    An exact report gives the number of Stein doublings in `steps_used` and
    the relative Stein residual in `stein_residual`; a truncated report gives
    the number of series terms in `steps_used` and its stopping rule in
    `change_rule`.
    """

    j: float
    j_weighted: float
    t0_term: float
    method: str
    steps_used: int | None = None
    stein_residual: float | None = None
    change_rule: str | None = None

    def to_kv(self) -> str:
        """Flat key=value block, one line per field."""
        lines = [
            f"j={self.j!r}",
            f"j_weighted={self.j_weighted!r}",
            f"t0_term={self.t0_term!r}",
            f"method={self.method}",
        ]
        if self.steps_used is not None:
            lines.append(f"steps_used={self.steps_used}")
        if self.stein_residual is not None:
            lines.append(f"stein_residual={self.stein_residual!r}")
        if self.change_rule is not None:
            lines.append(f"change_rule={self.change_rule}")
        return "\n".join(lines)


def green_matrix(P: ConsensusMatrix) -> GreenMatrix:
    """G(P) computed from one dense inverse: (I - P + 1 pi^T)^{-1} - 1 pi^T.

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
    return GreenMatrix(values=g)


def _solve_dual_stein(abar: np.ndarray, max_doublings: int = 100):
    """Y = Abar Y Abar^T + I by doubling; returns (Y, number of doublings).

    After k doublings Y holds sum_{t < 2^k} Abar^t (Abar^t)^T.
    """
    y = np.eye(abar.shape[0])
    a = abar.copy()
    for doublings in range(1, max_doublings + 1):
        update = a @ y @ a.T
        step = float(np.abs(update).max())
        if not np.isfinite(step):
            raise SteinDivergence("Stein doubling produced non-finite values")
        y += update
        if step < 1e-16:
            return y, doublings
        a = a @ a
    raise SteinDivergence(f"Stein doubling did not converge in {max_doublings} steps")


def lq_cost_exact(P: ConsensusMatrix) -> LqReport:
    """J and J_w from one dual Stein solve; exact up to solver tolerance.

    The t = 0 contribution to J is tr((I - pi 1^T)(I - 1 pi^T)) / n, which
    expands to (n - 2 + n sum(pi^2)) / n; for J_w it is 1 - sum(pi^2).
    `steps_used` is the number of doublings and `stein_residual` the relative
    backward error max|Abar Y Abar^T + I - Y| / max|Y|, which must not exceed
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


def lq_cost_truncated(P: ConsensusMatrix, t_max: int = 10_000,
                      delta: float = 1e-5, window: int = 10) -> LqReport:
    """Partial sums of J and J_w with the double stopping rule.

    The sum ends at t_max, or at the first point where the change of the
    partial sum of J stays below `delta` (absolute) for `window` consecutive
    steps.  `steps_used` counts the terms actually accumulated.
    """
    if t_max < 1 or delta <= 0 or window < 1:
        raise ValueError("t_max >= 1, delta > 0 and window >= 1 are required")
    pi = P.invariant.pi
    n = P.n
    target = np.outer(np.ones(n), pi)
    power = np.eye(n)
    j = 0.0
    jw = 0.0
    t0 = None
    consecutive = 0
    steps = 0
    for _ in range(t_max + 1):
        b = power - target
        term = float((b * b).sum()) / n
        jw += float((pi[:, None] * b * b).sum())
        j += term
        steps += 1
        if t0 is None:
            t0 = term
        if term < delta:
            consecutive += 1
            if consecutive >= window:
                break
        else:
            consecutive = 0
        power = power @ P.entries
    return LqReport(j=j, j_weighted=jw, t0_term=t0, method="truncated",
                    steps_used=steps, change_rule="absolute")


def noisy_consensus_estimate(P: ConsensusMatrix, horizon: int, trials: int,
                             seed: int, chunk: int = 4096) -> float:
    """Monte Carlo estimate of (1/n) E ||(I - 1 pi^T) x(horizon)||^2.

    The noisy consensus runs x(t+1) = P x(t) + n(t) with x(0) and all n(t)
    independent standard normal vectors; the stationary value of the estimate
    is J(P).  Each trial draws from its own generator seeded with
    (seed, trial index), so the draws do not depend on `chunk` or execution
    order.  The estimate is summed per chunk, so it agrees across chunk
    sizes up to summation rounding, not bit for bit.
    """
    if horizon < 1 or trials < 1:
        raise ValueError("horizon and trials must be at least 1")
    if chunk < 1:
        raise ValueError(f"chunk={chunk} must be at least 1")
    pi = P.invariant.pi
    pt = np.ascontiguousarray(P.entries.T)
    n = P.n
    total = 0.0
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        noise = np.stack([
            np.random.default_rng([seed, done + k]).standard_normal((horizon + 1, n))
            for k in range(m)])
        x = noise[:, 0, :]
        for t in range(1, horizon + 1):
            x = x @ pt + noise[:, t, :]
        e = x - np.outer(x @ pi, np.ones(n))
        total += float((e * e).sum())
        done += m
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
