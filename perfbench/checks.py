"""Checks of the program's outputs, computed without the package.

Each check returns a list of failure messages; an empty list is a pass.
Tolerances, and why each is what it is:

- EXACT_RTOL = 1e-12 (relative): an exact J or J_w against the
  `scipy.linalg.solve_discrete_lyapunov` oracle and, on tori, against the FFT
  closed form.  The oracle reaches about 1e-14 on every workload matrix.
  Where its own relative Stein residual is larger, the tolerance of that one
  check widens to 100 times that residual, because the oracle cannot settle
  a difference below its own error.
- BOUND_RTOL = 1e-9 (relative): a cost against one of its bounds.  The
  bounds come from Laplacian eigendecompositions and the costs from Stein
  solves; on tight instances (the uniform matrix, tori) the two agree only
  to rounding, and the program's own row gate uses the same slack.
- REL_ERR_ATOL = 1e-10 (absolute): a geometric row's reported
  j_exact_rel_err against the relative error recomputed from the oracle; the
  two exact references differ by about 1e-13.
- DERIVED_RTOL = 1e-9 (relative): pi extremes, the Green trace and
  j_normalized, recomputed here by other routes.
- MARGIN_ATOL = 1e-9 (absolute): resistance sandwich margins, which are
  differences of O(1) resistances from two eigendecompositions.
- MC_RTOL = 0.05: the Monte Carlo estimate against the exact J.
- MC_CHUNK_RTOL = 1e-14 (relative): the estimate under two chunk sizes.
  The estimator sums per chunk, so the two results agree up to the order of
  floating-point summation (observed up to 3e-16), not bit for bit; the
  number of pairs that differ in any bit is reported as a count.
"""

from __future__ import annotations

import numpy as np

EXACT_RTOL = 1e-12
BOUND_RTOL = 1e-9
REL_ERR_ATOL = 1e-10
DERIVED_RTOL = 1e-9
MARGIN_ATOL = 1e-9
MC_RTOL = 0.05
MC_CHUNK_RTOL = 1e-14

_ORACLES: dict = {}


def invariant_pi(a: np.ndarray) -> np.ndarray:
    """pi with pi^T P = pi^T and sum 1, from the bordered least-squares system."""
    n = a.shape[0]
    lhs = np.vstack([a.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return pi


class Oracle:
    """J and J_w from two Stein equations X = Abar^T X Abar + Q, Abar = P - 1 pi^T.

    Q = I gives sum_t ||Abar^t||_F^2 and Q = diag(pi) the weighted sum; the
    t = 0 term is added separately because P^0 - 1 pi^T is not Abar^0.
    """

    def __init__(self, a: np.ndarray):
        from scipy.linalg import solve_discrete_lyapunov

        n = a.shape[0]
        pi = invariant_pi(a)
        abar = a - np.outer(np.ones(n), pi)
        residual = 0.0
        traces = []
        for q in (np.eye(n), np.diag(pi)):
            x = solve_discrete_lyapunov(abar.T, q)
            err = np.abs(abar.T @ x @ abar + q - x).max() / np.abs(x).max()
            residual = max(residual, float(err))
            traces.append(float(np.trace(x)))
        sum_pi2 = float(pi @ pi)
        self.pi = pi
        self.j = (traces[0] - 2.0 + n * sum_pi2) / n
        self.j_weighted = (1.0 - sum_pi2) + traces[1] - 1.0
        self.rtol = max(EXACT_RTOL, 100.0 * residual)


def oracle(a: np.ndarray) -> Oracle:
    """The oracle of a matrix, computed once per distinct matrix."""
    key = (a.shape, a.tobytes())
    if key not in _ORACLES:
        _ORACLES[key] = Oracle(a)
    return _ORACLES[key]


def torus_fft_j(weights: dict, side: int) -> float:
    """J = (1/N) sum_{k != 0} 1 / (1 - |lambda_k|^2) for P_uv = g(u - v mod side).

    The eigenvalues of a Cayley matrix on Z_side^d are the d-dimensional DFT
    of its generator g.
    """
    d = len(next(iter(weights)))
    g = np.zeros((side,) * d)
    for offset, weight in weights.items():
        g[tuple(h % side for h in offset)] += weight
    mod2 = np.abs(np.fft.fftn(g)).ravel() ** 2
    return float(np.sum(1.0 / (1.0 - mod2[1:])) / mod2.size)


def parse_value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_results_csv(data: bytes | None) -> list[dict]:
    """Rows of a results.csv as dicts; raises ValueError on a malformed file."""
    if not data:
        raise ValueError("results.csv is missing or empty")
    lines = data.decode().splitlines()
    if not lines[0].startswith("# master_seed="):
        raise ValueError("results.csv lacks its '# master_seed=' header")
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header {len(header)}")
        rows.append({k: parse_value(v) for k, v in zip(header, cells)})
    return rows


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = parse_value(value.strip())
    return out


def close(label: str, value, reference: float, rtol: float) -> list[str]:
    if value is None or not abs(value - reference) <= rtol * abs(reference):
        return [f"{label}={value} differs from {reference} by more than {rtol:g} relative"]
    return []


def bounds(rec: dict) -> list[str]:
    """J and J_w below every upper bound; certified lower bounds below them.

    Works on a results.csv row and on an `analyze` report, which share the
    field names.  The normal corollary's lower bound is always certified;
    the theorem lower bounds only when `lower_applicable` is true.
    """
    j, jw = rec.get("j"), rec.get("j_weighted")
    if not (isinstance(j, float) and isinstance(jw, float) and j > 0 and jw > 0):
        return [f"costs are not positive numbers: j={j}, j_weighted={jw}"]
    fails = []
    uppers = (("res_j_upper", j), ("topo_j_upper", j), ("norm_j_upper", j),
              ("res_jw_upper", jw), ("topo_jw_upper", jw))
    lowers = [("norm_j_lower", j)]
    if rec.get("lower_applicable") is True:
        lowers += [("res_j_lower", j), ("topo_j_lower", j),
                   ("res_jw_lower", jw), ("topo_jw_lower", jw)]
    for key, value in uppers:
        bound = rec.get(key)
        if bound is not None and not value <= bound * (1.0 + BOUND_RTOL):
            fails.append(f"{key}={bound} is below the cost {value}")
    for key, value in lowers:
        bound = rec.get(key)
        if bound is not None and not bound <= value * (1.0 + BOUND_RTOL):
            fails.append(f"certified {key}={bound} is above the cost {value}")
    return fails


def exact_costs(rec: dict, orc: Oracle) -> list[str]:
    return (close("j", rec.get("j"), orc.j, orc.rtol)
            + close("j_weighted", rec.get("j_weighted"), orc.j_weighted, orc.rtol))


def torus_costs(rec: dict, fft_j: float) -> list[str]:
    """On a torus J equals the FFT closed form and J_w equals J."""
    return (close("j", rec.get("j"), fft_j, EXACT_RTOL)
            + close("j_weighted", rec.get("j_weighted"), fft_j, EXACT_RTOL))


def truncated_costs(rec: dict, orc: Oracle) -> list[str]:
    """A geometric row's J never exceeds the oracle J.

    The tolerance admits an exact J as well as a truncated one.  Where the
    row reports j_exact_rel_err, J must either be exact or sit below the
    oracle by exactly the reported relative error, which makes the check
    two-sided on those rows.
    """
    j, jw = rec.get("j"), rec.get("j_weighted")
    fails = []
    if j is None or not j <= orc.j * (1.0 + orc.rtol):
        fails.append(f"j={j} exceeds the oracle J {orc.j}")
    if jw is None or not jw <= orc.j_weighted * (1.0 + orc.rtol):
        fails.append(f"j_weighted={jw} exceeds the oracle J_w {orc.j_weighted}")
    rel_err = rec.get("j_exact_rel_err")
    not_exact = j is not None and close("j", j, orc.j, orc.rtol)
    if rel_err is not None and not_exact:
        expected = (orc.j - j) / orc.j
        if not abs(rel_err - expected) <= REL_ERR_ATOL:
            fails.append(f"j_exact_rel_err={rel_err} but the oracle gives {expected}")
    return fails


def normalized_2d(rec: dict, nodes: int) -> list[str]:
    """j_normalized is J / log(nodes), the growth-rate normalization in d = 2."""
    if not isinstance(rec.get("j"), float):
        return []
    return close("j_normalized", rec.get("j_normalized"), rec["j"] / np.log(nodes),
                 DERIVED_RTOL)


def fuzz_edge_counts(a: np.ndarray, threshold: float) -> tuple[int, int]:
    """(edges of G(P*P), those absent from G(P)) from the support pattern.

    {u, v} is an edge of G(P*P) iff some row w has P_wu > 0 and P_wv > 0.
    """
    s = (a > threshold).astype(np.int64)
    common = s.T @ s
    und = (s + s.T) > 0
    iu = np.triu_indices(a.shape[0], 1)
    fuzz = common[iu] > 0
    return int(fuzz.sum()), int((fuzz & ~und[iu]).sum())


def green_trace(a: np.ndarray, pi: np.ndarray) -> float:
    """tr G with G = sum_t (P^t - 1 pi^T) = (I - P + 1 pi^T)^{-1} - 1 pi^T."""
    n = a.shape[0]
    target = np.outer(np.ones(n), pi)
    return float(np.trace(np.linalg.solve(np.eye(n) - a + target, np.eye(n)) - target))
