"""Generators: Cayley tori, the circle chain, the 3x3 counterexample family,
the commuting 4x4 example, and the random-geometric-graph pipeline.

Cayley matrices live on Z_n^d with P_uv = g(u - v mod n) for a generator g
supported on {-1, 0, 1}^d; they are circulant, doubly stochastic and normal.
Both Cayley families come as generators (`cayley_case1_generator`,
`cayley_case2_generator`), which the cayley sweep evaluates in closed form,
and as matrices (`cayley_case1`, `cayley_case2`).
The geometric pipeline samples node positions with minimum spacing, draws
edges within range r with probability p_e, screens the graph with the
coverage (gamma) and distance-ratio (rho) checks, randomly deletes edge
directions, assigns weights uniform on [b, 1], row-normalizes, and finally
screens the invariant measure; any screening failure restarts the whole
construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph, csr_matrix
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import (
    Disconnected,
    InfeasibleDensity,
    InvalidGenerator,
    InvalidWeights,
    OutOfRange,
    RejectionExhausted,
)
from .stochastic_core import (
    ConsensusMatrix,
    reach,
    strong_component,
    validate_consensus,
)

WEIGHT_SUM_TOL = 1e-12
# The coverage certificate's grid has this many steps along each axis.
GAMMA_GRID_DIVISIONS = 30
# Candidate positions tried for one node before the density is infeasible.
NODE_ATTEMPT_CAP = 10_000
# Uniform weight draws a case-1 generator gets before its band is given up.
CASE1_MAX_DRAWS = 100_000


@dataclass(frozen=True)
class CayleyGenerator:
    """Offsets in {-1, 0, 1}^d with positive weights summing to 1.

    The zero offset must carry positive weight so the Cayley matrix has a
    positive diagonal.
    """

    d: int
    weights: dict
    offsets: tuple = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise InvalidGenerator(f"dimension {self.d} must be at least 1")
        if not self.weights:
            raise InvalidGenerator("generator has no offsets")
        for h, w in self.weights.items():
            if len(h) != self.d:
                raise InvalidGenerator(f"offset {h} does not have dimension {self.d}")
            if any(x not in (-1, 0, 1) for x in h):
                raise InvalidGenerator(f"offset {h} has entries outside {{-1, 0, 1}}")
            if not (w > 0):
                raise InvalidGenerator(f"weight of offset {h} is {w}, must be positive")
        zero = (0,) * self.d
        if zero not in self.weights:
            raise InvalidGenerator("zero offset is missing; the diagonal would vanish")
        total = sum(self.weights.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidGenerator(f"weights sum to {total}, not 1")
        object.__setattr__(self, "offsets", tuple(sorted(self.weights)))


def _torus_nodes(n: int, d: int) -> np.ndarray:
    return np.array(list(itertools.product(range(n), repeat=d)), dtype=int)


def cayley_matrix(n: int, gen: CayleyGenerator) -> ConsensusMatrix:
    """The Cayley matrix on Z_n^d: P_uv = g(u - v mod n)."""
    if n < 3:
        raise InvalidGenerator(f"torus side {n} must be at least 3")
    nodes = _torus_nodes(n, gen.d)
    size = nodes.shape[0]
    rows = np.arange(size)
    p = np.zeros((size, size))
    shape = (n,) * gen.d
    for h in gen.offsets:
        targets = (nodes - np.array(h)) % n
        cols = np.ravel_multi_index(targets.T, shape)
        p[rows, cols] += gen.weights[h]
    return validate_consensus(p)


CASE1_DEFAULT_RANGES = {2: (0.05, 0.2), 3: (0.01, 0.1)}


def case1_range(d: int, p_min: float | None = None,
                p_max: float | None = None) -> tuple[float, float]:
    """The weight band [p_min, p_max] of the case-1 family in dimension d.

    A bound that is None takes its default (0.05/0.2 in d = 2, 0.01/0.1 in
    d = 3).  Raises OutOfRange unless d is 2 or 3, 0 < p_min < p_max, and the
    3^d weights, which sum to 1, can all lie in the band:
    3^d p_min <= 1 <= 3^d p_max.
    """
    if d not in (2, 3):
        raise OutOfRange(f"case-1 sampling is defined for d in {{2, 3}}, got {d}")
    lo, hi = CASE1_DEFAULT_RANGES[d]
    p_min = lo if p_min is None else p_min
    p_max = hi if p_max is None else p_max
    if not (0 < p_min < p_max):
        raise OutOfRange(f"need 0 < p_min < p_max, got {p_min}, {p_max}")
    count = 3 ** d
    if count * p_min > 1 or count * p_max < 1:
        raise OutOfRange(
            f"{count} weights summing to 1 cannot all lie in [{p_min}, {p_max}]")
    return p_min, p_max


def cayley_case1_generator(d: int, p_min: float | None = None,
                           p_max: float | None = None,
                           seed: int = 0) -> CayleyGenerator:
    """Rejection-sample a full-neighborhood generator with banded weights.

    Weights are drawn uniformly on all of {-1, 0, 1}^d, normalized to sum 1,
    and accepted iff every weight lies in the band `case1_range(d, p_min,
    p_max)`, which is checked before the first draw.  Deterministic per seed.
    Raises RejectionExhausted after CASE1_MAX_DRAWS draws.
    """
    p_min, p_max = case1_range(d, p_min, p_max)
    offsets = list(itertools.product((-1, 0, 1), repeat=d))
    rng = np.random.default_rng(seed)
    for _ in range(CASE1_MAX_DRAWS):
        raw = rng.random(len(offsets))
        w = raw / raw.sum()
        if ((w >= p_min) & (w <= p_max)).all():
            return CayleyGenerator(d=d, weights=dict(zip(offsets, w.tolist())))
    raise RejectionExhausted(
        f"no generator in [{p_min}, {p_max}] after {CASE1_MAX_DRAWS} draws")


def cayley_case1(n: int, d: int, p_min: float | None = None,
                 p_max: float | None = None, seed: int = 0):
    """(generator, matrix): `cayley_case1_generator` and its Cayley matrix
    on Z_n^d."""
    gen = cayley_case1_generator(d, p_min, p_max, seed)
    return gen, cayley_matrix(n, gen)


def cayley_case2_generator(d: int) -> CayleyGenerator:
    """The deterministic one-sided generator: weight 1/(d+1) on 0 and each e_i.

    Its Cayley graph has maximum in-degree d.
    """
    if d < 1:
        raise OutOfRange(f"dimension {d} must be at least 1")
    weights = {(0,) * d: 1.0 / (d + 1)}
    for i in range(d):
        e = [0] * d
        e[i] = 1
        weights[tuple(e)] = 1.0 / (d + 1)
    return CayleyGenerator(d=d, weights=weights)


def cayley_case2(n: int, d: int) -> ConsensusMatrix:
    """The Cayley matrix on Z_n^d of `cayley_case2_generator(d)`."""
    return cayley_matrix(n, cayley_case2_generator(d))


def p_epsilon(epsilon: float) -> ConsensusMatrix:
    """The 3-node one-directional-cycle family; commuting only at eps = 1/2.

    Eigenvalues are 1 and -(1/4 - eps) +/- (i/2) sqrt(7/4 - 2 eps); the
    invariant measure is (1, 1, 2 - 2 eps) / (4 - 2 eps).
    """
    if not (0.0 < epsilon <= 0.5):
        raise OutOfRange(f"epsilon = {epsilon} must lie in (0, 1/2]")
    p = np.array([
        [epsilon, 1.0 - epsilon, 0.0],
        [0.0, epsilon, 1.0 - epsilon],
        [0.5, 0.0, 0.5],
    ])
    return validate_consensus(p)


def commuting_example() -> ConsensusMatrix:
    """A 4x4 matrix that commutes with its reversal yet is neither reversible
    nor normal."""
    s = np.sqrt(10.0)
    m = np.array([
        [2.0, 1.0, -1.0 + s, 0.0],
        [1.0, 2.0, 0.0, -1.0 + s],
        [0.0, 1.0 + s, 1.0, 0.0],
        [1.0 + s, 0.0, 0.0, 1.0],
    ]) / (2.0 + s)
    return validate_consensus(m)


def circle_matrix(n: int, p: float, q: float) -> ConsensusMatrix:
    """Agents on a circle: left weight p, right weight q, self weight 1-p-q."""
    if n < 2:
        raise OutOfRange(f"circle needs at least 2 nodes, got {n}")
    if p < 0 or q < 0 or p + q <= 0 or p + q >= 1:
        raise InvalidWeights(
            f"need p, q >= 0 with 0 < p + q < 1, got p = {p}, q = {q}")
    m = np.zeros((n, n))
    for u in range(n):
        m[u, u] = 1.0 - p - q
        m[u, (u - 1) % n] += p
        m[u, (u + 1) % n] += q
    return validate_consensus(m)


@dataclass(frozen=True)
class GeometricParams:
    """Pipeline parameters; defaults reproduce the reference experiment."""

    s: float = 0.1
    r: float = 1.0
    gamma: float = 1.0
    rho: float = 0.052
    p_e: float = 0.8
    p_d: float = 0.1
    c: float = 0.5
    b: float = 0.8
    pi_bar_min: float = 0.1
    pi_bar_max: float = 3.0

    def __post_init__(self):
        if not (0 < self.s < self.r):
            raise OutOfRange(f"need 0 < s < r, got s = {self.s}, r = {self.r}")
        if not (0 < self.p_e <= 1):
            raise OutOfRange(f"p_e = {self.p_e} must lie in (0, 1]")
        if not (0 <= self.p_d < 0.5):
            raise OutOfRange(f"p_d = {self.p_d} must lie in [0, 1/2)")
        if not (0 < self.b <= 1):
            raise OutOfRange(f"b = {self.b} must lie in (0, 1]")
        if not (self.pi_bar_min < self.pi_bar_max):
            raise OutOfRange("pi_bar_min must be below pi_bar_max")
        if self.gamma <= 0 or self.rho <= 0 or self.c <= 0:
            raise OutOfRange("gamma, rho and c must be positive")


@dataclass(frozen=True, eq=False)
class GeometricInstance:
    """An accepted sample: coordinates, the undirected geometric graph, the
    consensus matrix, measured parameters and the rejection audit trail."""

    coordinates: np.ndarray
    graph: np.ndarray
    matrix: ConsensusMatrix
    measured: dict
    audit: dict


def gamma_check(coordinates, l: float, gamma: float) -> bool:
    """One-sided coverage certificate: gamma_n <= gamma if this passes.

    Tests a grid of (GAMMA_GRID_DIVISIONS + 1)^d points with spacing
    step = l / GAMMA_GRID_DIVISIONS; every grid point must lie within
    gamma - step sqrt(d)/2 of some node.  A pass guarantees coverage; a fail
    may be spurious (never the reverse).
    """
    coords = np.asarray(coordinates, dtype=float)
    d = coords.shape[1]
    step = l / GAMMA_GRID_DIVISIONS
    margin = gamma - step * np.sqrt(d) / 2.0
    if margin < 0:
        return False
    axes = [np.arange(GAMMA_GRID_DIVISIONS + 1) * step for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    dist, _ = cKDTree(coords).query(grid)
    return bool(dist.max() <= margin)


def rho_check(graph, coordinates, rho: float, distances=None):
    """(pass flag, rho_n) where rho_n = min over pairs of d_E(u,v) / d_G(u,v).

    Graph distances count unit-length edges (Dijkstra from every node).
    `distances`, the Euclidean distance matrix of `coordinates`, is computed
    when the caller does not pass it.
    """
    adj = np.asarray(graph)
    coords = np.asarray(coordinates, dtype=float)
    n = coords.shape[0]
    if n < 2:
        return True, float("inf")
    dg = csgraph.shortest_path(csr_matrix(adj), method="D", directed=False,
                               unweighted=True)
    iu = np.triu_indices(n, 1)
    if np.isinf(dg[iu]).any():
        raise Disconnected("graph distances are infinite for some pair")
    de = cdist(coords, coords) if distances is None else distances
    rho_n = float((de[iu] / dg[iu]).min())
    return rho_n >= rho, rho_n


def _place_nodes(rng, n, d, l, s, audit):
    coords = np.empty((n, d))
    placed = 0
    while placed < n:
        for attempt in range(NODE_ATTEMPT_CAP):
            candidate = rng.random(d) * l
            if placed == 0:
                break
            gap = np.linalg.norm(coords[:placed] - candidate, axis=1).min()
            if gap >= s:
                break
            audit["nodes_rejected"] += 1
        else:
            raise InfeasibleDensity(
                f"could not place node {placed} of {n} at spacing {s} "
                f"in [0, {l}]^{d} within {NODE_ATTEMPT_CAP} attempts")
        coords[placed] = candidate
        placed += 1
    return coords


def sample_geometric(params: GeometricParams, n: int, d: int, seed,
                     max_attempts: int = 1000) -> GeometricInstance:
    """Run the full sampling pipeline; pure function of (params, n, d, seed).

    Any screening failure (disconnected, coverage, distance ratio, reducible
    matrix, invariant-measure range) restarts the construction from node
    placement; `max_attempts` bounds the restarts.  Each node gets
    NODE_ATTEMPT_CAP candidate positions before InfeasibleDensity, and the
    coverage screen is `gamma_check` on its fixed grid.  The invariant-measure
    screen is the one symmetric band: it rejects when n pi_min < pi_bar_min
    or n pi_max > pi_bar_max, and the audit's `pi_check=symmetric` names it.
    """
    if n < 2:
        raise OutOfRange(f"need at least 2 nodes, got {n}")
    if d not in (1, 2, 3):
        raise OutOfRange(f"dimension {d} must be 1, 2 or 3")
    rng = np.random.default_rng(seed)
    l = params.c * n ** (1.0 / d)
    audit = {
        "attempts": 0,
        "nodes_rejected": 0,
        "rejected_disconnected": 0,
        "rejected_gamma": 0,
        "rejected_rho": 0,
        "rejected_reducible": 0,
        "rejected_pi_range": 0,
        "seed": str(seed),
        "pi_check": "symmetric",
    }
    iu = np.triu_indices(n, 1)
    full = (1 << n) - 1
    for _ in range(max_attempts):
        audit["attempts"] += 1
        coords = _place_nodes(rng, n, d, l, params.s, audit)
        de = cdist(coords, coords)
        keep = (de[iu] <= params.r) & (rng.random(iu[0].size) < params.p_e)
        adj = np.zeros((n, n), dtype=bool)
        adj[iu] = keep
        adj |= adj.T
        if reach(adj) != full:
            audit["rejected_disconnected"] += 1
            continue
        if not gamma_check(coords, l, params.gamma):
            audit["rejected_gamma"] += 1
            continue
        rho_ok, rho_n = rho_check(adj, coords, params.rho, distances=de)
        if not rho_ok:
            audit["rejected_rho"] += 1
            continue
        m = adj.astype(float) + np.eye(n)
        edge_u, edge_v = np.nonzero(np.triu(adj, 1))
        draws = rng.random(edge_u.size)
        drop_uv = draws < params.p_d
        drop_vu = ~drop_uv & (draws < 2.0 * params.p_d)
        m[edge_u[drop_uv], edge_v[drop_uv]] = 0.0
        m[edge_v[drop_vu], edge_u[drop_vu]] = 0.0
        nz = m > 0
        if strong_component(nz) != full:
            audit["rejected_reducible"] += 1
            continue
        m[nz] = params.b + rng.random(int(nz.sum())) * (1.0 - params.b)
        m /= m.sum(axis=1, keepdims=True)
        matrix = validate_consensus(m)
        npi = n * matrix.invariant.pi
        if npi.min() < params.pi_bar_min or npi.max() > params.pi_bar_max:
            audit["rejected_pi_range"] += 1
            continue
        coords.setflags(write=False)
        adj.setflags(write=False)
        measured = {
            "s_n": float(de[iu].min()),
            "r_n": float(de[iu][adj[iu]].max()) if adj[iu].any() else 0.0,
            "gamma_ok": True,
            "rho_n": rho_n,
        }
        return GeometricInstance(coordinates=coords, graph=adj, matrix=matrix,
                                 measured=measured, audit=audit)
    raise RejectionExhausted(
        f"no acceptable instance after {max_attempts} attempts "
        f"(audit: {audit})")


def save_coordinates_csv(instance: GeometricInstance, path) -> None:
    np.savetxt(path, instance.coordinates, delimiter=",", fmt="%.17g")


def save_edge_list(instance: GeometricInstance, path) -> None:
    """Lines "u v" with 0-based ids, one per undirected edge of the graph."""
    n = instance.graph.shape[0]
    with open(path, "w") as fh:
        for u in range(n):
            for v in range(u + 1, n):
                if instance.graph[u, v]:
                    fh.write(f"{u} {v}\n")


def load_edge_list(path, n: int | None = None) -> np.ndarray:
    """Read "u v [weight]" lines into a dense adjacency (weights optional).

    Ids are 0-based and must lie in [0, n); without `n`, n is one more than
    the largest id.  Blank lines are skipped.  A line that is not two integer
    ids and an optional number raises ValueError, and an id outside [0, n)
    raises OutOfRange; both name the line.
    """
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                if len(parts) not in (2, 3):
                    raise ValueError
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'u v [weight]', "
                                 f"got {line.strip()!r}") from None
            edges.append((lineno, u, v, w))
    if n is None:
        n = 1 + max(max(u, v) for _, u, v, _ in edges) if edges else 0
    adj = np.zeros((n, n))
    for lineno, u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRange(
                f"{path}:{lineno}: edge {u} {v} has an id outside [0, {n})")
        adj[u, v] = w
        adj[v, u] = w
    return adj


def audit_block(instance: GeometricInstance) -> str:
    """Flat key=value rendering of the measured parameters and audit trail."""
    lines = [f"{k}={v}" for k, v in instance.measured.items()]
    lines += [f"{k}={v}" for k, v in instance.audit.items()]
    return "\n".join(lines)
