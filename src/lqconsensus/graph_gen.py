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
import math
from dataclasses import dataclass, field

import numpy as np

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
# Case-1 weight draws taken from the generator at once.
CASE1_BLOCK = 256


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
    Draws come CASE1_BLOCK rows at a time, one row per draw, each normalized
    by its own sum; the first row inside the band is the one that single
    draws would accept.  Raises RejectionExhausted after CASE1_MAX_DRAWS
    draws.
    """
    p_min, p_max = case1_range(d, p_min, p_max)
    offsets = list(itertools.product((-1, 0, 1), repeat=d))
    rng = np.random.default_rng(seed)
    drawn = 0
    while drawn < CASE1_MAX_DRAWS:
        raw = rng.random((min(CASE1_BLOCK, CASE1_MAX_DRAWS - drawn), len(offsets)))
        drawn += raw.shape[0]
        w = raw / raw.sum(axis=1, keepdims=True)
        inside = ((w >= p_min) & (w <= p_max)).all(axis=1)
        if inside.any():
            return CayleyGenerator(
                d=d, weights=dict(zip(offsets, w[inside.argmax()].tolist())))
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
    consensus matrix, measured parameters and the rejection audit trail,
    which holds only counts: the attempts and each screen's rejections."""

    coordinates: np.ndarray
    graph: np.ndarray
    matrix: ConsensusMatrix
    measured: dict
    audit: dict


def _pair_distances(coordinates, later) -> np.ndarray:
    """Euclidean distances of the pairs u < v of the rows of `coordinates`,
    in the row-major order of np.triu_indices; `later` holds each pair's v.

    The squared differences are summed axis by axis in index order and the
    square root taken last, which is the arithmetic of
    scipy.spatial.distance.cdist, so the two agree bit for bit.  Row u's
    pairs are a run of n - 1 - u, so each axis takes one repeat and one
    gather.
    """
    coords = np.asarray(coordinates, dtype=float)
    runs = np.arange(coords.shape[0] - 1, -1, -1)
    total = None
    for column in coords.T:
        diff = np.repeat(column, runs)
        diff -= column.take(later)
        diff *= diff
        if total is None:
            total = diff
        else:
            total += diff
    return np.sqrt(total, out=total)


def _line_pairs(coords, lo, hi, step, limit):
    """The (node, line) pairs within reach, for the grid lines along the
    last axis: each line's index, the node's squared distance to it summed
    over the other axes in index order (the sum to which a nearest-node
    query adds the last axis's term), and the node's last coordinate.

    lo and hi bound each node's ticks within reach along each axis.  The
    pairs are read off a dense array of each node's ticks from lo on the
    other axes, in which a tick past hi has an infinite term.
    """
    divisions = GAMMA_GRID_DIVISIONS
    n, d = coords.shape
    shape = [n] + [1] * (d - 1)
    rest = np.zeros(shape)
    first = np.zeros(n, dtype=np.intp)
    offset = np.zeros((), dtype=np.intp)
    for k in range(d - 1):
        tick = lo[:, k, None] + np.arange(int((hi[:, k] - lo[:, k]).max()) + 1)
        term = np.square(tick * step - coords[:, k, None])
        term[tick > hi[:, k, None]] = np.inf
        shape[k + 1] = tick.shape[1]
        rest = rest + term.reshape(shape)
        shape[k + 1] = 1
        first = first * (divisions + 1) + lo[:, k]
        offset = np.add.outer(offset * (divisions + 1), np.arange(tick.shape[1]))
    pair = np.flatnonzero(rest <= limit)
    node = pair // offset.size
    line = first.take(node)
    line += offset.ravel().take(pair - node * offset.size)
    return line, rest.ravel().take(pair), coords[:, -1].take(node)


def _covers(tick, step, centre, rest, limit, out=None):
    """Whether the grid point at `tick` of a line along the last axis lies
    within the margin of a node, in the arithmetic of a nearest-node query:
    rest, the node's squared differences on the other axes summed in index
    order, plus the square of the last one, at most `limit`."""
    total = np.multiply(tick, step, out=out)
    total -= centre
    total *= total
    total += rest
    return total <= limit


def _line_depth(step, limit, d, line, rest, centre) -> np.ndarray:
    """How many nodes cover each point of the grid, an array with one axis
    per axis of the box, from (node, line) pairs of `_line_pairs`.

    A node's squared distance to the points of a line falls and then rises
    along it, so the node covers one interval of ticks (`_covers`).  Its
    ends are estimated as the ticks within sqrt(limit - rest) of the node
    and then settled by `_covers`, and the intervals are added up with
    bincount and cumsum.  Large arrays are named and updated in place: a
    fresh temporary of this size costs more than the arithmetic on it.
    """
    divisions = GAMMA_GRID_DIVISIONS

    def covers(tick, pick):
        return _covers(tick, step, centre[pick], rest[pick], limit)

    # ends[0] is the last tick of each interval and ends[1] the first, as
    # floats; way points away from the interval, and edge is the last tick
    # that way.
    half = np.subtract(limit, rest)
    np.maximum(half, 0.0, out=half)
    np.sqrt(half, out=half)
    ends = np.empty((2, centre.size))
    np.add(centre, half, out=ends[0])
    np.subtract(centre, half, out=ends[1])
    ends /= step
    np.clip(np.floor(ends[0], out=ends[0]), -1, divisions, out=ends[0])
    np.clip(np.ceil(ends[1], out=ends[1]), 0, divisions + 1, out=ends[1])
    way = np.array([[1.0], [-1.0]])
    edge = np.array([[divisions], [0.0]])
    # Each end moves outward while the next tick is covered, and otherwise
    # inward while its own tick is not.
    scratch = np.empty_like(ends)
    ends += way
    outward = _covers(ends, step, centre, rest, limit, out=scratch)
    ends -= way
    outward &= ends != edge
    inward = _covers(ends, step, centre, rest, limit, out=scratch)
    inward |= outward
    np.logical_not(inward, out=inward)
    for end, out, last, moved in zip(ends, way[:, 0], edge[:, 0], outward):
        pick = moved.nonzero()[0]
        while pick.size:
            end[pick] += out
            pick = pick[(end[pick] != last) & covers(end[pick] + out, pick)]
    for end, out, moved in zip(ends, way[:, 0], inward):
        moved &= ends[1] <= ends[0]
        pick = moved.nonzero()[0]
        while pick.size:
            end[pick] -= out
            pick = pick[(ends[1, pick] <= ends[0, pick]) & ~covers(end[pick], pick)]
    # A node covers ticks ends[1] to ends[0]; an empty interval starts and
    # stops at one place, so it adds nothing.
    ends[0] += 1
    np.minimum(ends[1], ends[0], out=ends[1])
    ends += np.multiply(line, divisions + 2, out=scratch[0])
    ends = ends.astype(np.intp)
    size = (divisions + 1) ** (d - 1) * (divisions + 2)
    depth = np.bincount(ends[1], minlength=size)
    depth -= np.bincount(ends[0], minlength=size)
    np.cumsum(depth, out=depth)
    return depth.reshape((divisions + 1,) * (d - 1) + (divisions + 2,))[..., :-1]


def gamma_check(coordinates, l: float, gamma: float) -> bool:
    """One-sided coverage certificate: gamma_n <= gamma if this passes.

    Tests a grid of (GAMMA_GRID_DIVISIONS + 1)^d points with spacing
    step = l / GAMMA_GRID_DIVISIONS; every grid point must lie within
    gamma - step sqrt(d)/2 of some node.  A pass guarantees coverage; a fail
    may be spurious (never the reverse).

    The verdict is that of one nearest-node query of the whole grid (the
    square root of the squared differences summed axis by axis, compared
    with the margin), but no point is queried.  The grid is read as lines
    along the last axis; on each line a node covers one interval of
    points, whose ends are settled in the query's arithmetic
    (`_line_depth`), and the grid passes if every point has a node.
    """
    coords = np.asarray(coordinates, dtype=float)
    n, d = coords.shape
    divisions = GAMMA_GRID_DIVISIONS
    step = l / divisions
    margin = gamma - step * math.sqrt(d) / 2.0
    if margin < 0 or not n:
        return False
    # The largest float whose square root is at most margin; sqrt is
    # monotone, so sqrt(x) <= margin iff x <= limit.
    limit = margin * margin
    while math.sqrt(math.nextafter(limit, math.inf)) <= margin:
        limit = math.nextafter(limit, math.inf)
    while math.sqrt(limit) > margin:
        limit = math.nextafter(limit, -math.inf)
    # Each node's ticks within margin of it along each axis, with one tick of
    # slack each way for rounding.
    lo = np.maximum(np.ceil((coords - margin) / step).astype(np.intp) - 1, 0)
    hi = np.minimum(np.floor((coords + margin) / step).astype(np.intp) + 1,
                    divisions)
    line, rest, centre = _line_pairs(coords, lo, hi, step, limit)
    return bool(_line_depth(step, limit, d, line, rest, centre).all())


def _hop_distances(graph) -> np.ndarray:
    """All-pairs hop distances of an undirected graph; inf where unreached.

    Any nonzero entry of `graph`, in either direction, is an edge of unit
    length.  A breadth-first search runs from every node at once on
    bit-packed words: bit s of row v is set once v is reached from s, and
    each level ORs the frontier rows of v's neighbours into row v.  The
    level at which a pair is reached is stored bit-sliced, one word array
    per binary digit, so the bits are unpacked once per digit at the end
    rather than once per level.
    """
    adj = np.asarray(graph) != 0
    n = adj.shape[0]
    # Self loops give every node a neighbour list, so no reduceat segment is
    # empty; a node's own row never holds a new bit.
    nbr = adj | adj.T
    np.fill_diagonal(nbr, True)
    cols = np.flatnonzero(nbr) % n
    starts = np.concatenate(([0], np.cumsum(nbr.sum(axis=1))[:-1]))
    words = (n + 63) // 64
    nodes = np.arange(n, dtype="<u8")
    frontier = np.zeros((n, words), dtype="<u8")
    frontier[nodes, nodes // 64] = np.left_shift(1, nodes % 64, dtype="<u8")
    seen = frontier.copy()
    digits = []
    level = 0
    while True:
        grown = np.bitwise_or.reduceat(np.take(frontier, cols, axis=0), starts,
                                       axis=0)
        grown &= ~seen
        if not grown.any():
            break
        level += 1
        seen |= grown
        if level.bit_length() > len(digits):
            digits.append(np.zeros_like(seen))
        for bit, digit in enumerate(digits):
            if level >> bit & 1:
                digit |= grown
        frontier = grown

    def unpack(packed):
        return np.unpackbits(packed.view(np.uint8), axis=1, count=n,
                             bitorder="little")

    hops = np.zeros((n, n), dtype=np.int32)
    for bit, digit in enumerate(digits):
        hops |= unpack(digit).astype(np.int32) << bit
    hops = hops.astype(float)
    reached = unpack(seen).view(bool)
    if not reached.all():
        hops[~reached] = np.inf
    return hops


def rho_check(graph, coordinates, rho: float, distances=None):
    """(pass flag, rho_n) where rho_n = min over pairs of d_E(u,v) / d_G(u,v).

    Graph distances count unit-length edges (`_hop_distances`, a bit-parallel
    breadth-first search from every node); a pair with no path raises
    Disconnected.  `distances`, the Euclidean distances of the pairs u < v
    in the row-major order of np.triu_indices (`_pair_distances`), are
    computed when the caller does not pass them.  The hop distances are
    read through one boolean mask of the same pairs.
    """
    coords = np.asarray(coordinates, dtype=float)
    n = coords.shape[0]
    if n < 2:
        return True, float("inf")
    index = np.arange(n)
    upper = index[:, None] < index
    hops = _hop_distances(graph)[upper]
    if np.isinf(hops).any():
        raise Disconnected("graph distances are infinite for some pair")
    if distances is None:
        distances = _pair_distances(coords, upper.nonzero()[1])
    rho_n = float((distances / hops).min())
    return rho_n >= rho, rho_n


def _place_nodes(rng, n, d, l, s, audit):
    """n positions in [0, l)^d, each at least s from every earlier one.

    Candidates are uniform draws tried in order, at most NODE_ATTEMPT_CAP
    per node.  They are drawn n - placed at a time: a block holds no more
    candidates than nodes left to place, so the last node takes the last
    candidate drawn and the stream ends where one draw per candidate would.
    A block is tested at once, against the placed nodes and against its own
    earlier candidates.  A pair closer than s is closer than s along the
    first axis, so one search of the points sorted along it, in a band of
    1.5 s that leaves room for rounding, finds every near pair.  A gap is
    the square root of the squared differences summed axis by axis in index
    order, which is np.linalg.norm's arithmetic.  Only a clash between two
    candidates of the block is settled in candidate order: the later one is
    refused unless the earlier one was.
    """
    pts = np.empty((d, n))
    index = np.arange(n + 1)
    placed = rejected = 0
    while True:
        pts[:, placed:] = (rng.random((n - placed, d)) * l).T
        order = pts[0].argsort()
        x = pts[0].take(order)
        ends = x.searchsorted(x + 1.5 * s, "right")
        # Sorted position p pairs with positions p + 1 to ends[p] - 1.
        width = int((ends - index[:n]).max())
        later = index[:n, None] + index[1:width]
        pairs = (later < ends[:, None]).ravel().nonzero()[0]
        first = order.take(pairs // (width - 1))
        second = order.take(later.ravel().take(pairs))
        diff = pts.take(first, axis=1) - pts.take(second, axis=1)
        diff *= diff
        near = (np.sqrt(diff.sum(axis=0)) < s).nonzero()[0]
        # Placed nodes are s apart, so a near pair holds a candidate.
        refused = set()
        for t, u in sorted(zip(np.maximum(first, second).take(near).tolist(),
                               np.minimum(first, second).take(near).tolist())):
            if u < placed or u not in refused:
                refused.add(t)
        # `rejected` counts the refusals since the last placed node.
        last = placed - 1
        for count, t in enumerate(sorted(refused)):
            rejected = rejected + 1 if t == last + 1 else 1
            last = t
            if rejected == NODE_ATTEMPT_CAP:
                audit["nodes_rejected"] += count + 1
                raise InfeasibleDensity(
                    f"could not place node {t - count} of {n} at spacing {s} "
                    f"in [0, {l}]^{d} within {NODE_ATTEMPT_CAP} attempts")
        audit["nodes_rejected"] += len(refused)
        if not refused:
            return pts.T.copy()
        if last < n - 1:
            rejected = 0
        kept = np.ones(n, dtype=bool)
        kept[list(refused)] = False
        placed = n - len(refused)
        pts[:, :placed] = pts[:, kept]


def sample_geometric(params: GeometricParams, n: int, d: int, seed,
                     max_attempts: int = 1000) -> GeometricInstance:
    """Run the full sampling pipeline; pure function of (params, n, d, seed).

    Any screening failure (disconnected, coverage, distance ratio, reducible
    matrix, invariant-measure range) restarts the construction from node
    placement; `max_attempts` bounds the restarts.  Each node gets
    NODE_ATTEMPT_CAP candidate positions before InfeasibleDensity, and the
    coverage screen is `gamma_check` on its fixed grid.  Every step of an
    attempt runs on arrays, with numpy alone; the edge draws and the
    distance-ratio screen read one vector of the distances of the pairs
    u < v (`_pair_distances`), in the row-major order of np.triu_indices.
    The invariant-measure screen rejects when n pi_min < pi_bar_min or
    n pi_max > pi_bar_max.  `measured` holds s_n, r_n and rho_n, and
    `audit` the attempt and rejection counts.
    """
    if n < 2:
        raise OutOfRange(f"need at least 2 nodes, got {n}")
    if d not in (1, 2, 3):
        raise OutOfRange(f"dimension {d} must be 1, 2 or 3")
    if max_attempts < 1:
        raise OutOfRange(f"max_attempts={max_attempts} must be at least 1")
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
    }
    index = np.arange(n)
    upper = index[:, None] < index
    later = upper.nonzero()[1]
    full = (1 << n) - 1
    for _ in range(max_attempts):
        audit["attempts"] += 1
        coords = _place_nodes(rng, n, d, l, params.s, audit)
        pairs = _pair_distances(coords, later)
        adj = np.zeros((n, n), dtype=bool)
        adj[upper] = (pairs <= params.r) & (rng.random(pairs.size) < params.p_e)
        adj |= adj.T
        if reach(adj) != full:
            audit["rejected_disconnected"] += 1
            continue
        if not gamma_check(coords, l, params.gamma):
            audit["rejected_gamma"] += 1
            continue
        rho_ok, rho_n = rho_check(adj, coords, params.rho, distances=pairs)
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
        # Valid by construction: rows sum to 1, and every entry on nz (diagonal
        # included) is at least b/n, far above VALIDATION_TOL and SUPPORT_THRESHOLD,
        # so the support is nz, which the screen above found strongly connected.
        matrix = ConsensusMatrix(n=n, entries=m)
        npi = n * matrix.invariant.pi
        if npi.min() < params.pi_bar_min or npi.max() > params.pi_bar_max:
            audit["rejected_pi_range"] += 1
            continue
        for array in (coords, adj, m):
            array.setflags(write=False)
        measured = {
            "s_n": float(pairs.min()),
            "r_n": float(pairs[adj[upper]].max()),
            "rho_n": rho_n,
        }
        return GeometricInstance(coordinates=coords, graph=adj, matrix=matrix,
                                 measured=measured, audit=audit)
    raise RejectionExhausted(
        f"no acceptable instance after {max_attempts} attempts at seed {seed} "
        f"(audit: {audit})")

