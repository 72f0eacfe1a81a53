"""Experiment drivers and the command-line interface.

Subcommands: `epsilon-sweep` (the 3-node one-directional family against both
bound theorems), `cayley` (torus scaling), `geometric` (random geometric
graphs), `analyze` (one matrix file), `validate` (cross-module property
suites).  File outputs are deterministic given the master seed: results.csv
carries the seed in a `#` comment header, plot data goes to plain two- or
three-column .dat tables, and audit.txt is reproducible except for its final
total_wall_time_s line.  Exit codes: 0 success, 1 configuration or input
error, 2 validation-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import (
    corollary_normal_bounds,
    resistance_sandwich_check,
    reversiblization_support,
    theorem_resistance_bounds,
    theorem_topology_bounds,
)
from .errors import (
    ConfigError,
    InfeasibleDensity,
    LqConsensusError,
    NotIrreducible,
    RejectionExhausted,
)
from .graph_gen import (
    GeometricParams,
    cayley_case1,
    cayley_case2,
    circle_matrix,
    commuting_example,
    gamma_check,
    p_epsilon,
    sample_geometric,
)
from .lqcost import green_matrix, lq_cost_exact, lq_cost_truncated, trace_pair
from .resistance import (
    effective_resistance,
    phi_map,
    weighted_average_resistance,
)
from .stochastic_core import (
    CLASSIFICATION_TOL,
    SUPPORT_THRESHOLD,
    classify,
    load_matrix_csv,
    validate_consensus,
)

CAYLEY_N_DEFAULT = {1: (8, 16, 24, 32), 2: (8, 12, 16, 20, 24), 3: (4, 6, 8)}
GEOMETRIC_N_DESK = {
    2: (25, 50, 75, 100, 125, 150, 175, 200, 225, 250, 275, 300),
    3: (50, 150, 250, 343),
}
GEOMETRIC_N_FULL = {
    2: GEOMETRIC_N_DESK[2],
    3: (50, 150, 250, 350, 450, 550, 600, 650, 700, 750, 800),
}

UPPER_SLACK_REL = 1e-9


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _check_upper(value: float, upper, label: str) -> None:
    if upper is None:
        return
    if value > upper * (1.0 + UPPER_SLACK_REL) + 1e-12:
        raise LqConsensusError(
            f"result row violates {label}: {value} > {upper}")


@dataclass(frozen=True)
class ResultRow:
    """One experiment data point; its fields, in order, are the CSV columns
    (CSV_COLUMNS), and nothing run-dependent is among them, so reruns with
    the same master seed are byte-identical.

    j_exact_rel_err is |J_trunc - J_exact| / J_exact, the relative error of
    the truncated series against the exact cost, on geometric rows where that
    cross-check ran; it is empty elsewhere.

    Construction verifies that the cost values sit below every populated
    upper bound (1e-9 relative slack) and raises LqConsensusError naming the
    bound otherwise.
    """

    experiment: str
    n: int
    d: int | None
    case: int | None
    instance: int
    epsilon: float | None
    j: float
    j_weighted: float
    j_exact_rel_err: float | None
    res_rbar: float
    res_j_upper: float
    res_j_lower: float
    res_jw_upper: float
    res_jw_lower: float
    topo_rbar: float
    topo_j_upper: float
    topo_j_lower: float
    topo_jw_upper: float
    topo_jw_lower: float
    norm_j_upper: float | None
    norm_j_lower: float | None
    lower_applicable: bool
    j_normalized: float | None

    def __post_init__(self):
        _check_upper(self.j, self.res_j_upper, "the resistance-theorem J upper bound")
        _check_upper(self.j, self.topo_j_upper, "the topology-theorem J upper bound")
        _check_upper(self.j, self.norm_j_upper, "the normal-corollary J upper bound")
        _check_upper(self.j_weighted, self.res_jw_upper,
                     "the resistance-theorem weighted upper bound")
        _check_upper(self.j_weighted, self.topo_jw_upper,
                     "the topology-theorem weighted upper bound")

    def to_cells(self) -> list:
        return [self.experiment] + [_fmt(getattr(self, c)) for c in CSV_COLUMNS[1:]]


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment tag plus its validated flat parameter map."""

    experiment: str
    parameters: dict


def _to_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}={text!r} is not an integer") from exc


def _to_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}={text!r} is not a number") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{key}={text!r} is not finite")
    return value


def _to_bool(key: str, text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}={text!r} is not a boolean")


def _to_int_list(key: str, text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}={text!r} is not a comma-separated integer list") from exc
    if not values:
        raise ConfigError(f"{key}={text!r} is an empty list")
    return values


# Every config key of each experiment with its (parser, default).
_CONFIG_KEYS = {
    "epsilon-sweep": {
        "eps_min": (_to_float, 1e-3), "eps_max": (_to_float, 0.5),
        "points": (_to_int, 100), "seed": (_to_int, 0),
    },
    "cayley": {
        "case": (_to_int, 1), "d": (_to_int, 2), "n_list": (_to_int_list, None),
        "instances": (_to_int, None), "seed": (_to_int, 0),
        "p_min": (_to_float, None), "p_max": (_to_float, None),
    },
    "geometric": {
        "d": (_to_int, 2), "n_list": (_to_int_list, None),
        "instances": (_to_int, 15), "seed": (_to_int, 0),
        **{f.name: (_to_float, f.default) for f in dataclasses.fields(GeometricParams)},
        "max_attempts": (_to_int, 1000), "node_attempt_cap": (_to_int, 10_000),
        "divisions": (_to_int, 30), "literal_pi_check": (_to_bool, False),
        "exact_check_max_n": (_to_int, 200), "t_max": (_to_int, 10_000),
        "delta": (_to_float, 1e-5), "window": (_to_int, 10),
    },
    "validate": {"seed": (_to_int, 0)},
}


def _read_config_file(path) -> dict:
    raw = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def build_config(experiment: str, config_file=None, overrides=(),
                 seed=None) -> ExperimentConfig:
    """Merge defaults, a key=value config file, and override strings."""
    if experiment not in _CONFIG_KEYS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    schema = _CONFIG_KEYS[experiment]
    parameters = {key: default for key, (_, default) in schema.items()}
    raw = _read_config_file(config_file) if config_file else {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    for key, text in raw.items():
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(
                f"unknown key {key!r} for {experiment} (known keys: {known})")
        parameters[key] = schema[key][0](key, text)
    if seed is not None:
        parameters["seed"] = seed
    if parameters.get("seed") is not None and parameters["seed"] < 0:
        raise ConfigError("seed must be a non-negative integer")
    return ExperimentConfig(experiment=experiment, parameters=parameters)


def _write_results_csv(path, rows, master_seed) -> None:
    # A sweep's first write, after all its rows: a failed run makes no directory.
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# master_seed={master_seed}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row.to_cells()) + "\n")


def _write_dat(path, *columns) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.17g")


def _write_audit(path, lines, total_wall_time_s: float) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
        fh.write(f"total_wall_time_s={total_wall_time_s:.3f}\n")


SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_axis(values, log: bool):
    """(lo, hi, ticks) of one axis in plotted units; ticks are (value, label).

    Log axes are plotted in decades and span whole decades.  A zero-width
    range, such as a single point, is padded instead of divided by.
    """
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    if log:
        lo, hi = math.floor(lo), math.ceil(hi)
        step = max(1, math.ceil((hi - lo) / 6))
        hi = lo + step * max(1, math.ceil((hi - lo) / step))
        return lo, hi, [(k, f"1e{k}") for k in range(lo, hi + 1, step)]
    if hi == lo:
        pad = max(abs(lo), 1.0) / 2
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / 4
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1, 2, 5, 10) if m * mag >= raw)
    first, last = math.floor(lo / step), math.ceil(hi / step)
    return first * step, last * step, [
        (k * step, f"{k * step:.6g}") for k in range(first, last + 1)]


def _emit_svg(path, curves, xlabel: str, ylabel: str, logx=False, logy=False):
    """Render one line chart as SVG, using the standard library only.

    `curves` are (label, x, y) triples, each drawn as one polyline.  Points
    that are not finite, or not positive on a log axis, are dropped.
    Coordinates have a fixed precision and nothing run-dependent is
    written, so reruns give byte-identical files.
    """
    def plotted(value, log):
        value = float(value)
        if not math.isfinite(value) or (log and value <= 0.0):
            return None
        return math.log10(value) if log else value

    series = []
    for label, xs, ys in curves:
        points = [(plotted(x, logx), plotted(y, logy)) for x, y in zip(xs, ys)]
        series.append((label, [(x, y) for x, y in points
                               if x is not None and y is not None]))
    x0, x1, xticks = _svg_axis([x for _, pts in series for x, _ in pts], logx)
    y0, y1, yticks = _svg_axis([y for _, pts in series for _, y in pts], logy)
    left, right, top, bottom = 70, 540, 20, 340

    def sx(x):
        return left + (x - x0) / (x1 - x0) * (right - left)

    def sy(y):
        return bottom - (y - y0) / (y1 - y0) * (bottom - top)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="400"'
        ' viewBox="0 0 720 400" font-family="sans-serif" font-size="11">',
        f'<rect x="{left}" y="{top}" width="{right - left}"'
        f' height="{bottom - top}" fill="none" stroke="black"/>',
    ]
    for x, text in xticks:
        out.append(f'<line x1="{sx(x):.2f}" y1="{bottom}" x2="{sx(x):.2f}"'
                   f' y2="{bottom + 5}" stroke="black"/>')
        out.append(f'<text x="{sx(x):.2f}" y="{bottom + 18}"'
                   f' text-anchor="middle">{text}</text>')
    for y, text in yticks:
        out.append(f'<line x1="{left - 5}" y1="{sy(y):.2f}" x2="{left}"'
                   f' y2="{sy(y):.2f}" stroke="black"/>')
        out.append(f'<text x="{left - 8}" y="{sy(y) + 4:.2f}"'
                   f' text-anchor="end">{text}</text>')
    out.append(f'<text x="{(left + right) / 2:.2f}" y="{bottom + 45}"'
               f' text-anchor="middle">{_svg_escape(xlabel)}</text>')
    out.append(f'<text x="15" y="{(top + bottom) / 2:.2f}" text-anchor="middle"'
               f' transform="rotate(-90 15 {(top + bottom) / 2:.2f})">'
               f'{_svg_escape(ylabel)}</text>')
    for i, (label, pts) in enumerate(series):
        color = SVG_COLORS[i % len(SVG_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                   f' points="{coords}"/>')
        ly = top + 10 + 18 * i
        out.append(f'<line x1="555" y1="{ly}" x2="580" y2="{ly}"'
                   f' stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="586" y="{ly + 4}">{_svg_escape(label)}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def _j_normalized(d: int, n_nodes: int, j: float) -> float:
    """The growth-rate normalization: j/n in d=1, j/log n in d=2, j in d=3."""
    if d == 1:
        return j / n_nodes
    if d == 2:
        return j / np.log(n_nodes)
    return j


def bound_fields(matrix, tol: float = CLASSIFICATION_TOL) -> dict:
    """The res_*, topo_* and lower_applicable columns of a result, then the
    norm_* columns if `matrix` is normal within `tol`, in `analyze` order."""
    res = theorem_resistance_bounds(matrix, tol=tol)
    topo = theorem_topology_bounds(matrix, tol=tol)
    fields = {}
    for name, bounds in (("res", res), ("topo", topo)):
        fields[f"{name}_rbar"] = bounds.constants["r_bar"]
        fields[f"{name}_j_upper"] = bounds.j_upper
        fields[f"{name}_j_lower"] = bounds.j_lower
        fields[f"{name}_jw_upper"] = bounds.jw_upper
        fields[f"{name}_jw_lower"] = bounds.jw_lower
    fields["lower_applicable"] = res.lower_applicable
    if classify(matrix, tol=tol).normal:
        norm = corollary_normal_bounds(matrix, tol=tol)
        fields["norm_j_upper"] = norm.j_upper
        fields["norm_j_lower"] = norm.j_lower
    return fields


def _result_row(matrix, report, bounds=None, **labels) -> ResultRow:
    """One result row: `report` gives J and J_w, `bounds` the bound block (by
    default `bound_fields(matrix)`) and `labels` the other columns.  A column
    that none of them gives is empty."""
    bounds = bound_fields(matrix) if bounds is None else bounds
    return ResultRow(**{**dict.fromkeys(CSV_COLUMNS), **labels, **bounds,
                        "j": report.j, "j_weighted": report.j_weighted})


def _write_size_means(out_dir: Path, prefix: str, x, per_size, family: str,
                      label: str, logy: bool, svg: bool):
    """Per-size means of one sweep: `<prefix>_j.dat` (x, mean J, mean
    j_normalized), `_upper.dat` and `_lower.dat` (x, mean `family` J bound)
    and, with `svg`, a chart of the three curves.  `per_size` holds the rows
    at each x; nothing is written when it is empty.  Returns the mean J and
    mean j_normalized columns.
    """
    if not per_size:
        return [], []

    def mean(field):
        return [float(np.mean([getattr(r, field) for r in rows])) for rows in per_size]

    x = np.array(x, dtype=float)
    j, j_norm = mean("j"), mean("j_normalized")
    upper, lower = mean(f"{family}_j_upper"), mean(f"{family}_j_lower")
    _write_dat(out_dir / f"{prefix}_j.dat", x, j, j_norm)
    _write_dat(out_dir / f"{prefix}_upper.dat", x, upper)
    _write_dat(out_dir / f"{prefix}_lower.dat", x, lower)
    if svg:
        _emit_svg(out_dir / f"{prefix}.svg", [
            ("mean J", x, j), (f"{label} upper", x, upper),
            (f"{label} lower", x, lower),
        ], xlabel="nodes", ylabel="cost", logy=logy)
    return j, j_norm


# The epsilon sweep's curves: chart label, ResultRow field, .dat file stem.
EPSILON_CURVES = (
    ("J", "j", "epsilon_j"),
    ("resistance upper", "res_j_upper", "epsilon_res_upper"),
    ("resistance lower", "res_j_lower", "epsilon_res_lower"),
    ("topology upper", "topo_j_upper", "epsilon_topo_upper"),
    ("topology lower", "topo_j_lower", "epsilon_topo_lower"),
)


def run_epsilon_sweep(config: ExperimentConfig, out_dir: Path,
                      svg: bool = False) -> int:
    """Cost and bounds of the 3-node family over a log-spaced epsilon grid."""
    p = config.parameters
    eps_min, eps_max, points = p["eps_min"], p["eps_max"], p["points"]
    if not (0.0 < eps_min <= eps_max <= 0.5):
        raise ConfigError(
            f"epsilon grid must sit inside (0, 0.5]: got [{eps_min}, {eps_max}]")
    if points < 1:
        raise ConfigError(f"points={points} must be at least 1")
    grid = np.geomspace(eps_min, eps_max, points)
    start = time.perf_counter()
    rows = []
    for i, eps in enumerate(grid):
        matrix = p_epsilon(float(eps))
        rows.append(_result_row(
            matrix, lq_cost_exact(matrix), experiment="epsilon-sweep",
            n=matrix.n, instance=i, epsilon=float(eps)))
    _write_results_csv(out_dir / "results.csv", rows, p["seed"])
    eps_col = np.array([row.epsilon for row in rows])
    curves = []
    for label, field, stem in EPSILON_CURVES:
        values = [getattr(row, field) for row in rows]
        _write_dat(out_dir / f"{stem}.dat", eps_col, values)
        curves.append((label, eps_col, values))
    hyp = [row for row in rows if not row.lower_applicable and row.res_j_lower > row.j]
    certified = [row for row in rows if row.lower_applicable]
    lines = [
        "experiment=epsilon-sweep",
        f"master_seed={p['seed']}",
        f"points={points}",
        f"eps_min={_fmt(eps_min)}",
        f"eps_max={_fmt(eps_max)}",
        f"rows={len(rows)}",
        f"hypothetical_lower_above_j_count={len(hyp)}",
        f"hypothetical_lower_above_j_max_eps="
        f"{_fmt(max((row.epsilon for row in hyp), default=None))}",
        f"certified_lower_points={len(certified)}",
        f"certified_lower_valid={_fmt(all(r.res_j_lower <= r.j + 1e-12 for r in certified))}",
    ]
    _write_audit(out_dir / "audit.txt", lines, time.perf_counter() - start)
    if svg:
        _emit_svg(out_dir / "epsilon_sweep.svg", curves, xlabel="epsilon",
                  ylabel="cost", logx=True, logy=True)
    print(f"wrote {out_dir / 'results.csv'} ({len(rows)} rows)")
    return 0


def run_cayley_sweep(config: ExperimentConfig, out_dir: Path,
                     svg: bool = False) -> int:
    """Torus-graph scaling: J and the normal-matrix bounds over an n grid."""
    p = config.parameters
    case, d, seed = p["case"], p["d"], p["seed"]
    if case not in (1, 2):
        raise ConfigError(f"case={case} must be 1 or 2")
    if case == 1 and d not in (2, 3):
        raise ConfigError("case 1 sampling is defined for d in {2, 3}")
    if d not in CAYLEY_N_DEFAULT:
        raise ConfigError(f"d={d} must be 1, 2 or 3")
    n_list = p["n_list"] or CAYLEY_N_DEFAULT[d]
    instances = p["instances"] if p["instances"] is not None else (20 if case == 1 else 1)
    if instances < 1:
        raise ConfigError(f"instances={instances} must be at least 1")
    start = time.perf_counter()
    rows = []
    per_size = []
    for n in n_list:
        per_n = []
        for i in range(instances):
            if case == 1:
                _, matrix = cayley_case1(n, d, p["p_min"], p["p_max"],
                                         seed=[seed, case, d, n, i])
            else:
                matrix = cayley_case2(n, d)
            report = lq_cost_exact(matrix)
            row = _result_row(
                matrix, report, experiment="cayley", n=n, d=d, case=case,
                instance=i, j_normalized=_j_normalized(d, n ** d, report.j))
            rows.append(row)
            per_n.append(row)
        per_size.append(per_n)
    _write_results_csv(out_dir / "results.csv", rows, seed)
    mean_j, normalized = _write_size_means(
        out_dir, f"cayley_case{case}_d{d}", [n ** d for n in n_list], per_size,
        "norm", "corollary", logy=False, svg=svg)
    lines = [
        "experiment=cayley",
        f"master_seed={seed}",
        f"case={case}",
        f"d={d}",
        f"n_list={','.join(str(n) for n in n_list)}",
        f"instances={instances}",
        f"rows={len(rows)}",
        f"normalized_j_max_over_min="
        f"{_fmt(max(normalized) / min(normalized) if normalized else None)}",
    ]
    lines += [
        f"n={n} nodes={n ** d} mean_j={_fmt(j)} mean_j_normalized={_fmt(jn)}"
        for n, j, jn in zip(n_list, mean_j, normalized)
    ]
    _write_audit(out_dir / "audit.txt", lines, time.perf_counter() - start)
    print(f"wrote {out_dir / 'results.csv'} ({len(rows)} rows)")
    return 0


def run_geometric_sweep(config: ExperimentConfig, out_dir: Path,
                        svg: bool = False, full_scale: bool = False) -> int:
    """Random-geometric-graph scaling of the exact cost J and J_w.

    Every instance is solved with `lq_cost_exact`.  Instances with
    n <= exact_check_max_n also run the truncated series (configured by
    t_max, delta and window) as a cross-check, whose relative error is the
    row's j_exact_rel_err.  Each audit detail line names the method, the
    number of doublings (steps_used) and the relative Stein residual, and the
    number of series terms (truncated_steps) where the cross-check ran.
    """
    p = config.parameters
    d, seed, instances = p["d"], p["seed"], p["instances"]
    if d not in (2, 3):
        raise ConfigError(f"d={d} must be 2 or 3 for the geometric sweep")
    if instances < 1:
        raise ConfigError(f"instances={instances} must be at least 1")
    n_list = p["n_list"] or (GEOMETRIC_N_FULL if full_scale else GEOMETRIC_N_DESK)[d]
    params = GeometricParams(**{
        f.name: p[f.name] for f in dataclasses.fields(GeometricParams)})
    start = time.perf_counter()
    rows = []
    audit_lines = [
        "experiment=geometric",
        f"master_seed={seed}",
        f"d={d}",
        f"n_list={','.join(str(n) for n in n_list)}",
        f"instances={instances}",
    ]
    detail_lines = []
    sizes, per_size = [], []
    skipped = 0
    for n in n_list:
        per_n = []
        for i in range(instances):
            try:
                inst = sample_geometric(
                    params, n, d, seed=[seed, d, n, i],
                    max_attempts=p["max_attempts"],
                    node_attempt_cap=p["node_attempt_cap"],
                    divisions=p["divisions"],
                    literal_pi_check=p["literal_pi_check"])
            except (RejectionExhausted, InfeasibleDensity) as exc:
                skipped += 1
                detail_lines.append(
                    f"n={n} instance={i} skipped={type(exc).__name__}")
                continue
            report = lq_cost_exact(inst.matrix)
            rel_err = check = None
            if n <= p["exact_check_max_n"]:
                check = lq_cost_truncated(inst.matrix, t_max=p["t_max"],
                                          delta=p["delta"], window=p["window"])
                rel_err = abs(check.j - report.j) / report.j
            row = _result_row(
                inst.matrix, report, experiment="geometric", n=n, d=d,
                instance=i, j_exact_rel_err=rel_err,
                j_normalized=_j_normalized(d, n, report.j))
            rows.append(row)
            per_n.append(row)
            audit = inst.audit
            detail_lines.append(
                f"n={n} instance={i} attempts={audit['attempts']}"
                f" nodes_rejected={audit['nodes_rejected']}"
                f" rejected_disconnected={audit['rejected_disconnected']}"
                f" rejected_gamma={audit['rejected_gamma']}"
                f" rejected_rho={audit['rejected_rho']}"
                f" rejected_reducible={audit['rejected_reducible']}"
                f" rejected_pi_range={audit['rejected_pi_range']}"
                f" rho_n={_fmt(inst.measured['rho_n'])}"
                f" method={report.method}"
                f" steps_used={report.steps_used}"
                f" stein_residual={_fmt(report.stein_residual)}"
                + (f" truncated_steps={check.steps_used}" if check is not None else ""))
        if per_n:
            sizes.append(n)
            per_size.append(per_n)
    _write_results_csv(out_dir / "results.csv", rows, seed)
    _write_size_means(out_dir, f"geometric_d{d}", sizes, per_size, "topo",
                      "topology", logy=True, svg=svg)
    audit_lines.append(f"rows={len(rows)}")
    audit_lines.append(f"skipped={skipped}")
    audit_lines += detail_lines
    _write_audit(out_dir / "audit.txt", audit_lines, time.perf_counter() - start)
    print(f"wrote {out_dir / 'results.csv'} ({len(rows)} rows, {skipped} skipped)")
    return 0


def analyze_matrix(path, tol: float = CLASSIFICATION_TOL,
                   truncated: bool = False, stream=None) -> int:
    """Validate and fully characterize one consensus matrix file."""
    stream = stream if stream is not None else sys.stdout
    try:
        matrix = load_matrix_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    cls = classify(matrix, tol=tol)
    inv = matrix.invariant
    report = lq_cost_exact(matrix)
    green = green_matrix(matrix)
    bounds = bound_fields(matrix, tol=tol)
    # The sweep rows' gate: J and J_w above a printed upper bound raise.
    _result_row(matrix, report, bounds, experiment="analyze", n=matrix.n, instance=0)
    sandwich = resistance_sandwich_check(matrix, tol=tol)
    lines = [
        f"n={matrix.n}",
        f"reversible={_fmt(cls.reversible)}",
        f"normal={_fmt(cls.normal)}",
        f"commuting={_fmt(cls.commuting)}",
        f"doubly_stochastic={_fmt(cls.doubly_stochastic)}",
        f"classification_tol={_fmt(tol)}",
        f"pi_min={_fmt(inv.pi_min)}",
        f"pi_max={_fmt(inv.pi_max)}",
        f"invariant_residual={_fmt(inv.residual)}",
        report.to_kv(),
        f"green_trace={_fmt(green.trace)}",
    ]
    lines += [f"{key}={_fmt(value)}" for key, value in bounds.items()]
    lines += [
        f"sandwich_variant={sandwich.variant}",
        f"sandwich_min_upper_margin={_fmt(sandwich.min_upper_margin)}",
        f"sandwich_min_lower_margin={_fmt(sandwich.min_lower_margin)}",
        f"fuzz_edges={len(sandwich.support.edges)}",
        f"fuzz_new_edges={len(sandwich.support.new_edges)}",
    ]
    if truncated:
        trunc = lq_cost_truncated(matrix)
        lines += [
            f"truncated_j={_fmt(trunc.j)}",
            f"truncated_steps={trunc.steps_used}",
            f"truncated_rel_err={_fmt(abs(trunc.j - report.j) / report.j)}",
        ]
    print("\n".join(lines), file=stream)
    return 0


@dataclass(frozen=True)
class SuiteResult:
    """One validation suite's outcome; a suite passes iff worst_slack >= 0."""

    name: str
    checks: int
    failures: int
    worst_slack: float


def _first_irreducible(draw, failure: str):
    """Validate up to 200 draws of `draw()`; the first irreducible one wins."""
    for _ in range(200):
        try:
            return validate_consensus(draw())
        except NotIrreducible:
            continue
    raise RejectionExhausted(failure)


def _random_consensus(rng, n: int, density: float = 0.6):
    """Random dense-support consensus matrix; retries until irreducible."""
    def draw():
        support = rng.random((n, n)) < density
        np.fill_diagonal(support, True)
        values = np.where(support, 0.05 + rng.random((n, n)), 0.0)
        return values / values.sum(axis=1, keepdims=True)
    return _first_irreducible(draw, "could not draw an irreducible support pattern")


def _random_reversible(rng, n: int):
    """Reversible matrix: row-normalize a random symmetric conductance."""
    def draw():
        sym = rng.random((n, n))
        sym = (sym + sym.T) / 2.0
        mask = np.triu(rng.random((n, n)) < 0.6, 1)
        conductance = np.where(mask | mask.T, sym, 0.0)
        np.fill_diagonal(conductance, 0.1 + rng.random(n))
        return conductance / conductance.sum(axis=1, keepdims=True)
    return _first_irreducible(draw, "could not draw a connected conductance pattern")


def _random_circulant(rng, n: int):
    """Random circulant consensus matrix (normal, hence commuting)."""
    def draw():
        coeffs = rng.random(n) * (rng.random(n) < 0.6)
        coeffs[0] += 0.2
        coeffs /= coeffs.sum()
        return np.stack([np.roll(coeffs, u) for u in range(n)])
    return _first_irreducible(draw, "could not draw an irreducible circulant")


def _suite_trace_inequality(rng):
    slacks = []
    for _ in range(30):
        matrix = _random_consensus(rng, int(rng.integers(3, 11)))
        for t in range(9):
            left, right = trace_pair(matrix, t)
            slacks.append(right - left + 1e-9)
    return slacks


def _suite_trace_equality_reversible(rng):
    slacks = []
    for _ in range(10):
        matrix = _random_reversible(rng, int(rng.integers(3, 9)))
        for t in range(7):
            left, right = trace_pair(matrix, t)
            slacks.append(1e-9 - abs(right - left))
    return slacks


def _suite_green_resistance_identity(rng):
    slacks = []
    for _ in range(15):
        matrix = _random_reversible(rng, int(rng.integers(3, 13)))
        rbar_w = weighted_average_resistance(
            effective_resistance(phi_map(matrix)), matrix.invariant)
        target = green_matrix(matrix).trace / matrix.n
        slacks.append(1e-8 - abs(rbar_w - target))
    return slacks


def _suite_upper_bounds(rng):
    slacks = []
    for _ in range(30):
        matrix = _random_consensus(rng, int(rng.integers(3, 11)))
        report = lq_cost_exact(matrix)
        for bounds in (theorem_resistance_bounds(matrix),
                       theorem_topology_bounds(matrix)):
            slacks.append(bounds.j_upper - report.j + 1e-9)
            slacks.append(bounds.jw_upper - report.j_weighted + 1e-9)
    return slacks


def _suite_lower_bounds_commuting(rng):
    matrices = [commuting_example(), p_epsilon(0.5), cayley_case2(4, 2),
                circle_matrix(6, 0.3, 0.3)]
    matrices += [_random_circulant(rng, int(rng.integers(3, 9)))
                 for _ in range(16)]
    slacks = []
    for matrix in matrices:
        report = lq_cost_exact(matrix)
        for bounds in (theorem_resistance_bounds(matrix),
                       theorem_topology_bounds(matrix)):
            if not bounds.lower_applicable:
                raise LqConsensusError(
                    "a commuting test matrix was not classified as commuting")
            slacks.append(report.j - bounds.j_lower + 1e-9)
            slacks.append(report.j_weighted - bounds.jw_lower + 1e-9)
    return slacks


def _suite_sandwich(rng):
    slacks = []
    for _ in range(15):
        matrix = _random_consensus(rng, int(rng.integers(3, 11)))
        margins = resistance_sandwich_check(matrix)
        slacks.append(margins.min_upper_margin + 1e-9)
        slacks.append(margins.min_lower_margin + 1e-9)
    return slacks


def _suite_support_oracle(rng):
    slacks = []
    for _ in range(15):
        matrix = _random_consensus(rng, int(rng.integers(3, 11)), density=0.35)
        fuzz = reversiblization_support(matrix)
        numeric = (matrix.reversal @ matrix.entries) > SUPPORT_THRESHOLD
        expected = {(u, v) for u in range(matrix.n) for v in range(u + 1, matrix.n)
                    if numeric[u, v]}
        slacks.append(0.0 if fuzz.edges == frozenset(expected) else -1.0)
        witness_ok = all(matrix.support[w, u] and matrix.support[w, v]
                         for (u, v), w in fuzz.pivots.items())
        slacks.append(0.0 if witness_ok else -1.0)
    return slacks


def _suite_exact_vs_truncated(rng):
    slacks = []
    for _ in range(10):
        matrix = _random_consensus(rng, int(rng.integers(3, 11)))
        exact = lq_cost_exact(matrix)
        trunc = lq_cost_truncated(matrix)
        slacks.append(1e-5 - abs(trunc.j - exact.j) / exact.j)
    return slacks


def _suite_stationarity(rng):
    slacks = []
    for _ in range(30):
        matrix = _random_consensus(rng, int(rng.integers(3, 13)))
        pi = matrix.invariant.pi
        residual = float(np.abs(pi @ matrix.entries - pi).max())
        slacks.append(1e-10 - residual)
    return slacks


def _max_uncovered(coords, box: float, divisions: int) -> float:
    from scipy.spatial import cKDTree
    step = box / divisions
    axis = np.arange(divisions + 1) * step
    mesh = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    dist, _ = cKDTree(coords).query(grid)
    return float(dist.max())


def _suite_gamma_oracle(rng):
    slacks = []
    for _ in range(3):
        coords = rng.random((40, 2)) * 3.0
        if gamma_check(coords, 3.0, 1.0, divisions=30):
            slacks.append(1.0 - _max_uncovered(coords, 3.0, 300))
        else:
            slacks.append(0.0)
    return slacks


_VALIDATION_SUITES = (
    _suite_trace_inequality,
    _suite_trace_equality_reversible,
    _suite_green_resistance_identity,
    _suite_upper_bounds,
    _suite_lower_bounds_commuting,
    _suite_sandwich,
    _suite_support_oracle,
    _suite_exact_vs_truncated,
    _suite_stationarity,
    _suite_gamma_oracle,
)


def run_validation_suite(config: ExperimentConfig, stream=None,
                         inject_fault: bool = False) -> int:
    """Run every cross-module property suite; nonzero exit on any failure.

    With `inject_fault` (the --inject-fault flag), a synthetic 0.05 is
    subtracted from every check's slack — a negative control proving the
    reporting pipeline surfaces failures.
    """
    stream = stream if stream is not None else sys.stdout
    seed = config.parameters["seed"]
    fault = 0.05 if inject_fault else 0.0
    results = []
    for index, suite in enumerate(_VALIDATION_SUITES):
        slacks = [s - fault for s in suite(np.random.default_rng([seed, index]))]
        results.append(SuiteResult(
            name=suite.__name__.removeprefix("_suite_"), checks=len(slacks),
            failures=sum(1 for s in slacks if s < 0), worst_slack=float(min(slacks))))
    for result in results:
        status = "pass" if result.worst_slack >= 0 else "fail"
        print(f"suite={result.name} checks={result.checks} "
              f"failures={result.failures} worst_slack={result.worst_slack:.6g} "
              f"status={status}", file=stream)
    passed = sum(1 for r in results if r.worst_slack >= 0)
    print(f"suites_passed={passed}/{len(results)}", file=stream)
    print(f"result={'pass' if passed == len(results) else 'fail'}", file=stream)
    return 0 if passed == len(results) else 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lqconsensus",
                     description="Consensus cost experiments and analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="key=value config file")
    common.add_argument("--param", "-p", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    common.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides config)")
    sweep = argparse.ArgumentParser(add_help=False, parents=[common])
    sweep.add_argument("--out", type=Path, default=Path("results"),
                       help="output directory (default: results)")
    sweep.add_argument("--svg", action="store_true",
                       help="also write a built-in SVG chart of the sweep")
    for name in ("epsilon-sweep", "cayley"):
        sub.add_parser(name, parents=[sweep])
    geometric = sub.add_parser("geometric", parents=[sweep])
    geometric.add_argument("--full-scale", action="store_true",
                           help="run the full-size n grids (slower)")
    analyze = sub.add_parser("analyze")
    analyze.add_argument("path", type=Path, help="matrix CSV file")
    analyze.add_argument("--tol", type=float, default=CLASSIFICATION_TOL,
                         help="classification tolerance")
    analyze.add_argument("--truncated", action="store_true",
                         help="also report the truncated-series estimate")
    validate = sub.add_parser("validate", parents=[common])
    validate.add_argument("--inject-fault", action="store_true",
                          help="negative control: make every suite miss")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return analyze_matrix(args.path, tol=args.tol,
                                  truncated=args.truncated)
        config = build_config(args.command, args.config, args.param, args.seed)
        if args.command == "validate":
            return run_validation_suite(config, inject_fault=args.inject_fault)
        if args.command == "epsilon-sweep":
            return run_epsilon_sweep(config, args.out, svg=args.svg)
        if args.command == "cayley":
            return run_cayley_sweep(config, args.out, svg=args.svg)
        return run_geometric_sweep(config, args.out, svg=args.svg,
                                   full_scale=args.full_scale)
    except (ConfigError, LqConsensusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
