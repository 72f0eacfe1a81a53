"""Experiment drivers and the command-line interface.

Subcommands: `epsilon-sweep` (the 3-node one-directional family against both
bound theorems), `cayley` (torus scaling, in closed form from the FFT of
each generator), `geometric` (random geometric graphs), `analyze` (one
matrix file), `validate` (cross-module property suites).  File outputs are
deterministic given the master seed: results.csv carries the seed in a `#`
comment header, each sweep's figure goes to one `<stem>.dat` table whose `#`
line names its columns, and audit.txt is reproducible except for its final
total_wall_time_s line.
Exit codes: 0 success, 1 configuration or input error, 2 validation-suite
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from .bounds import resistance_sandwich_check, reversiblization_support
from .errors import (
    ConfigError,
    InfeasibleDensity,
    LqConsensusError,
    NotIrreducible,
    RejectionExhausted,
)
from .graph_gen import (
    GeometricParams,
    case1_range,
    cayley_case1_generator,
    cayley_case2,
    cayley_case2_generator,
    circle_matrix,
    commuting_example,
    gamma_check,
    p_epsilon,
    sample_geometric,
)
from .lqcost import green_matrix, lq_cost_exact, lq_cost_truncated, trace_pair
from .pipeline import CSV_COLUMNS, ResultRow, evaluate, growth_fit, torus_fields
from .resistance import effective_resistance, phi_map, weighted_average_resistance
from .stochastic_core import (
    CLASSIFICATION_TOL,
    INVARIANT_RESIDUAL_TOL,
    SUPPORT_THRESHOLD,
    classify,
    load_matrix_csv,
    validate_consensus,
)

CAYLEY_N_DEFAULT = {1: (8, 16, 24, 32), 2: (8, 12, 16, 20, 24), 3: (4, 6, 8)}
GEOMETRIC_N_DEFAULT = {
    2: (25, 50, 75, 100, 125, 150, 175, 200, 225, 250, 275, 300),
    3: (50, 150, 250, 343),
}

# Geometric instances of at most this many nodes also run the truncated
# series as a cross-check of the exact cost.
EXACT_CHECK_MAX_N = 200
# The bound columns in the order `analyze` prints them; a row has the norm_*
# pair only for a normal matrix.
ANALYZE_BOUND_COLUMNS = (
    *(name for name in CSV_COLUMNS if name.startswith(("res_", "topo_"))),
    "lower_applicable", "norm_j_upper", "norm_j_lower")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _cells(row: ResultRow) -> list:
    """The CSV cells of a row, in CSV_COLUMNS order."""
    return [row.experiment] + [_fmt(getattr(row, c)) for c in CSV_COLUMNS[1:]]


def _kv(fields: dict, sep: str = " ") -> str:
    """key=value pairs joined by `sep`, non-string values through `_fmt`."""
    return sep.join(f"{key}={value if isinstance(value, str) else _fmt(value)}"
                    for key, value in fields.items())


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
        "max_attempts": (_to_int, 1000),
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
                 seed=None) -> dict:
    """The dict of parameters that the experiment's `run_*` function takes:
    defaults merged with a key=value config file, then override strings."""
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
    return parameters


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


def _size_means(stem: str, x, per_size, family: str, label: str, logy: bool):
    """Per-size means of one sweep as its `_write_sweep` figure: the columns
    nodes (x), mean_j, mean_j_normalized, mean_<family>_j_upper and
    mean_<family>_j_lower, charted as mean J against the two bounds.
    `per_size` holds the rows at each x; with none the table has no rows.
    """
    def mean(field):
        return [float(np.mean([getattr(r, field) for r in rows])) for rows in per_size]

    columns = {"nodes": np.array(x, dtype=float), "mean_j": mean("j"),
               "mean_j_normalized": mean("j_normalized")}
    curves = [("mean J", "mean_j")]
    for side in ("upper", "lower"):
        columns[f"mean_{family}_j_{side}"] = mean(f"{family}_j_{side}")
        curves.append((f"{label} {side}", f"mean_{family}_j_{side}"))
    return stem, columns, curves, {"logy": logy}


def _write_sweep(out_dir: Path, experiment: str, seed: int, settings: dict,
                 rows, details, start: float, *, figure, svg: bool,
                 summary=(), skipped=None) -> int:
    """Write one sweep's bundle, after all its rows, and print `wrote ...`.

    The bundle is results.csv, the `figure` (stem, columns: name -> values
    with x first, curves: (label, column name), axes: logx/logy) as
    `<stem>.dat` with a `#` line naming the columns, with `svg` its curves
    against x as `<stem>.svg`, and audit.txt: experiment, master_seed and
    `settings`, rows=, skipped= for sweeps that can skip (`skipped` not
    None), the `summary` lines, one detail line per instance, and the wall
    time since `start`.  This is a sweep's first write: a failed run makes
    no directory.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.csv", "w") as fh:
        fh.write(f"# master_seed={seed}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_cells(row)) + "\n")
    stem, columns, curves, axes = figure
    x_name = next(iter(columns))
    line = " ".join(["%.17g"] * len(columns)) + "\n"
    table = np.column_stack(list(columns.values())).tolist()
    (out_dir / f"{stem}.dat").write_text(
        "# " + " ".join(columns) + "\n" + "".join(line % tuple(v) for v in table))
    if svg:
        _emit_svg(out_dir / f"{stem}.svg",
                  [(label, columns[x_name], columns[name]) for label, name in curves],
                  xlabel=x_name, ylabel="cost", **axes)
    head = {"experiment": experiment, "master_seed": seed, **settings, "rows": len(rows)}
    if skipped is not None:
        head["skipped"] = skipped
    lines = [_kv(head, "\n"), *summary, *details,
             f"total_wall_time_s={time.perf_counter() - start:.3f}"]
    (out_dir / "audit.txt").write_text("\n".join(lines) + "\n")
    counts = f"{len(rows)} rows" + (f", {skipped} skipped" if skipped is not None else "")
    print(f"wrote {out_dir / 'results.csv'} ({counts})")
    return 0


# The epsilon sweep's curves: chart label, ResultRow field (the .dat column).
EPSILON_CURVES = (
    ("J", "j"),
    ("resistance upper", "res_j_upper"),
    ("resistance lower", "res_j_lower"),
    ("topology upper", "topo_j_upper"),
    ("topology lower", "topo_j_lower"),
)


def run_epsilon_sweep(config: dict, out_dir: Path, svg: bool = False) -> int:
    """Cost and bounds of the 3-node family over a log-spaced epsilon grid."""
    eps_min, eps_max, points = config["eps_min"], config["eps_max"], config["points"]
    if not (0.0 < eps_min <= eps_max <= 0.5):
        raise ConfigError(
            f"epsilon grid must sit inside (0, 0.5]: got [{eps_min}, {eps_max}]")
    if points < 1:
        raise ConfigError(f"points={points} must be at least 1")
    grid = np.geomspace(eps_min, eps_max, points)
    start = time.perf_counter()
    rows, details = [], []
    for i, eps in enumerate(grid):
        matrix = p_epsilon(float(eps))
        row, _, detail = evaluate(matrix, experiment="epsilon-sweep",
                                  n=matrix.n, instance=i, epsilon=float(eps))
        rows.append(row)
        details.append(_kv({"instance": i, "epsilon": eps, **detail}))
    columns = {"epsilon": grid, **{field: [getattr(row, field) for row in rows]
                                   for _, field in EPSILON_CURVES}}
    hyp = [row for row in rows if not row.lower_applicable and row.res_j_lower > row.j]
    certified = [row for row in rows if row.lower_applicable]
    summary = [
        f"hypothetical_lower_above_j_count={len(hyp)}",
        f"hypothetical_lower_above_j_max_eps="
        f"{_fmt(max((row.epsilon for row in hyp), default=None))}",
        f"certified_lower_points={len(certified)}",
        # Always true: ResultRow raises on a negative certified lower margin.
        "certified_lower_valid=true",
        f"certified_lower_min_rel_margin="
        f"{_fmt(min(((r.j - r.res_j_lower) / r.j for r in certified), default=None))}",
    ]
    figure = ("epsilon_sweep", columns, EPSILON_CURVES, {"logx": True, "logy": True})
    return _write_sweep(
        out_dir, "epsilon-sweep", config["seed"],
        {"points": points, "eps_min": _fmt(eps_min), "eps_max": _fmt(eps_max)},
        rows, details, start, figure=figure, svg=svg, summary=summary)


def run_cayley_sweep(config: dict, out_dir: Path, svg: bool = False) -> int:
    """Torus-graph scaling: J and the normal-matrix bounds over an n grid.

    Each instance samples only its generator (case 1: banded weights drawn
    per (seed, case, d, n, instance); case 2: the fixed one-sided
    generator), and `torus_fields` gives its J, J_w and bounds from one FFT,
    so no n^d x n^d matrix is built.  The rows pass the `evaluate` gate;
    each audit detail line gives its detail: the closed-form method and the
    spectral gap.  p_min and p_max set the case-1 band (the audit records
    the band used) and are refused in case 2.  With at least 3 sizes the
    audit also fits the per-size mean J to a g(N) + b (`growth_fit`).
    """
    case, d, seed = config["case"], config["d"], config["seed"]
    if case not in (1, 2):
        raise ConfigError(f"case={case} must be 1 or 2")
    if case == 1 and d not in (2, 3):
        raise ConfigError("case 1 sampling is defined for d in {2, 3}")
    if d not in CAYLEY_N_DEFAULT:
        raise ConfigError(f"d={d} must be 1, 2 or 3")
    if case == 2 and (config["p_min"] is not None or config["p_max"] is not None):
        raise ConfigError("p_min and p_max set the case-1 weight band;"
                          " case 2 has fixed weights")
    n_list = config["n_list"] or CAYLEY_N_DEFAULT[d]
    instances = (config["instances"] if config["instances"] is not None
                 else 20 if case == 1 else 1)
    if instances < 1:
        raise ConfigError(f"instances={instances} must be at least 1")
    settings = {"case": case, "d": d, "n_list": ",".join(map(str, n_list)),
                "instances": instances}
    if case == 1:
        p_min, p_max = case1_range(d, config["p_min"], config["p_max"])
        settings.update(p_min=_fmt(p_min), p_max=_fmt(p_max))
    start = time.perf_counter()
    rows, details, per_size = [], [], []
    for n in n_list:
        per_n = []
        for i in range(instances):
            if case == 1:
                gen = cayley_case1_generator(d, p_min, p_max,
                                             seed=[seed, case, d, n, i])
            else:
                gen = cayley_case2_generator(d)
            row, _, detail = evaluate(torus_fields(gen, n), nodes=n ** d,
                                      experiment="cayley", n=n, d=d, case=case,
                                      instance=i)
            rows.append(row)
            per_n.append(row)
            details.append(_kv({"n": n, "instance": i, **detail}))
        per_size.append(per_n)
    nodes = [n ** d for n in n_list]
    figure = _size_means(f"cayley_case{case}_d{d}", nodes, per_size, "norm",
                         "corollary", logy=False)
    mean_j, normalized = figure[1]["mean_j"], figure[1]["mean_j_normalized"]
    summary = [f"normalized_j_max_over_min={_fmt(max(normalized) / min(normalized))}"]
    if len(n_list) >= 3:
        summary.append(_kv(growth_fit(d, nodes, mean_j), "\n"))
    summary += [
        f"n={n} nodes={n ** d} mean_j={_fmt(j)} mean_j_normalized={_fmt(jn)}"
        for n, j, jn in zip(n_list, mean_j, normalized)
    ]
    return _write_sweep(out_dir, "cayley", seed, settings, rows, details, start,
                        figure=figure, svg=svg, summary=summary)


def run_geometric_sweep(config: dict, out_dir: Path, svg: bool = False) -> int:
    """Random-geometric-graph scaling of the exact cost J and J_w.

    The config sets the sampler's GeometricParams and max_attempts; its other
    settings are `graph_gen` constants.  Instances that the sampler cannot
    draw within max_attempts are skipped and audited.  Every other instance
    goes through `evaluate`; those with n <= EXACT_CHECK_MAX_N also run the
    truncated series as a cross-check, whose relative error is the row's
    j_exact_rel_err.  Each audit detail line gives the sampler's attempts and
    rejections, the measured s_n, r_n and rho_n, and the `evaluate` detail.
    """
    d, seed, instances = config["d"], config["seed"], config["instances"]
    if d not in (2, 3):
        raise ConfigError(f"d={d} must be 2 or 3 for the geometric sweep")
    if instances < 1:
        raise ConfigError(f"instances={instances} must be at least 1")
    n_list = config["n_list"] or GEOMETRIC_N_DEFAULT[d]
    params = GeometricParams(**{
        f.name: config[f.name] for f in dataclasses.fields(GeometricParams)})
    start = time.perf_counter()
    rows, details, sizes, per_size = [], [], [], []
    skipped = 0
    for n in n_list:
        per_n = []
        for i in range(instances):
            try:
                inst = sample_geometric(params, n, d, seed=[seed, d, n, i],
                                        max_attempts=config["max_attempts"])
            except (RejectionExhausted, InfeasibleDensity) as exc:
                skipped += 1
                details.append(_kv({"n": n, "instance": i,
                                    "skipped": type(exc).__name__}))
                continue
            row, _, detail = evaluate(
                inst.matrix, cross_check=n <= EXACT_CHECK_MAX_N, nodes=n,
                experiment="geometric", n=n, d=d, instance=i)
            rows.append(row)
            per_n.append(row)
            counts = {key: value for key, value in inst.audit.items()
                      if key not in ("seed", "pi_check")}
            measured = {key: inst.measured[key] for key in ("s_n", "r_n", "rho_n")}
            details.append(_kv({"n": n, "instance": i, **counts, **measured,
                                **detail}))
        if per_n:
            sizes.append(n)
            per_size.append(per_n)
    figure = _size_means(f"geometric_d{d}", sizes, per_size, "topo", "topology",
                         logy=True)
    settings = {"d": d, "n_list": ",".join(map(str, n_list)), "instances": instances}
    return _write_sweep(out_dir, "geometric", seed, settings, rows, details, start,
                        figure=figure, svg=svg, skipped=skipped)


def analyze_matrix(path, truncated: bool = False) -> int:
    """Validate and fully characterize one consensus matrix file; the report
    prints the fixed CLASSIFICATION_TOL as classification_tol."""
    try:
        matrix = load_matrix_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    cls = classify(matrix)
    inv = matrix.invariant
    # The sweep rows' gate: J and J_w outside a printed certified bound raise.
    row, report, detail = evaluate(matrix, experiment="analyze", n=matrix.n,
                                   instance=0)
    green = green_matrix(matrix)
    sandwich = resistance_sandwich_check(matrix)
    blocks = [
        _kv({"n": matrix.n, "reversible": cls.reversible, "normal": cls.normal,
             "commuting": cls.commuting, "doubly_stochastic": cls.doubly_stochastic,
             "classification_tol": CLASSIFICATION_TOL, "pi_min": inv.pi_min,
             "pi_max": inv.pi_max, "invariant_residual": inv.residual,
             "invariant_route": inv.route}, "\n"),
        _kv({"j": report.j, "j_weighted": report.j_weighted,
             "t0_term": report.t0_term, **detail}, "\n"),
        _kv({"green_trace": green.trace,
             **{key: getattr(row, key) for key in ANALYZE_BOUND_COLUMNS
                if getattr(row, key) is not None},
             "sandwich_variant": sandwich.variant,
             "sandwich_min_upper_margin": sandwich.min_upper_margin,
             "sandwich_min_lower_margin": sandwich.min_lower_margin,
             "fuzz_edges": len(sandwich.support.edges),
             "fuzz_new_edges": len(sandwich.support.new_edges)}, "\n"),
    ]
    if truncated:
        trunc = lq_cost_truncated(matrix)
        blocks.append(_kv({"truncated_j": trunc.j, "truncated_steps": trunc.steps_used,
                           "truncated_rel_err": abs(trunc.j - report.j) / report.j},
                          "\n"))
    print("\n".join(blocks))
    return 0


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
    for _ in range(30):
        matrix = _random_consensus(rng, int(rng.integers(3, 11)))
        for t in range(9):
            left, right = trace_pair(matrix, t)
            yield right - left + 1e-9


def _suite_trace_equality_reversible(rng):
    for _ in range(10):
        matrix = _random_reversible(rng, int(rng.integers(3, 9)))
        for t in range(7):
            left, right = trace_pair(matrix, t)
            yield 1e-9 - abs(right - left)


def _suite_green_resistance_identity(rng):
    for _ in range(15):
        matrix = _random_reversible(rng, int(rng.integers(3, 13)))
        rbar_w = weighted_average_resistance(
            effective_resistance(phi_map(matrix)), matrix.invariant)
        target = green_matrix(matrix).trace / matrix.n
        yield 1e-8 - abs(rbar_w - target)


def _gate_margins(row):
    """The row gate's margin of every inequality it holds `row` to."""
    return [row.margin(smaller, larger) for smaller, larger, _ in row.gated()]


def _suite_upper_bounds(rng):
    """Random consensus matrices through `evaluate`, the sweeps' pipeline:
    J and J_w against every bound of the row gate, which raises on a
    violation (the certified lower bounds too, for a commuting draw)."""
    for i in range(30):
        matrix = _random_consensus(rng, int(rng.integers(3, 11)))
        row, _, _ = evaluate(matrix, experiment="validate", n=matrix.n, instance=i)
        yield from _gate_margins(row)


def _suite_lower_bounds_commuting(rng):
    """Commuting matrices through `evaluate`, as `_suite_upper_bounds`;
    each must be classified as commuting, so that the row gate also holds
    its costs above the theorems' lower bounds."""
    matrices = [commuting_example(), p_epsilon(0.5), cayley_case2(4, 2),
                circle_matrix(6, 0.3, 0.3)]
    matrices += [_random_circulant(rng, int(rng.integers(3, 9)))
                 for _ in range(16)]
    for i, matrix in enumerate(matrices):
        row, _, _ = evaluate(matrix, experiment="validate", n=matrix.n, instance=i)
        if not row.lower_applicable:
            raise LqConsensusError(
                "a commuting test matrix was not classified as commuting")
        yield from _gate_margins(row)


def _suite_sandwich(rng):
    for _ in range(15):
        matrix = _random_consensus(rng, int(rng.integers(3, 11)))
        margins = resistance_sandwich_check(matrix)
        yield margins.min_upper_margin + 1e-9
        yield margins.min_lower_margin + 1e-9


def _suite_support_oracle(rng):
    for _ in range(15):
        matrix = _random_consensus(rng, int(rng.integers(3, 11)), density=0.35)
        fuzz = reversiblization_support(matrix)
        numeric = (matrix.reversal @ matrix.entries) > SUPPORT_THRESHOLD
        expected = {(u, v) for u in range(matrix.n) for v in range(u + 1, matrix.n)
                    if numeric[u, v]}
        yield 0.0 if fuzz.edges == frozenset(expected) else -1.0
        witness_ok = all(matrix.support[w, u] and matrix.support[w, v]
                         for (u, v), w in fuzz.pivots.items())
        yield 0.0 if witness_ok else -1.0


def _suite_exact_vs_truncated(rng):
    for _ in range(10):
        matrix = _random_consensus(rng, int(rng.integers(3, 11)))
        exact = lq_cost_exact(matrix)
        trunc = lq_cost_truncated(matrix)
        yield 1e-5 - abs(trunc.j - exact.j) / exact.j


def _suite_stationarity(rng):
    for _ in range(30):
        matrix = _random_consensus(rng, int(rng.integers(3, 13)))
        pi = matrix.invariant.pi
        yield INVARIANT_RESIDUAL_TOL - float(np.abs(pi @ matrix.entries - pi).max())


def _max_uncovered(coords, box: float, divisions: int) -> float:
    """Largest distance from a point of the (divisions + 1)^2 grid on
    [0, box]^2 to its nearest node, by a running minimum over the nodes."""
    axis = np.arange(divisions + 1) * (box / divisions)
    nearest = np.full((axis.size, axis.size), np.inf)
    for x, y in coords:
        np.minimum(nearest, (axis - x)[:, None] ** 2 + (axis - y)[None, :] ** 2,
                   out=nearest)
    return float(np.sqrt(nearest.max()))


def _suite_gamma_oracle(rng):
    for _ in range(3):
        coords = rng.random((40, 2)) * 3.0
        covered = gamma_check(coords, 3.0, 1.0)
        yield 1.0 - _max_uncovered(coords, 3.0, 300) if covered else 0.0


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


def run_validation_suite(config: dict, inject_fault: bool = False) -> int:
    """Run every cross-module property suite; exit 2 if any fails.

    Each suite yields one slack per check, negative when the check misses,
    and prints one line: its checks, failures, worst slack and status.  A
    suite fails when a check misses or when it raises LqConsensusError,
    which stops that suite only: its line counts the checks made before
    and ends with error=<type>: <message>.  The two bound suites run the
    sweeps' pipeline, so their slacks are the row gate's margins and a
    violated bound raises in the gate.  With `inject_fault` (the
    --inject-fault flag) each slack s becomes min(s, 0) - 0.05, so every
    check misses: a negative control proving the report surfaces failures.
    """
    passed = 0
    for index, suite in enumerate(_VALIDATION_SUITES):
        slacks, error = [], ""
        try:
            for slack in suite(np.random.default_rng([config["seed"], index])):
                slacks.append(min(slack, 0.0) - 0.05 if inject_fault else slack)
        except LqConsensusError as exc:
            error = f" error={type(exc).__name__}: {exc}"
        failures = sum(1 for s in slacks if not s >= 0)
        ok = not (failures or error)
        passed += ok
        print(f"suite={suite.__name__.removeprefix('_suite_')} checks={len(slacks)} "
              f"failures={failures} worst_slack={min(slacks, default=math.nan):.6g} "
              f"status={'pass' if ok else 'fail'}{error}")
    print(f"suites_passed={passed}/{len(_VALIDATION_SUITES)}")
    print(f"result={'pass' if passed == len(_VALIDATION_SUITES) else 'fail'}")
    return 0 if passed == len(_VALIDATION_SUITES) else 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process; callers must not mutate it."""
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
    for name in ("epsilon-sweep", "cayley", "geometric"):
        sub.add_parser(name, parents=[sweep])
    analyze = sub.add_parser("analyze")
    analyze.add_argument("path", type=Path, help="matrix CSV file")
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
            return analyze_matrix(args.path, truncated=args.truncated)
        config = build_config(args.command, args.config, args.param, args.seed)
        if args.command == "validate":
            return run_validation_suite(config, inject_fault=args.inject_fault)
        if args.command == "epsilon-sweep":
            return run_epsilon_sweep(config, args.out, svg=args.svg)
        if args.command == "cayley":
            return run_cayley_sweep(config, args.out, svg=args.svg)
        return run_geometric_sweep(config, args.out, svg=args.svg)
    except (ConfigError, LqConsensusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
