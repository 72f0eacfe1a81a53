import dataclasses
import itertools
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from lqconsensus import (
    CayleyGenerator,
    ConfigError,
    Disconnected,
    GeometricParams,
    LqConsensusError,
    NotIrreducible,
    SteinDivergence,
    cayley_case1,
    cayley_case1_generator,
    cayley_case2,
    cayley_case2_generator,
    cayley_matrix,
    classify,
    commuting_example,
    conductance_matrix,
    corollary_normal_bounds,
    effective_resistance,
    lq_cost_exact,
    lq_cost_truncated,
    normal_corollary,
    p_epsilon,
    resistance_theorem,
    sample_geometric,
    save_matrix_csv,
    theorem_resistance_bounds,
    theorem_topology_bounds,
    topology_theorem,
    unit_conductance,
    validate_consensus,
)
from lqconsensus import bounds, experiments_cli, pipeline, stochastic_core
from lqconsensus.experiments_cli import _emit_svg, _write_sweep, build_config, main
from lqconsensus.pipeline import (
    BOUND_SLACK_ABS,
    BOUND_SLACK_REL,
    CSV_COLUMNS,
    ResultRow,
    evaluate,
    torus_fields,
)
from helpers import two_cliques


def read_results(path):
    """(master_seed, header, rows as dicts of strings) from a results.csv."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# master_seed=")
    master_seed = lines[0].partition("=")[2]
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return master_seed, header, rows


def read_table(path):
    """A sweep's .dat table as {column name: values}, in file order, after
    checking that its `#` line names one column per field."""
    header = path.read_text().partition("\n")[0]
    assert header.startswith("# ")
    names = header[2:].split()
    data = np.loadtxt(path, ndmin=2)
    assert data.shape[1] == len(names)
    return dict(zip(names, data.T))


SVG_NS = "{http://www.w3.org/2000/svg}"


def parse_svg(path):
    """The root element of an SVG file, after checking that it is one."""
    root = ElementTree.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    return root


def strip_wall_time(text):
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("total_wall_time_s="))


def assert_bound_columns_match_library(row, matrix):
    """The row's bound columns equal direct calls of the public bound functions."""
    res = theorem_resistance_bounds(matrix)
    topo = theorem_topology_bounds(matrix)
    for prefix, report in (("res", res), ("topo", topo)):
        assert float(row[f"{prefix}_rbar"]) == report.constants["r_bar"]
        assert float(row[f"{prefix}_j_upper"]) == report.j_upper
        assert float(row[f"{prefix}_j_lower"]) == report.j_lower
        assert float(row[f"{prefix}_jw_upper"]) == report.jw_upper
        assert float(row[f"{prefix}_jw_lower"]) == report.jw_lower
    assert row["lower_applicable"] == ("true" if res.lower_applicable else "false")
    if classify(matrix).normal:
        norm = corollary_normal_bounds(matrix)
        assert float(row["norm_j_upper"]) == norm.j_upper
        assert float(row["norm_j_lower"]) == norm.j_lower
    else:
        assert row["norm_j_upper"] == row["norm_j_lower"] == ""


def assert_audit_details_match_exact(out, matrix_of):
    """A sweep's audit has one detail line per results.csv row, in row order,
    whose method, steps_used and stein_residual are those of lq_cost_exact
    on `matrix_of(row)`."""
    _, _, rows = read_results(out / "results.csv")
    details = [dict(part.split("=", 1) for part in line.split())
               for line in (out / "audit.txt").read_text().splitlines()
               if " method=" in line]
    assert len(details) == len(rows) > 0
    for row, fields in zip(rows, details):
        assert all(fields[key] == row[key] for key in ("n", "instance", "epsilon")
                   if key in fields)
        exact = lq_cost_exact(matrix_of(row))
        assert fields["method"] == exact.method
        assert int(fields["steps_used"]) == exact.steps_used
        assert float(fields["stein_residual"]) == exact.stein_residual


# The closed form against the dense route: J, J_w and both R_bar columns
# agree to 1e-12 relative.  The bound columns agree to 1e-10: the dense route
# takes pi from least squares, off by up to 1e-12 at 576 nodes, and
# pi_max^3 / pi_min amplifies that, while the closed form has pi = 1/N.
TORUS_COST_RTOL = 1e-12
TORUS_BOUND_RTOL = 1e-10


def assert_torus_matches_dense(report, bounds, matrix):
    """`torus_fields` output (report, bounds) against the dense route,
    lq_cost_exact and the theorem functions, on the Cayley matrix.

    The Stein doubling's J has a forward error of up to a few N max|Y| eps,
    with max|Y| = J + 1/N the diagonal of its solution Y.  On 1,500 random
    generators drawn as in the property below it was at most 3.7 times that:
    up to 4.3e-12 on sparse 1-D tori of about 100 nodes, where the closed
    form stayed within 6e-13 of `cancellation_free_sums`.  So the cost
    tolerance is 1e-12 or ten times that estimate, whichever is larger.
    """
    exact, dense = pipeline._dense_fields(matrix)
    n = matrix.n
    rtol = max(TORUS_COST_RTOL, 10 * n * (report.j + 1 / n) * np.finfo(float).eps)
    assert report.j == pytest.approx(exact.j, rel=rtol)
    assert report.j_weighted == pytest.approx(exact.j_weighted, rel=rtol)
    assert list(bounds) == list(dense)
    assert bounds["lower_applicable"] is dense["lower_applicable"] is True
    for key in ("res_rbar", "topo_rbar"):
        assert bounds[key] == pytest.approx(dense[key], rel=TORUS_COST_RTOL)
    for key, value in dense.items():
        if key != "lower_applicable" and not key.endswith("_rbar"):
            assert bounds[key] == pytest.approx(value, rel=TORUS_BOUND_RTOL), key


def count_calls(monkeypatch, func):
    """Replace `func` in every lqconsensus module that holds it by a counting
    wrapper; returns the list that grows by one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(func.__name__)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "lqconsensus" or name.startswith("lqconsensus."):
            for key, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, key, counted)
    return calls


def count_factorizations(monkeypatch):
    """Count `np.linalg.cholesky` calls: one per resistor network whose
    Cholesky factor is computed."""
    calls = []
    cholesky = np.linalg.cholesky

    def counted(*args, **kwargs):
        calls.append(1)
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


class TestResultRowGate:
    @pytest.fixture
    def row(self):
        row, _, _ = evaluate(p_epsilon(0.2), experiment="epsilon-sweep", n=3,
                             instance=0, epsilon=0.2)
        return row

    def test_in_bounds_row_constructs(self, row):
        assert isinstance(dataclasses.replace(row), ResultRow)

    def test_j_above_resistance_upper_bound_raises(self, row):
        with pytest.raises(LqConsensusError,
                           match="resistance-theorem J upper bound"):
            dataclasses.replace(row, j=row.res_j_upper * 1.01)

    def test_j_weighted_above_topology_upper_bound_raises(self, row):
        # Lift the resistance-theorem weighted bound clear of the new value,
        # so only the topology-theorem bound is violated.
        jw = row.topo_jw_upper * 1.01
        with pytest.raises(LqConsensusError,
                           match="topology-theorem weighted upper bound"):
            dataclasses.replace(row, j_weighted=jw, res_jw_upper=2.0 * jw)

    def test_certified_lower_bound_above_j_raises(self, row):
        # p_epsilon(0.2) is not commuting: its theorem lower values are
        # hypothetical and may exceed J until they are marked certified.
        lifted = dataclasses.replace(row, res_j_lower=row.j * 1.01)
        assert not lifted.lower_applicable
        with pytest.raises(LqConsensusError,
                           match="resistance-theorem J lower bound"):
            dataclasses.replace(lifted, lower_applicable=True)

    def test_normal_lower_bound_is_always_gated(self, row):
        with pytest.raises(LqConsensusError,
                           match="normal-corollary J lower bound"):
            dataclasses.replace(row, norm_j_lower=row.j * 1.01)

    def test_slack_is_relative_plus_absolute(self, row):
        # Lift the topology-theorem bound clear, so only the resistance-theorem
        # J upper bound can refuse the row.
        base = dataclasses.replace(row, topo_j_upper=2.0 * row.res_j_upper)
        limit = row.res_j_upper * (1.0 + BOUND_SLACK_REL) + BOUND_SLACK_ABS
        at_limit = dataclasses.replace(base, j=limit)
        assert at_limit.margin("j", "res_j_upper") == 0.0
        with pytest.raises(LqConsensusError,
                           match="resistance-theorem J upper bound"):
            dataclasses.replace(base, j=float(np.nextafter(limit, np.inf)))

    def test_theorem_lower_bounds_are_gated_only_when_certified(self):
        # A normal commuting torus populates every bound column.
        row, _, _ = evaluate(cayley_case2(4, 2), experiment="cayley", n=4,
                             instance=0)
        assert row.lower_applicable
        lower = {smaller for smaller, _, _ in ResultRow.CERTIFIED_LOWER}
        for certified in (True, False):
            gated = {smaller for smaller, _, _ in
                     dataclasses.replace(row, lower_applicable=certified).gated()}
            assert "norm_j_lower" in gated
            assert gated & lower == (lower if certified else set())


class TestEvaluate:
    @pytest.mark.parametrize("argv, source, kwargs", [
        (["epsilon-sweep", "-p", "eps_min=0.1", "-p", "eps_max=0.1", "-p", "points=1"],
         lambda: p_epsilon(0.1),
         {"experiment": "epsilon-sweep", "n": 3, "instance": 0, "epsilon": 0.1}),
        (["cayley", "-p", "case=1", "-p", "d=2", "-p", "n_list=8", "-p", "instances=1",
          "--seed", "2"],
         lambda: torus_fields(cayley_case1_generator(2, seed=[2, 1, 2, 8, 0]), 8),
         {"nodes": 64, "experiment": "cayley", "n": 8, "d": 2, "case": 1, "instance": 0}),
        (["geometric", "-p", "n_list=300", "-p", "instances=1", "--seed", "1"],
         lambda: sample_geometric(GeometricParams(), 300, 2, seed=[1, 2, 300, 0]).matrix,
         {"nodes": 300, "experiment": "geometric", "n": 300, "d": 2, "instance": 0}),
    ], ids=["epsilon", "cayley", "geometric"])
    def test_same_cells_and_detail_as_the_cli(self, tmp_path, capsys, argv, source,
                                              kwargs):
        # The library entry point gives, for one instance, the CSV cells and
        # the detail that the CLI writes for it.
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 0
        row, report, detail = evaluate(source(), **kwargs)
        assert (report.j, report.j_weighted) == (row.j, row.j_weighted)
        cells = experiments_cli._cells(row)
        assert (out / "results.csv").read_text().splitlines()[2] == ",".join(cells)
        (line,) = [line for line in (out / "audit.txt").read_text().splitlines()
                   if " method=" in line]
        assert line.startswith(f"instance=0 epsilon={cells[5]} " if kwargs["n"] == 3
                               else f"n={kwargs['n']} instance=0 ")
        assert line.endswith(" " + experiments_cli._kv(detail))
        assert list(detail)[0] == "method"

    def test_one_node_cross_check(self):
        # J = 0 on the 1-node matrix, and the truncated series agrees; the
        # relative error used to divide by that 0.
        row, report, detail = evaluate(validate_consensus([[1.0]]), cross_check=True,
                                       experiment="one", n=1, instance=0)
        assert report.j == 0.0
        assert row.j_exact_rel_err == 0.0
        assert "truncated_steps" in detail

    def test_cross_check_of_a_closed_form_refused(self):
        source = torus_fields(cayley_case2_generator(2), 4)
        with pytest.raises(ValueError, match="cross_check"):
            evaluate(source, cross_check=True, experiment="cayley", n=4)

    def test_nodes_without_dimension_refused(self):
        with pytest.raises(ValueError, match="nodes"):
            evaluate(p_epsilon(0.2), nodes=3, experiment="epsilon-sweep", n=3)


class TestBuildConfig:
    def test_defaults(self):
        config = build_config("epsilon-sweep")
        assert config["points"] == 100
        assert config["eps_min"] == pytest.approx(1e-3)
        assert config["eps_max"] == pytest.approx(0.5)
        assert config["seed"] == 0

    def test_overrides_and_types(self):
        config = build_config("geometric", overrides=[
            "n_list=25,50", "p_d=0.2", "instances=3"])
        assert config["n_list"] == (25, 50)
        assert config["p_d"] == pytest.approx(0.2)
        assert config["instances"] == 3

    def test_pi_screen_is_not_a_key(self):
        # The invariant-measure screen is the one symmetric band.
        with pytest.raises(ConfigError, match="unknown key 'literal_pi_check'"):
            build_config("geometric", overrides=["literal_pi_check=true"])

    @pytest.mark.parametrize("key", ["t_max", "delta", "window", "divisions",
                                     "node_attempt_cap", "exact_check_max_n"])
    def test_truncated_series_is_not_configurable(self, tmp_path, capsys, key):
        # The geometric cross-check runs the series with its module constants,
        # and the sampler's grid, node cap and the cross-check's size cut-off
        # are module constants too.
        assert main(["geometric", "--out", str(tmp_path / "x"),
                     "-p", f"{key}=5"]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_key_lists_known_ones(self):
        with pytest.raises(ConfigError, match="known keys"):
            build_config("epsilon-sweep", overrides=["epsilon=0.2"])

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="points"):
            build_config("epsilon-sweep", overrides=["points=many"])
        with pytest.raises(ConfigError, match="inject_fault"):
            build_config("validate", overrides=["inject_fault=maybe"])

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            build_config("epsilon-sweep", seed=-1)

    def test_config_file_merging(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# comment line\n\npoints = 7\neps_max = 0.25\n")
        config = build_config("epsilon-sweep", config_file=cfg,
                              overrides=["points=9"], seed=4)
        assert config["points"] == 9
        assert config["eps_max"] == pytest.approx(0.25)
        assert config["seed"] == 4

    def test_config_file_syntax_error_names_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("points=5\nnot a pair\n")
        with pytest.raises(ConfigError, match=":2"):
            build_config("epsilon-sweep", config_file=cfg)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            build_config("epsilon-sweep", config_file=tmp_path / "absent.cfg")

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("seed=1 # r\xe9sum\xe9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="cannot read config file"):
            build_config("validate", config_file=cfg)
        assert main(["validate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read config file {cfg}")
        assert captured.out == ""

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            build_config("frequency-sweep")


class TestEpsilonSweep:
    def run(self, out, extra=()):
        return main(["epsilon-sweep", "--out", str(out),
                     "-p", "points=12", *extra])

    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.run(out) == 0
        assert "results.csv" in capsys.readouterr().out
        master_seed, header, rows = read_results(out / "results.csv")
        assert master_seed == "0"
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 12
        assert "wall_time_s" not in header
        table = read_table(out / "epsilon_sweep.dat")
        assert table["epsilon"].shape == (12,)
        for name in ["j", "res_j_upper", "res_j_lower", "topo_j_upper",
                     "topo_j_lower"]:
            assert table[name].shape == (12,)
        audit = (out / "audit.txt").read_text()
        assert "hypothetical_lower_above_j_count=" in audit
        assert "certified_lower_valid=true" in audit
        assert audit.rstrip().splitlines()[-1].startswith("total_wall_time_s=")

    def test_csv_header_is_the_documented_schema(self, tmp_path):
        out = tmp_path / "run"
        assert self.run(out) == 0
        _, header, _ = read_results(out / "results.csv")
        assert header == [
            "experiment", "n", "d", "case", "instance", "epsilon",
            "j", "j_weighted", "j_exact_rel_err",
            "res_rbar", "res_j_upper", "res_j_lower", "res_jw_upper",
            "res_jw_lower", "topo_rbar", "topo_j_upper", "topo_j_lower",
            "topo_jw_upper", "topo_jw_lower", "norm_j_upper", "norm_j_lower",
            "lower_applicable", "j_normalized",
        ]

    def test_row_values_match_library(self, tmp_path):
        out = tmp_path / "run"
        assert self.run(out) == 0
        _, _, rows = read_results(out / "results.csv")
        last = rows[-1]
        eps = float(last["epsilon"])
        assert eps == pytest.approx(0.5)
        expected = lq_cost_exact(p_epsilon(0.5))
        assert float(last["j"]) == pytest.approx(expected.j, rel=1e-12)
        assert float(last["j_weighted"]) == pytest.approx(expected.j_weighted,
                                                          rel=1e-12)
        assert last["lower_applicable"] == "true"
        assert float(last["res_j_lower"]) <= float(last["j"]) + 1e-12
        assert last["j_normalized"] == ""
        assert last["case"] == ""

    def test_audit_reports_smallest_certified_margin(self, tmp_path):
        out = tmp_path / "run"
        assert self.run(out) == 0
        _, _, rows = read_results(out / "results.csv")
        margins = [(float(r["j"]) - float(r["res_j_lower"])) / float(r["j"])
                   for r in rows if r["lower_applicable"] == "true"]
        assert margins
        audit = dict(line.partition("=")[::2]
                     for line in (out / "audit.txt").read_text().splitlines())
        assert float(audit["certified_lower_min_rel_margin"]) == min(margins)
        assert audit["certified_lower_valid"] == "true"

    def test_audit_states_how_each_cost_was_computed(self, tmp_path):
        out = tmp_path / "run"
        assert self.run(out) == 0
        assert_audit_details_match_exact(
            out, lambda row: p_epsilon(float(row["epsilon"])))

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run(out_a) == 0
        assert self.run(out_b) == 0
        for name in ["results.csv", "epsilon_sweep.dat"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert strip_wall_time((out_a / "audit.txt").read_text()) == \
            strip_wall_time((out_b / "audit.txt").read_text())

    def test_grid_outside_domain_fails(self, tmp_path, capsys):
        code = main(["epsilon-sweep", "--out", str(tmp_path / "x"),
                     "-p", "eps_max=0.7"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_svg_emitted(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run(out_a, extra=("--svg",)) == 0
        assert self.run(out_b, extra=("--svg",)) == 0
        svg = out_a / "epsilon_sweep.svg"
        assert svg.exists()
        root = parse_svg(svg)
        polylines = root.findall(f".//{SVG_NS}polyline")
        assert len(polylines) == 5
        for line in polylines:
            # every value of the sweep is positive, so the log axes keep all 12
            assert len(line.get("points").split()) == 12
        texts = {el.text for el in root.iter(f"{SVG_NS}text")}
        for label in ["J", "resistance upper", "resistance lower",
                      "topology upper", "topology lower"]:
            assert label in texts
        assert svg.read_bytes() == (out_b / "epsilon_sweep.svg").read_bytes()


def test_svg_log_axes_drop_points_that_are_not_positive(tmp_path):
    path = tmp_path / "chart.svg"
    _emit_svg(path, [
        ("a & <b>", [1e-3, 1e-2, 1e-1, 1.0], [1e4, 0.0, -1.0, 1e-2]),
        ("c", [0.0, 1e-2], [float("nan"), 1.0]),
    ],
              xlabel="x", ylabel="y", logx=True, logy=True)
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    root = parse_svg(path)
    first, second = root.findall(f".//{SVG_NS}polyline")
    assert len(first.get("points").split()) == 2
    assert len(second.get("points").split()) == 1
    texts = {el.text for el in root.iter(f"{SVG_NS}text")}
    assert "a & <b>" in texts
    # the y axis spans all six decades between the kept values
    assert {"1e-2", "1e4"} <= texts


class TestCayleySweep:
    def test_case2_ring_value(self, tmp_path):
        out = tmp_path / "run"
        code = main(["cayley", "--out", str(out), "-p", "case=2", "-p", "d=1",
                     "-p", "n_list=3", "--svg"])
        assert code == 0
        _, _, rows = read_results(out / "results.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["case"] == "2" and row["d"] == "1" and row["n"] == "3"
        assert float(row["j"]) == pytest.approx(8.0 / 9, abs=1e-10)
        assert float(row["j_normalized"]) == pytest.approx(8.0 / 27, abs=1e-10)
        # the corollary upper is exactly J here (tight bound), so allow the
        # same relative slack the row constructor enforces
        assert float(row["norm_j_lower"]) <= float(row["j"])
        assert float(row["j"]) <= float(row["norm_j_upper"]) * (1 + 1e-9)
        assert float(row["norm_j_upper"]) == pytest.approx(8.0 / 9, abs=1e-10)
        # one point per curve: the zero-width node axis is padded, not divided by
        for line in parse_svg(out / "cayley_case2_d1.svg").findall(
                f".//{SVG_NS}polyline"):
            x, y = map(float, line.get("points").split(","))
            assert np.isfinite(x) and np.isfinite(y)

    def test_case1_rows_and_files(self, tmp_path):
        out = tmp_path / "run"
        code = main(["cayley", "--out", str(out), "-p", "case=1", "-p", "d=2",
                     "-p", "n_list=3,4", "-p", "instances=2", "--svg"])
        assert code == 0
        _, header, rows = read_results(out / "results.csv")
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 4
        for row in rows:
            assert row["lower_applicable"] == "true"
            j = float(row["j"])
            for lower in ["res_j_lower", "topo_j_lower", "norm_j_lower"]:
                assert float(row[lower]) <= j * (1 + 1e-9)
            for upper in ["res_j_upper", "topo_j_upper", "norm_j_upper"]:
                assert j <= float(row[upper]) * (1 + 1e-9)
        table = read_table(out / "cayley_case1_d2.dat")
        np.testing.assert_array_equal(table["nodes"], [9.0, 16.0])
        for name in ["mean_j", "mean_j_normalized", "mean_norm_j_upper",
                     "mean_norm_j_lower"]:
            assert table[name].shape == (2,)
        audit = (out / "audit.txt").read_text()
        assert "normalized_j_max_over_min=" in audit
        assert len(parse_svg(out / "cayley_case1_d2.svg").findall(
            f".//{SVG_NS}polyline")) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["cayley", "-p", "case=1", "-p", "d=2", "-p", "n_list=3",
                "-p", "instances=3", "--seed", "5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == \
            (out_b / "results.csv").read_bytes()

    def test_row_values_match_library(self, tmp_path):
        # Each row is torus_fields of its generator to the bit, and the dense
        # route on the Cayley matrix within the closed form's tolerances.
        out = tmp_path / "run"
        assert main(["cayley", "--out", str(out), "-p", "case=1", "-p", "d=2",
                     "-p", "n_list=4", "-p", "instances=2", "--seed", "5"]) == 0
        _, _, rows = read_results(out / "results.csv")
        assert len(rows) == 2
        for i, row in enumerate(rows):
            gen = cayley_case1_generator(2, seed=[5, 1, 2, 4, i])
            report, bounds = torus_fields(gen, 4)
            assert float(row["j"]) == report.j
            assert float(row["j_weighted"]) == report.j_weighted
            assert float(row["j_normalized"]) == report.j / np.log(16)
            for key, value in bounds.items():
                assert row[key] == experiments_cli._fmt(value)
            assert row["norm_j_upper"] != ""
            assert_torus_matches_dense(report, bounds, cayley_matrix(4, gen))

    def test_audit_states_how_each_cost_was_computed(self, tmp_path):
        out = tmp_path / "run"
        assert main(["cayley", "--out", str(out), "-p", "case=1", "-p", "d=2",
                     "-p", "n_list=3,4", "-p", "instances=2", "--seed", "5"]) == 0
        _, _, rows = read_results(out / "results.csv")
        details = [dict(part.split("=", 1) for part in line.split())
                   for line in (out / "audit.txt").read_text().splitlines()
                   if " method=" in line]
        assert len(details) == len(rows) == 4
        for row, fields in zip(rows, details):
            n, i = int(row["n"]), int(row["instance"])
            assert (fields["n"], fields["instance"]) == (row["n"], row["instance"])
            assert set(fields) == {"n", "instance", "method", "spectral_gap"}
            assert fields["method"] == "fft"
            gen = cayley_case1_generator(2, seed=[5, 1, 2, n, i])
            gap = float(fields["spectral_gap"])
            assert gap == torus_fields(gen, n)[0].spectral_gap
            # The dense route: 1 - |lambda|^2 over all eigenvalues but the
            # unit one, of the Cayley matrix.
            moduli = np.sort(np.abs(np.linalg.eigvals(cayley_matrix(n, gen).entries)))
            assert gap == pytest.approx(1.0 - moduli[-2] ** 2, rel=1e-12)

    def test_row_computes_each_derived_quantity_once(self, tmp_path, monkeypatch):
        # One closed form per row, and each theorem evaluated once from it.
        fields = count_calls(monkeypatch, torus_fields)
        theorems = [count_calls(monkeypatch, f) for f in (
            resistance_theorem, topology_theorem, normal_corollary)]
        assert main(["cayley", "--out", str(tmp_path / "run"), "-p", "case=1",
                     "-p", "d=2", "-p", "n_list=4,5", "-p", "instances=2"]) == 0
        assert len(fields) == 4
        assert [len(calls) for calls in theorems] == [4, 4, 4]

    def test_run_builds_no_dense_matrix(self, tmp_path, monkeypatch):
        # A 10^6-node torus: no Cayley matrix, validation, Stein solve,
        # resistance or classification, and J equals the FFT formula.
        dense = [count_calls(monkeypatch, f) for f in (
            cayley_matrix, validate_consensus, lq_cost_exact, effective_resistance,
            stochastic_core._classification_residuals)]
        out = tmp_path / "run"
        assert main(["cayley", "--out", str(out), "-p", "case=1", "-p", "d=2",
                     "-p", "n_list=1000", "-p", "instances=1", "--seed", "3"]) == 0
        assert [len(calls) for calls in dense] == [0] * 5
        _, _, (row,) = read_results(out / "results.csv")
        g = np.zeros((1000, 1000))
        for (h1, h2), weight in cayley_case1_generator(
                2, seed=[3, 1, 2, 1000, 0]).weights.items():
            g[h1 % 1000, h2 % 1000] = weight
        moduli = np.abs(np.fft.fft2(g)).ravel()
        expected = np.sum(1.0 / (1.0 - moduli[1:] ** 2)) / g.size
        assert float(row["j"]) == pytest.approx(expected, rel=1e-12)
        assert float(row["j_weighted"]) == float(row["j"])

    def test_case2_refuses_the_case1_band(self, tmp_path, capsys):
        for key in ("p_min=0.9", "p_max=0.1"):
            assert main(["cayley", "--out", str(tmp_path / "x"), "-p", "case=2",
                         "-p", key]) == 1
            assert "case 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("params,band", [
        ([], ("0.050000000000000003", "0.20000000000000001")),
        (["-p", "p_max=0.15"], ("0.050000000000000003", "0.14999999999999999")),
        (["-p", "d=3", "-p", "p_min=0.005"], ("0.0050000000000000001",
                                              "0.10000000000000001")),
    ])
    def test_case1_audit_records_the_band_used(self, tmp_path, params, band):
        out = tmp_path / "run"
        assert main(["cayley", "--out", str(out), "-p", "n_list=3",
                     "-p", "instances=1", *params]) == 0
        audit = (out / "audit.txt").read_text().splitlines()
        assert (f"p_min={band[0]}", f"p_max={band[1]}") == tuple(
            line for line in audit if line.startswith(("p_min=", "p_max=")))

    def test_infeasible_band_fails_without_output(self, tmp_path, capsys):
        assert main(["cayley", "--out", str(tmp_path / "x"), "-p", "p_min=0.2",
                     "-p", "p_max=0.3"]) == 1
        assert "cannot all lie" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("d,case,n_list,degree", [
        (1, 2, "10,30,100,300", 1), (2, 1, "10,100,1000", 1), (3, 1, "3,4,5", 0)])
    def test_growth_fit_matches_polyfit(self, tmp_path, d, case, n_list, degree):
        out = tmp_path / "run"
        assert main(["cayley", "--out", str(out), "-p", f"d={d}", "-p", f"case={case}",
                     "-p", f"n_list={n_list}", "-p", "instances=1"]) == 0
        audit = dict(line.partition("=")[::2]
                     for line in (out / "audit.txt").read_text().splitlines())
        table = read_table(out / f"cayley_case{case}_d{d}.dat")
        nodes, mean_j = table["nodes"], table["mean_j"]
        g = {1: nodes, 2: np.log(nodes), 3: np.ones_like(nodes)}[d]
        coef = np.polyfit(g, mean_j, degree)
        fit = np.polyval(coef, g)
        assert audit["growth_g"] == {1: "N", 2: "log(N)", 3: "1"}[d]
        if degree:
            assert float(audit["growth_a"]) == pytest.approx(coef[0], rel=1e-12)
        else:
            assert audit["growth_a"] == ""
        assert float(audit["growth_b"]) == pytest.approx(coef[-1], rel=1e-12)
        assert float(audit["growth_rel_residual"]) == pytest.approx(
            np.linalg.norm(mean_j - fit) / np.linalg.norm(mean_j), rel=1e-9, abs=1e-15)
        assert "normalized_j_max_over_min" in audit

    def test_no_growth_fit_below_three_sizes(self, tmp_path):
        out = tmp_path / "run"
        assert main(["cayley", "--out", str(out), "-p", "n_list=3,4",
                     "-p", "instances=1"]) == 0
        audit = (out / "audit.txt").read_text()
        assert "normalized_j_max_over_min=" in audit
        assert "growth_" not in audit

    def test_bad_case_fails(self, tmp_path, capsys):
        assert main(["cayley", "--out", str(tmp_path / "x"),
                     "-p", "case=3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_case1_needs_d_2_or_3(self, tmp_path, capsys):
        assert main(["cayley", "--out", str(tmp_path / "x"), "-p", "case=1",
                     "-p", "d=1"]) == 1
        capsys.readouterr()


def cancellation_free_sums(gen, side):
    """(J, R_bar of G(P)) of the Cayley torus from the symbols written as sums
    of nonnegative terms: 1 - |lambda_k|^2 = sum over offset pairs of
    g_h g_h' 2 sin^2(pi k.(h' - h) / side), and mu_k = sum over the offsets
    e != 0 and their negatives of 2 sin^2(pi k.e / side), with the phases
    m = k.e reduced mod side as integers and folded to min(m, side - m).
    Needs no FFT and loses no digits to cancellation near k = 0."""
    d = gen.d
    k = np.indices((side,) * d).reshape(d, -1)[:, 1:]
    m = np.arange(side)
    s2 = 2.0 * np.sin(np.pi * np.minimum(m, side - m) / side) ** 2

    def symbol(terms):
        return sum(w * s2[(np.asarray(e) @ k) % side] for e, w in terms)

    items = list(gen.weights.items())
    gaps = symbol((np.subtract(h2, h1), w1 * w2)
                  for h1, w1 in items for h2, w2 in items)
    edges = {tuple(sign * x for x in h) for h in gen.offsets if any(h)
             for sign in (1, -1)}
    mu = symbol((e, 1.0) for e in edges)
    return np.sum(1.0 / gaps) / side ** d, np.sum(1.0 / mu) / side ** d


class TestTorusFields:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(d=st.integers(1, 3), size=st.floats(0.0, 1.0),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_route_on_random_generators(self, d, size, density, seed):
        # Random offset subsets that contain 0, random weights, N <= 125.
        rng = np.random.default_rng(seed)
        side = 3 + int(size * (round(125 ** (1 / d)) - 3))
        offsets = [h for h in itertools.product((-1, 0, 1), repeat=d)
                   if not any(h) or rng.random() < density]
        w = 0.1 + rng.random(len(offsets))
        gen = CayleyGenerator(d=d, weights=dict(zip(offsets, (w / w.sum()).tolist())))
        try:
            matrix = cayley_matrix(side, gen)
        except NotIrreducible:
            with pytest.raises(NotIrreducible):
                torus_fields(gen, side)
            return
        report, bounds = torus_fields(gen, side)
        assert report.method == "fft" and report.spectral_gap > 0
        j, support_rbar = cancellation_free_sums(gen, side)
        assert report.j == report.j_weighted == bounds["res_rbar"]
        assert report.j == pytest.approx(j, rel=TORUS_COST_RTOL)
        assert bounds["topo_rbar"] == pytest.approx(support_rbar, rel=TORUS_COST_RTOL)
        assert_torus_matches_dense(report, bounds, matrix)

    def test_matches_dense_route_on_the_576_node_torus(self):
        # The largest torus of the benchmark's torus workload at seed 1.
        gen = cayley_case1_generator(2, seed=[1, 1, 2, 24, 0])
        report, bounds = torus_fields(gen, 24)
        assert_torus_matches_dense(report, bounds, cayley_matrix(24, gen))

    def test_one_sided_ring_closed_form(self):
        # g = (1/2, 1/2) on Z_n: J = (n^2 - 1) / (3n).
        report, bounds = torus_fields(cayley_case2_generator(1), 10)
        assert report.j == pytest.approx(99 / 30, rel=1e-13)
        assert bounds["res_rbar"] == report.j == report.j_weighted

    @pytest.mark.parametrize("weights", [
        {(0, 0): 1.0},                 # no offsets but 0
        {(0, 0): 0.5, (1, 0): 0.5},    # one axis only
        {(0, 0): 0.5, (1, 1): 0.5},    # the diagonal subgroup
    ])
    def test_reducible_generator_raises(self, weights):
        gen = CayleyGenerator(d=2, weights=weights)
        for side in (3, 4, 6):
            with pytest.raises(NotIrreducible):
                cayley_matrix(side, gen)
            with pytest.raises(NotIrreducible):
                torus_fields(gen, side)

    def test_small_side_rejected(self):
        with pytest.raises(LqConsensusError, match="at least 3"):
            torus_fields(cayley_case2_generator(2), 2)

    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize("w, connected", [
        (1e-6, True), (1e-9, True), (1e-11, False), (1e-12, False)])
    def test_same_verdict_as_dense_route_on_weak_coupling(self, side, w, connected):
        # A weight-w offset along the second axis: G(P) is connected at every
        # w, but C_{P*P}'s Laplacian has eigenvalues of order w, which the
        # one null-space rule counts as null below about 5e-11.
        gen = CayleyGenerator(d=2, weights={(0, 0): 0.5, (1, 0): 0.5 - w, (0, 1): w})
        matrix = cayley_matrix(side, gen)
        if not connected:
            with pytest.raises(NotIrreducible, match="null space has dimension"):
                torus_fields(gen, side)
            with pytest.raises(Disconnected):
                theorem_resistance_bounds(matrix)
            return
        # Each route gets the small eigenvalues 1 - |lambda_k|^2 to a few eps
        # absolute, so R_bar to about eps / gap relative: the two differ by
        # 2e-10 at w = 1e-6 and by 1.2e-7 at w = 1e-9, where both are about
        # 1e-7 off `cancellation_free_sums`.
        report, bounds = torus_fields(gen, side)
        rtol = max(1e-9, 10 * np.finfo(float).eps / report.spectral_gap)
        assert bounds["res_rbar"] == pytest.approx(
            theorem_resistance_bounds(matrix).constants["r_bar"], rel=rtol)


class TestGeometricSweep:
    def test_bounds_build_no_all_pairs_resistance(self, monkeypatch):
        # The bound block factors C_{P*P} and G(P) once each, and a second
        # topology bound reads G(P)'s cached factor; no all-pairs resistance
        # matrix is built.
        matrix = sample_geometric(GeometricParams(), 25, 2, seed=[1, 2, 25, 0]).matrix
        factorizations = count_factorizations(monkeypatch)
        resistances = count_calls(monkeypatch, effective_resistance)
        _, fields = pipeline._dense_fields(matrix)
        assert theorem_topology_bounds(matrix).constants["r_bar"] == fields["topo_rbar"]
        assert len(factorizations) == 2
        assert len(resistances) == 0

    def test_rows_and_cross_check(self, tmp_path):
        out = tmp_path / "run"
        code = main(["geometric", "--out", str(out), "-p", "d=2",
                     "-p", "n_list=20,25", "-p", "instances=2", "--svg"])
        assert code == 0
        _, header, rows = read_results(out / "results.csv")
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 4
        for row in rows:
            # the stopping rule caps each of the final terms at 1e-5, not the
            # tail sum, so slow-mixing instances legitimately land near 1e-4
            assert float(row["j_exact_rel_err"]) <= 1e-3
            j = float(row["j"])
            assert j <= float(row["res_j_upper"]) * (1 + 1e-9)
            assert j <= float(row["topo_j_upper"]) * (1 + 1e-9)
            assert float(row["j_normalized"]) == pytest.approx(
                j / np.log(float(row["n"])), rel=1e-12)
        table = read_table(out / "geometric_d2.dat")
        for name in ["nodes", "mean_j", "mean_j_normalized"]:
            assert table[name].shape == (2,)
        audit = (out / "audit.txt").read_text()
        assert "skipped=0" in audit
        assert "n=20 instance=0 attempts=" in audit
        assert "rho_n=" in audit
        assert len(parse_svg(out / "geometric_d2.svg").findall(
            f".//{SVG_NS}polyline")) == 3

    def test_exact_cost_with_truncated_cross_check(self, tmp_path, monkeypatch):
        truncated = count_calls(monkeypatch, lq_cost_truncated)
        monkeypatch.setattr(experiments_cli, "EXACT_CHECK_MAX_N", 20)
        out = tmp_path / "run"
        assert main(["geometric", "--out", str(out), "-p", "d=2",
                     "-p", "n_list=20,25", "-p", "instances=2",
                     "--seed", "3"]) == 0
        _, _, rows = read_results(out / "results.csv")
        assert [row["n"] for row in rows] == ["20", "20", "25", "25"]
        assert len(truncated) == 2
        audit = (out / "audit.txt").read_text()
        for row in rows:
            n, i = int(row["n"]), int(row["instance"])
            matrix = sample_geometric(GeometricParams(), n, 2, seed=[3, 2, n, i]).matrix
            exact = lq_cost_exact(matrix)
            assert float(row["j"]) == pytest.approx(exact.j, rel=1e-12, abs=0)
            assert float(row["j_weighted"]) == pytest.approx(
                exact.j_weighted, rel=1e-12, abs=0)
            line = next(line for line in audit.splitlines()
                        if line.startswith(f"n={n} instance={i} "))
            assert " method=exact " in line
            assert f" steps_used={exact.steps_used} " in line
            assert float(line.split("stein_residual=")[1].split()[0]) <= 1e-11
            if n == 20:
                check = lq_cost_truncated(matrix)
                assert float(row["j_exact_rel_err"]) == \
                    abs(check.j - exact.j) / exact.j
                assert line.endswith(f" truncated_steps={check.steps_used}")
            else:
                assert row["j_exact_rel_err"] == ""
                assert "truncated_steps=" not in line

    def test_detail_reads_back_the_measured_parameters(self, tmp_path):
        # s_n, r_n and rho_n are printed with 17 significant digits, so each
        # reads back bit for bit as the sampler measured it.
        out = tmp_path / "run"
        assert main(["geometric", "--out", str(out), "-p", "d=3",
                     "-p", "n_list=30,60", "-p", "instances=2",
                     "--seed", "5"]) == 0
        audit = (out / "audit.txt").read_text()
        for n, i in itertools.product((30, 60), range(2)):
            measured = sample_geometric(GeometricParams(), n, 3,
                                        seed=[5, 3, n, i]).measured
            line = next(line for line in audit.splitlines()
                        if line.startswith(f"n={n} instance={i} "))
            fields = dict(item.split("=", 1) for item in line.split())
            for key in ("s_n", "r_n", "rho_n"):
                assert float(fields[key]) == measured[key]

    def test_svg_plots_mean_j_against_its_bounds(self, tmp_path, monkeypatch):
        charts = []
        monkeypatch.setattr(experiments_cli, "_emit_svg",
                            lambda path, curves, **kw: charts.append(curves))
        out = tmp_path / "run"
        assert main(["geometric", "--out", str(out), "-p", "d=2",
                     "-p", "n_list=20,25", "-p", "instances=2", "--seed", "3",
                     "--svg"]) == 0
        (curves,) = charts
        by_label = {label: (list(x), list(y)) for label, x, y in curves}
        table = read_table(out / "geometric_d2.dat")
        x, j = by_label["mean J"]
        assert x == list(table["nodes"])
        assert j == list(table["mean_j"])
        _, upper = by_label["topology upper"]
        assert all(a <= b for a, b in zip(j, upper))

    def test_row_values_match_library(self, tmp_path):
        out = tmp_path / "run"
        assert main(["geometric", "--out", str(out), "-p", "d=2",
                     "-p", "n_list=20", "-p", "instances=2", "--seed", "3"]) == 0
        _, _, rows = read_results(out / "results.csv")
        assert len(rows) == 2
        for i, row in enumerate(rows):
            matrix = sample_geometric(GeometricParams(), 20, 2, seed=[3, 2, 20, i]).matrix
            assert_bound_columns_match_library(row, matrix)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["geometric", "-p", "d=2", "-p", "n_list=20", "-p",
                "instances=2", "--seed", "3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == \
            (out_b / "results.csv").read_bytes()
        assert (out_a / "geometric_d2.dat").read_bytes() == \
            (out_b / "geometric_d2.dat").read_bytes()
        assert strip_wall_time((out_a / "audit.txt").read_text()) == \
            strip_wall_time((out_b / "audit.txt").read_text())

    def test_unsatisfiable_screen_is_audited_skip(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["geometric", "--out", str(out), "-p", "d=2",
                     "-p", "n_list=15", "-p", "instances=1",
                     "-p", "rho=10.0", "-p", "max_attempts=2"])
        assert code == 0
        assert "1 skipped" in capsys.readouterr().out
        _, _, rows = read_results(out / "results.csv")
        assert rows == []
        audit = (out / "audit.txt").read_text()
        assert "skipped=1" in audit
        assert "skipped=RejectionExhausted" in audit

    def test_dimension_gate(self, tmp_path, capsys):
        assert main(["geometric", "--out", str(tmp_path / "x"),
                     "-p", "d=1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("max_attempts", ["0", "-1"])
    def test_attempt_gate(self, tmp_path, capsys, max_attempts):
        # No attempt at all is a refused setting, not a sweep of skips.
        out = tmp_path / "run"
        assert main(["geometric", "--out", str(out), "-p", "n_list=25",
                     "-p", "instances=2", "-p", f"max_attempts={max_attempts}"]) == 1
        assert f"max_attempts={max_attempts} must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    def kv(self, capsys):
        out = capsys.readouterr().out
        pairs = {}
        for line in out.splitlines():
            key, _, value = line.partition("=")
            pairs[key] = value
        return pairs

    def test_uniform_report(self, tmp_path, capsys):
        path = tmp_path / "uniform.csv"
        save_matrix_csv(validate_consensus(np.full((3, 3), 1.0 / 3)), path)
        assert main(["analyze", str(path)]) == 0
        kv = self.kv(capsys)
        assert kv["n"] == "3"
        assert kv["reversible"] == "true"
        assert kv["normal"] == "true"
        assert kv["lower_applicable"] == "true"
        assert kv["invariant_route"] == "lstsq"
        assert kv["method"] == "exact"
        assert float(kv["j"]) == pytest.approx(2.0 / 3, abs=1e-12)
        assert float(kv["green_trace"]) == pytest.approx(2.0, abs=1e-12)
        assert float(kv["res_j_upper"]) == pytest.approx(2.0 / 3, abs=1e-10)
        assert float(kv["res_j_lower"]) == pytest.approx(2.0 / 3, abs=1e-10)
        assert float(kv["topo_j_upper"]) == pytest.approx(2.0, abs=1e-10)
        assert float(kv["norm_j_upper"]) == pytest.approx(2.0, abs=1e-10)
        assert kv["sandwich_variant"] == "in"
        assert kv["fuzz_edges"] == "3"
        assert kv["fuzz_new_edges"] == "0"

    def test_exact_solve_is_reported(self, tmp_path, capsys):
        path = tmp_path / "matrix.csv"
        save_matrix_csv(p_epsilon(0.1), path)
        assert main(["analyze", str(path)]) == 0
        kv = self.kv(capsys)
        assert int(kv["steps_used"]) >= 1
        assert 0.0 <= float(kv["stein_residual"]) <= 1e-11

    def test_commuting_example_report(self, tmp_path, capsys):
        path = tmp_path / "matrix.csv"
        save_matrix_csv(commuting_example(), path)
        assert main(["analyze", str(path)]) == 0
        kv = self.kv(capsys)
        assert kv["commuting"] == "true"
        assert kv["reversible"] == "false"
        assert kv["normal"] == "false"
        assert kv["lower_applicable"] == "true"
        assert "norm_j_upper" not in kv

    def test_truncated_block(self, tmp_path, capsys):
        path = tmp_path / "matrix.csv"
        save_matrix_csv(p_epsilon(0.25), path)
        assert main(["analyze", str(path), "--truncated"]) == 0
        kv = self.kv(capsys)
        assert kv["lower_applicable"] == "false"
        assert kv["sandwich_variant"] == "out"
        assert float(kv["j_exact_rel_err"]) <= 1e-5
        assert int(kv["truncated_steps"]) >= 11

    def test_report_computes_each_derived_quantity_once(self, tmp_path, capsys,
                                                        monkeypatch):
        # One Cholesky factor each for C_{P*P}, G(P) (shared by the topology
        # theorem, the normal corollary and the sandwich) and G(P*P);
        # all-pairs resistances of G(P) and G(P*P) for the sandwich only; one
        # G(P*P) support search, inside the sandwich, whose FuzzSupport the
        # fuzz_* lines read.
        path = tmp_path / "torus.csv"
        save_matrix_csv(cayley_case1(4, 2, seed=1)[1], path)
        factorizations = count_factorizations(monkeypatch)
        resistances = count_calls(monkeypatch, effective_resistance)
        supports = count_calls(monkeypatch, bounds.reversiblization_support)
        assert main(["analyze", str(path)]) == 0
        kv = self.kv(capsys)
        assert kv["normal"] == "true"
        assert "norm_j_upper" in kv and "fuzz_edges" in kv
        assert len(factorizations) == 3
        assert len(resistances) == 2
        assert len(supports) == 1

    def test_report_builds_the_support_network_once(self, tmp_path, capsys,
                                                     monkeypatch):
        # G(P)'s unit-conductance network serves both R_bar(G(P)) and the
        # sandwich; C_{P*P} and G(P*P) are the other two networks.
        path = tmp_path / "geometric.csv"
        save_matrix_csv(sample_geometric(GeometricParams(), 100, 2,
                                         seed=[1, 2, 100, 0]).matrix, path)
        networks = count_calls(monkeypatch, conductance_matrix)
        units = count_calls(monkeypatch, unit_conductance)
        assert main(["analyze", str(path)]) == 0
        assert self.kv(capsys)["n"] == "100"
        assert (len(networks), len(units)) == (3, 2)

    def test_near_reducible_two_cliques(self, tmp_path, capsys):
        # validate_consensus accepts this matrix; its Green matrix has
        # max|G| ~ 2.5e5 and |G 1| ~ 2.6e-9, which an absolute 1e-9 gate refused.
        P = two_cliques(40, 1e-6)
        path = tmp_path / "cliques.csv"
        save_matrix_csv(P, path)
        assert main(["analyze", str(path)]) == 0
        kv = self.kv(capsys)
        target = np.outer(np.ones(P.n), P.invariant.pi)
        g = np.linalg.inv(np.eye(P.n) - P.entries + target) - target
        assert float(kv["green_trace"]) == pytest.approx(np.trace(g), rel=1e-12)

    def test_classification_tolerance_is_fixed(self, tmp_path, capsys):
        # Under a tolerance of 10, p_epsilon(0.01) would pass as reversible
        # and certify a lower bound above J.
        path = tmp_path / "matrix.csv"
        save_matrix_csv(p_epsilon(0.01), path)
        assert main(["analyze", str(path), "--tol", "10"]) == 1
        captured = capsys.readouterr()
        assert "--tol" in captured.err
        assert captured.out == ""
        assert main(["analyze", str(path)]) == 0
        kv = self.kv(capsys)
        assert kv["classification_tol"] == "1.0000000000000001e-09"
        assert kv["reversible"] == kv["lower_applicable"] == "false"

    def test_cost_above_a_printed_upper_bound_fails(self, tmp_path, capsys,
                                                    monkeypatch):
        # Negative control of the row gate: on the uniform 3x3 matrix
        # res_j_upper equals J, so a 1 % larger J breaks that bound.
        path = tmp_path / "uniform.csv"
        save_matrix_csv(validate_consensus(np.full((3, 3), 1.0 / 3)), path)

        def inflated(matrix):
            report = lq_cost_exact(matrix)
            return dataclasses.replace(report, j=1.01 * report.j)

        monkeypatch.setattr(pipeline, "lq_cost_exact", inflated)
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert "resistance-theorem J upper bound" in captured.err
        assert captured.out == ""

    def test_cost_below_a_certified_lower_bound_fails(self, tmp_path, capsys,
                                                      monkeypatch):
        # Negative control of the lower gate: on the uniform 3x3 matrix the
        # certified res_j_lower equals J, so a 1 % smaller J breaks it.
        path = tmp_path / "uniform.csv"
        save_matrix_csv(validate_consensus(np.full((3, 3), 1.0 / 3)), path)

        def deflated(matrix):
            report = lq_cost_exact(matrix)
            return dataclasses.replace(report, j=0.99 * report.j)

        monkeypatch.setattr(pipeline, "lq_cost_exact", deflated)
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert "resistance-theorem J lower bound" in captured.err
        assert captured.out == ""

    def test_one_node_matrix(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("1\n")
        assert main(["analyze", str(path)]) == 0
        kv = self.kv(capsys)
        assert kv["n"] == "1"
        assert kv["fuzz_edges"] == "0"
        assert kv["fuzz_new_edges"] == "0"

    def test_one_node_truncated_block(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("1\n")
        assert main(["analyze", str(path), "--truncated"]) == 0
        kv = self.kv(capsys)
        assert (kv["j"], kv["j_exact_rel_err"]) == ("0", "0")
        assert "truncated_j" not in kv

    def test_one_node_prints_no_negative_zero(self, tmp_path, capsys):
        # delta_in = 0 on one node: no lower bound may divide by f(0) = -2.
        path = tmp_path / "one.csv"
        path.write_text("1\n")
        for flags in ([], ["--truncated"]):
            assert main(["analyze", str(path), *flags]) == 0
            kv = self.kv(capsys)
            assert kv["topo_j_lower"] == kv["norm_j_lower"] == "0"
            assert [key for key, value in kv.items() if value.startswith("-")] == []

    @pytest.mark.parametrize("make", [
        lambda: p_epsilon(0.1),
        lambda: cayley_case1(4, 2, seed=1)[1],
        commuting_example,
        lambda: sample_geometric(GeometricParams(), 25, 2, seed=[1, 2, 25, 0]).matrix,
    ], ids=["epsilon", "torus", "commuting", "geometric"])
    def test_row_block_is_the_csv_row(self, tmp_path, capsys, make):
        # After green_trace the report prints the row's populated columns
        # from j_exact_rel_err on, in CSV order and with the CSV's bytes,
        # then the sandwich.
        matrix = make()
        path = tmp_path / "matrix.csv"
        save_matrix_csv(matrix, path)
        assert main(["analyze", str(path)]) == 0
        printed = [line.split("=", 1) for line in capsys.readouterr().out.splitlines()]
        row, _, _ = evaluate(matrix, experiment="analyze", n=matrix.n, instance=0)
        tail = CSV_COLUMNS.index("j_exact_rel_err")
        expected = [[key, cell] for key, cell in
                    zip(CSV_COLUMNS[tail:], experiments_cli._cells(row)[tail:]) if cell]
        start = [key for key, _ in printed].index("green_trace") + 1
        assert printed[start:start + len(expected)] == expected
        assert printed[start + len(expected)][0] == "sandwich_variant"

    def test_truncated_block_is_the_sweep_cross_check(self, tmp_path, capsys):
        # --truncated prints the geometric sweep's cross-check of the same
        # matrix under the sweep's names.
        out = tmp_path / "run"
        assert main(["geometric", "-p", "n_list=25", "-p", "instances=1",
                     "--seed", "1", "--out", str(out)]) == 0
        _, _, (row,) = read_results(out / "results.csv")
        (line,) = [line for line in (out / "audit.txt").read_text().splitlines()
                   if line.startswith("n=25 instance=0 ")]
        detail = dict(item.split("=", 1) for item in line.split())
        path = tmp_path / "geometric.csv"
        save_matrix_csv(sample_geometric(GeometricParams(), 25, 2,
                                         seed=[1, 2, 25, 0]).matrix, path)
        capsys.readouterr()
        assert main(["analyze", str(path), "--truncated"]) == 0
        kv = self.kv(capsys)
        assert row["j_exact_rel_err"] != ""
        assert (kv["j_exact_rel_err"], kv["truncated_steps"]) == \
            (row["j_exact_rel_err"], detail["truncated_steps"])
        assert "truncated_rel_err" not in kv and "truncated_j" not in kv

    @pytest.mark.parametrize("text", ["", "\n  \n", "# no rows\n"],
                             ids=["empty", "blank", "comment"])
    def test_file_without_rows_fails(self, tmp_path, capsys, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path} holds no matrix rows\n"
        assert captured.out == ""

    def test_non_stochastic_file_fails_with_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.5,0.6\n")
        assert main(["analyze", str(path)]) == 1
        assert "row 1" in capsys.readouterr().err

    def test_unparseable_file_fails(self, tmp_path, capsys):
        path = tmp_path / "garbage.csv"
        path.write_text("this,is,not\na,matrix,file\n")
        assert main(["analyze", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestValidate:
    def test_all_suites_pass(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "suites_passed=10/10" in out
        assert "result=pass" in out
        assert out.count("status=pass") == 10

    def test_inject_fault_is_detected(self, capsys):
        assert main(["validate", "--inject-fault"]) == 2
        out = capsys.readouterr().out
        assert "result=fail" in out
        assert "suites_passed=0/10" in out
        lines = suite_lines(out)
        assert len(lines) == 10
        for fields in lines.values():
            assert fields["status"] == "fail"
            assert int(fields["failures"]) == int(fields["checks"]) > 0

    def test_violated_bound_fails_its_suites_and_the_rest_still_run(
            self, capsys, monkeypatch):
        def halved(matrix):
            bounds = theorem_resistance_bounds(matrix)
            return dataclasses.replace(bounds, j_upper=bounds.j_upper / 2)

        monkeypatch.setattr(pipeline, "theorem_resistance_bounds", halved)
        # At seed 1 a draw of the upper-bounds suite has J above half its bound.
        assert main(["validate", "--seed", "1"]) == 2
        out = capsys.readouterr().out
        lines = suite_lines(out)
        assert len(lines) == 10
        for name, fields in lines.items():
            if name in ("upper_bounds", "lower_bounds_commuting"):
                assert fields["status"] == "fail"
                assert fields["error"].startswith(
                    "LqConsensusError: result row violates"
                    " the resistance-theorem J upper bound: ")
            else:
                assert fields["status"] == "pass" and "error" not in fields
        assert "suites_passed=8/10" in out

    def test_suite_that_raises_is_reported(self, capsys, monkeypatch):
        def diverges(matrix):
            raise SteinDivergence("no convergence (injected)")

        # The bound suites reach lq_cost_exact through the pipeline, the
        # exact-versus-truncated suite directly.
        for module in (pipeline, experiments_cli):
            monkeypatch.setattr(module, "lq_cost_exact", diverges)
        assert main(["validate", "--seed", "0"]) == 2
        out = capsys.readouterr().out
        lines = suite_lines(out)
        assert len(lines) == 10
        raised = {"upper_bounds", "lower_bounds_commuting", "exact_vs_truncated"}
        for name, fields in lines.items():
            if name in raised:
                assert fields["status"] == "fail"
                assert fields["error"] == "SteinDivergence: no convergence (injected)"
                assert fields["checks"] == "0"
            else:
                assert fields["status"] == "pass" and "error" not in fields
        assert "suites_passed=7/10" in out

    def test_deterministic_output(self, capsys):
        assert main(["validate", "--seed", "6"]) == 0
        first = capsys.readouterr().out
        assert main(["validate", "--seed", "6"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_gamma_oracle_matches_kd_tree(self, rng):
        # The running minimum over the nodes forms the same squared distances
        # as scipy's KD-tree query on the same grid, so the maximum is equal.
        from scipy.spatial import cKDTree
        axis = np.arange(301) * (3.0 / 300)
        mesh = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        for _ in range(5):
            coords = rng.random((40, 2)) * 3.0
            expected = float(cKDTree(coords).query(grid)[0].max())
            assert experiments_cli._max_uncovered(coords, 3.0, 300) == expected


def suite_lines(out):
    """Suite name -> fields of each `validate` suite line; the error field,
    which ends the line, may hold spaces."""
    lines = {}
    for line in out.splitlines():
        if line.startswith("suite="):
            head, _, error = line.partition(" error=")
            fields = dict(part.split("=", 1) for part in head.split())
            if error:
                fields["error"] = error
            lines[fields["suite"]] = fields
    return lines


def command_outputs(argv, out, capsys):
    """Standard output and every written file of one command that exits 0,
    the audit's wall-time line left out."""
    code = main([*argv, "--out", str(out)] if argv[0] != "validate" else argv)
    assert code == 0
    files = {path.name: strip_wall_time(path.read_text())
             for path in sorted(out.iterdir())} if out.exists() else {}
    return capsys.readouterr().out.replace(str(out), "<out>"), files


class TestConnectivityWithoutScipy:
    @pytest.mark.parametrize("argv", [
        ["validate", "--seed", "0"],
        ["epsilon-sweep", "-p", "points=5"],
        ["geometric", "-p", "n_list=25", "-p", "instances=1"],
    ])
    def test_commands_never_call_connected_components(
            self, tmp_path, capsys, monkeypatch, argv):
        # Connectivity is decided by `stochastic_core.reach`; scipy's
        # component labelling stays out of every command, and the outputs
        # do not depend on it.
        expected = command_outputs(argv, tmp_path / "a", capsys)

        def refuse(*args, **kwargs):
            raise AssertionError("csgraph.connected_components was called")

        monkeypatch.setattr(csgraph, "connected_components", refuse)
        assert command_outputs(argv, tmp_path / "b", capsys) == expected


class TestArgumentHandling:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["epsilon-sweep", "--frobnicate"]) == 1
        capsys.readouterr()

    def test_full_scale_is_not_an_option(self, tmp_path, capsys):
        # Larger node grids are set with n_list.
        for command in ("cayley", "epsilon-sweep", "geometric"):
            assert main([command, "--out", str(tmp_path / "x"), "--full-scale"]) == 1
            assert "--full-scale" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["cayley", "geometric"])
    @pytest.mark.parametrize("text", ["", ",,"])
    def test_empty_n_list_is_rejected(self, tmp_path, capsys, command, text):
        assert main([command, "--out", str(tmp_path / "x"),
                     "-p", f"n_list={text}"]) == 1
        assert "n_list" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["cayley", "geometric"])
    @pytest.mark.parametrize("text, value", [("25,25", 25), ("4,9,4", 4)])
    def test_repeated_size_is_rejected(self, tmp_path, capsys, command, text,
                                       value):
        # A repeated size would write duplicate (n, instance) rows and fit
        # the growth law over a repeated x.
        message = f"n_list={text!r} repeats {value}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_config(command, overrides=[f"n_list={text}"])
        out = tmp_path / "x"
        assert main([command, "--out", str(out), "-p", f"n_list={text}",
                     "-p", "instances=1"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cayley", "-p", "case=2", "-p", "d=1", "-p", "n_list=0"],
        ["geometric", "-p", "n_list=1", "-p", "instances=1"],
    ])
    def test_rejected_run_leaves_no_output_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_param_key(self, tmp_path, capsys):
        assert main(["epsilon-sweep", "--out", str(tmp_path / "x"),
                     "-p", "nope=1"]) == 1
        assert "known keys" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["epsilon-sweep", "-p", "eps_min=abc"], "eps_min='abc' is not a number"),
        (["epsilon-sweep", "-p", "eps_min=inf"], "eps_min='inf' is not finite"),
        (["epsilon-sweep", "-p", "points=0"], "points=0 must be at least 1"),
        (["epsilon-sweep", "-p", "seed"],
         "override 'seed' is not of the form key=value"),
        (["cayley", "-p", "n_list=8,x"],
         "n_list='8,x' is not a comma-separated integer list"),
        (["cayley", "-p", "instances=0"], "instances=0 must be at least 1"),
        (["cayley", "-p", "case=2", "-p", "d=4"], "d=4 must be 1, 2 or 3"),
        (["geometric", "-p", "instances=0"], "instances=0 must be at least 1"),
    ])
    def test_refused_value_names_its_key(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSharedParser:
    def test_import_builds_no_parser(self):
        # The parser is built by the first `main` call, not by the import,
        # and only once per process.
        src = str(Path(experiments_cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "\n".join([
            "import argparse",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counted(self, *args, **kwargs):",
            "    built.append(1)",
            "    init(self, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counted",
            "import lqconsensus.experiments_cli as cli",
            "print(len(built), cli.build_parser.cache_info().currsize)",
            "assert cli.build_parser() is cli.build_parser()",
            "print(cli.build_parser.cache_info().misses)",
        ])
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["0", "0", "1"]

    def test_calls_do_not_leak_into_each_other(self, tmp_path, capsys):
        # One process, one parser: a call's -p list, and a refused flag,
        # must not reach the next call.
        experiments_cli.build_parser.cache_clear()
        argv = ["cayley", "-p", "d=3", "-p", "n_list=3", "-p", "instances=1",
                "--seed", "4", "--svg"]
        assert main([*argv, "--out", str(tmp_path / "first")]) == 0
        _, _, rows = read_results(tmp_path / "first" / "results.csv")
        assert [row["d"] for row in rows] == ["3"]
        assert main(["cayley", "-p", "n_list=3", "-p", "instances=1",
                     "--out", str(tmp_path / "default")]) == 0
        _, _, rows = read_results(tmp_path / "default" / "results.csv")
        assert [row["d"] for row in rows] == ["2"]
        assert main(["cayley", "--frobnicate", "--out", str(tmp_path / "x")]) == 1
        assert "--frobnicate" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        assert main([*argv, "--out", str(tmp_path / "again")]) == 0
        assert experiments_cli.build_parser.cache_info().misses == 1
        assert experiments_cli.build_parser().parse_args(["cayley"]).param == []
        names = sorted(path.name for path in (tmp_path / "first").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "again").iterdir())
        for name in names:
            first, again = ((tmp_path / run / name).read_bytes()
                            for run in ("first", "again"))
            if name == "audit.txt":
                first, again = strip_wall_time(first.decode()), strip_wall_time(again.decode())
            assert again == first, name


class TestSweepTables:
    @pytest.mark.parametrize("columns", [
        ([np.nan], [np.inf], [-np.inf]),
        ([-0.0], [5e-324], [1e308]),
        ([0.0, -0.0, 5e-324, 1e308, -1e308], [1.0, -2.0, 3.0, 2.0 ** 53, 1e16],
         [np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0]),
        (np.arange(1, 4), [0.5, 0.25, 0.125]),
        ([7.0],),
    ])
    def test_dat_bytes_are_those_of_savetxt(self, tmp_path, capsys, columns):
        names = [f"column_{i}" for i in range(len(columns))]
        _write_sweep(tmp_path / "run", "tables", 0, {}, [], [], time.perf_counter(),
                     figure=("table", dict(zip(names, columns)), [], {}), svg=False)
        capsys.readouterr()
        np.savetxt(tmp_path / "reference.dat", np.column_stack(columns), fmt="%.17g",
                   header=" ".join(names))
        assert ((tmp_path / "run" / "table.dat").read_bytes()
                == (tmp_path / "reference.dat").read_bytes())


class TestSweepFigure:
    """Each sweep writes one figure: its chart's data as one `.dat` table
    with named columns, x first, and with --svg the chart of those columns."""

    FIGURES = {
        "epsilon": (["epsilon-sweep", "-p", "points=12"], "epsilon_sweep",
                    {"J": "j", "resistance upper": "res_j_upper",
                     "resistance lower": "res_j_lower",
                     "topology upper": "topo_j_upper",
                     "topology lower": "topo_j_lower"}),
        "cayley": (["cayley", "-p", "d=2", "-p", "n_list=3,4", "-p", "instances=2"],
                   "cayley_case1_d2",
                   {"mean J": "mean_j", "corollary upper": "mean_norm_j_upper",
                    "corollary lower": "mean_norm_j_lower"}),
        "geometric": (["geometric", "-p", "d=2", "-p", "n_list=20,25",
                       "-p", "instances=1", "--seed", "3"], "geometric_d2",
                      {"mean J": "mean_j", "topology upper": "mean_topo_j_upper",
                       "topology lower": "mean_topo_j_lower"}),
    }
    COLUMNS = {
        "epsilon": ["epsilon", "j", "res_j_upper", "res_j_lower", "topo_j_upper",
                    "topo_j_lower"],
        "cayley": ["nodes", "mean_j", "mean_j_normalized", "mean_norm_j_upper",
                   "mean_norm_j_lower"],
        "geometric": ["nodes", "mean_j", "mean_j_normalized", "mean_topo_j_upper",
                      "mean_topo_j_lower"],
    }

    @pytest.mark.parametrize("svg", [False, True])
    @pytest.mark.parametrize("sweep", ["epsilon", "cayley", "geometric"])
    def test_writes_one_table_and_one_chart(self, tmp_path, capsys, sweep, svg):
        argv, stem, _ = self.FIGURES[sweep]
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out), *(["--svg"] if svg else [])]) == 0
        capsys.readouterr()
        expected = {"results.csv", "audit.txt", f"{stem}.dat"}
        if svg:
            expected.add(f"{stem}.svg")
        assert {path.name for path in out.iterdir()} == expected
        header = (out / f"{stem}.dat").read_text().partition("\n")[0]
        assert header == "# " + " ".join(self.COLUMNS[sweep])

    @pytest.mark.parametrize("sweep", ["epsilon", "cayley", "geometric"])
    def test_chart_curves_are_table_columns(self, tmp_path, capsys, monkeypatch,
                                            sweep):
        charts = []
        monkeypatch.setattr(
            experiments_cli, "_emit_svg",
            lambda path, curves, **kw: charts.append((path.name, curves, kw)))
        argv, stem, columns_of = self.FIGURES[sweep]
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out), "--svg"]) == 0
        capsys.readouterr()
        ((name, curves, axes),) = charts
        assert name == f"{stem}.svg"
        table = read_table(out / f"{stem}.dat")
        x_name = self.COLUMNS[sweep][0]
        assert axes["xlabel"] == x_name
        assert [label for label, _, _ in curves] == list(columns_of)
        for label, x, y in curves:
            assert [float(v) for v in x] == list(table[x_name])
            assert [float(v) for v in y] == list(table[columns_of[label]]), label

    def test_epsilon_columns_are_the_rows_fields(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["epsilon-sweep", "-p", "points=12", "--out", str(out)]) == 0
        capsys.readouterr()
        _, _, rows = read_results(out / "results.csv")
        table = read_table(out / "epsilon_sweep.dat")
        assert list(table["epsilon"]) == [float(row["epsilon"]) for row in rows]
        for name in self.COLUMNS["epsilon"][1:]:
            assert list(table[name]) == [float(row[name]) for row in rows], name

    def test_sweep_without_rows_writes_the_header_alone(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["geometric", "--out", str(out), "-p", "d=2", "-p", "n_list=15",
                     "-p", "instances=1", "-p", "rho=10.0",
                     "-p", "max_attempts=2"]) == 0
        capsys.readouterr()
        assert (out / "geometric_d2.dat").read_text() == \
            "# " + " ".join(self.COLUMNS["geometric"]) + "\n"
