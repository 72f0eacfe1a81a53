"""The benchmark in perfbench/ calls the package by name, so a renamed
function or parameter breaks it without failing any other test.  These tests
read perfbench/ (nothing there is changed or imported as a package) and check
that its span targets resolve, that the calls its workloads make still bind,
that its count hooks still find their arguments, and that its parser reads
`validate` output, passing or failing, and the epsilon audit, the geometric
audit's detail lines and the `analyze` report, so that a changed key or
number format fails here before the benchmark reads it.
"""
import importlib
import inspect
import runpy
from pathlib import Path

import pytest

import lqconsensus
from lqconsensus import SteinDivergence, experiments_cli, graph_gen, lqcost, pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
CHECKS = PERFBENCH / "checks.py"


@pytest.fixture(scope="module")
def spans():
    # run_path compiles the file in memory and writes no bytecode next to it.
    return runpy.run_path(str(SPANS))


def test_every_span_target_resolves(spans):
    for module_name, attr, _, _ in spans["TARGETS"]:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            f"{module_name}.{attr}"


# The calls of perfbench/workload.py, in its argument shapes; `_` stands for
# a value whose type the binding does not check.
_ = object()
WORKLOAD_CALLS = [
    (graph_gen.sample_geometric, (graph_gen.GeometricParams(), _, 2), {"seed": _}),
    (graph_gen.cayley_case1, (_, 2), {"seed": _}),
    (graph_gen.cayley_case2, (_, 2), {}),
    (graph_gen.circle_matrix, (_, _, _), {}),
    (graph_gen.p_epsilon, (_,), {}),
    (graph_gen.commuting_example, (), {}),
    (lqcost.noisy_consensus_estimate, (_,),
     {"horizon": _, "trials": _, "seed": _, "chunk": _}),
    (lqconsensus.save_matrix_csv, (_, _), {}),
    (experiments_cli.main, (_,), {}),
]


@pytest.mark.parametrize("func,args,kwargs", WORKLOAD_CALLS,
                         ids=[call[0].__name__ for call in WORKLOAD_CALLS])
def test_workload_calls_bind(func, args, kwargs):
    inspect.signature(func).bind(*args, **kwargs)


def test_count_hooks_read_their_arguments(spans):
    tracer = spans["Tracer"]()
    try:
        tracer.install()
        P = graph_gen.p_epsilon(0.25)
        lqcost.lq_cost_exact(P)
        lqcost.lq_cost_truncated(P)
        lqcost.noisy_consensus_estimate(P, horizon=2, trials=3, seed=0, chunk=3)
        graph_gen.sample_geometric(graph_gen.GeometricParams(), 10, 2, seed=0)
    finally:
        tracer.remove()
    counts = {span[0]: span[5] for span in tracer.spans if span[5] is not None}
    assert counts["lqcost.lq_cost_exact"]["n"] == 3
    assert counts["lqcost.lq_cost_truncated"]["steps"] >= 1
    assert counts["lqcost.noisy_consensus_estimate"] == {"trial_steps": 6}
    assert counts["graph_gen.sample_geometric"]["attempts"] >= 1
    assert not any("hook_errors" in c for c in counts.values())


@pytest.fixture(scope="module")
def checks():
    return runpy.run_path(str(CHECKS))


@pytest.mark.parametrize("fault", [False, True], ids=["pass", "stein_divergence"])
def test_validate_output_parses(checks, capsys, monkeypatch, fault):
    # The `small` workload reads result= and suites_passed= from the whole
    # stdout, and checks= from each line with its spaces made line breaks.
    if fault:
        def diverges(matrix):
            raise SteinDivergence("no convergence (injected)")
        for module in (pipeline, experiments_cli):
            monkeypatch.setattr(module, "lq_cost_exact", diverges)
    assert experiments_cli.main(["validate", "--seed", "0"]) == (2 if fault else 0)
    out = capsys.readouterr().out
    parse_kv = checks["parse_kv"]
    report = parse_kv(out)
    assert report["result"] == ("fail" if fault else "pass")
    passed, _, total = str(report["suites_passed"]).partition("/")
    assert total == "10" and (passed == total) is not fault
    suite_lines = [line for line in out.splitlines() if line.startswith("suite=")]
    assert len(suite_lines) == 10
    for line in suite_lines:
        count = int(parse_kv(line.replace(" ", "\n")).get("checks", 0))
        assert f" checks={count} " in line


def test_epsilon_audit_states_certified_lower_valid(checks, tmp_path, capsys):
    # The `small` workload fails a run whose audit lacks this line.
    out = tmp_path / "eps"
    assert experiments_cli.main(["epsilon-sweep", "-p", "points=2",
                                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert checks["parse_kv"]((out / "audit.txt").read_text())[
        "certified_lower_valid"] is True


def test_geometric_detail_counts_are_integers(checks, tmp_path, capsys):
    # The `geometric` workload sums these fields of each detail line with int().
    out = tmp_path / "geo"
    assert experiments_cli.main(["geometric", "-p", "n_list=25", "-p", "instances=1",
                                 "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = [line for line in (out / "audit.txt").read_text().splitlines()
             if line.startswith("n=") and " attempts=" in line]
    assert len(lines) == 1
    for line in lines:
        fields = checks["parse_kv"](line.replace(" ", "\n"))
        rejected = [key for key in fields if key.startswith("rejected_")]
        assert rejected
        for key in ["attempts", "steps_used", *rejected]:
            assert f"{key}={int(fields[key])}" in line.split()


# The report keys that `Analyze._report_checks` (with checks.bounds) and
# `Analyze.counts` in perfbench/workload.py read as numbers.
ANALYZE_NUMBER_KEYS = (
    "n", "j", "j_weighted", "pi_min", "pi_max", "green_trace", "stein_residual",
    "res_j_upper", "res_j_lower", "res_jw_upper", "res_jw_lower",
    "topo_j_upper", "topo_j_lower", "topo_jw_upper", "topo_jw_lower",
    "norm_j_upper", "norm_j_lower",
    "sandwich_min_upper_margin", "sandwich_min_lower_margin",
    "fuzz_edges", "fuzz_new_edges",
)


def test_analyze_report_parses(checks, tmp_path, capsys):
    # A normal, commuting 16-node torus prints every key, the norm_* and the
    # certified lower bounds included.
    path = tmp_path / "torus.csv"
    lqconsensus.save_matrix_csv(graph_gen.cayley_case1(4, 2, seed=1)[1], path)
    assert experiments_cli.main(["analyze", str(path)]) == 0
    report = checks["parse_kv"](capsys.readouterr().out)
    assert report["lower_applicable"] is True
    for key in ANALYZE_NUMBER_KEYS:
        assert isinstance(report.get(key), float), key
