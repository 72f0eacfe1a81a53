import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import lqconsensus
from lqconsensus import experiments_cli

# Every public name, sorted.  Adding or removing one changes this list.
PUBLIC_NAMES = [
    "BoundsReport", "CayleyGenerator", "ConductanceMatrix", "ConfigError",
    "ConsensusMatrix", "DimensionMismatch", "Disconnected", "FuzzSupport",
    "GeometricInstance", "GeometricParams",
    "InfeasibleDensity", "InvalidGenerator", "InvalidWeights",
    "InvariantMeasure", "LqConsensusError", "LqReport", "MatrixClass",
    "NegativeEntry", "NotIrreducible", "NotNormal", "NotReversible",
    "NotStochastic", "NotSymmetric", "OutOfRange", "RejectionExhausted",
    "ResultRow", "SandwichMargins", "SolveFailure",
    "SteinDivergence", "SupportGraphs", "ZeroDiagonal",
    "average_resistance", "case1_range", "cayley_case1",
    "cayley_case1_generator", "cayley_case2", "cayley_case2_generator",
    "cayley_matrix", "circle_matrix", "classify", "commuting_example",
    "conductance_matrix", "corollary_normal_bounds",
    "effective_resistance", "evaluate", "f_delta", "gamma_check",
    "green_matrix", "hypothetical_lower_violation", "laplacian",
    "load_matrix_csv", "lq_cost_exact", "lq_cost_truncated",
    "multiplicative_reversiblization", "noisy_consensus_estimate",
    "normal_corollary", "p_epsilon", "phi_map", "psi_map",
    "resistance_sandwich_check", "resistance_theorem",
    "reversiblization_conductance", "reversiblization_support",
    "rho_check", "sample_geometric", "save_matrix_csv",
    "theorem_resistance_bounds",
    "theorem_topology_bounds", "topology_theorem", "torus_fields",
    "trace_pair", "unit_conductance", "validate_consensus",
    "weighted_average_resistance",
]

# Every parameter with a default in the public API.  A setting that every
# caller leaves at one value is a module constant instead (GAMMA_GRID_DIVISIONS,
# NODE_ATTEMPT_CAP, CASE1_MAX_DRAWS, the TRUNCATED_* rule, EXACT_CHECK_MAX_N),
# so a new entry here has to name a caller that passes another value.
DEFAULTED_PARAMETERS = {
    "GeometricParams": ["s", "r", "gamma", "rho", "p_e", "p_d", "c", "b",
                        "pi_bar_min", "pi_bar_max"],
    "LqReport": ["steps_used", "stein_residual", "spectral_gap"],
    "case1_range": ["p_min", "p_max"],
    "cayley_case1": ["p_min", "p_max", "seed"],
    "cayley_case1_generator": ["p_min", "p_max", "seed"],
    "evaluate": ["cross_check", "nodes"],
    "noisy_consensus_estimate": ["chunk"],
    "phi_map": ["alpha"],
    "rho_check": ["distances"],
    "sample_geometric": ["max_attempts"],
    "experiments_cli.build_config": ["config_file", "overrides", "seed"],
    "experiments_cli.run_epsilon_sweep": ["svg"],
    "experiments_cli.run_cayley_sweep": ["svg"],
    "experiments_cli.run_geometric_sweep": ["svg"],
    "experiments_cli.analyze_matrix": ["truncated"],
    "experiments_cli.run_validation_suite": ["inject_fault"],
    "experiments_cli.main": ["argv"],
}

CONFIG_KEYS = {
    "epsilon-sweep": ["eps_min", "eps_max", "points", "seed"],
    "cayley": ["case", "d", "n_list", "instances", "seed", "p_min", "p_max"],
    "geometric": ["d", "n_list", "instances", "seed", "s", "r", "gamma", "rho",
                  "p_e", "p_d", "c", "b", "pi_bar_min", "pi_bar_max",
                  "max_attempts"],
    "validate": ["seed"],
}


def _signatures() -> dict:
    """Name -> signature of every callable in `lqconsensus.__all__` and every
    public function defined in `experiments_cli`.  Exception classes take a
    message only and have no signature to read."""
    api = {name: getattr(lqconsensus, name) for name in lqconsensus.__all__}
    api.update({f"experiments_cli.{name}": obj
                for name, obj in vars(experiments_cli).items()
                if inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__ == experiments_cli.__name__})
    return {name: inspect.signature(obj) for name, obj in api.items()
            if callable(obj)
            and not (inspect.isclass(obj) and issubclass(obj, Exception))}


def test_public_names_are_pinned():
    assert lqconsensus.__all__ == PUBLIC_NAMES


def test_no_tolerance_is_settable():
    # Tolerances and screening thresholds are module constants, so every
    # caller gets the same classification, symmetry and support verdicts.
    signatures = _signatures()
    settable = [
        f"{name}({param})"
        for name, sig in signatures.items()
        for param in sig.parameters
        if param == "tol" or param.endswith("_tol") or param.endswith("threshold")
    ]
    assert "experiments_cli.analyze_matrix" in signatures
    assert settable == []


def test_defaulted_parameters_are_pinned():
    defaulted = {}
    for name, sig in _signatures().items():
        params = [p for p, prm in sig.parameters.items()
                  if prm.default is not inspect.Parameter.empty]
        if params:
            defaulted[name] = params
    assert defaulted == DEFAULTED_PARAMETERS


def test_config_keys_are_pinned():
    assert {experiment: list(keys) for experiment, keys
            in experiments_cli._CONFIG_KEYS.items()} == CONFIG_KEYS


def test_import_loads_no_scipy():
    # scipy is imported inside the functions that use it (the network
    # factors and the truncated series), so importing the package, or its
    # CLI module, does not pay for it.
    src = str(Path(lqconsensus.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, lqconsensus, lqconsensus.experiments_cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_sampler_and_validate_load_no_scipy_spatial(tmp_path):
    # The geometric sampler's distance and coverage screens run on numpy
    # alone, so neither sampling in any dimension nor the validate battery,
    # whose gamma suite calls the coverage screen, loads scipy.spatial.  The
    # resistor networks factor on numpy alone too: analyze, epsilon-sweep and
    # cayley load no scipy module, and validate and the geometric sweep load
    # only scipy.sparse, for the truncated series.
    src = str(Path(lqconsensus.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import contextlib, io, sys\n"
            "from lqconsensus import GeometricParams, sample_geometric, save_matrix_csv\n"
            "from lqconsensus.experiments_cli import main\n"
            "def loaded(prefix):\n"
            "    return sorted(m for m in sys.modules if m.startswith(prefix))\n"
            "def run(*argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        return main(list(argv))\n"
            "sample_geometric(GeometricParams(c=0.2), 200, 1, seed=[0, 1, 200])\n"
            "sample_geometric(GeometricParams(), 25, 2, seed=[0, 2, 25])\n"
            "sample_geometric(GeometricParams(), 60, 3, seed=[0, 3, 60])\n"
            "save_matrix_csv(sample_geometric(GeometricParams(), 300, 2,\n"
            "                                 seed=[1, 2, 300, 0]).matrix, 'g300.csv')\n"
            "print(loaded('scipy'))\n"
            "print(run('analyze', 'g300.csv'), run('epsilon-sweep', '--out', 'eps'),\n"
            "      run('cayley', '--out', 'cayley'), loaded('scipy'))\n"
            "print(run('validate', '--seed', '0'),\n"
            "      run('geometric', '--out', 'geo', '-p', 'n_list=20,25', '-p', 'instances=1'),\n"
            "      loaded('scipy.linalg'), loaded('scipy.spatial'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=tmp_path,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "0 0 0 []", "0 0 [] []"]


def test_pipeline_loads_no_cli():
    # The evaluation pipeline is a library module: importing it loads
    # neither the command-line module, argparse nor scipy.
    src = str(Path(lqconsensus.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, lqconsensus.pipeline; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('argparse', 'scipy') or m == 'lqconsensus.experiments_cli'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _unused_imports(path: Path, root: Path) -> list:
    """Names that a module imports and never reads: an import statement's
    bound name that appears in no load of a name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, alias.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(root)}:{line} {name}" for name, line in imported.items()
            if name not in read]


def test_no_unused_imports():
    # `__init__.py` imports to re-export, so it is exempt.
    root = Path(__file__).resolve().parents[1]
    files = sorted(p for folder in ("src", "tests") for p in (root / folder).rglob("*.py")
                   if p.name != "__init__.py")
    assert len(files) > 10
    assert [entry for path in files for entry in _unused_imports(path, root)] == []


def _private_names(tree) -> list:
    """(name, line) of every top-level private function or class and every
    module-level constant (UPPER_CASE or a leading underscore) that a module
    defines; dunders are exempt."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name] if node.name.startswith("_") else []
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [target.id for target in assigned if isinstance(target, ast.Name)
                       and (target.id.isupper() or target.id.startswith("_"))]
        else:
            continue
        names += [(name, node.lineno) for name in targets
                  if not (name.startswith("__") and name.endswith("__"))]
    return names


def test_no_dead_private_names():
    # Every private definition and constant of the package is read in
    # `src/`, as a loaded name or an attribute; importing it is no read.
    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((root / "src").rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = [(path, name, line) for path, tree in trees.items()
               for name, line in _private_names(tree)]
    assert len(defined) > 50
    assert [f"{path.relative_to(root)}:{line} {name}" for path, name, line in defined
            if name not in read] == []


# A constant that README quotes with its value: `NAME` (value, or `NAME`
# word (value, the value in digits, thousands separated by commas.
README_CONSTANT = re.compile(
    r"`([A-Z][A-Z0-9_]+)`(?: [a-z]+)?\s+\((\d+(?:,\d{3})*(?:\.\d+)?(?:e[-+]?\d+)?)(?=[\s,)])")


def test_readme_constants_match_the_code():
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text()
    quoted = README_CONSTANT.findall(text)
    # Every constant README names in backticks is quoted with its value.
    assert {name for name, _ in quoted} == set(re.findall(r"`([A-Z][A-Z0-9_]{3,})`", text))
    modules = [importlib.import_module(f"lqconsensus.{path.stem}")
               for path in sorted((root / "src" / "lqconsensus").glob("*.py"))]
    for name, value in quoted:
        found = {vars(module)[name] for module in modules if name in vars(module)}
        assert found == {float(value.replace(",", ""))}, name
