"""One benchmark workload, run in its own process.

run.py starts this file with the BLAS thread count pinned and the checkout's
`src` on PYTHONPATH.  The process imports the package, builds the workload's
inputs from the seed and prints "READY", which run.py times as set-up.  It
then repeats one pass, the workload's fixed list of calls, until --seconds
have passed; every pass makes the same calls with the same inputs, so each
is a closed loop with one client.  Between calls it runs the reference
kernel of reference.py.  `wall_s` is the sum over the pass's calls of each
call's median time, and `wall_ref` is that divided by the kernel's median
time, which cancels the drift of a shared host's speed.  After the timed passes it
checks the
first pass's outputs against oracles, compares every later pass with the
first byte for byte, and prints "RESULT <json>".  With --trace 1 the first
half of the time runs untraced and the second half under the span tracer;
the per-layer numbers come from the traced passes and the tracing overhead
is the difference of the two halves' pass times.

Usage: python3 perfbench/workload.py --workload torus --seed 1 --seconds 20
       --trace 0 --work DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference
import spans as spanlib

ROOT = Path(__file__).resolve().parents[1]

TORUS_SIDES = (8, 12, 16, 20, 24)
TORUS_INSTANCES = 1
GEOMETRIC_SIZES = (25, 50, 75, 100, 125, 150, 175, 200, 225, 250, 275, 300)
# The sampler's restarts vary with the seed (96 to 294 attempts for two
# instances per size) and set much of the pass time.  Two instances per size
# keep a pass near 9 s, so a 20-s run has three passes for the per-call
# medians; three instances gave two passes, and runs of one seed spread more.
GEOMETRIC_INSTANCES = 2
EPSILON_POINTS = 100
# The battery draws its matrix sizes from its seed, which moves its run time
# by up to 2x; fixed seeds keep the pass length independent of --seed.
VALIDATE_SEEDS = (0, 1, 2)
MC_HORIZON = 40
MC_TRIALS = 10_000
MC_CHUNKS = (4096, 1000)
RING_NODES = 8
ANALYZE_EPSILONS = 60
ANALYZE_TORUS_SIDES = (3, 4, 5, 6, 8, 10, 12, 16)
ANALYZE_TORUS_INSTANCES = 2
ANALYZE_ONE_SIDED_SIDES = (3, 4, 5, 6, 7, 8)
ANALYZE_GEOMETRIC = tuple((n, 0) for n in GEOMETRIC_SIZES) + tuple(
    (n, 1) for n in (25, 50, 75, 100, 150))
FILE_SUPPORT_THRESHOLD = 1e-14  # what `load_matrix_csv` treats as zero
# Three passes at least, so that each call's median is not the mean of two.
MIN_PASSES = 3
# The longest stretch of calls between two runs of the reference kernel, so
# that its samples spread evenly over the run.
REF_STRETCH_S = 0.25
CORRUPTION = 1.0 + 1e-6  # the negative control scales one J by this

# Per-layer metrics from the traced passes: "<span name>.<field>".
TRACED_METRICS = (
    "lqcost.lq_cost_exact.calls",
    "lqcost.lq_cost_exact.self_s",
    "lqcost.lq_cost_exact.stein_residual_max",
    "lqcost.lq_cost_exact.calls_n_le_60",
    "lqcost.lq_cost_truncated.calls",
    "lqcost.lq_cost_truncated.self_s",
    "lqcost.lq_cost_truncated.steps",
    "lqcost.noisy_consensus_estimate.calls",
    "lqcost.noisy_consensus_estimate.self_s",
    "lqcost.noisy_consensus_estimate.trial_steps",
    "lqcost.green_matrix.self_s",
    "lqcost.trace_pair.self_s",
    "resistance.effective_resistance.calls",
    "resistance.effective_resistance.self_s",
    "resistance.conductance_matrix.calls",
    "resistance.conductance_matrix.self_s",
    "stochastic_core.classify.calls",
    "stochastic_core.classify.self_s",
    "stochastic_core.invariant.self_s",
    "stochastic_core.validate_consensus.calls",
    "stochastic_core.validate_consensus.self_s",
    "bounds.theorem_resistance_bounds.self_s",
    "bounds.theorem_topology_bounds.self_s",
    "bounds.corollary_normal_bounds.self_s",
    "bounds.resistance_sandwich_check.self_s",
    "bounds.reversiblization_support.self_s",
    "graph_gen.sample_geometric.self_s",
    "graph_gen.sample_geometric.attempts",
    "graph_gen.rho_check.self_s",
    "graph_gen.gamma_check.self_s",
    "graph_gen.cayley_case1.self_s",
    "experiments_cli.main.calls",
    "experiments_cli.main.self_s",
)
# Exact work counts read from the program's outputs, one value per pass.
OUTPUT_COUNTS = (
    "out.rows",
    "out.steps_used",
    "out.sampler_attempts",
    "out.sampler_rejections",
    "out.stein_residual_max",
    "out.validate_checks",
    "out.mc_chunk_bit_mismatches",
)


@dataclass
class Op:
    """One call of a pass: a CLI invocation (returns its exit code) or a
    direct call of a public function (returns its value)."""

    key: str
    call: Callable
    out_dir: Path | None = None
    cli: bool = True


@dataclass
class Record:
    key: str
    seconds: float
    value: object
    error: str | None
    stdout: str
    csv: bytes | None
    audit: str | None

    def fingerprint(self) -> str:
        blob = repr((self.value, self.error, self.stdout, self.csv, self.audit))
        return hashlib.sha256(blob.encode()).hexdigest()


def run_op(op: Op) -> Record:
    if op.out_dir is not None:
        for name in ("results.csv", "audit.txt"):
            (op.out_dir / name).unlink(missing_ok=True)
    buf = io.StringIO()
    value, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            value = op.call()
    except Exception as exc:  # a raising call is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    csv = audit = None
    if op.out_dir is not None:
        csv_path, audit_path = op.out_dir / "results.csv", op.out_dir / "audit.txt"
        csv = csv_path.read_bytes() if csv_path.exists() else None
        if audit_path.exists():
            # The last line is the run's wall time, the one line that may differ.
            lines = audit_path.read_text().splitlines()
            audit = "\n".join(line for line in lines
                              if not line.startswith("total_wall_time_s="))
    return Record(op.key, seconds, value, error, buf.getvalue(), csv, audit)


def call_errors(op: Op, rec: Record) -> list[str]:
    if rec.error is not None:
        return [f"raised {rec.error}"]
    if op.cli and rec.value != 0:
        return [f"exit code {rec.value}"]
    return []


def corrupted(rec: dict) -> dict:
    bad = dict(rec)
    bad["j"] = rec["j"] * CORRUPTION
    return bad


def missing_rows(rows: list[dict], sizes, instances: int) -> list[str]:
    """A failure unless the rows cover each (n, instance) pair exactly once."""
    got = sorted((int(r["n"]), int(r["instance"])) for r in rows)
    expected = [(n, i) for n in sizes for i in range(instances)]
    return [] if got == expected else [f"rows cover {got}, expected {expected}"]


def parse_audit_instances(audit: str | None) -> dict:
    """(n, instance) -> {field: text} from the geometric audit's detail lines."""
    out = {}
    for line in (audit or "").splitlines():
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        if "instance" in fields and "attempts" in fields:
            key = (int(fields["n"]), int(fields["instance"]))
            out[key] = {k: v for k, v in fields.items() if k not in ("n", "instance")}
    return out


class Package:
    """The package modules the workloads call, looked up at call time so that
    the tracer's replacements are seen."""

    def __init__(self):
        import lqconsensus
        import lqconsensus.experiments_cli
        import lqconsensus.graph_gen
        import lqconsensus.lqcost

        src = (ROOT / "src").resolve()
        if src not in Path(lqconsensus.__file__).resolve().parents:
            raise SystemExit(f"imported lqconsensus from {lqconsensus.__file__}, "
                             f"not from {src}")
        self.root = lqconsensus
        self.cli = lqconsensus.experiments_cli
        self.graph_gen = lqconsensus.graph_gen
        self.lqcost = lqconsensus.lqcost

    def cli_op(self, key: str, argv: list[str], out_dir: Path | None = None) -> Op:
        return Op(key, lambda: self.cli.main(argv), out_dir)


class Torus:
    """cayley, d=2, case 1: large dense normal doubly stochastic matrices,
    one request per side so that the reference clock brackets short stretches."""

    def __init__(self, seed: int, work: Path, pkg: Package):
        self.seed, self.pkg = seed, pkg
        self.ops = []
        for side in TORUS_SIDES:
            out = work / f"cayley-{side}"
            out.mkdir(parents=True)
            self.ops.append(pkg.cli_op(f"cayley-{side}", [
                "cayley", "-p", "d=2", "-p", "case=1", "-p", f"n_list={side}",
                "-p", f"instances={TORUS_INSTANCES}",
                "--seed", str(seed), "--out", str(out)], out))
        self._refs = {}

    def _row_checks(self, row: dict) -> list[str]:
        side, i = int(row["n"]), int(row["instance"])
        if (side, i) not in self._refs:
            gen, matrix = self.pkg.graph_gen.cayley_case1(
                side, 2, seed=[self.seed, 1, 2, side, i])
            self._refs[side, i] = (checks.torus_fft_j(gen.weights, side),
                                   checks.oracle(np.array(matrix.entries)))
        fft_j, orc = self._refs[side, i]
        return (checks.torus_costs(row, fft_j) + checks.exact_costs(row, orc)
                + checks.bounds(row) + checks.normalized_2d(row, side * side))

    def check(self, first: list[Record]):
        fails, control = {}, False
        for side, rec in zip(TORUS_SIDES, first):
            rows = checks.parse_results_csv(rec.csv)
            fails[rec.key] = missing_rows(rows, (side,), TORUS_INSTANCES)
            for row in rows:
                fails[rec.key] += self._row_checks(row)
            if rec is first[0]:
                control = bool(rows) and bool(self._row_checks(corrupted(rows[0])))
        return fails, control

    def counts(self, records: list[Record]) -> dict:
        return {"out.rows": sum(len(checks.parse_results_csv(r.csv)) for r in records)}


class Geometric:
    """geometric, d=2, desk grid: directed non-normal matrices, truncated
    series; one request per size so that the reference clock brackets short
    stretches."""

    def __init__(self, seed: int, work: Path, pkg: Package):
        self.seed, self.pkg = seed, pkg
        self.ops = []
        for n in GEOMETRIC_SIZES:
            out = work / f"geometric-{n}"
            out.mkdir(parents=True)
            self.ops.append(pkg.cli_op(f"geometric-{n}", [
                "geometric", "-p", "d=2", "-p", f"n_list={n}",
                "-p", f"instances={GEOMETRIC_INSTANCES}",
                "--seed", str(seed), "--out", str(out)], out))
        self._refs = {}

    def _row_checks(self, row: dict, audit: dict) -> list[str]:
        n, i = int(row["n"]), int(row["instance"])
        if (n, i) not in self._refs:
            gg = self.pkg.graph_gen
            inst = gg.sample_geometric(gg.GeometricParams(), n, 2, seed=[self.seed, 2, n, i])
            self._refs[n, i] = (inst.audit["attempts"],
                                checks.oracle(np.array(inst.matrix.entries)))
        attempts, orc = self._refs[n, i]
        fails = []
        if str(attempts) != audit.get((n, i), {}).get("attempts"):
            fails.append(f"n={n} instance={i}: the audit's attempts do not match "
                         f"the re-sampled instance ({attempts})")
        return (fails + checks.truncated_costs(row, orc) + checks.bounds(row)
                + checks.normalized_2d(row, n))

    def check(self, first: list[Record]):
        fails, sharp = {}, []
        for n, rec in zip(GEOMETRIC_SIZES, first):
            rows = checks.parse_results_csv(rec.csv)
            audit = parse_audit_instances(rec.audit)
            fails[rec.key] = missing_rows(rows, (n,), GEOMETRIC_INSTANCES)
            for row in rows:
                fails[rec.key] += self._row_checks(row, audit)
            sharp += [(r, audit) for r in rows if r.get("j_exact_rel_err") is not None]
        control = bool(sharp) and bool(self._row_checks(corrupted(sharp[0][0]), sharp[0][1]))
        return fails, control

    def counts(self, records: list[Record]) -> dict:
        audit = [a for r in records for a in parse_audit_instances(r.audit).values()]
        return {
            "out.rows": sum(len(checks.parse_results_csv(r.csv)) for r in records),
            "out.steps_used": sum(int(a["steps_used"]) for a in audit),
            "out.sampler_attempts": sum(int(a["attempts"]) for a in audit),
            "out.sampler_rejections": sum(int(v) for a in audit for k, v in a.items()
                                          if k.startswith("rejected_")),
        }


def _epsilon_entries(eps: float) -> np.ndarray:
    return np.array([[eps, 1.0 - eps, 0.0], [0.0, eps, 1.0 - eps], [0.5, 0.0, 0.5]])


def _ring_entries(n: int, p: float, q: float) -> np.ndarray:
    m = np.diag(np.full(n, 1.0 - p - q))
    for u in range(n):
        m[u, (u - 1) % n] += p
        m[u, (u + 1) % n] += q
    return m


class Small:
    """epsilon-sweep, the validation battery and Monte Carlo: many tiny calls."""

    def __init__(self, seed: int, work: Path, pkg: Package):
        out = work / "epsilon"
        out.mkdir(parents=True)
        self.ops = [pkg.cli_op("epsilon-sweep", [
            "epsilon-sweep", "-p", f"points={EPSILON_POINTS}",
            "--seed", str(seed), "--out", str(out)], out)]
        self.ops += [pkg.cli_op(f"validate-{k}", ["validate", "--seed", str(k)])
                     for k in VALIDATE_SEEDS]
        rng = np.random.default_rng([seed, 3])
        eps = float(rng.uniform(0.05, 0.5))
        p, q = (float(x) for x in rng.uniform(0.15, 0.35, 2))
        mc_seed = int(rng.integers(2 ** 31))
        self.mc = {
            "chain": (lambda: pkg.graph_gen.p_epsilon(eps), _epsilon_entries(eps)),
            "ring": (lambda: pkg.graph_gen.circle_matrix(RING_NODES, p, q),
                     _ring_entries(RING_NODES, p, q)),
        }
        for label, (build, _) in self.mc.items():
            for chunk in MC_CHUNKS:
                self.ops.append(Op(
                    f"mc-{label}-{chunk}",
                    lambda build=build, chunk=chunk: pkg.lqcost.noisy_consensus_estimate(
                        build(), horizon=MC_HORIZON, trials=MC_TRIALS, seed=mc_seed,
                        chunk=chunk),
                    cli=False))

    @staticmethod
    def _row_checks(row: dict) -> list[str]:
        orc = checks.oracle(_epsilon_entries(row["epsilon"]))
        return checks.exact_costs(row, orc) + checks.bounds(row)

    def check(self, first: list[Record]):
        by_key = {r.key: r for r in first}
        fails: dict[str, list[str]] = {key: [] for key in by_key}
        rows = checks.parse_results_csv(by_key["epsilon-sweep"].csv)
        if len(rows) != EPSILON_POINTS:
            fails["epsilon-sweep"].append(f"{len(rows)} rows, expected {EPSILON_POINTS}")
        for row in rows:
            fails["epsilon-sweep"] += self._row_checks(row)
        if "certified_lower_valid=true" not in (by_key["epsilon-sweep"].audit or ""):
            fails["epsilon-sweep"].append("audit does not state certified_lower_valid=true")
        for k in VALIDATE_SEEDS:
            report = checks.parse_kv(by_key[f"validate-{k}"].stdout)
            passed, _, total = str(report.get("suites_passed", "")).partition("/")
            if report.get("result") != "pass" or not total or passed != total:
                fails[f"validate-{k}"].append("the battery did not report result=pass")
        for label, (_, entries) in self.mc.items():
            j = checks.oracle(entries).j
            values = [by_key[f"mc-{label}-{c}"].value for c in MC_CHUNKS]
            for chunk, value in zip(MC_CHUNKS, values):
                if not isinstance(value, float) or not abs(value - j) <= checks.MC_RTOL * j:
                    fails[f"mc-{label}-{chunk}"].append(
                        f"estimate {value} is not within {checks.MC_RTOL} of J={j}")
            if all(isinstance(v, float) for v in values):
                fails[f"mc-{label}-{MC_CHUNKS[1]}"] += checks.close(
                    "estimate", values[1], values[0], checks.MC_CHUNK_RTOL)
        control = bool(rows) and bool(self._row_checks(corrupted(rows[0])))
        return fails, control

    def counts(self, records: list[Record]) -> dict:
        by_key = {r.key: r for r in records}
        validate_checks = 0
        for k in VALIDATE_SEEDS:
            for line in by_key[f"validate-{k}"].stdout.splitlines():
                validate_checks += int(checks.parse_kv(line.replace(" ", "\n")).get("checks", 0))
        mismatches = sum(
            by_key[f"mc-{label}-{MC_CHUNKS[0]}"].value != by_key[f"mc-{label}-{MC_CHUNKS[1]}"].value
            for label in self.mc)
        return {
            "out.rows": len(checks.parse_results_csv(by_key["epsilon-sweep"].csv)),
            "out.validate_checks": validate_checks,
            "out.mc_chunk_bit_mismatches": mismatches,
        }


class Analyze:
    """`analyze` requests one after another, one per matrix file."""

    def __init__(self, seed: int, work: Path, pkg: Package):
        gg = pkg.graph_gen
        inputs = work / "matrices"
        inputs.mkdir(parents=True)
        rng = np.random.default_rng([seed, 4])
        items = []  # (label, matrix, torus generator weights or None)
        for eps in 10.0 ** rng.uniform(-3.0, np.log10(0.5), ANALYZE_EPSILONS):
            items.append(("epsilon", gg.p_epsilon(float(eps)), None))
        items.append(("commuting", gg.commuting_example(), None))
        for side in ANALYZE_TORUS_SIDES:
            for i in range(ANALYZE_TORUS_INSTANCES):
                gen, matrix = gg.cayley_case1(side, 2, seed=[seed, 4, side, i])
                items.append((f"torus{side}", matrix, dict(gen.weights)))
        one_sided = {(0, 0): 1.0 / 3.0, (1, 0): 1.0 / 3.0, (0, 1): 1.0 / 3.0}
        for side in ANALYZE_ONE_SIDED_SIDES:
            items.append((f"onesided{side}", gg.cayley_case2(side, 2), one_sided))
        for n, i in ANALYZE_GEOMETRIC:
            inst = gg.sample_geometric(gg.GeometricParams(), n, 2, seed=[seed, 5, n, i])
            items.append((f"geometric{n}", inst.matrix, None))
        self.files = []
        self.ops = []
        for index, (label, matrix, weights) in enumerate(items):
            path = inputs / f"{index:03d}-{label}.csv"
            pkg.root.save_matrix_csv(matrix, path)
            self.files.append((path, weights))
            self.ops.append(pkg.cli_op(f"analyze-{index:03d}", ["analyze", str(path)]))

    @staticmethod
    def _report_checks(report: dict, a: np.ndarray, weights) -> list[str]:
        orc = checks.oracle(a)
        fails = checks.exact_costs(report, orc) + checks.bounds(report)
        if weights is not None:
            fails += checks.torus_costs(report, checks.torus_fft_j(weights, round(a.shape[0] ** 0.5)))
        if report.get("n") != a.shape[0]:
            fails.append(f"n={report.get('n')} for a {a.shape[0]}-node file")
        fails += checks.close("pi_min", report.get("pi_min"), float(orc.pi.min()), checks.DERIVED_RTOL)
        fails += checks.close("pi_max", report.get("pi_max"), float(orc.pi.max()), checks.DERIVED_RTOL)
        fails += checks.close("green_trace", report.get("green_trace"),
                              checks.green_trace(a, orc.pi), checks.DERIVED_RTOL)
        for key in ("sandwich_min_upper_margin", "sandwich_min_lower_margin"):
            margin = report.get(key)
            if not isinstance(margin, float) or margin < -checks.MARGIN_ATOL:
                fails.append(f"{key}={margin} is negative")
        edges, new_edges = checks.fuzz_edge_counts(a, FILE_SUPPORT_THRESHOLD)
        if (report.get("fuzz_edges"), report.get("fuzz_new_edges")) != (edges, new_edges):
            fails.append(f"fuzz_edges={report.get('fuzz_edges')} fuzz_new_edges="
                         f"{report.get('fuzz_new_edges')}, expected {edges} and {new_edges}")
        return fails

    def check(self, first: list[Record]):
        fails = {}
        control = False
        for rec, (path, weights) in zip(first, self.files):
            a = np.loadtxt(path, delimiter=",", ndmin=2)
            report = checks.parse_kv(rec.stdout)
            fails[rec.key] = self._report_checks(report, a, weights)
            if rec is first[0] and isinstance(report.get("j"), float):
                control = bool(self._report_checks(corrupted(report), a, weights))
        return fails, control

    def counts(self, records: list[Record]) -> dict:
        residuals = [checks.parse_kv(r.stdout).get("stein_residual") for r in records]
        return {"out.stein_residual_max": max(
            (x for x in residuals if isinstance(x, float)), default=0.0)}


WORKLOADS = {"torus": Torus, "geometric": Geometric, "small": Small, "analyze": Analyze}


@dataclass
class Pass:
    traced: bool
    records: list[Record]
    requests: list[int]

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.records)


def run_passes(ops, ref_samples, tracer, traced, passes, until) -> None:
    """Repeat the pass until `until`, and at least MIN_PASSES times.  The
    reference kernel runs after every stretch of at least REF_STRETCH_S of
    calls and at the end of each pass, outside every call's time."""
    while True:
        records, requests = [], []
        stretch = 0.0
        for op in ops:
            request = len(passes) * 100_000 + len(records)
            if tracer is not None:
                tracer.request = request
            records.append(run_op(op))
            requests.append(request)
            stretch += records[-1].seconds
            if stretch >= REF_STRETCH_S:
                ref_samples.append(reference.run())
                stretch = 0.0
        if stretch > 0.0:
            ref_samples.append(reference.run())
        passes.append(Pass(traced, records, requests))
        if sum(p.traced == traced for p in passes) >= MIN_PASSES and time.perf_counter() >= until:
            return


def pass_time(passes: list[Pass]) -> float:
    """Each call's median time over the passes, summed: a call slowed by the
    host in one pass does not move the sum, whichever pass it fell in."""
    return sum(statistics.median(times)
               for times in zip(*([r.seconds for r in p.records] for p in passes)))


def layer_metrics(tracer, traced: list[Pass], flags: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics (median time, exact counts) over the traced passes,
    and the full per-span table of the first traced pass for the report."""
    per_pass = [spanlib.layer_totals(tracer.spans, set(p.requests)) for p in traced]
    metrics = {}
    for name in TRACED_METRICS:
        layer, _, field = name.rpartition(".")
        values = [totals.get(layer, {}).get(field, 0) for totals in per_pass]
        if field.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                flags.append(f"{name} differs between identical passes: {values}")
            metrics[name] = values[0]
    sampler = per_pass[0].get("graph_gen.sample_geometric", {})
    metrics["graph_gen.sample_geometric.accept_ratio"] = (
        sampler["calls"] / sampler["attempts"] if sampler.get("attempts") else 0.0)
    hook_errors = sum(t.get("hook_errors", 0) for t in per_pass[0].values())
    if hook_errors:
        flags.append(f"{hook_errors} traced calls gave no counts")
    return metrics, per_pass[0]


def machine_record() -> dict:
    import scipy

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pkg = Package()
    workload = WORKLOADS[args.workload](args.seed, args.work, pkg)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    reference.run()  # warm-up
    ref_samples: list[float] = []
    passes: list[Pass] = []
    tracer = None
    run_passes(workload.ops, ref_samples, None, False, passes,
               start + (args.seconds / 2 if args.trace else args.seconds))
    untraced_refs = len(ref_samples)
    if args.trace:
        tracer = spanlib.Tracer()
        tracer.install()
        try:
            run_passes(workload.ops, ref_samples, tracer, True, passes, start + args.seconds)
        finally:
            tracer.remove()
        tracer.write(args.work / "spans.jsonl")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    flags: list[str] = []
    first = passes[0].records
    try:
        check_fails, control = workload.check(first)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"outputs could not be checked: {type(exc).__name__}: {exc}"
        check_fails, control = {rec.key: [reason] for rec in first}, False
    first_prints = [r.fingerprint() for r in first]
    failed, messages = 0, []
    for p in passes:
        for op, rec, expected in zip(workload.ops, p.records, first_prints):
            errors = call_errors(op, rec) + check_fails.get(rec.key, [])
            if rec.fingerprint() != expected:
                errors.append("output differs from the first pass at the same seed")
            if errors:
                failed += 1
                messages += [f"{rec.key}: {e}" for e in errors]
    if not control:
        flags.append("negative control: a row with J scaled by 1+1e-6 passed the checks")

    counts = {}
    for p in passes:
        try:
            pass_counts = workload.counts(p.records)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            flags.append(f"output counts unreadable: {type(exc).__name__}: {exc}")
            break
        if counts and pass_counts != counts:
            flags.append(f"output counts differ between identical passes: {pass_counts} vs {counts}")
        counts = counts or pass_counts

    untraced = [p for p in passes if not p.traced]
    wall_s = pass_time(untraced)
    # The kernel's times from the same passes as `wall_s`.
    ref_s = statistics.median(ref_samples[:untraced_refs])
    result = {
        "attempted": sum(len(p.records) for p in passes),
        "failed": failed,
        "messages": messages[:20],
        "flags": flags,
        "control_detected": control,
        "wall_s": wall_s,
        "wall_ref": wall_s / ref_s,
        "ref_ms": ref_s * 1e3,
        "ref_samples": untraced_refs,
        "passes": len(untraced),
        "pass_seconds": [p.seconds for p in untraced],
        "latencies_ms": [r.seconds * 1e3 for p in untraced for r in p.records],
        "peak_rss_mb": peak_rss_mb,
        "counts": {name: counts.get(name, 0) for name in OUTPUT_COUNTS},
        "machine": machine_record(),
    }
    if tracer is not None:
        traced = [p for p in passes if p.traced]
        layers, table = layer_metrics(tracer, traced, flags)
        traced_wall_s = pass_time(traced)
        layers["trace.overhead_s"] = traced_wall_s - result["wall_s"]
        result.update(layers=layers, layer_table=table, traced_wall_s=traced_wall_s)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
