"""Benchmark of lqconsensus: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload torus --seed 1 --seconds 20 --trace 0

Workloads (see workload.py and BENCHMARK.json for why each exists): torus,
geometric, small and analyze.  The workload runs in its own process, started
with the BLAS thread count pinned to BLAS_THREADS and the checkout's `src`
first on PYTHONPATH, so the package is imported from this checkout only.

Set-up time (`setup_s`) runs from starting a fresh interpreter until the
package is imported and the workload's inputs are written.  The workload is
set up SETUP_RUNS times, each in a fresh process, one of them before the
main process and one after it, and the median is reported.  `wall_ref` is the pass time (each call's median time over the
passes, summed) divided by the median time of a fixed reference kernel run
between the calls (see reference.py), which
cancels the drift of a shared host's speed; the pass time in seconds is
printed beside it.  With --trace 0 the last line of standard output is one JSON object
with the end-to-end metrics; with --trace 1 it carries the per-layer metrics
from the traced half of the run.  The lines before it name every metric with
its unit, the failure share, the machine and the program version.

Exits with 1, printing no result, when the workload process fails or the
checkout holds no package source.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("torus", "geometric", "small", "analyze")
# One BLAS thread: no larger than any machine's core count, the same on
# every machine, and the work is single-threaded apart from BLAS.
BLAS_THREADS = 1
SETUP_RUNS = 3
# Every process of a run must have ended by then; the limit is 180 s.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def start_workload(args, work: Path, setup_only: bool, deadline: float):
    """Start the workload process; returns (process, seconds until READY).

    The process is None when it failed or missed the deadline before READY.
    """
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    readable, _, _ = select.select([proc.stdout], [], [], max(deadline - start, 0.0))
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, time.perf_counter())
        return None, ready
    return proc, ready


def finish(proc, deadline: float) -> str:
    """Wait until the deadline for the process to end, killing it after that,
    and return the rest of its standard output if it succeeded."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return ""
    return out if proc.returncode == 0 else ""


def program_version() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over the package's source files, which names the program's
    version where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lqconsensus benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "lqconsensus" / "__init__.py").is_file():
        return fail(f"no package source under {ROOT / 'src'}")

    deadline = time.perf_counter() + DEADLINE_S
    run_dir = WORK / f"{args.workload}-{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    setups = []

    def setup_only(k: int) -> bool:
        proc, ready = start_workload(args, run_dir / f"setup{k}", True, deadline)
        if proc is None:
            return False
        finish(proc, deadline)
        shutil.rmtree(run_dir / f"setup{k}")
        setups.append(ready)
        return True

    # Half the set-up-only processes run before the main one and half after,
    # so that the median spans the run rather than one moment of the host.
    extra = SETUP_RUNS - 1
    for k in range(extra // 2):
        if not setup_only(k):
            return fail("the workload process failed during set-up")
    proc, ready = start_workload(args, run_dir / "main", False, deadline)
    if proc is None:
        return fail("the workload process failed during set-up")
    setups.append(ready)
    out = finish(proc, deadline)
    for k in range(extra // 2, extra):
        if not setup_only(k):
            return fail("the workload process failed during set-up")
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if not lines:
        return fail("the workload process ended without a result")
    res = json.loads(lines[-1][len("RESULT "):])

    machine = dict(res["machine"], program=program_version(), source_sha256=source_digest())
    print(f"machine: {json.dumps(machine)}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={res['passes']} "
          f"pass_seconds={[round(s, 4) for s in res['pass_seconds']]}")
    for message in res["messages"]:
        print(f"failure: {message}")
    for flag in res["flags"]:
        print(f"flag: {flag}")
    print(f"negative_control={'detected' if res['control_detected'] else 'MISSED'}")

    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and not res["flags"] and res["control_detected"]
    if args.trace:
        print(f"trace: untraced wall_s={res['wall_s']:.4f} s, "
              f"traced wall_s={res['traced_wall_s']:.4f} s")
        for name, entry in sorted(res["layer_table"].items(),
                                  key=lambda kv: -kv[1]["self_s"]):
            print(f"layer {name}: calls={entry['calls']} "
                  f"total_s={entry['total_s']:.4f} self_s={entry['self_s']:.4f}")
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in res["layers"].items()}
        metrics.update({name: {"value": value, "unit": unit_of(name)}
                        for name, value in res["counts"].items()})
    else:
        values = {"setup_s": statistics.median(setups), "wall_ref": res["wall_ref"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print(f"setup_runs_s={[round(s, 4) for s in setups]}")
        print(f"wall_s {res['wall_s']:.6g} s (pass time in seconds; the reference "
              f"kernel took {res['ref_ms']:.4g} ms, median of {res['ref_samples']} runs)")
        for name, value in res["counts"].items():
            print(f"{name} {value} {unit_of(name)}")
        print(f"failed_frac {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")
        if args.workload == "analyze":
            lat = res["latencies_ms"]
            p90 = percentile(lat, 90)
            print(f"analyze_ms_p50 {statistics.median(lat):.4f} ms "
                  f"(n={len(lat)} requests)")
            print(f"analyze_ms_p90 {p90:.4f} ms ({sum(x > p90 for x in lat)} requests above)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("stein_residual_max", "accept_ratio")):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
