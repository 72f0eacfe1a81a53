"""Span tracing of the package's public functions, installed from outside it.

A `Tracer` wraps each traced function and records one span per call: name,
start, end, parent span and request id, plus exact counts read from the
call's arguments and result.  Several package modules import functions by
name (`from .lqcost import lq_cost_exact`), so wrapping only the defining
module would miss those calls: `install` replaces the function in every
`lqconsensus` module namespace that holds it, and `remove` puts the
originals back.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


def _bound(func, args, kwargs) -> dict:
    return inspect.signature(func).bind(*args, **kwargs).arguments


def _exact_counts(func, args, kwargs, result):
    arguments = _bound(func, args, kwargs)
    return {"n": arguments["P"].n,
            "stein_residual": getattr(result, "stein_residual", None)}


def _truncated_counts(func, args, kwargs, result):
    return {"steps": getattr(result, "steps_used", None)}


def _monte_carlo_counts(func, args, kwargs, result):
    arguments = _bound(func, args, kwargs)
    return {"trial_steps": arguments["trials"] * arguments["horizon"]}


def _sampler_counts(func, args, kwargs, result):
    return {"attempts": result.audit["attempts"]}


# (module, function, span name, count hook).  `_solve_invariant` is the body
# of the cached `ConsensusMatrix.invariant`, so its span is the first access.
TARGETS = (
    ("lqconsensus.experiments_cli", "main", "experiments_cli.main", None),
    ("lqconsensus.stochastic_core", "validate_consensus",
     "stochastic_core.validate_consensus", None),
    ("lqconsensus.stochastic_core", "classify", "stochastic_core.classify", None),
    ("lqconsensus.stochastic_core", "_solve_invariant",
     "stochastic_core.invariant", None),
    ("lqconsensus.resistance", "conductance_matrix",
     "resistance.conductance_matrix", None),
    ("lqconsensus.resistance", "effective_resistance",
     "resistance.effective_resistance", None),
    ("lqconsensus.lqcost", "lq_cost_exact", "lqcost.lq_cost_exact",
     _exact_counts),
    ("lqconsensus.lqcost", "lq_cost_truncated", "lqcost.lq_cost_truncated",
     _truncated_counts),
    ("lqconsensus.lqcost", "noisy_consensus_estimate",
     "lqcost.noisy_consensus_estimate", _monte_carlo_counts),
    ("lqconsensus.lqcost", "green_matrix", "lqcost.green_matrix", None),
    ("lqconsensus.lqcost", "trace_pair", "lqcost.trace_pair", None),
    ("lqconsensus.bounds", "theorem_resistance_bounds",
     "bounds.theorem_resistance_bounds", None),
    ("lqconsensus.bounds", "theorem_topology_bounds",
     "bounds.theorem_topology_bounds", None),
    ("lqconsensus.bounds", "corollary_normal_bounds",
     "bounds.corollary_normal_bounds", None),
    ("lqconsensus.bounds", "resistance_sandwich_check",
     "bounds.resistance_sandwich_check", None),
    ("lqconsensus.bounds", "reversiblization_support",
     "bounds.reversiblization_support", None),
    ("lqconsensus.graph_gen", "cayley_case1", "graph_gen.cayley_case1", None),
    ("lqconsensus.graph_gen", "sample_geometric", "graph_gen.sample_geometric",
     _sampler_counts),
    ("lqconsensus.graph_gen", "gamma_check", "graph_gen.gamma_check", None),
    ("lqconsensus.graph_gen", "rho_check", "graph_gen.rho_check", None),
)


class Tracer:
    """Records spans as [name, start, end, parent, request, counts] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, func, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span[5] = hook(func, args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    # The counts are the benchmark's; a changed signature or
                    # result type must not fail the program's call.
                    span[5] = {"hook_errors": 1}
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "lqconsensus" or key.startswith("lqconsensus.")]
        for module_name, attr, name, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def remove(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_totals(spans, requests) -> dict:
    """Per span name: calls, total_s, self_s and summed counts, over the spans
    whose request id is in `requests`.  Self time is the span's duration
    minus the durations of its direct children; the work is single-threaded,
    so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    totals: dict[str, dict] = {}
    for index, (name, start, end, _, request, counts) in enumerate(spans):
        if request not in requests:
            continue
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        for key, value in (counts or {}).items():
            if value is None:
                continue
            if key == "stein_residual":
                entry["stein_residual_max"] = max(entry.get("stein_residual_max", 0.0), value)
            elif key == "n":
                entry["calls_n_le_60"] = entry.get("calls_n_le_60", 0) + (value <= 60)
            else:
                entry[key] = entry.get(key, 0) + value
    return totals
