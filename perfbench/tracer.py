"""Spans around the public functions of each kellylab module, and the
per-layer metrics computed from them.

The benchmark wraps functions from the outside; nothing in the package is
changed. Each wrapped call records a span (op id, span id, parent span id,
name, start, end, work count), kept in memory until the run ends. Start and
end are process CPU times, like the op times of `workloads.execute`. A span's
self time is its duration minus the durations of its direct children. The
root span of every op is `cli.main`, so `cli.self_s` is op time not covered
by any other span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict


def _calls(args, kwargs, result):
    return 1


def _n_steps(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["n_steps"]


# (module, function, work count derived from the call's arguments and result)
WRAPPED = (
    ("cli", "main", _calls),
    ("gamble", "sample_indices", lambda a, kw, r: r.size),
    ("gamble", "load_model", _calls),
    ("gamble", "dump_model", _calls),
    ("growth", "log_growth", _calls),
    ("growth", "maximize_growth", lambda a, kw, r: r.iterations),
    ("approx", "approx_solution", _calls),
    ("drawdown", "dbar_samples", lambda a, kw, r: (a[2] if len(a) > 2 else kw["indices"]).size),
    ("drawdown", "sample_path_indices", _calls),
    ("drawdown", "enumerate_dbar", lambda a, kw, r: r[0].size * _n_steps(a, kw)),
    ("drawdown", "maximize_growth_constrained", lambda a, kw, r: r.iterations),
    ("drawdown", "convexity_probe", _calls),
    ("adaptive", "run_adaptive", lambda a, kw, r: r.path.values.size - 1),
    ("ingest", "load_prices", lambda a, kw, r: r[1].rows_read),
    ("ingest", "to_returns", _calls),
)


class Tracer:
    """Records spans while an op runs inside `tracer.op(op_id)`.

    Outside that context every module binding is the original function, so
    untraced ops run the unmodified program.
    """

    def __init__(self):
        self.spans = []          # (op, span, parent, name, t0, t1, count)
        self._stack = []
        self._op = None
        self._next_span = 0
        self._bindings = []      # (module, attribute, original, wrapper)
        package = [m for name, m in sys.modules.items()
                   if name == "kellylab" or name.startswith("kellylab.")]
        for mod_name, fn_name, count in WRAPPED:
            original = getattr(importlib.import_module(f"kellylab.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, count)
            # Patch every namespace holding its own binding of the function
            # (e.g. drawdown imports sample_indices and log_growth by name).
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            done = False
            t0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = time.process_time()
                self._stack.pop()
                work = count(args, kwargs, result) if done else 0
                self.spans.append((self._op, span, parent, name, t0, t1, work))
            return result
        return wrapper

    @contextlib.contextmanager
    def op(self, op_id):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            for mod, attr, original, _ in self._bindings:
                setattr(mod, attr, original)

    def totals(self) -> dict:
        """name -> {"calls", "work", "total_s", "self_s"} over all spans."""
        child_s = defaultdict(float)
        for _, _, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "work": 0, "total_s": 0.0, "self_s": 0.0})
        for _, span, _, name, t0, t1, work in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["work"] += work
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child_s[span]
        return out


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(totals: dict, ops: int, overhead_frac: float) -> dict:
    """The per-layer metrics of BENCHMARK.json: name -> (value, unit).

    Unit costs are 0 where the workload does not reach the layer.
    """
    t = defaultdict(lambda: {"calls": 0, "work": 0, "total_s": 0.0, "self_s": 0.0}, totals)
    dbar, draw, enum = t["drawdown.dbar_samples"], t["gamble.sample_indices"], t["drawdown.enumerate_dbar"]
    opt, lg, adapt = t["growth.maximize_growth"], t["growth.log_growth"], t["adaptive.run_adaptive"]
    load = t["ingest.load_prices"]
    return {
        "drawdown.dbar_samples.calls": (dbar["calls"], "count"),
        "drawdown.dbar_samples.path_steps": (dbar["work"], "count"),
        "drawdown.dbar_samples.self_s": (dbar["self_s"], "s"),
        "drawdown.dbar_samples.ns_per_path_step": (_ratio(dbar["self_s"], dbar["work"], 1e9), "ns"),
        "gamble.sample_indices.calls": (draw["calls"], "count"),
        "gamble.sample_indices.draws": (draw["work"], "count"),
        "gamble.sample_indices.self_s": (draw["self_s"], "s"),
        "gamble.sample_indices.ns_per_draw": (_ratio(draw["self_s"], draw["work"], 1e9), "ns"),
        "drawdown.sample_path_indices.calls_per_op":
            (_ratio(t["drawdown.sample_path_indices"]["calls"], ops), "count"),
        "drawdown.constraint_evals_per_op":
            (_ratio(t["drawdown.maximize_growth_constrained"]["work"], ops), "count"),
        "drawdown.maximize_growth_constrained.self_s":
            (t["drawdown.maximize_growth_constrained"]["self_s"], "s"),
        "drawdown.enumerate_dbar.calls": (enum["calls"], "count"),
        "drawdown.enumerate_dbar.sequence_steps": (enum["work"], "count"),
        "drawdown.enumerate_dbar.self_s": (enum["self_s"], "s"),
        "drawdown.enumerate_dbar.ns_per_sequence_step":
            (_ratio(enum["self_s"], enum["work"], 1e9), "ns"),
        "drawdown.convexity_probe.self_s": (t["drawdown.convexity_probe"]["self_s"], "s"),
        "growth.maximize_growth.calls": (opt["calls"], "count"),
        "growth.maximize_growth.iterations": (opt["work"], "count"),
        "growth.maximize_growth.self_s": (opt["self_s"], "s"),
        # Inclusive time: an iteration's log_growth calls are part of its cost.
        "growth.maximize_growth.us_per_iteration":
            (_ratio(opt["total_s"], opt["work"], 1e6), "us"),
        "growth.log_growth.calls": (lg["calls"], "count"),
        "growth.log_growth.us_per_call": (_ratio(lg["self_s"], lg["calls"], 1e6), "us"),
        "approx.approx_solution.calls": (t["approx.approx_solution"]["calls"], "count"),
        "approx.approx_solution.self_s": (t["approx.approx_solution"]["self_s"], "s"),
        "adaptive.run_adaptive.steps": (adapt["work"], "count"),
        "adaptive.run_adaptive.ns_per_step": (_ratio(adapt["self_s"], adapt["work"], 1e9), "ns"),
        "ingest.load_prices.rows": (load["work"], "count"),
        "ingest.load_prices.us_per_row": (_ratio(load["self_s"], load["work"], 1e6), "us"),
        "ingest.to_returns.self_s": (t["ingest.to_returns"]["self_s"], "s"),
        "gamble.load_model.self_s": (t["gamble.load_model"]["self_s"], "s"),
        "gamble.dump_model.self_s": (t["gamble.dump_model"]["self_s"], "s"),
        "cli.self_s": (t["cli.main"]["self_s"], "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
