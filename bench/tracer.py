"""Outside-in tracer: spans around every public function of each package layer.

The tracer wraps each layer's public functions from outside the package.
Every ``stabledp.*`` module attribute bound to a wrapped function is rebound
to the wrapper, so ``from .model import gradient`` in ``optimizer`` and
function-local imports are caught, and the wrapping follows a function when
its import moves. Spans (name, start, end, parent) stay in memory; the
per-layer metrics, self times included, are computed from them when a pass
ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "stabledp"
LAYERS = ("model", "optimizer", "stability", "privacy", "features", "data_io",
          "verify", "cli")

# An oracle is a verify function or the DP histogram test; a solve inside
# one is a neighbour solve.
ORACLE_SPANS = ("privacy.dp_micro_check",)

_X_PASSES = {"model.gradient": 2, "model.smooth_objective": 1}
_ROW_FUNCTIONS = ("model.per_example_loss", "model.per_example_grad")

# Per-layer metrics: name -> (unit, the spans it is computed from, the
# workloads on which those spans are predicted absent, the end-to-end
# metric and workloads it should move). A metric whose spans are missing on
# a workload not named as absent fails the run.
METRICS = {
    "optimizer.solve_erm.calls": ("count", "optimizer.solve_erm", (), "wall_s: figures, scaled_ovr"),
    "optimizer.solve_erm.busy_s": ("s", "optimizer.solve_erm", (), "wall_s: figures, scaled_ovr, oracles"),
    "optimizer.solve_erm.self_s": ("s", "optimizer.solve_erm", (), "wall_s: figures (curvature estimate and loop overhead)"),
    "optimizer.solve_erm.iters": ("count", "optimizer.solve_erm", (), "wall_s: scaled_ovr, figures"),
    "optimizer.solve_erm.iters_max": ("count", "optimizer.solve_erm", (), "wall_s: scaled_ovr, figures"),
    "optimizer.solve_erm.failures": ("count", "optimizer.solve_erm", (), "correct: all workloads"),
    "optimizer.solve_erm.evals_per_iter": ("evals/iter", "optimizer.solve_erm", (), "wall_s: scaled_ovr, figures (backtracking waste)"),
    "optimizer.sgd_run.calls": ("count", "optimizer.sgd_run", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "optimizer.sgd_run.busy_s": ("s", "optimizer.sgd_run", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "optimizer.sgd_run.self_s": ("s", "optimizer.sgd_run", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "optimizer.sgd_run.steps": ("count", "optimizer.sgd_run", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "optimizer.sgd_run.us_per_step": ("us", "optimizer.sgd_run", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "model.gradient.calls": ("count", "model.gradient", (), "wall_s: scaled_ovr, figures"),
    "model.gradient.busy_s": ("s", "model.gradient", (), "wall_s: scaled_ovr, figures"),
    "model.smooth_objective.calls": ("count", "model.smooth_objective", (), "wall_s: scaled_ovr, figures"),
    "model.smooth_objective.busy_s": ("s", "model.smooth_objective", (), "wall_s: scaled_ovr, figures"),
    "model.x_bytes_computed": ("bytes", "model.gradient", (), "wall_s: scaled_ovr"),
    "model.per_example_loss.calls": ("count", "model.per_example_loss", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "model.per_example_loss.busy_s": ("s", "model.per_example_loss", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "privacy.laplace_sample.calls": ("count", "privacy.laplace_sample", (), "wall_s: oracles"),
    "privacy.laplace_sample.draws": ("count", "privacy.laplace_sample", (), "wall_s: oracles"),
    "privacy.laplace_sample.busy_s": ("s", "privacy.laplace_sample", (), "wall_s: oracles"),
    "privacy.dp_micro_check.busy_s": ("s", "privacy.dp_micro_check", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "features.busy_s": ("s", "features", ("scaled_ovr",), "wall_s: figures"),
    "features.flip_probability.calls": ("count", "features.flip_probability", ("scaled_ovr",), "wall_s: figures"),
    "data_io.busy_s": ("s", "data_io", (), "wall_s, peak_rss_mb: scaled_ovr"),
    "data_io.preprocess.busy_s": ("s", "data_io.preprocess", ("oracles",), "wall_s, peak_rss_mb: scaled_ovr"),
    "stability.calls": ("count", "stability", (), "none: expected negligible everywhere"),
    "stability.busy_s": ("s", "stability", (), "none: expected negligible everywhere"),
    "verify.empirical_sensitivity.busy_s": ("s", "verify.empirical_sensitivity", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "verify.empirical_stability.busy_s": ("s", "verify.empirical_stability", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "verify.empirical_sgd_stability.busy_s": ("s", "verify.empirical_sgd_stability", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "verify.neighbour_solves": ("count", "verify", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "verify.solver_failures": ("count", "verify", ("figures", "scaled_ovr"), "correct: oracles"),
    "cli.cmd_sweep.busy_s": ("s", "cli.cmd_sweep", ("oracles",), "wall_s: figures"),
    "cli.cmd_select.busy_s": ("s", "cli.cmd_select", ("oracles", "scaled_ovr"), "wall_s: figures"),
    "cli.cmd_verify.busy_s": ("s", "cli.cmd_verify", ("figures", "scaled_ovr"), "wall_s: oracles"),
    "cli.self_s": ("s", "cli", (), "wall_s: figures (grid loop and CSV writing)"),
    "trace.spans": ("count", None, (), "none: size of the trace"),
}

# Metrics that count work rather than time it; they must repeat exactly
# between passes on the same inputs.
COUNT_METRICS = tuple(name for name, (unit, *_rest) in METRICS.items()
                      if unit in ("count", "bytes", "evals/iter"))

# Times of spans predicted absent on some workload read 0.0 on every run
# there. They are printed in every traced report but kept out of the result
# JSON, whose time metrics must never read the same on every run; their
# call and work counts stand in for them.
REPORT_ONLY = tuple(name for name, (unit, _source, absent_on, _moves) in METRICS.items()
                    if unit in ("s", "us") and absent_on)

# Traced wall time minus untraced wall time; computed by the runner.
OVERHEAD_METRIC = ("trace.overhead_s", "s")


class MissingSpans(RuntimeError):
    """A named layer metric got no spans where the benchmark expects some."""


def public_functions(module) -> dict:
    """Public functions defined in ``module``: its ``__all__``, else every
    non-underscore function whose home is that module."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {n: getattr(module, n) for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__}


class Tracer:
    """Wraps the layer functions of ``stabledp`` and records spans.

    Spans live in typed arrays, one slot per span, so recording allocates
    no Python objects the garbage collector would have to walk.
    """

    def __init__(self):
        self.names: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_failed = array("b")
        # the one quantity a span's function is noted for: iterations,
        # X bytes, draws, steps or oracle solver failures (see _NOTES)
        self.span_value = array("d")
        self.stack: list = []
        self.originals: list = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname, fn in public_functions(module).items():
                targets[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self.originals.append((module, attr, value))
                    setattr(module, attr, hit[1])
        missing = [name for name, (_, source, *_r) in METRICS.items()
                   if source is not None and not any(
                       n == source or n.startswith(source + ".") for n in self.names)]
        if missing:
            raise MissingSpans(f"no public function to trace for {missing}")

    def uninstall(self) -> None:
        for module, attr, value in reversed(self.originals):
            setattr(module, attr, value)
        self.originals.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        note = _NOTES.get(name)
        stack = self.stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        span_failed, span_value = self.span_failed, self.span_value
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_failed.append(0)
            span_value.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span_end[idx] = clock()
                stack.pop()
                span_failed[idx] = 1
                if note is not None:
                    span_value[idx] = note(args, kwargs, None, exc)
                raise
            span_end[idx] = clock()
            stack.pop()
            if note is not None:
                span_value[idx] = note(args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- metrics ----------------------------------------------------------

    def metrics(self, workload: str) -> dict:
        """Per-layer metrics of everything recorded so far."""
        n = len(self.span_name)
        name_of = [self.names[i] for i in self.span_name]
        layer_of = [s.split(".", 1)[0] for s in name_of]
        parent, value, failed = self.span_parent, self.span_value, self.span_failed
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]

        calls: dict = {}
        busy: dict = {}
        self_s: dict = {}
        values: dict = {}
        failures: dict = {}
        layer_busy: dict = {}
        layer_calls: dict = {}
        layer_self: dict = {}
        for i in range(n):
            nm, ly = name_of[i], layer_of[i]
            calls[nm] = calls.get(nm, 0) + 1
            busy[nm] = busy.get(nm, 0.0) + dur[i]
            self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child[i]
            values.setdefault(nm, []).append(value[i])
            failures[nm] = failures.get(nm, 0) + failed[i]
            layer_calls[ly] = layer_calls.get(ly, 0) + 1
            layer_self[ly] = layer_self.get(ly, 0.0) + dur[i] - child[i]
            p = parent[i]
            if p < 0 or layer_of[p] != ly:  # outermost span of its layer
                layer_busy[ly] = layer_busy.get(ly, 0.0) + dur[i]

        solve, sgd = "optimizer.solve_erm", "optimizer.sgd_run"
        iters = sum(values.get(solve, ()))
        evals = sum(1 for i in range(n)
                    if parent[i] >= 0 and name_of[parent[i]] == solve
                    and name_of[i] in ("model.gradient", "model.smooth_objective"))
        steps = sum(values.get(sgd, ()))
        neighbour = sum(1 for i in range(n)
                        if name_of[i] == solve and parent[i] >= 0
                        and (layer_of[parent[i]] == "verify"
                             or name_of[parent[i]] in ORACLE_SPANS))
        x_bytes = sum(sum(values.get(name, ())) for name in (*_X_PASSES, *_ROW_FUNCTIONS))
        solver_failures = sum(sum(values.get(name, ())) for name in _ORACLE_FUNCTIONS)

        out = {
            "optimizer.solve_erm.calls": calls.get(solve, 0),
            "optimizer.solve_erm.busy_s": busy.get(solve, 0.0),
            "optimizer.solve_erm.self_s": self_s.get(solve, 0.0),
            "optimizer.solve_erm.iters": int(iters),
            "optimizer.solve_erm.iters_max": int(max(values.get(solve, ()), default=0)),
            "optimizer.solve_erm.failures": failures.get(solve, 0),
            "optimizer.solve_erm.evals_per_iter": evals / iters if iters else 0.0,
            "optimizer.sgd_run.calls": calls.get(sgd, 0),
            "optimizer.sgd_run.busy_s": busy.get(sgd, 0.0),
            "optimizer.sgd_run.self_s": self_s.get(sgd, 0.0),
            "optimizer.sgd_run.steps": int(steps),
            "optimizer.sgd_run.us_per_step": 1e6 * busy.get(sgd, 0.0) / steps if steps else 0.0,
            "model.gradient.calls": calls.get("model.gradient", 0),
            "model.gradient.busy_s": busy.get("model.gradient", 0.0),
            "model.smooth_objective.calls": calls.get("model.smooth_objective", 0),
            "model.smooth_objective.busy_s": busy.get("model.smooth_objective", 0.0),
            "model.x_bytes_computed": int(x_bytes),
            "model.per_example_loss.calls": calls.get("model.per_example_loss", 0),
            "model.per_example_loss.busy_s": busy.get("model.per_example_loss", 0.0),
            "privacy.laplace_sample.calls": calls.get("privacy.laplace_sample", 0),
            "privacy.laplace_sample.draws": int(sum(values.get("privacy.laplace_sample", ()))),
            "privacy.laplace_sample.busy_s": busy.get("privacy.laplace_sample", 0.0),
            "privacy.dp_micro_check.busy_s": busy.get("privacy.dp_micro_check", 0.0),
            "features.busy_s": layer_busy.get("features", 0.0),
            "features.flip_probability.calls": calls.get("features.flip_probability", 0),
            "data_io.busy_s": layer_busy.get("data_io", 0.0),
            "data_io.preprocess.busy_s": busy.get("data_io.preprocess", 0.0),
            "stability.calls": layer_calls.get("stability", 0),
            "stability.busy_s": layer_busy.get("stability", 0.0),
            "verify.empirical_sensitivity.busy_s": busy.get("verify.empirical_sensitivity", 0.0),
            "verify.empirical_stability.busy_s": busy.get("verify.empirical_stability", 0.0),
            "verify.empirical_sgd_stability.busy_s":
                busy.get("verify.empirical_sgd_stability", 0.0),
            "verify.neighbour_solves": neighbour,
            "verify.solver_failures": int(solver_failures),
            "cli.cmd_sweep.busy_s": busy.get("cli.cmd_sweep", 0.0),
            "cli.cmd_select.busy_s": busy.get("cli.cmd_select", 0.0),
            "cli.cmd_verify.busy_s": busy.get("cli.cmd_verify", 0.0),
            "cli.self_s": layer_self.get("cli", 0.0),
            "trace.spans": n,
        }
        if set(out) != set(METRICS):
            raise RuntimeError(f"metric table mismatch: {sorted(set(out) ^ set(METRICS))}")
        self._check_spans(workload, calls, layer_calls)
        return out

    def _check_spans(self, workload: str, calls: dict, layer_calls: dict) -> None:
        """Raise when a metric has no spans on a workload it is not predicted absent from."""
        empty = []
        for name, (_, source, absent_on, _moves) in METRICS.items():
            if source is None or workload in absent_on:
                continue
            count = layer_calls.get(source, 0) if "." not in source else calls.get(source, 0)
            if count == 0:
                empty.append(name)
        if empty:
            raise MissingSpans(f"{workload}: no spans for {', '.join(empty)}")


def _solve_note(args, kwargs, result, exc):
    report = result if exc is None else getattr(exc, "report", None)
    return getattr(report, "iterations_used", 0)


def _sgd_note(args, kwargs, result, exc):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    return cfg.steps_T


def _laplace_note(args, kwargs, result, exc):
    return kwargs["count"] if "count" in kwargs else args[1]


def _x_note(passes):
    def note(args, kwargs, result, exc):
        S = kwargs["S"] if "S" in kwargs else args[2]
        return passes * S.features.nbytes
    return note


def _row_note(args, kwargs, result, exc):
    x = kwargs["x"] if "x" in kwargs else args[2]
    return getattr(x, "nbytes", 0)


def _oracle_note(args, kwargs, result, exc):
    details = getattr(result, "details", None) or {}
    return details.get("solver_failures") or 0


_ORACLE_FUNCTIONS = ("verify.empirical_sensitivity", "verify.empirical_stability")

_NOTES = {
    "optimizer.solve_erm": _solve_note,
    "optimizer.sgd_run": _sgd_note,
    "privacy.laplace_sample": _laplace_note,
    **{name: _x_note(p) for name, p in _X_PASSES.items()},
    **{name: _row_note for name in _ROW_FUNCTIONS},
    **{name: _oracle_note for name in _ORACLE_FUNCTIONS},
}
