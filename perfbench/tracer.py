"""Layer tracing by rebinding adiametric's module attributes.

Nothing in ``src/`` is edited: :meth:`Tracer.install` replaces each traced
function with a timing wrapper in every ``adiametric`` module that holds a
reference to it, and :meth:`Tracer.uninstall` puts the originals back.

Coarse entry points (``s_matrix``, ``solve_ode``, ``cli.main``, ...) record a
span each: ``(span_id, parent_id, task, name, start, end)``, kept in memory
and written out by the caller at the end.  Functions called once per solver
stage (``flow_rhs``, schedule ``at``, the ``rhs``/``post_step`` callables of
every ``solve_ode``) are too frequent for spans and only update counters.
Every wrapper charges its duration to the innermost active wrapper, so each
name also gets a self time: its busy time minus the time its traced callees
took.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, records spans).  Names follow the module; the solver
# module ``_integrate`` is reported as ``integrate`` because metric names
# must start with a letter.
FUNCTIONS = [
    ("operator_core", "propagator", True),
    ("operator_core", "biorthogonal_decompose", True),
    ("operator_core", "hermitian_sqrt", False),
    ("_integrate", "solve_ode", True),
    ("metric_flow", "evolve_metric", True),
    ("metric_flow", "flow_rhs", False),
    ("metric_flow", "hermitian_representation", True),
    ("switching", "adiabatic_sweep", True),
    ("scattering", "s_matrix", True),
    ("scattering", "moller_minus", True),
    ("scattering", "out_dressing", True),
    ("scattering", "adiabatic_metric", True),
    ("scattering", "dynamical_phase_integrals", True),
    ("two_level", "ramp_experiment", True),
    ("moyal", "cubic_linear_switch_evolve", True),
    ("moyal", "moyal_product", True),
    ("cli", "main", True),
    ("config", "load_config", True),
    ("ioutil", "dump_json", True),
    ("ioutil", "write_csv", True),
]
SCHEDULE_CLASSES = ["Constant", "ExponentialSwitch", "LinearRamp", "SmoothSwitch"]

SOLVE = "integrate.solve_ode"
RHS = SOLVE + ".rhs"
POST_STEP = SOLVE + ".post_step"
FLOW_RHS = "metric_flow.flow_rhs"
S_MATRIX = "scattering.s_matrix"


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.active = 0


class _CountingStream:
    """Write-through stream proxy that counts the characters written."""

    def __init__(self, stream):
        self._stream = stream
        self.count = 0

    def write(self, text):
        self.count += len(text)
        return self._stream.write(text)


class Tracer:
    """Counters and spans for the traced layer entry points."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.counts = Counter()
        self.spans = []
        self.enabled = False
        self.task = None
        self.solver_counts = []  # (task, nfev, naccept, nreject) per solve
        self._stack = []  # per active wrapper: [child_time, span_id]
        self._next_span = 0
        self._patches = []

    # ------------------------------------------------------------ install

    def install(self):
        """Rebind every traced function and schedule ``at`` method."""
        package = importlib.import_module("adiametric")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "adiametric" or n.startswith("adiametric."))]
        for module_name, attr, span in FUNCTIONS:
            module = importlib.import_module(f"adiametric.{module_name}")
            original = getattr(module, attr)
            name = f"{module_name.lstrip('_')}.{attr}"
            if name == SOLVE:
                wrapper = self._wrap_solver(original)
            elif name.startswith("ioutil."):
                wrapper = self._wrap_writer(original)
            else:
                wrapper = self._wrap(name, original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for cls_name in SCHEDULE_CLASSES:
            cls = getattr(package.switching, cls_name)
            original = cls.__dict__["at"]
            self._patches.append((cls, "at", original))
            cls.at = self._wrap("switching.at", original, False)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ----------------------------------------------------------- wrappers

    def _timed(self, name, fn, args, kwargs, span):
        if not self.enabled:
            return fn(*args, **kwargs)
        stat = self.stats[name]
        stack = self._stack
        parent = stack[-1][1] if stack else None
        span_id = None
        if span:
            span_id = self._next_span
            self._next_span += 1
        frame = [0.0, span_id if span else parent]
        stack.append(frame)
        stat.active += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            stat.active -= 1
            duration = end - start
            stat.calls += 1
            if stat.active == 0:
                stat.busy += duration
            stat.self_time += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            if span:
                self.spans.append((span_id, parent, self.task, name, start, end))

    def _wrap(self, name, fn, span):
        tracer = self
        if name == FLOW_RHS:

            @functools.wraps(fn)
            def wrapper(h, theta, *args, **kwargs):
                if tracer.enabled:
                    # two complex d x d matmuls: 2 * 8 d^3 real flops
                    tracer.counts["flow_rhs_flop"] += 16 * len(theta) ** 3
                return tracer._timed(name, fn, (h, theta) + args, kwargs, span)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._timed(name, fn, args, kwargs, span)

        return wrapper

    def _wrap_solver(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(rhs, *args, post_step=None, **kwargs):
            if not tracer.enabled:
                return fn(rhs, *args, post_step=post_step, **kwargs)

            def timed_rhs(t, y):
                return tracer._timed(RHS, rhs, (t, y), {}, False)

            timed_post = None
            if post_step is not None:

                def timed_post(y):
                    return tracer._timed(POST_STEP, post_step, (y,), {}, False)

            if tracer.stats[S_MATRIX].active:
                tracer.counts["solves_in_s_matrix"] += 1
            sol = tracer._timed(
                SOLVE, fn, (timed_rhs,) + args, dict(kwargs, post_step=timed_post), True
            )
            stats = sol.stats
            for key in ("nfev", "naccept", "nreject"):
                tracer.counts[key] += stats[key]
            tracer.solver_counts.append(
                (tracer.task, stats["nfev"], stats["naccept"], stats["nreject"])
            )
            return sol

        return wrapper

    def _wrap_writer(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(stream, *args, **kwargs):
            if not tracer.enabled:
                return fn(stream, *args, **kwargs)
            counting = _CountingStream(stream)
            try:
                return tracer._timed("ioutil", fn, (counting,) + args, kwargs, True)
            finally:
                tracer.counts["bytes_out"] += counting.count

        return wrapper

    # ------------------------------------------------------------ metrics

    def metrics(self):
        """Per-layer metrics as ``{name: (value, unit)}``, in wall time."""
        stats, counts, out = self.stats, self.counts, {}

        def calls_busy(name, calls=True):
            if calls:
                out[name + ".calls"] = (stats[name].calls, "count")
            out[name + ".busy_s"] = (stats[name].busy, "s")

        def ratio(num, den):
            return num / den if den else 0.0

        # No workload reaches propagator at this commit; a busy time that
        # reads 0 on every run says nothing, the call count shows a change.
        out["operator_core.propagator.calls"] = (stats["operator_core.propagator"].calls, "count")
        for name in ("biorthogonal_decompose", "hermitian_sqrt"):
            calls_busy("operator_core." + name)

        steps = counts["naccept"] + counts["nreject"]
        calls_busy(SOLVE)
        out[SOLVE + ".rhs_s"] = (stats[RHS].busy, "s")
        out[SOLVE + ".post_step_s"] = (stats[POST_STEP].busy, "s")
        out[SOLVE + ".self_s"] = (stats[SOLVE].self_time, "s")
        for key in ("nfev", "naccept", "nreject"):
            out[f"{SOLVE}.{key}"] = (counts[key], "count")
        out[SOLVE + ".accept_ratio"] = (ratio(counts["naccept"], steps), "ratio")
        out[SOLVE + ".self_us_per_step"] = (ratio(1e6 * stats[SOLVE].self_time, steps), "us")

        calls_busy("metric_flow.evolve_metric")
        calls_busy(FLOW_RHS)
        gflop = counts["flow_rhs_flop"] / 1e9
        out[FLOW_RHS + ".gflop_computed"] = (gflop, "GFLOP")
        out[FLOW_RHS + ".gflops"] = (ratio(gflop, stats[FLOW_RHS].busy), "GFLOP/s")
        calls_busy("metric_flow.hermitian_representation")

        calls_busy("switching.at")
        calls_busy("switching.adiabatic_sweep", calls=False)

        calls_busy(S_MATRIX)
        out[S_MATRIX + ".self_s"] = (stats[S_MATRIX].self_time, "s")
        for name in ("moller_minus", "out_dressing", "adiabatic_metric",
                     "dynamical_phase_integrals"):
            calls_busy("scattering." + name, calls=False)
        out["scattering.solves_per_s_matrix"] = (
            ratio(counts["solves_in_s_matrix"], stats[S_MATRIX].calls), "count")

        calls_busy("two_level.ramp_experiment")
        calls_busy("moyal.cubic_linear_switch_evolve")
        calls_busy("moyal.moyal_product")

        calls_busy("cli.main")
        out["cli.main.self_s"] = (stats["cli.main"].self_time, "s")
        calls_busy("config.load_config", calls=False)
        out["ioutil.busy_s"] = (stats["ioutil"].busy, "s")
        out["ioutil.bytes_out"] = (counts["bytes_out"], "bytes")
        return out
