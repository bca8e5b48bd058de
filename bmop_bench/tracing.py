"""Outside-in layer tracing for the traced run.

The tracer replaces the layers' public functions at the module attributes
through which the library calls them (a function imported by name into
another module is wrapped there too), keeps a stack of open spans, and
accumulates per round: call counts, inclusive seconds and self seconds (a
span's duration minus the spans it contains).  Timed runs install nothing.
A target that no longer exists is skipped; a metric none of whose targets
exist is reported as absent instead of crashing the run.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import statistics
import sys
import time
import warnings

# every per-layer metric with its unit, in report order
PER_LAYER = [
    *[(f"specfun.k_ext.{c}.{k}", u) for c in ("int", "half", "generic")
      for k, u in (("calls", "count"), ("s", "s"))],
    ("specfun.i_ext.calls", "count"), ("specfun.i_ext.s", "s"),
    ("specfun.weight_mp.calls", "count"), ("specfun.weight_mp.self_s", "s"),
    ("mopoly.expansion.calls", "count"), ("mopoly.expansion.self_s", "s"),
    ("mopoly.escalations", "count"),
    ("mopoly.determinant.self_s", "s"),
    ("mopoly.series.self_s", "s"),
    ("mopoly.weightgrid.builds", "count"), ("mopoly.weightgrid.repeat_builds", "count"),
    ("mopoly.weightgrid.node_orders", "count"), ("mopoly.weightgrid.build_s", "s"),
    ("mopoly.grid_values.self_s", "s"),
    ("mopoly.sign_profile.self_s", "s"),
    ("lommel.shift_eval.calls", "count"), ("lommel.shift_eval.self_s", "s"),
    ("recurrence.residual.calls", "count"), ("recurrence.residual.self_s", "s"),
    ("quad.panel_nodes_mp.calls", "count"), ("quad.panel_nodes_mp.s", "s"),
    ("quad.nodes", "count"),
    ("quad.gauss_rule_mp.misses", "count"),
    ("quad.biorth_matrix.self_s", "s"),
    ("quad.moments.self_s", "s"),
    ("mellin.mb_integrate.calls", "count"), ("mellin.mb_integrate.s", "s"),
    ("mellin.contour_nodes", "count"),
    ("asymptotics.limits.self_s", "s"),
    ("rmt.sample_coupled.s", "s"), ("rmt.samples", "count"),
    ("rmt.density_compare.self_s", "s"),
    ("rmt.kernel_density_curve.self_s", "s"),
    ("rmt.kernel_integrals.self_s", "s"),
    ("rmt.kernel_eval.self_s", "s"),
    ("import.bmop_s", "s"), ("import.scipy_stats_s", "s"),
    ("trace.wall_s", "s"), ("machine.slowness", "ratio"),
]
UNITS = dict(PER_LAYER)


def order_class(order) -> str:
    v = float(order)
    if v == round(v):
        return "int"
    if 2.0 * v == round(2.0 * v):
        return "half"
    return "generic"


class ImportTimer:
    """Times `import bmop` and, inside it, the first import that loads
    scipy.stats, through a temporary builtins.__import__ hook."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.scipy_stats_s = 0.0
        self.bmop_s = 0.0

    def import_bmop(self):
        original = builtins.__import__
        timer = self

        def hook(name, globals=None, locals=None, fromlist=(), level=0):
            if "scipy.stats" in sys.modules or not name.startswith("scipy"):
                return original(name, globals, locals, fromlist, level)
            t0 = self.clock()
            try:
                return original(name, globals, locals, fromlist, level)
            finally:
                if "scipy.stats" in sys.modules:
                    timer.scipy_stats_s += self.clock() - t0

        builtins.__import__ = hook
        t0 = self.clock()
        try:
            import bmop
        finally:
            builtins.__import__ = original
        self.bmop_s = self.clock() - t0
        return bmop


class _Family:
    """One layer metric family: the spans of all its wrapped functions."""

    def __init__(self, tracer, name: str, calls=True, incl=False, self_time=False,
                 on_call=None, metrics=None):
        self.tracer, self.name = tracer, name
        self.calls, self.incl, self.self_time, self.on_call = calls, incl, self_time, on_call
        self.metrics = metrics if metrics is not None else [
            m for m, on in ((f"{name}.calls", calls), (f"{name}.s", incl),
                            (f"{name}.self_s", self_time)) if on]
        self.wrapped = 0

    def record(self, args, kwargs, result, dt, self_dt):
        acc = self.tracer.acc
        prefix = self.name
        if self.on_call is not None:
            prefix = self.on_call(acc, args, kwargs, result, dt) or prefix
        if self.calls:
            acc[f"{prefix}.calls"] += 1
        if self.incl:
            acc[f"{prefix}.s"] += dt
        if self.self_time:
            acc[f"{prefix}.self_s"] += self_dt


class Tracer:
    """clock: the seconds every span and import is timed by."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.imports = ImportTimer(clock)
        self.acc = {}
        self.rounds = []
        self.round_walls = []
        self._stack = []
        self._undo = []
        self._seen_grids = set()
        self._missing = set()
        self._gauss_misses0 = None
        self.samples = []       # the speed meter's samples, set by the runner

    # -- installation -----------------------------------------------------

    def _wrap(self, owner, attr: str, fam: _Family) -> None:
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            return
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            # a family calling itself (besselk_mp falling back to
            # mpmath.besselk, q_values calling q_values_mp) is one span
            if stack and stack[-1][0] is fam:
                return fn(*args, **kwargs)
            frame = [fam, 0.0]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                fam.record(args, kwargs, result, dt, dt - frame[1])

        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, fn))
        fam.wrapped += 1

    def _family(self, name, targets, **kw) -> _Family:
        fam = _Family(self, name, **kw)
        for owner, attr in targets:
            self._wrap(owner, attr, fam)
        if not fam.wrapped:
            self._missing.update(fam.metrics)
        return fam

    def install(self) -> None:
        import mpmath
        import bmop
        mods = {m: getattr(bmop, m, None) for m in
                ("specfun", "mopoly", "lommel", "recurrence", "quad", "mellin",
                 "asymptotics", "rmt")}
        sf, mo, lo, rc, qd, ml, asy, rm = mods.values()

        def k_class(acc, args, kwargs, result, dt):
            order = args[0] if args else kwargs.get("nu", 0.0)
            return f"specfun.k_ext.{order_class(order)}"

        self._family("specfun.k_ext", [(mpmath, "besselk"), (sf, "besselk_mp")],
                     incl=True, on_call=k_class,
                     metrics=[m for m, _ in PER_LAYER if m.startswith("specfun.k_ext.")])
        self._family("specfun.i_ext", [(mpmath, "besseli")], incl=True)
        self._family("specfun.weight_mp",
                     [(m, f) for m in (sf, mo, lo) for f in ("omega_mp", "rho_mp")],
                     self_time=True)
        self._family("mopoly.expansion",
                     [(m, f) for m in (mo, rc) for f in ("q_eval", "p_eval")], self_time=True)
        self._family("mopoly.determinant",
                     [(mo, "q_eval_determinant"), (mo, "p_eval_determinant")],
                     calls=False, self_time=True)
        self._family("mopoly.series", [(mo, "q_eval_series")], calls=False, self_time=True)
        self._install_weightgrid(getattr(mo, "WeightGrid", None))
        self._family("mopoly.sign_profile",
                     [(mo, "sign_change_profile"), (mo, "count_sign_changes")],
                     calls=False, self_time=True)
        self._family("lommel.shift_eval",
                     [(lo, "omega_shift_eval"), (lo, "rho_shift_eval")], self_time=True)
        self._family("recurrence.residual",
                     [(rc, "q_residual"), (rc, "p_residual")], self_time=True)

        def count_nodes(acc, args, kwargs, result, dt):
            acc["quad.nodes"] += len(result[0]) if result else 0

        self._family("quad.panel_nodes_mp", [(qd, "panel_nodes_mp")], incl=True,
                     on_call=count_nodes,
                     metrics=["quad.panel_nodes_mp.calls", "quad.panel_nodes_mp.s",
                              "quad.nodes"])
        self._family("quad.biorth_matrix", [(qd, "biorth_matrix")],
                     calls=False, self_time=True)
        self._family("quad.moments", [(qd, "biorth_matrix_moments"), (qd, "moment_quad")],
                     calls=False, self_time=True)
        gauss = getattr(qd, "_gauss_rule_mp", None)
        if hasattr(gauss, "cache_info"):
            self._gauss_misses0 = (gauss, gauss.cache_info().misses)
        else:
            self._missing.add("quad.gauss_rule_mp.misses")
        self._install_mellin(ml)
        self._family("asymptotics.limits",
                     [(asy, f) for f in ("q_limit_small_a", "q_limit_large_a", "p_limit_large_b",
                                         "p_at_zero", "mehler_heine_scaled_p",
                                         "mehler_heine_limit")],
                     calls=False, self_time=True)

        def count_samples(acc, args, kwargs, result, dt):
            acc["rmt.samples"] += getattr(result, "num_samples", 0)

        self._family("rmt.sample_coupled", [(rm, "sample_coupled")], calls=False, incl=True,
                     on_call=count_samples, metrics=["rmt.sample_coupled.s", "rmt.samples"])
        for name, funcs in (("density_compare", ("density_compare",)),
                            ("kernel_density_curve", ("kernel_density_curve",)),
                            ("kernel_integrals", ("kernel_trace", "kernel_trace_partials",
                                                  "kernel_first_moment")),
                            ("kernel_eval", ("kernel_eval",))):
            self._family(f"rmt.{name}", [(rm, f) for f in funcs], calls=False, self_time=True)

        # escalations announce themselves as PrecisionLossWarning
        errors = getattr(bmop, "errors", None)
        category = getattr(errors, "PrecisionLossWarning", None)
        if category is None:
            self._missing.add("mopoly.escalations")
        else:
            warnings.filterwarnings("always", category=category)
            shown = warnings.showwarning

            def showwarning(message, cat, *args, **kwargs):
                if issubclass(cat, category):
                    if "escalat" in str(message):
                        self.acc["mopoly.escalations"] += 1
                    return None
                return shown(message, cat, *args, **kwargs)

            self._undo.append((warnings, "showwarning", shown))
            warnings.showwarning = showwarning

    def _install_weightgrid(self, cls) -> None:
        init = getattr(cls, "__init__", None)
        try:
            sig = inspect.signature(init)
        except (TypeError, ValueError):
            sig = None
        seen = self._seen_grids

        def on_build(acc, args, kwargs, result, dt):
            acc["mopoly.weightgrid.builds"] += 1
            acc["mopoly.weightgrid.build_s"] += dt
            try:
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                a = b.arguments
                xs = tuple(float(x) for x in a["xs"])
                key = (a["p"], a["jmax"], a["bits"], xs)
            except (AttributeError, KeyError, TypeError):
                return None
            acc["mopoly.weightgrid.node_orders"] += len(xs) * (a["jmax"] + 1)
            if key in seen:
                acc["mopoly.weightgrid.repeat_builds"] += 1
            seen.add(key)
            return None

        self._family("mopoly.weightgrid", [(cls, "__init__")], calls=False, on_call=on_build,
                     metrics=["mopoly.weightgrid.builds", "mopoly.weightgrid.repeat_builds",
                              "mopoly.weightgrid.node_orders", "mopoly.weightgrid.build_s"])
        self._family("mopoly.grid_values",
                     [(cls, f) for f in ("q_values_mp", "p_values_mp", "q_values", "p_values")],
                     calls=False, self_time=True)

    def _install_mellin(self, ml) -> None:
        fn = getattr(ml, "mb_integrate", None)
        if not callable(fn):
            self._family("mellin.mb_integrate", [], incl=True,
                         metrics=["mellin.mb_integrate.calls", "mellin.mb_integrate.s",
                                  "mellin.contour_nodes"])
            return
        tracer = self

        @functools.wraps(fn)
        def counted(integrand, *args, **kwargs):
            def count(ts):
                tracer.acc["mellin.contour_nodes"] += getattr(ts, "size", 1)
                return integrand(ts)
            return fn(count, *args, **kwargs)

        ml.mb_integrate = counted
        self._undo.append((ml, "mb_integrate", fn))
        # the span wrapper goes over the counting shim; uninstall undoes
        # both in reverse
        self._family("mellin.mb_integrate", [(ml, "mb_integrate")], incl=True)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- per-round accounting ---------------------------------------------

    def begin_round(self) -> None:
        self.acc = dict.fromkeys(UNITS, 0)
        self._seen_grids.clear()

    def end_round(self, wall: float) -> None:
        self.rounds.append(self.acc)
        self.round_walls.append(wall)

    def metrics(self) -> tuple:
        """(metrics dict, absent metric names): per-round medians over every
        round, as for round_s, with run totals for gauss_rule_mp misses and
        the imports."""
        rounds, walls = self.rounds, self.round_walls
        out = {}
        for name, unit in PER_LAYER:
            if name in self._missing:
                continue
            if name == "quad.gauss_rule_mp.misses":
                gauss, m0 = self._gauss_misses0
                value = gauss.cache_info().misses - m0
            elif name == "import.bmop_s":
                value = self.imports.bmop_s
            elif name == "import.scipy_stats_s":
                value = self.imports.scipy_stats_s
            elif name == "trace.wall_s":
                value = statistics.median(walls)
            elif name == "machine.slowness":
                value = statistics.median(self.samples)
            else:
                value = statistics.median(r[name] for r in rounds)
            out[name] = {"value": value, "unit": unit}
        return out, sorted(self._missing)
