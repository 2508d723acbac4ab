"""Per-layer spans around ``fracvar``'s functions, recorded from outside.

``Tracer.install`` wraps every public function a layer module defines, plus
the few entry points listed in ``EXTRA_TARGETS``.  A function is replaced
by identity in every loaded ``fracvar`` namespace, not only where it is
defined, because callers bind names with ``from .energy import
raw_energy`` and the package re-exports them.  Modules are looked up in
``sys.modules``: the attribute ``fracvar.capacity`` is the re-exported
function, not the module.

Each call opens a span on the calling thread's own stack.  Its self time is
its duration minus the durations of the spans it directly encloses on the
same thread, so the worker threads of ``runtime.ordered_map`` keep their
own stacks and a pool's waiting shows as the runtime layer's self time on
the main thread.

Functions are grouped into operations (``GROUPS``); a group's call count
skips calls made from inside another call of the same group, so a wrapper
that delegates to a sibling counts once.  A group whose functions no longer
exist is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import statistics
import sys
import threading
import time
from dataclasses import fields, is_dataclass

LAYERS = ("grid", "energy", "rearrange", "capacity", "eigen", "checks",
          "runtime", "io", "cli")

GROUPS = {
    "grid.build": ("grid", ("build_kernel_table",)),
    "energy.eval": ("energy", ("raw_energy", "seminorm_p")),
    "energy.grad": ("energy", ("raw_gateaux_vector", "gateaux_vector", "gateaux")),
    "capacity.solve": ("capacity", ("capacity",)),
    "capacity.sweep": ("capacity", ("hardy_norm_estimate", "concentration_at",
                                    "concentration_at_infinity",
                                    "compactness_diagnostic", "capacity_ball_scaling")),
    "eigen.solve": ("eigen", ("first_eigenpair", "second_eigenpair",
                              "eigen_sequence", "simplicity_probe")),
    "eigen.oracle": ("eigen", ("linear_oracle",)),
    "checks.suite": ("checks", ("run_suite",)),
    "checks.check": ("checks", ("_run_one",)),
    "runtime.map": ("runtime", ("ordered_map",)),
    "io.write": ("io", ("write_grid_function", "write_step_function",
                        "write_series", "write_result_json", "emit_plot")),
    "cli.load": ("cli", ("RunConfig.load",)),
    "cli.dispatch": ("cli", ("dispatch",)),
}

# entry points the wrapping of public module-level functions does not reach:
# the suite's per-check runner is private, the config loader a static method
EXTRA_TARGETS = (("checks", "_run_one"), ("cli", "RunConfig.load"))

MB = 1024.0 * 1024.0


class _Frame:
    __slots__ = ("group", "layer", "child", "cpu")

    def __init__(self, group: str, layer: str):
        self.group = group
        self.layer = layer
        self.child = 0.0


class Tracer:
    """Collects spans while installed; ``metrics`` turns them into numbers."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._restore: list = []
        self.present: set = set()           # groups with at least one function found
        self.check_names: tuple = ()
        self.calls: dict = {}
        self.self_s: dict = {}
        self.layer_self: dict = {}
        self.layer_self_main: dict = {}
        self.capacity_ms: list = []
        self.capacity_iterations = 0
        self.eigen_levels = 0
        self.eigen_iterations = 0
        self.evals_under = {"capacity.solve": 0, "eigen.solve": 0}
        self.check_s: dict = {}
        self.serial_warmup_s = 0.0
        self._suite_start = None
        self.kernel_mb = 0.0
        self.rss_growth_mb = 0.0
        self._builds_active = 0
        self._build_rss0 = 0.0
        self.map_workers = 0
        self.map_wall_s = 0.0
        self.map_idle_s = 0.0
        self.map_cpu_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fracvar.{layer}")
            groups = {name: group for group, (lay, names) in GROUPS.items()
                      if lay == layer for name in names}
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or (layer, name) in EXTRA_TARGETS)):
                    group = groups.get(name, layer)
                    wrappers[id(obj)] = (obj, self._wrap(obj, group, layer))
                    self.present.add(group)
            for _lay, dotted in EXTRA_TARGETS:
                if _lay == layer and "." in dotted:
                    self._wrap_static(mod, dotted, groups[dotted], layer)
        checks = sys.modules["fracvar.checks"]
        self.check_names = tuple(getattr(checks, "CHECK_NAMES", ()))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "fracvar" or modname.startswith("fracvar.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def _wrap_static(self, mod, dotted: str, group: str, layer: str) -> None:
        cls_name, attr = dotted.split(".")
        cls = getattr(mod, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if not isinstance(raw, staticmethod):
            return
        setattr(cls, attr, staticmethod(self._wrap(raw.__func__, group, layer)))
        self._restore.append((cls, attr, raw))
        self.present.add(group)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _wrap(self, func, group: str, layer: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            return tracer._call(func, group, layer, args, kwargs)

        return traced

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, func, group, layer, args, kwargs):
        stack = self._stack()
        outer = not any(fr.group == group for fr in stack)
        frame = _Frame(group, layer)
        items_s = None
        if group == "energy.eval" and outer:
            for solve in ("capacity.solve", "eigen.solve"):
                if any(fr.group == solve for fr in stack):
                    with self._lock:
                        self.evals_under[solve] += 1
        elif group == "runtime.map":
            if self._suite_start is not None and stack and stack[-1].group == "checks.suite":
                self.serial_warmup_s = time.perf_counter() - self._suite_start
                self._suite_start = None
            args, kwargs, items_s = self._time_items(args, kwargs)
            frame.cpu = time.process_time()
        elif group == "grid.build":
            with self._lock:
                if self._builds_active == 0:
                    self._build_rss0 = _maxrss_mb()
                self._builds_active += 1
        stack.append(frame)
        start = time.perf_counter()
        if group == "checks.suite" and outer:
            self._suite_start = start
        result = exc = None
        try:
            result = func(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1].child += dur
            with self._lock:
                self._record(frame, dur, outer, args, kwargs, result, exc, items_s)

    def _time_items(self, args, kwargs):
        """Swap ordered_map's function for one that sums the time of each item."""
        items_s = [0.0]
        fn = args[0] if args else kwargs.get("fn")
        if fn is None:
            return args, kwargs, items_s
        lock = self._lock

        def timed(item):
            t0 = time.perf_counter()
            try:
                return fn(item)
            finally:
                dt = time.perf_counter() - t0
                with lock:
                    items_s[0] += dt

        if args:
            args = (timed,) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, fn=timed)
        return args, kwargs, items_s

    def _record(self, frame, dur, outer, args, kwargs, result, exc, items_s):
        group, layer = frame.group, frame.layer
        self_t = dur - frame.child
        self.self_s[group] = self.self_s.get(group, 0.0) + self_t
        self.layer_self[layer] = self.layer_self.get(layer, 0.0) + self_t
        if threading.get_ident() == self._main:
            self.layer_self_main[layer] = self.layer_self_main.get(layer, 0.0) + self_t
        if not outer:
            return
        self.calls[group] = self.calls.get(group, 0) + 1
        if group == "capacity.solve":
            self.capacity_ms.append(dur * 1e3)
            res = result if exc is None else getattr(exc, "result", None)
            self.capacity_iterations += int(getattr(res, "iterations", 0) or 0)
        elif group == "eigen.solve":
            res = result if exc is None else getattr(exc, "result", None)
            for r in _eigen_results(res):
                self.eigen_levels += 1
                self.eigen_iterations += int(r.iterations)
        elif group == "checks.check":
            name = args[2] if len(args) > 2 else kwargs.get("name")
            self.check_s[name] = self.check_s.get(name, 0.0) + dur
        elif group == "grid.build":
            if result is not None:
                self.kernel_mb = max(self.kernel_mb, _ndarray_mb(result))
            # peak growth while any build runs, so that concurrent builds count once
            self._builds_active -= 1
            if self._builds_active == 0:
                self.rss_growth_mb += _maxrss_mb() - self._build_rss0
        elif group == "runtime.map" and threading.get_ident() == self._main:
            # pools started inside a pool's items would count their threads twice
            items = args[1] if len(args) > 1 else kwargs.get("items", ())
            workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
            eff = workers if workers > 1 and len(items) > 1 else 1
            self.map_workers = max(self.map_workers, eff)
            self.map_wall_s += dur
            self.map_idle_s += eff * dur - items_s[0]
            self.map_cpu_s += time.process_time() - frame.cpu

    # -- metrics ------------------------------------------------------------

    def metrics(self, wall_s: float, skipped: int, bytes_written: int) -> dict:
        """Per-layer metric name -> value, or None where the traced function is gone."""
        out = {}

        def put(name, group, value):
            out[name] = value if group is None or group in self.present else None

        def per_call_us(group):
            calls = self.calls.get(group, 0)
            return self.self_s.get(group, 0.0) / calls * 1e6 if calls else 0.0

        put("grid.build.calls", "grid.build", self.calls.get("grid.build", 0))
        put("grid.build.self_s", "grid.build", self.self_s.get("grid.build", 0.0))
        put("grid.kernel_mb", "grid.build", self.kernel_mb)
        put("grid.build.rss_growth_mb", "grid.build", self.rss_growth_mb)
        for op in ("eval", "grad"):
            group = f"energy.{op}"
            put(f"{group}.calls", group, self.calls.get(group, 0))
            put(f"{group}.self_s", group, self.self_s.get(group, 0.0))
            put(f"{group}.per_call_us", group, per_call_us(group))
        caps = self.capacity_ms
        put("capacity.solve.calls", "capacity.solve", self.calls.get("capacity.solve", 0))
        put("capacity.solve.self_s", "capacity.solve", self.self_s.get("capacity.solve", 0.0))
        put("capacity.solve.p50_ms", "capacity.solve", _quantile(caps, 0.5))
        put("capacity.solve.p90_ms", "capacity.solve", _quantile(caps, 0.9))
        put("capacity.iterations", "capacity.solve", self.capacity_iterations)
        put("capacity.evals_per_iter", "capacity.solve",
            _ratio(self.evals_under["capacity.solve"], self.capacity_iterations))
        put("capacity.skipped", None, skipped)
        put("capacity.sweep.self_s", "capacity.sweep", self.self_s.get("capacity.sweep", 0.0))
        put("eigen.solve.calls", "eigen.solve", self.eigen_levels)
        put("eigen.solve.self_s", "eigen.solve", self.self_s.get("eigen.solve", 0.0))
        put("eigen.iterations", "eigen.solve", self.eigen_iterations)
        put("eigen.evals_per_iter", "eigen.solve",
            _ratio(self.evals_under["eigen.solve"], self.eigen_iterations))
        put("eigen.oracle.self_s", "eigen.oracle", self.self_s.get("eigen.oracle", 0.0))
        for name in CHECK_NAMES:
            found = "checks.check" in self.present and name in self.check_names
            out[f"checks.{name}.s"] = self.check_s.get(name, 0.0) if found else None
        put("checks.serial_warmup_s", "checks.suite", self.serial_warmup_s)
        put("rearrange.calls", "rearrange", self.calls.get("rearrange", 0))
        put("rearrange.self_s", "rearrange", self.self_s.get("rearrange", 0.0))
        put("runtime.workers", "runtime.map", self.map_workers)
        put("runtime.map.wall_s", "runtime.map", self.map_wall_s)
        put("runtime.idle_s", "runtime.map", self.map_idle_s)
        put("runtime.cpu_per_wall", "runtime.map", _ratio(self.map_cpu_s, self.map_wall_s))
        put("io.write.calls", "io.write", self.calls.get("io.write", 0))
        put("io.write.self_s", "io.write", self.self_s.get("io.write", 0.0))
        put("io.bytes_written", None, bytes_written)
        put("cli.load.self_s", "cli.load", self.self_s.get("cli.load", 0.0))
        put("cli.dispatch.self_s", "cli.dispatch", self.self_s.get("cli.dispatch", 0.0))
        for layer in LAYERS:
            out[f"share.{layer}"] = self.layer_self.get(layer, 0.0) / wall_s
        return out

    def main_thread_shares(self, wall_s: float) -> dict:
        return {layer: self.layer_self_main.get(layer, 0.0) / wall_s for layer in LAYERS}


# the suite's registered checks; each gets a per-layer metric of its own
CHECK_NAMES = ("homogeneity", "hardy_littlewood", "picone", "gateaux_fd",
               "polya_szego", "capacity_scaling", "ds_scaling", "ds_decay",
               "eigen_oracle_first", "eigen_oracle_levels", "eigen_positivity",
               "eigen_sign_change", "eigen_gap", "eigen_simplicity",
               "best_constant", "hardy_ratio", "lorentz_embedding",
               "q_scale_invariance")


def _eigen_results(res):
    if res is None:
        return []
    if hasattr(res, "iterations"):
        return [res]
    if hasattr(res, "results"):          # SimplicityReport
        return list(res.results)
    if isinstance(res, (list, tuple)):
        return [r for r in res if hasattr(r, "iterations")]
    return []


def _ndarray_mb(table) -> float:
    if not is_dataclass(table):
        return 0.0
    total = 0
    for f in fields(table):
        nbytes = getattr(getattr(table, f.name), "nbytes", None)
        if isinstance(nbytes, int):
            total += nbytes
    return total / MB


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _quantile(values: list, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def count_calls(module: str, name: str) -> tuple:
    """Count the calls of one function in every loaded ``fracvar`` namespace.

    Returns (counter, restore): ``counter[0]`` is the running count.  This is
    the untraced run's only instrumentation; it reads no clock.
    """
    orig = getattr(sys.modules[module], name, None)
    counter = [0]
    if orig is None:
        return counter, lambda: None
    lock = threading.Lock()

    @functools.wraps(orig)
    def counted(*args, **kwargs):
        with lock:
            counter[0] += 1
        return orig(*args, **kwargs)

    replaced = []
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "fracvar" or modname.startswith("fracvar.")):
            for attr, obj in list(vars(mod).items()):
                if obj is orig:
                    setattr(mod, attr, counted)
                    replaced.append((mod, attr))

    def restore():
        for mod, attr in replaced:
            setattr(mod, attr, orig)

    return counter, restore
