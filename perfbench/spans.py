"""Span tracing from outside the program, and the per-layer metrics from it.

``Tracer.install`` replaces every public function of the package's layer
modules with a timing wrapper, at every place a caller looks it up: the
module that defines it, each module that imported it by name (so
``planner.com_of_pose`` is wrapped as well as ``mass_model.com_of_pose``)
and module-level dispatch tables such as ``cli._PLANNERS`` and
``profiles.SCALAR_LAWS``.  ``uninstall`` puts the originals back.

A span records its name (``<defining module>.<function>``), start, end,
parent span and scenario id.  Spans are appended to flat arrays in memory
and written out once, at the end of the run.
"""

import importlib
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("config", "cli", "planner", "geometry", "mass_model", "profiles", "dynamics")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.scenario = array("i")
        self.current_scenario = -1
        self._stack = [-1]
        self._patches = []

    def _wrap(self, fn):
        label = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        name_id = self._name_ids.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        names, starts, ends = self.name, self.start, self.end
        parents, scenarios, stack = self.parent, self.scenario, self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            scenarios.append(tracer.current_scenario)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        modules = [importlib.import_module(f"{self.package.__name__}.{layer}") for layer in LAYERS]
        owned = {m.__name__ for m in modules}
        wrappers = {}

        def patch(container, key, obj):
            if (isinstance(obj, types.FunctionType) and obj.__module__ in owned
                    and not obj.__name__.startswith("_")):
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patches.append((container, key, obj))
                container[key] = wrappers[obj]

        for module in modules:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if attr.startswith("__"):
                    continue
                if isinstance(obj, dict):  # dispatch tables such as cli._PLANNERS
                    for key, value in list(obj.items()):
                        patch(obj, key, value)
                else:
                    patch(namespace, attr, obj)

    def uninstall(self):
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "scenario": np.frombuffer(self.scenario, dtype=np.int32),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer, n_scenarios):
    """Per-layer metrics, averaged per traced scenario, from the spans."""
    a = tracer.arrays()
    labels = tracer.names
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    parent_id = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
    per = 1.0 / n_scenarios

    def spans_of(label):
        return a["name"] == (labels.index(label) if label in labels else -1)

    def total(label, values=dur):
        return float(np.sum(values[spans_of(label)])) * per

    def calls(label, caller_prefix=""):
        mask = spans_of(label)
        if caller_prefix:
            callers = [k for k, name in enumerate(labels) if name.startswith(caller_prefix)]
            mask &= np.isin(parent_id, callers)
        return int(np.count_nonzero(mask))

    waypoints = calls("planner.solve_com_waypoint")
    iters = calls("mass_model.com_pose_jacobian", "planner.")
    trials = calls("geometry.is_feasible", "planner.solve_com_waypoint")
    m = {
        "planner.plan_com_line.s": (total("planner.plan_com_line"), "s/scenario"),
        "planner.plan_com_line.self_s": (total("planner.plan_com_line", self_time), "s/scenario"),
        "planner.solve_com_waypoint.calls": (waypoints * per, "calls/scenario"),
        "planner.solve_com_waypoint.s": (total("planner.solve_com_waypoint"), "s/scenario"),
        "planner.newton_iters": (iters * per, "iters/scenario"),
        "planner.newton_iters_per_waypoint": (iters / waypoints if waypoints else 0.0, "iters/waypoint"),
        "planner.line_search_accept_ratio": (iters / trials if trials else 0.0, "ratio"),
        "planner.plan_platform_line.s": (total("planner.plan_platform_line"), "s/scenario"),
        "planner.plan_platform_line.self_s": (total("planner.plan_platform_line", self_time), "s/scenario"),
    }
    for label in ("geometry.inverse_kinematics", "geometry.is_feasible", "mass_model.com_of_pose",
                  "mass_model.com_pose_jacobian", "mass_model.lumped_points"):
        m[f"{label}.calls"] = (calls(label) * per, "calls/scenario")
        m[f"{label}.s"] = (total(label), "s/scenario")
    m["profiles.scalar_laws.s"] = (
        total("profiles.quintic_scalar") + total("profiles.bang_bang_scalar"), "s/scenario")
    m["dynamics.shaking_force_series.s"] = (total("dynamics.shaking_force_series"), "s/scenario")
    m["dynamics.shaking_moment_series.s"] = (total("dynamics.shaking_moment_series"), "s/scenario")
    m["dynamics.shaking_moment_series.self_s"] = (
        total("dynamics.shaking_moment_series", self_time), "s/scenario")
    m["dynamics.summarize.s"] = (total("dynamics.summarize"), "s/scenario")
    m["cli.write_trajectory_csv.s"] = (total("cli.write_trajectory_csv"), "s/scenario")
    m["cli.run_scenario.self_s"] = (total("cli.run_scenario", self_time), "s/scenario")
    m["config.load_config.s"] = (total("config.load_config"), "s/scenario")
    m["config.validate_config.s"] = (total("config.validate_config"), "s/scenario")
    return m
