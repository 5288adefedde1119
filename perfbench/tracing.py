"""In-memory span tracer and the instrumentation of skygrid's public functions.

Each traced function is wrapped wherever a module of the package holds a
reference to it, so calls are caught where their callers look them up (for
example ``skygrid.pso.rrt_plan`` as well as ``skygrid.sampling.rrt_plan``).
Hot kernels are only counted: a span per call would cost more than the call.

A span is ``[name, start, end, parent, request]``; the spans of one request
share its index. A layer's self time is the sum of its spans' durations minus
the time their direct child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (defining module, attribute, span name). A dotted attribute is a method.
SPANS = [
    ("skygrid.scenario", "load_scenario", "scenario.load_scenario"),
    ("skygrid.sim", "World.__init__", "sim.World"),
    ("skygrid.sim", "World.step", "sim.step"),
    ("skygrid.sim", "World.inject_sudden_obstacle", "sim.inject_sudden_obstacle"),
    ("skygrid.output", "emit_results", "output.emit_results"),
    ("skygrid.coarse", "plan_coarse", "coarse.plan_coarse"),
    ("skygrid.coarse", "sliding_window_replan", "coarse.sliding_window_replan"),
    ("skygrid.grid", "AirspaceGrid.obstacles_in_cell", "grid.obstacles_in_cell"),
    ("skygrid.adsb", "AdsbBus.publish", "adsb.publish"),
    ("skygrid.sampling", "rrt_plan", "sampling.rrt_plan"),
    ("skygrid.sampling", "birrt_plan", "sampling.birrt_plan"),
    ("skygrid.sampling", "smooth_and_resample", "sampling.smooth_and_resample"),
    ("skygrid.geometry", "segments_intersect_cuboids", "geometry.segments_intersect_cuboids"),
    ("skygrid.geometry", "points_to_cuboids_distance", "geometry.points_to_cuboids_distance"),
    ("skygrid.pso", "build_seed_population", "pso.build_seed_population"),
    ("skygrid.pso", "optimize", "pso.optimize"),
    ("skygrid.pso", "feasibility_penalty", "pso.feasibility_penalty"),
    ("skygrid.replan", "repair", "replan.repair"),
]

COUNTS = [
    ("skygrid.sampling", "segment_free", "sampling.segment_free"),
    ("skygrid.grid", "AirspaceGrid.locate", "grid.locate"),
    ("skygrid.coarse", "select_exit_point", "coarse.select_exit_point"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1  # index of the request being traced
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.stats: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,request\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{request}\n")


def _after_hooks(tracer: Tracer):
    """Counters computed from a call's arguments and result, per span name."""

    def optimize(args, kwargs, result):
        tracer.stats["pso.optimize.iterations"] += len(result[1]) - 1

    def seeds(args, kwargs, result):
        tracer.stats["pso.build_seed_population.seeds"] += len(result)

    def sliding(args, kwargs, result):
        existing = kwargs["existing_plan"] if "existing_plan" in kwargs else args[3]
        tracer.stats["coarse.sliding_window_replan.kept"] += result.cells == existing.cells

    return {
        "pso.optimize": optimize,
        "pso.build_seed_population": seeds,
        "coarse.sliding_window_replan": sliding,
    }


def _span_wrapper(tracer: Tracer, fn, name: str, after):
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.failed[name] += 1
            raise
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, fn, name: str):
    calls = tracer.calls

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _resolve(module: str, attr: str):
    """(owner, attribute name, original) for a function or a method."""
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if path else getattr(owner, name)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every listed function in every module that refers to it; undo on exit."""
    hooks = _after_hooks(tracer)
    patched = []
    modules = [m for n, m in list(sys.modules.items()) if n == "skygrid" or n.startswith("skygrid.")]
    try:
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for module, attr, name in table:
                owner, attr_name, original = _resolve(module, attr)
                if kind == "span":
                    wrapped = _span_wrapper(tracer, original, name, hooks.get(name))
                else:
                    wrapped = _count_wrapper(tracer, original, name)
                if owner is sys.modules[module]:
                    holders = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
                else:
                    holders = [(owner, attr_name)]  # a method: callers look it up on the class
                for holder, key in holders:
                    patched.append((holder, key, original))
                    setattr(holder, key, wrapped)
        yield tracer
    finally:
        for holder, attr_name, original in reversed(patched):
            setattr(holder, attr_name, original)
