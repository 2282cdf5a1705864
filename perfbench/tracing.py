"""Spans around calls into ppmplan's public functions, from outside the package.

Wrappers replace a function at every place a ``ppmplan`` module binds it (the
defining module, modules that imported it by name, and the package
re-exports), or replace a method on its class. Nothing under ``src/`` knows
about them. A target whose module or attribute no longer exists is listed in
``Tracer.missing`` (span name -> target) and the metrics built from it are
left out, never reported as 0.

Spans are kept in memory as ``Span`` records with a parent id; a span's self
time is its duration minus the durations of its child spans (the process is
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _serve_attrs(span, prov, args, result, before):
    span.name = f"provisioning.serve.{prov.architecture}"
    new = len(prov.result().lightpaths) - before
    span.attrs.update(accepted=bool(result), lightpaths=new,
                      groomed=bool(result) and new == 0)


def _routes_attrs(span, prov, args, result, before):
    # the provisioner itself, not its id: ids of freed objects are reused
    span.attrs.update(prov=prov, topology=prov.topology.name, pair=(args[0], args[1]))


def _demands_attrs(span, args, result):
    demand_set = result[0] if isinstance(result, tuple) else result
    span.attrs["drawn"] = len(demand_set)


def _build_attrs(span, args, result):
    span.attrs.update(groups=len(result.groups), links=len(result.links))


def _solution_attrs(span, args, result):
    span.attrs.update(instance=args[0], solution=result)


# (module, attribute, span name, hook). Method hooks get (span, self, args,
# result, before) where ``before`` is the lightpath count before the call;
# function hooks get (span, args, result).
LAYER_TARGETS = (
    ("ppmplan.topology", "generate_gabriel", "topology.resolve", None),
    ("ppmplan.topology", "bundled_topology", "topology.resolve", None),
    ("ppmplan.topology", "load_topology", "topology.resolve", None),
    ("ppmplan.traffic", "find_load_at_rejection", "traffic.load_search", _demands_attrs),
    ("ppmplan.traffic", "generate_demands", "traffic.generate", _demands_attrs),
    ("ppmplan.provisioning", "Provisioner.serve", "provisioning.serve", _serve_attrs),
    ("ppmplan.provisioning", "Provisioner.routes", "provisioning.routes", _routes_attrs),
    ("ppmplan.placement", "build_cover_instance", "placement.build", _build_attrs),
    ("ppmplan.otdr", "count_otdrs", "otdr.count", None),
    ("ppmplan.exact", "linprog", "exact.lp", None),
    ("ppmplan.experiment", "run_experiment", "experiment.run", None),
)

# The solver entry points are wrapped on every run, traced or not: their
# spans give per-instance latency and the (instance, solution) pairs the
# correctness gate checks. One span per solve costs microseconds against
# solves of milliseconds.
SOLVER_TARGETS = (
    ("ppmplan.placement", "solve_greedy", "placement.greedy", _solution_attrs),
    ("ppmplan.exact", "solve_exact", "exact.solve", _solution_attrs),
)


class Tracer:
    """Installs span wrappers and collects the spans they record."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def install(self, targets) -> None:
        for module_name, attr, name, hook in targets:
            try:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    self._replace(owner, meth, self._wrap_method(original, name, hook))
                    continue
                original = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing[name] = f"{module_name}.{attr}"
                continue
            wrapper = self._wrap_function(original, name, hook)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "ppmplan":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def _replace(self, owner, key, wrapper) -> None:
        self._installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, 0.0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _wrap_function(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if name == "placement.build":
                    result.delta  # the dense matrix is part of building
            finally:
                self._close(span)
            if hook is not None:
                hook(span, args, result)
            return result
        return wrapper

    def _wrap_method(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            before = len(obj.result().lightpaths) if name == "provisioning.serve" else 0
            span = self._open(name)
            try:
                result = fn(obj, *args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(span, obj, args, result, before)
            return result
        return wrapper


def concat(first: list[Span], second: list[Span]) -> list[Span]:
    """One span list from two, keeping parent ids valid."""
    shift = len(first)
    moved = [Span(s.name, None if s.parent is None else s.parent + shift,
                  s.start, s.end, s.child_s, s.attrs) for s in second]
    return first + moved


def top_level_solves(spans: list[Span], name: str) -> list[Span]:
    """Solver spans of ``name`` not nested in an exact solve (its greedy warm start)."""
    return [s for s in spans if s.name == name
            and (s.parent is None or spans[s.parent].name != "exact.solve")]


def layer_metrics(spans: list[Span], missing=()) -> dict[str, float]:
    """Per-layer totals over ``spans``; metrics of a missing target are left out."""
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def self_s(name):
        return sum(s.self_s for s in by.get(name, ()))

    def count(name, key):
        return sum(s.attrs[key] for s in by.get(name, ()))

    greedy = by.get("placement.greedy", [])
    in_exact = [s for s in greedy
                if s.parent is not None and spans[s.parent].name == "exact.solve"]
    solves = (top_level_solves(spans, "placement.greedy")
              + top_level_solves(spans, "exact.solve"))
    routes = by.get("provisioning.routes", [])
    route_sets = {(id(s.attrs["prov"]), s.attrs["pair"]) for s in routes}
    distinct = {(s.attrs["topology"], s.attrs["pair"]) for s in routes}
    builds = by.get("placement.build", [])

    serve = {}
    for arch in ("opaque", "transparent"):
        calls = by.get(f"provisioning.serve.{arch}", [])
        serve[f"provisioning.serve_s.{arch}"] = sum(s.self_s for s in calls)
        serve[f"provisioning.serve_us.{arch}"] = (
            1e6 * sum(s.duration for s in calls) / len(calls) if calls else 0.0)
        for key in ("accepted", "lightpaths", "groomed"):
            serve[f"provisioning.{key}.{arch}"] = sum(s.attrs[key] for s in calls)
        serve[f"provisioning.rejected.{arch}"] = sum(not s.attrs["accepted"] for s in calls)

    # (span names the values are built from, values)
    groups = [
        (("topology.resolve",), {"topology.resolve_s": self_s("topology.resolve")}),
        (("traffic.load_search",), {"traffic.load_search_s": self_s("traffic.load_search")}),
        (("traffic.generate",), {"traffic.generate_s": self_s("traffic.generate")}),
        (("traffic.load_search", "traffic.generate"), {
            "traffic.demands_drawn": (count("traffic.load_search", "drawn")
                                      + count("traffic.generate", "drawn"))}),
        (("provisioning.serve",), serve),
        (("provisioning.routes",), {
            "provisioning.routes_s": sum(s.duration for s in routes),
            "provisioning.route_calls": len(routes),
            "provisioning.route_sets": len(route_sets),
            "provisioning.route_reuse": len(distinct) / len(route_sets) if route_sets else 0.0,
        }),
        (("placement.build",), {
            "placement.build_s": self_s("placement.build"),
            "placement.groups": sum(s.attrs["groups"] for s in builds),
            "placement.delta_mb": max((s.attrs["groups"] * s.attrs["links"] * 8 / 1e6
                                       for s in builds), default=0.0),
        }),
        (("placement.greedy",), {
            "placement.greedy_s": self_s("placement.greedy"),
            "placement.greedy_picks": sum(len(s.attrs["solution"].selection or ())
                                          for s in greedy),
        }),
        (("exact.solve",), {"exact.solve_s": self_s("exact.solve"),
                            "exact.solves": len(by.get("exact.solve", ()))}),
        (("placement.greedy", "exact.solve"), {
            "exact.warmstart_s": sum(s.duration for s in in_exact),
            "placement.solve_s": sum(s.duration for s in solves),
        }),
        (("exact.lp",), {"exact.lp_s": self_s("exact.lp"),
                         "exact.lp_solves": len(by.get("exact.lp", ()))}),
        (("otdr.count",), {"otdr.count_s": self_s("otdr.count")}),
        (("experiment.run",), {"experiment.self_s": self_s("experiment.run")}),
    ]
    metrics = {}
    for needs, values in groups:
        if not any(name in missing for name in needs):
            metrics.update(values)
    return metrics
