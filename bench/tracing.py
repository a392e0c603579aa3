"""Spans around the public functions of each loopvertex layer.

``Tracer.install`` wraps every public, non-generator function defined in
a layer module and rebinds the wrapper wherever a loopvertex module (or
the package itself) binds the original, so calls between layers go
through the wrappers too.  Each call records one span: function, start,
end, parent span, self time (duration minus the child spans) and a few
facts about its inputs or result.  Spans stay in memory until the run
ends.  ``uninstall`` restores every binding; untraced runs never
install anything.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: modules whose public functions are wrapped; ``cli`` is left out, its
#: own work is argument parsing and JSON output around the same calls
LAYERS = (
    "fusscatalan",
    "scalarmaps",
    "contour",
    "matrixcore",
    "action",
    "partition",
    "trees",
    "bounds",
)

#: ``fc_eval_many`` calls of at most this many points count as small
SMALL_CALL_POINTS = 16
#: ``fc_eval_many`` calls of at least this many points count as batches
BATCH_CALL_POINTS = 1024

BOUND_SUITES = (
    "fc_decay_suite",
    "g_bound_suite",
    "resolvent_bound_suite",
    "corner_bound_suite",
    "contour_resolvent_suite",
    "contour_factor_suite",
    "single_vertex_scaling_suite",
)


def _arg(names, args, kwargs, name):
    i = names.index(name)
    return args[i] if i < len(args) else kwargs.get(name)


def _info_fc_eval_many(names, args, kwargs, result):
    p = _arg(names, args, kwargs, "params").p
    z = np.atleast_1d(np.asarray(_arg(names, args, kwargs, "z")))
    series = False
    if z.size <= SMALL_CALL_POINTS:
        half_radius = 0.5 * (p - 1) ** (p - 1) / p**p
        series = bool(np.all(np.abs(z) <= half_radius))
    return {"p": p, "points": int(z.size), "series": series}


def _info_map_derivatives(names, args, kwargs, result):
    return {"points": int(np.size(_arg(names, args, kwargs, "u")))}


def _info_keyhole(names, args, kwargs, result):
    return {"nodes": int(len(result.nodes))}


def _info_sample_batch(names, args, kwargs, result):
    return {"matrices": int(_arg(names, args, kwargs, "size"))}


def _info_partition(names, args, kwargs, result):
    c = _arg(names, args, kwargs, "c")
    spec = _arg(names, args, kwargs, "spec")
    method = _arg(names, args, kwargs, "method") or "quadrature"
    lam = complex(c.lam)
    if method != "quadrature":
        scheme = "mc"
    elif lam.imag != 0 or lam.real < 0:
        scheme = "rotated"
    elif spec.beta == 1 and spec.N >= 2:
        scheme = "real_ordered"
    else:
        scheme = "real_cube"
    return {"scheme": scheme, "points": int(result.n_points)}


def _info_tree(names, args, kwargs, result):
    t = _arg(names, args, kwargs, "t")
    return {"n": int(t.n),
            "samples": int(result.n_w_samples) * int(result.n_mc_samples)}


#: per-function facts recorded with each span, keyed by "layer.function"
ANNOTATORS = {
    "fusscatalan.fc_eval_many": _info_fc_eval_many,
    "action.map_derivatives": _info_map_derivatives,
    "contour.build_keyhole": _info_keyhole,
    "matrixcore.sample_gaussian_batch": _info_sample_batch,
    "partition.z_direct": _info_partition,
    "partition.z_lvr": _info_partition,
    "trees.tree_amplitude": _info_tree,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    self_s: float
    info: dict | None
    phase: str


@dataclass
class Tracer:
    """Records one ``Span`` per wrapped call; ``phase`` tags setup or rounds."""

    spans: list = field(default_factory=list)
    phase: str = "setup"
    _stack: list = field(default_factory=list)
    _bindings: list = field(default_factory=list)

    def _wrap(self, name: str, fn):
        annotate = ANNOTATORS.get(name)
        names = list(inspect.signature(fn).parameters)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[idx] = Span(name, t0, t1, parent, t1 - t0 - frame[1],
                                  None, self.phase)
            if annotate is not None:
                spans[idx].info = annotate(names, args, kwargs, result)
                if stack:
                    # keep the annotation out of the caller's self time
                    stack[-1][1] += time.perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for holder in modules:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, attr, wrapper)
                            self._bindings.append((holder, attr, fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._bindings):
            setattr(holder, attr, fn)
        self._bindings.clear()

    def dump(self) -> dict:
        names = sorted({s.name for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent", "self_s", "phase", "info"],
            "spans": [[ids[s.name], round(s.start, 7), round(s.end, 7), s.parent,
                       round(s.self_s, 7), s.phase, s.info] for s in self.spans],
        }


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s") or ".first_call_s." in metric:
        return "s"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list, rounds: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced setup and its rounds.

    Counts and times are per round; ``first_call_s`` comes from the
    setup phase; rates are totals over totals.
    """
    timed = [s for s in spans if s.phase == "round"]

    def select(name):
        return [s for s in timed if s.name == name]

    def total(spans_, key="dur"):
        if key == "dur":
            return sum(s.end - s.start for s in spans_)
        if key == "self":
            return sum(s.self_s for s in spans_)
        return sum(s.info[key] for s in spans_)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total([s for s in timed
                                      if s.name.split(".")[0] == layer], "self") / rounds

    fc = select("fusscatalan.fc_eval_many")
    m["fusscatalan.calls"] = len(fc) / rounds
    m["fusscatalan.points"] = total(fc, "points") / rounds
    batch = [s for s in fc if s.info["points"] >= BATCH_CALL_POINTS]
    m["fusscatalan.batch_points_per_s"] = _ratio(total(batch, "points"), total(batch))
    small = [s for s in fc if s.info["points"] <= SMALL_CALL_POINTS]
    cont = [s for s in small if not s.info["series"]]
    series = [s for s in small if s.info["series"]]
    m["fusscatalan.small_call_cont_us"] = 1e6 * _ratio(total(cont), len(cont))
    m["fusscatalan.small_call_series_us"] = 1e6 * _ratio(total(series), len(series))
    for p in range(2, 7):
        first = next((s for s in spans if s.phase == "setup"
                      and s.name == "fusscatalan.fc_eval_many"
                      and s.info["p"] == p), None)
        m[f"fusscatalan.first_call_s.p{p}"] = (first.end - first.start) if first else 0.0

    em = select("scalarmaps.eval_map")
    m["scalarmaps.eval_map.calls"] = len(em) / rounds
    m["scalarmaps.eval_map.self_s"] = total(em, "self") / rounds

    kh = select("contour.build_keyhole")
    m["contour.keyholes"] = len(kh) / rounds
    m["contour.nodes"] = total(kh, "nodes") / rounds

    m["matrixcore.matrices"] = (total(select("matrixcore.sample_gaussian_batch"), "matrices")
                                + len(select("matrixcore.eigh"))) / rounds

    md = select("action.map_derivatives")
    m["action.map_derivatives.points"] = total(md, "points") / rounds
    m["action.map_derivatives.self_s"] = total(md, "self") / rounds
    for fname in ("resolvent_entries", "corner_operator", "action_gradient"):
        sp = select(f"action.{fname}")
        m[f"action.{fname}.calls"] = len(sp) / rounds
        m[f"action.{fname}.self_s"] = total(sp, "self") / rounds

    zs = select("partition.z_direct") + select("partition.z_lvr")
    for scheme in ("real_cube", "real_ordered", "rotated"):
        m[f"partition.quad.{scheme}_s"] = total(
            [s for s in zs if s.info["scheme"] == scheme]) / rounds
    quad = [s for s in zs if s.info["scheme"] != "mc"]
    m["partition.quad.points"] = total(quad, "points") / rounds
    mc = [s for s in zs if s.info["scheme"] == "mc"]
    m["partition.mc.samples_per_s"] = _ratio(total(mc, "points"), total(mc))

    amps = select("trees.tree_amplitude")
    for n in (2, 3):
        sp = [s for s in amps if s.info["n"] == n]
        m[f"trees.amp{n}.samples_per_s"] = _ratio(total(sp, "samples"), total(sp))
    m["trees.single_vertex_s"] = total(select("trees.single_vertex_amplitude")) / rounds

    for suite in BOUND_SUITES:
        m[f"bounds.{suite}_s"] = total(select(f"bounds.{suite}")) / rounds
    return m
