"""In-memory spans around bogopath's layers, and the per-layer metrics they give.

The layers are the package's modules.  ``instrument`` measures each one from
outside: for the duration of a ``with`` block it replaces module and class
attributes (the drawers and the ``draw`` closures they hand back,
``mc_columns``, ``PathFunctional.evaluate_batch``, ``Potential.__call__``,
...) with wrappers that record a span per call, and it restores them on
exit.  No file of the package changes, and the untraced code path is the
package itself.

A span is (id, parent, name, start, end, attrs).  The parent is the span
open on the calling thread; ``mc_columns`` hands its chunk workers callables
that adopt its span as their parent, so spans recorded on pool threads nest
under the pass that caused them.  Spans are kept in memory; when the run
ends they are read for the per-layer metrics and written out, one JSON
object per line, by ``write_spans``.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from bogopath import (dynamics, equilibrium, functionals, kernel, potentials,
                      quadrature, sampler, trajectories)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; appends are serialized by a lock."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields a dict for its counts."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, start, end, attrs))

    def timed(self, name: str, fn):
        """fn, recording a span named ``name`` around every call."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def adopt(self, fn):
        """fn, run as a child of the span open here, on whichever thread calls it."""
        parent = self._stack()[-1]

        def adopted(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return adopted


def write_spans(spans: list[Span], path) -> None:
    """Write the spans to ``path``, one JSON object per line, in order of ending."""
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(dataclasses.asdict(s)) + "\n")


# -- instrumentation ---------------------------------------------------------

# (owner, attribute, span name) for the calls timed as they are
_TIMED = [
    (kernel, "grid_covariance", "kernel.grid_covariance"),
    (functionals.PathFunctional, "evaluate_batch", "functionals.evaluate_batch"),
    (potentials.Potential, "__call__", "potentials.call"),
    (equilibrium, "domination_check", "equilibrium.domination_check"),
    (equilibrium, "mean_square_q", "equilibrium.mean_square_q"),
    (trajectories, "qvar_report", "trajectories.qvar_report"),
    (dynamics, "fk_solve_volterra", "dynamics.fk_solve_volterra"),
    (dynamics, "fk_reference_fd", "dynamics.fk_reference_fd"),
    (quadrature, "thm1_integrate", "quadrature.rule"),
    (quadrature, "thm2_integrate", "quadrature.rule"),
    (quadrature.ContinuousRho, "moment", "quadrature.rho_moment"),
    (quadrature.FunctionalPolynomial, "gauss_expectation", "oracle.gauss_expectation"),
]


def _drawer(tracer: Tracer, build, name: str):
    """A drawer builder whose build and every call of its draw closure are spans."""

    def traced_build(*args, **kwargs):
        with tracer.span(name):
            times, draw = build(*args, **kwargs)

        def traced_draw(rng, count):
            with tracer.span("sampler.draw") as attrs:
                attrs["rows"] = count
                return draw(rng, count)

        return times, traced_draw

    return traced_build


def _mc_columns(tracer: Tracer, mc_columns):
    """mc_columns as one span; draw and eval_fn become its children on any thread."""
    signature = inspect.signature(mc_columns)

    def traced_mc_columns(times, draw, eval_fn, *args, **kwargs):
        call = signature.bind(times, draw, eval_fn, *args, **kwargs)
        call.apply_defaults()
        # the statistic's own code belongs to the module that defined it
        owner = getattr(eval_fn, "__module__", "") or ""
        eval_name = f"{owner.rsplit('.', 1)[-1]}.eval_fn"
        with tracer.span("sampler.mc_columns") as attrs:
            result = mc_columns(times, tracer.adopt(draw),
                                tracer.adopt(tracer.timed(eval_name, eval_fn)),
                                *args, **kwargs)
            attrs.update(n_paths=call.arguments["n_paths"],
                         threads=call.arguments["threads"], n_eff=int(result[2]))
            return result

    return traced_mc_columns


@contextmanager
def instrument(tracer: Tracer):
    """Route calls into the package's layers through ``tracer`` inside the block."""
    patches = [(owner, attr, tracer.timed(name, getattr(owner, attr)))
               for owner, attr, name in _TIMED]
    patches += [
        (sampler, "finite_dim_drawer",
         _drawer(tracer, sampler.finite_dim_drawer, "sampler.finite_build")),
        (sampler, "kl_drawer", _drawer(tracer, sampler.kl_drawer, "sampler.kl_build")),
        (sampler, "mc_columns", _mc_columns(tracer, sampler.mc_columns)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

# Per-layer metric -> (unit, better).  BENCHMARK.json lists the same names,
# units and directions, and its workloads' "why" strings say which end-to-end
# metric each one moves.  Every traced run reports all of them; a layer the
# workload does not reach reads 0.
LAYER_METRICS = {
    "kernel.grid_covariance_s": ("s", "lower"),
    "sampler.finite_build_s": ("s", "lower"),
    "sampler.factorize_s": ("s", "lower"),
    "sampler.builds": ("count", "lower"),
    "sampler.kl_build_s": ("s", "lower"),
    "sampler.draw_s": ("s", "lower"),
    "sampler.draw_chunk_ms.p50": ("ms", "lower"),
    "sampler.paths_drawn": ("count", "lower"),
    "sampler.draws_per_path": ("ratio", "lower"),
    "sampler.reduce_s": ("s", "lower"),
    "sampler.bad_frac": ("ratio", "lower"),
    "sampler.parallel_eff": ("ratio", "higher"),
    "functionals.eval_s": ("s", "lower"),
    "potentials.eval_s": ("s", "lower"),
    "equilibrium.domination_s": ("s", "lower"),
    "equilibrium.mean_square_q_s": ("s", "lower"),
    "equilibrium.mc_passes": ("count", "lower"),
    "trajectories.qvar_report_s": ("s", "lower"),
    "dynamics.volterra_s": ("s", "lower"),
    "dynamics.cn_s": ("s", "lower"),
    "quadrature.rules_s": ("s", "lower"),
    "quadrature.rho_s": ("s", "lower"),
    "oracle.gauss_expectation_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that the children's union covers."""
    total, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class SpanTree:
    """The spans under one root span, with their children and self times."""

    def __init__(self, spans: list[Span], root: int):
        self.kids: dict[int | None, list[Span]] = {}
        for s in spans:
            self.kids.setdefault(s.parent, []).append(s)
        self.spans: list[Span] = []
        self.ancestors: dict[int, list[str]] = {}
        todo: list[tuple[int, list[str]]] = [(root, [])]
        while todo:
            sid, names = todo.pop()
            for s in self.kids.get(sid, []):
                self.spans.append(s)
                self.ancestors[s.id] = names
                todo.append((s.id, names + [s.name]))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_time(self, name: str) -> float:
        return sum(s.duration - _covered(s, self.kids.get(s.id, [])) for s in self.named(name))


def rep_metrics(t: SpanTree, paths_per_rep: int) -> dict[str, float]:
    """Per-layer numbers of the one repetition under the tree's root."""
    draws = t.named("sampler.draw")
    passes = t.named("sampler.mc_columns")
    paths_drawn = sum(s.attrs["rows"] for s in draws)
    attempted = sum(s.attrs["n_paths"] for s in passes)
    busy = sum(c.duration for s in passes for c in t.kids.get(s.id, []))
    capacity = sum(s.attrs["threads"] * s.duration for s in passes)
    return {
        "kernel.grid_covariance_s": t.total("kernel.grid_covariance"),
        "sampler.finite_build_s": t.total("sampler.finite_build"),
        "sampler.factorize_s": t.self_time("sampler.finite_build"),
        "sampler.builds": len(t.named("sampler.finite_build")) + len(t.named("sampler.kl_build")),
        "sampler.kl_build_s": t.total("sampler.kl_build"),
        "sampler.draw_s": t.total("sampler.draw"),
        "sampler.paths_drawn": paths_drawn,
        "sampler.draws_per_path": paths_drawn / paths_per_rep if paths_per_rep else 0.0,
        "sampler.reduce_s": t.self_time("sampler.mc_columns"),
        "sampler.bad_frac": (sum(s.attrs["n_paths"] - s.attrs["n_eff"] for s in passes)
                             / attempted if attempted else 0.0),
        "sampler.parallel_eff": busy / capacity if capacity else 0.0,
        "functionals.eval_s": t.self_time("functionals.evaluate_batch"),
        "potentials.eval_s": t.self_time("potentials.call"),
        "equilibrium.domination_s": t.total("equilibrium.domination_check"),
        "equilibrium.mean_square_q_s": t.total("equilibrium.mean_square_q"),
        "equilibrium.mc_passes": sum(
            any(n.startswith("equilibrium.") for n in t.ancestors[s.id]) for s in passes),
        "trajectories.qvar_report_s": t.total("trajectories.qvar_report"),
        "dynamics.volterra_s": t.total("dynamics.fk_solve_volterra"),
        "dynamics.cn_s": t.total("dynamics.fk_reference_fd"),
        "quadrature.rules_s": t.self_time("quadrature.rule"),
        "quadrature.rho_s": t.total("quadrature.rho_moment"),
        "oracle.gauss_expectation_s": t.total("oracle.gauss_expectation"),
    }


def layer_metrics(spans: list[Span], roots: list[int], paths_per_rep: int,
                  overhead_frac: float) -> dict[str, float]:
    """Medians over the traced repetitions; the draw-chunk median pools all chunks."""
    trees = [SpanTree(spans, r) for r in roots]
    per_rep = [rep_metrics(t, paths_per_rep) for t in trees]
    out = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    chunk_ms = [1e3 * s.duration for t in trees for s in t.named("sampler.draw")]
    out["sampler.draw_chunk_ms.p50"] = statistics.median(chunk_ms) if chunk_ms else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
