"""Spans around the calls into qthermo's public functions, for the traced run.

The tracer replaces a function at every module attribute of the package that
binds it, so a call made from inside the package (``liouvillian`` calling
``jump_operators``) is timed as well as a call made by the benchmark.  Spans
(name, start, end, parent, thread) stay in memory and are written out once,
when the run ends.  run.py does not import this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass

# (layer module, function) pairs the traced run times.  A pair whose function
# a later refactor removes is reported as absent instead of failing the run.
TRACED_FUNCTIONS = (
    ("linalg", "eigh"),
    ("linalg", "require_density_matrix"),
    ("davies", "jump_operators"),
    ("davies", "liouvillian"),
    ("davies", "steady_state"),
    ("davies", "evolve"),
    ("davies", "heat_currents"),
    ("chain", "chain_system"),
    ("chain", "site_populations"),
    ("chain", "classify"),
    ("chain", "population_sweep"),
    ("three_level", "three_level_system"),
    ("three_level", "thermo_diagnostics"),
    ("three_level", "mean_position_trajectory"),
    ("three_level", "finite_capacity_heating"),
    ("cli", "build_config"),
    ("cli", "run"),
    ("cli", "render"),
)

OP = "op"
ZERO_COMPONENT_ATOL = 1e-10  # liouvillian skips components no larger than this

# Per-layer metrics: name -> unit.  Every traced run reports all of them.
LAYER_METRICS = {
    "davies.liouvillian.calls": "count",
    "davies.liouvillian.self_ms": "ms",
    "davies.jump_operators.calls": "count",
    "davies.jump_operators.self_ms": "ms",
    "davies.jump_terms": "count",
    "davies.generator_mb": "MiB",
    "davies.steady_state.calls": "count",
    "davies.steady_state.ms": "ms",
    "davies.heat_currents.self_ms": "ms",
    "davies.evolve.ms": "ms",
    "davies.evolve.substeps": "count",
    "linalg.eigh.calls": "count",
    "linalg.eigh.ms": "ms",
    "linalg.require_density_matrix.calls": "count",
    "linalg.require_density_matrix.ms": "ms",
    "chain.population_sweep.ms": "ms",
    "chain.sweep_points": "count",
    "chain.pool_efficiency": "ratio",
    "chain.pool_workers": "count",
    "chain.site_populations.ms": "ms",
    "chain.classify.ms": "ms",
    "three_level.thermo_diagnostics.ms": "ms",
    "three_level.mean_position_trajectory.ms": "ms",
    "three_level.finite_capacity_heating.ms": "ms",
    "cli.build_config.ms": "ms",
    "cli.render.ms": "ms",
    "cli.csv_bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    count: float = 0.0  # a per-call counter recorded at this boundary

    @property
    def duration(self) -> float:
        return self.end - self.start


def _jump_terms(args, kwargs, result) -> float:
    # components liouvillian sums into the generator: nonzero rate and an
    # operator above its zero-component threshold
    return float(sum(
        1
        for bath_terms in result.terms
        for term in bath_terms
        if term.rate != 0.0 and float(abs(term.operator).max()) > ZERO_COMPONENT_ATOL
    ))


def _generator_mib(args, kwargs, result) -> float:
    return 16.0 * float(result.dim) ** 4 / 2**20


def _substeps(args, kwargs, result) -> float:
    liouv, t_grid = args[0], args[2]
    dt = args[3] if len(args) > 3 else kwargs.get("dt")
    step = liouv.default_dt if dt is None else dt
    if not math.isfinite(step):
        return float(len(t_grid) - 1)
    return float(sum(
        max(1, math.ceil((b - a) / step)) for a, b in zip(t_grid[:-1], t_grid[1:])
    ))


def _csv_bytes(args, kwargs, result) -> float:
    return float(len(result.encode()))


def _points(args, kwargs, result) -> float:
    return float(len(result))


# counters computed from a call's arguments and result, outside its span
COUNTERS = {
    "davies.liouvillian": _generator_mib,
    "davies.evolve": _substeps,
    "cli.render": _csv_bytes,
    "chain.population_sweep": _points,
}


class Tracer:
    """Records spans while ``active``; calls made outside an operation (the
    correctness checks) pass straight through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # list.append and next() on a counter are single calls into C and
            # are atomic under the interpreter lock, so pool threads share them
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(span_id, name, start, end, parent[0] if parent else None,
                        threading.get_ident())
            tracer.spans.append(span)
            if counter is not None:
                span.count = tracer._count(name, counter, args, kwargs, result)
            if name == "davies.jump_operators" and parent and parent[1] == "davies.liouvillian":
                # counting walks every term; time it as a child of the
                # generator's span so its self time leaves the count out
                count_start = time.perf_counter()
                terms = tracer._count("davies.jump_terms", _jump_terms, args, kwargs, result)
                tracer.spans.append(Span(next(tracer._ids), "trace.jump_terms", count_start,
                                         time.perf_counter(), parent[0],
                                         threading.get_ident(), terms))
            return result

        return traced

    def _count(self, name: str, counter, args, kwargs, result) -> float:
        try:
            return counter(args, kwargs, result)
        except (AttributeError, IndexError, TypeError) as exc:
            # a refactor changed the signature or result this counter reads;
            # report it rather than stop the run
            note = f"counter {name}: {type(exc).__name__}: {exc}"
            if note not in self.absent:
                self.absent.append(note)
            return 0.0

    def install(self) -> None:
        """Wrap every function of TRACED_FUNCTIONS at each binding in the package."""
        for module, function in TRACED_FUNCTIONS:
            home = sys.modules.get(f"qthermo.{module}")
            original = getattr(home, function, None)
            if original is None:
                self.absent.append(f"{module}.{function}")
                continue
            replace_bindings(original, self.wrap(f"{module}.{function}", original))

    def op(self):
        return _OpSpan(self)


class _OpSpan:
    """Root span of one benchmark operation in the calling thread."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        tracer = self.tracer
        self.span_id = next(tracer._ids)
        tracer._stack().append((self.span_id, OP))
        tracer.active = True
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer.active = False
        tracer._stack().pop()
        tracer.spans.append(Span(self.span_id, OP, self.start, end, None, threading.get_ident()))
        return False


def replace_bindings(original, replacement) -> None:
    """Point every qthermo module attribute bound to ``original`` at ``replacement``."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "qthermo" or name.startswith("qthermo."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _self_times(spans: list[Span]) -> dict[int, float]:
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return {s.span_id: s.duration - child_time.get(s.span_id, 0.0) for s in spans}


def op_layer_values(op: Span, spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation from the spans inside its window."""
    inside = [s for s in spans if s is not op and op.start <= s.start and s.end <= op.end]
    self_time = _self_times(inside)
    by_name: dict[str, list[Span]] = {}
    for span in inside:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return float(len(by_name.get(name, ())))

    def ms(name):
        return 1e3 * sum(s.duration for s in by_name.get(name, ()))

    def self_ms(name):
        return 1e3 * sum(self_time[s.span_id] for s in by_name.get(name, ()))

    def counted(name):
        return float(sum(s.count for s in by_name.get(name, ())))

    def largest(name):
        return max((s.count for s in by_name.get(name, ())), default=0.0)

    busy = capacity = 0.0
    workers = 0
    for sweep in by_name.get("chain.population_sweep", ()):
        # worker spans: roots in other threads, or direct children when the
        # sweep runs in the calling thread
        work = [s for s in inside
                if sweep.start <= s.start and s.end <= sweep.end
                and ((s.thread != sweep.thread and s.parent is None) or s.parent == sweep.span_id)]
        threads = {s.thread for s in work}
        busy += sum(s.duration for s in work)
        capacity += sweep.duration * max(1, len(threads))
        workers = max(workers, len(threads))

    top = [s for s in inside if s.parent == op.span_id]
    return {
        "davies.liouvillian.calls": calls("davies.liouvillian"),
        "davies.liouvillian.self_ms": self_ms("davies.liouvillian"),
        "davies.jump_operators.calls": calls("davies.jump_operators"),
        "davies.jump_operators.self_ms": self_ms("davies.jump_operators"),
        "davies.jump_terms": counted("trace.jump_terms"),
        "davies.generator_mb": largest("davies.liouvillian"),
        "davies.steady_state.calls": calls("davies.steady_state"),
        "davies.steady_state.ms": ms("davies.steady_state"),
        "davies.heat_currents.self_ms": self_ms("davies.heat_currents"),
        "davies.evolve.ms": ms("davies.evolve"),
        "davies.evolve.substeps": counted("davies.evolve"),
        "linalg.eigh.calls": calls("linalg.eigh"),
        "linalg.eigh.ms": ms("linalg.eigh"),
        "linalg.require_density_matrix.calls": calls("linalg.require_density_matrix"),
        "linalg.require_density_matrix.ms": ms("linalg.require_density_matrix"),
        "chain.population_sweep.ms": ms("chain.population_sweep"),
        "chain.sweep_points": counted("chain.population_sweep"),
        "chain.pool_efficiency": busy / capacity if capacity > 0 else 0.0,
        "chain.pool_workers": float(workers),
        "chain.site_populations.ms": ms("chain.site_populations"),
        "chain.classify.ms": ms("chain.classify"),
        "three_level.thermo_diagnostics.ms": ms("three_level.thermo_diagnostics"),
        "three_level.mean_position_trajectory.ms": ms("three_level.mean_position_trajectory"),
        "three_level.finite_capacity_heating.ms": ms("three_level.finite_capacity_heating"),
        "cli.build_config.ms": ms("cli.build_config"),
        "cli.render.ms": ms("cli.render"),
        "cli.csv_bytes": counted("cli.render"),
        "trace.coverage": sum(s.duration for s in top) / op.duration,
    }


def layer_summary(tracer: Tracer, overhead: float) -> dict[str, float]:
    """Median over the traced operations of every per-layer metric."""
    ops = [s for s in tracer.spans if s.name == OP]
    per_op = [op_layer_values(op, tracer.spans) for op in ops]
    summary = {name: statistics.median(values[name] for values in per_op)
               for name in LAYER_METRICS if name != "trace.overhead"}
    summary["trace.overhead"] = overhead
    return summary


def write_spans(tracer: Tracer, path) -> None:
    """One JSON object per line: id, name, start and end (s), parent, thread, count."""
    with open(path, "w", encoding="utf-8") as handle:
        for s in tracer.spans:
            handle.write(json.dumps([s.span_id, s.name, s.start, s.end, s.parent, s.thread,
                                     s.count]) + "\n")
