"""Outside-in tracing of muxepi's public functions.

The tracer imports each layer module, then swaps each named function for a
wrapper in every loaded `muxepi*` module namespace that holds the same object,
so calls made inside the package (`run_to_absorption` -> `mc_step`) are
recorded as well as calls from outside.
Spans stay in memory; `self_times` derives per-name call counts and self time
(span duration minus the time covered by its child spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "muxepi"


@dataclass(frozen=True)
class Target:
    """`attr` is a function name in `muxepi.<module>`, or `Class.method`."""

    layer: str
    attr: str
    metric: str  # metric stem, e.g. "graph.Graph_init"


def _trajectory(result) -> dict:
    steps = getattr(result, "steps", None)
    absorbed = bool(getattr(result, "absorbed", False))
    absorption_step = getattr(result, "absorption_step", None)
    out = {"trajectories": 1, "absorbed": int(absorbed)}
    if steps is not None and absorbed and absorption_step is not None:
        out["tail_steps"] = len(steps) - 1 - absorption_step
    return out


def _mmca_state(result) -> dict:
    step = getattr(result, "step", None)
    return {} if step is None else {"mmca_iterations": int(step)}


# Counters read from returned objects, keyed by metric stem.
OBSERVERS = {
    "dynamics.run_to_absorption": _trajectory,
    "mmca.mmca_run": _mmca_state,
}


def _targets():
    spec = {
        "graph": (
            "generate_ba",
            "generate_ws",
            "Graph.__init__",
            "Graph.adjacency",
            "read_edge_list",
            "write_edge_list",
            "betweenness",
            "clustering_coefficients",
            "degree_sequence",
        ),
        "selection": ("select_omega",),
        "dynamics": ("run_to_absorption", "mc_step", "counts", "init_states"),
        "mmca": (
            "mmca_run",
            "mmca_step",
            "mmca_rates",
            "init_mmca",
            "uau_steady_state",
            "build_h_matrix",
            "leading_eigenvalue",
            "epidemic_threshold",
        ),
        "experiments": ("heatmap_experiment", "omega_ratio_sweep", "timeseries_experiment"),
        "cli": ("main",),
    }
    stem = {"Graph.__init__": "Graph_init", "Graph.adjacency": "adjacency"}
    return tuple(
        Target(layer, attr, f"{layer}.{stem.get(attr, attr)}")
        for layer, attrs in spec.items()
        for attr in attrs
    )


TARGETS = _targets()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top


def _resolve(target: Target):
    """The object `target` names, or None if a refactor removed it."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{target.layer}")
    except ImportError:
        return None
    for part in target.attr.split("."):  # "Graph.__init__": a removed class must not give None.__init__
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


@dataclass
class Tracer:
    targets: tuple = TARGETS
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def _wrap(self, metric, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(metric)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(metric, clock(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                for key, value in observe(result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; names missing from the package go to `absent`."""
        self.absent.clear()
        originals = {target: _resolve(target) for target in self.targets}  # imports every layer first
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == PACKAGE and m]
        for target, original in originals.items():
            if original is None:
                self.absent.append(target.metric)
                continue
            wrapper = self._wrap(target.metric, original)
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                self._patch(getattr(sys.modules[f"{PACKAGE}.{target.layer}"], owner_name), attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time) = duration minus direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: dict[str, tuple[int, float]] = {}
    for span, covered in zip(spans, child_time):
        calls, total = out.get(span.name, (0, 0.0))
        out[span.name] = (calls + 1, total + (span.end - span.start) - covered)
    return out
