"""In-memory span tracer that times tmcat's layers from outside the package.

The package carries no tracing of its own.  ``installed`` rebinds every
public function (and every public method of a public class) of the layer
modules to a wrapper that records one span per call, in each place callers
look the name up: the defining module, ``tmcat``, ``tmcat.cli`` and the
other layer modules that imported it.  Work counts are taken at the same
boundaries.  A span is a list

    [id, parent_id, job, layer, name, start, end, error, work]

with ``time.perf_counter`` stamps, which on Linux share one clock across
processes, so spans recorded in a child process nest under the parent's.
This module imports nothing heavy: the traced cli launcher loads it before
it starts timing ``import tmcat``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types

LAYERS = ("setup", "cli", "states", "wigner", "propagation", "virtual_lab",
          "applications", "fileio")
MODULE_LAYERS = LAYERS[1:]
# Called once per CSV cell by write_csv, in its own layer: a span per call
# would add millions of spans and move no time between layers.
UNTRACED = frozenset({"format_number"})
ID, PARENT, JOB, LAYER, NAME, START, END, ERROR, WORK = range(9)


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self, job: int = 0):
        self.spans: list[list] = []
        self.job = job
        self._stack: list[list] = []

    def open(self, layer: str, name: str, start: float | None = None) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), parent, self.job, layer, name,
                time.perf_counter() if start is None else start, None, False, 0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list, error: bool = False, end: float | None = None) -> None:
        span[END] = time.perf_counter() if end is None else end
        span[ERROR] = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def adopt(self, child_spans: list[list]) -> None:
        """Append spans recorded by a child process under the open span."""
        parent = self._stack[-1]
        offset = len(self.spans)
        for s in child_spans:
            s = list(s)
            s[ID] += offset
            s[PARENT] = parent[ID] if s[PARENT] is None else s[PARENT] + offset
            s[JOB] = parent[JOB]
            self.spans.append(s)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(values) -> int:
    return getattr(values, "size", None) or len(values)


def _file_bytes(args, kwargs, result):
    return os.stat(_arg(args, kwargs, 0, "path")).st_size


# Work done by one call, taken from its arguments or result after the span
# closes: cells evaluated, protocol rounds, sensor pixels, kernel
# multiply-accumulates (computed as N_out * N_in), bytes written.
WORK_COUNTERS = {
    "wigner_of_state": lambda a, k, r: _size(_arg(a, k, 1, "x")) * _size(_arg(a, k, 2, "p")),
    "psk_link_simulate": lambda a, k, r: r.rounds,
    "qkd_simulate": lambda a, k, r: r.rounds,
    "render_ccd": lambda a, k, r: r.config.nx * r.config.ny,
    "propagate_kernel": lambda a, k, r: _size(_arg(a, k, 1, "x_in")) * _size(_arg(a, k, 2, "x_out")),
    "write_csv": _file_bytes,
    "write_json": _file_bytes,
    "write_pgm": _file_bytes,
}


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    counter = WORK_COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span, error=True)
            raise
        tracer.close(span)
        if counter is not None:
            span[WORK] = counter(args, kwargs, result)
        return result

    return traced


def _public_functions(namespace: dict, module_name: str):
    for name, obj in list(namespace.items()):
        if (not name.startswith("_") and name not in UNTRACED
                and isinstance(obj, types.FunctionType) and obj.__module__ == module_name):
            yield name, obj


class installed:
    """Context manager: trace every layer of the imported tmcat package."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self):
        modules = {layer: sys.modules[f"tmcat.{layer}"] for layer in MODULE_LAYERS
                   if f"tmcat.{layer}" in sys.modules}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(vars(module), module.__name__):
                wrappers[id(fn)] = _wrap(self.tracer, layer, name, fn)
            for cls_name, cls in list(vars(module).items()):
                if cls_name.startswith("_") or not isinstance(cls, type) \
                        or cls.__module__ != module.__name__:
                    continue
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_"):
                        continue
                    label = f"{cls_name}.{name}"
                    if isinstance(attr, types.FunctionType):
                        self._set(cls, name, _wrap(self.tracer, layer, label, attr))
                    elif isinstance(attr, classmethod):
                        self._set(cls, name, classmethod(
                            _wrap(self.tracer, layer, label, attr.__func__)))
        for module in [sys.modules["tmcat"], *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    self._set(module, name, wrappers[id(obj)])
        return self.tracer

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    covered: dict[int, float] = {}
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] = covered.get(s[PARENT], 0.0) + s[END] - s[START]
    return {s[ID]: s[END] - s[START] - covered.get(s[ID], 0.0) for s in spans}


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer figures per traced pass; spans outside LAYERS are glue."""
    own = self_times(spans)
    out = {f"{layer}.{key}": 0.0 for layer in LAYERS for key in ("self_s", "errors")}
    layer_calls: dict[str, int] = {}
    calls: dict[str, int] = {}
    work: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    for s in spans:
        if s[LAYER] in LAYERS:
            out[f"{s[LAYER]}.self_s"] += own[s[ID]]
            out[f"{s[LAYER]}.errors"] += s[ERROR]
        layer_calls[s[LAYER]] = layer_calls.get(s[LAYER], 0) + 1
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        work[s[NAME]] = work.get(s[NAME], 0) + s[WORK]
        inclusive[s[NAME]] = inclusive.get(s[NAME], 0.0) + s[END] - s[START]

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    fits = ("fit_gaussian_profile", "estimate_relative_phase")
    protocols = ("psk_link_simulate", "qkd_simulate")
    writes = ("write_csv", "write_json", "write_pgm")
    out.update({
        "states.calls": layer_calls.get("states", 0),
        "wigner.maps": calls.get("wigner_map", 0),
        "wigner.evals": calls.get("wigner_of_state", 0),
        "wigner.evals_per_map": _rate(calls.get("wigner_of_state", 0), calls.get("wigner_map", 0)),
        "wigner.cells_per_s": _rate(work.get("wigner_of_state", 0), inclusive.get("wigner_of_state", 0.0)),
        "applications.rounds": total(work, *protocols),
        "applications.rounds_per_s": _rate(total(work, *protocols), total(inclusive, *protocols)),
        "virtual_lab.render_mpix_per_s": _rate(work.get("render_ccd", 0) / 1e6, inclusive.get("render_ccd", 0.0)),
        "virtual_lab.fit_s": total(inclusive, *fits),
        "virtual_lab.fits": total(calls, *fits),
        "propagation.kernel_macs": work.get("propagate_kernel", 0),
        "propagation.kernel_gmac_per_s": _rate(work.get("propagate_kernel", 0) / 1e9, inclusive.get("propagate_kernel", 0.0)),
        "fileio.bytes_written": total(work, *writes),
        "fileio.files": total(calls, *writes),
    })
    out["fileio.mb_per_s"] = _rate(out["fileio.bytes_written"] / 1e6, out["fileio.self_s"])
    # Rates stay per traced run; totals and times are reported per pass.
    per_pass = [k for k in out if not k.endswith(("_per_s", "_per_map"))]
    for key in per_pass:
        out[key] /= passes
    return out
