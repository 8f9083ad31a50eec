"""Span recording around the public functions of each polarot layer.

`Tracer.install` wraps every module binding of the layers' public
functions (the names in each module's __all__, plus cli.main), so calls
made through `from .measure import simulate_counts` in sweeps or cli are
recorded too. One span per call: function, start, end, parent span and the
op it belongs to. Spans stay in memory until `save` writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from array import array

import numpy as np

LAYERS = ("states", "channels", "measure", "tomography", "metrology",
          "config", "sweeps", "cli")


def _path_arg(args, kwargs, position):
    path = kwargs.get("path", args[position] if len(args) > position else None)
    return os.fspath(path)


def _count_mle(tracer, args, kwargs, result):
    tracer.counters["tomography.mle.iters"] += result.n_iter
    tracer.counters["tomography.mle.converged"] += bool(result.converged)


def _count_trials(tracer, args, kwargs, result):
    trials = kwargs.get("trials", args[1] if len(args) > 1 else None)
    tracer.counters["metrology.trials"] += trials * len(result)


def _bytes_written(position):
    def count(tracer, args, kwargs, result):
        tracer.counters["io.bytes_written"] += os.path.getsize(
            _path_arg(args, kwargs, position))
    return count


# counters taken from the arguments and results of a traced call
COUNTERS = {
    "tomography.mle_reconstruct": _count_mle,
    "metrology.variance_scaling": _count_trials,
    "measure.write_table": _bytes_written(1),
    "sweeps.write_sweep": _bytes_written(1),
    "tomography.write_tomo_counts": _bytes_written(0),
    "states.save_state": _bytes_written(0),
}


def traced_functions() -> dict:
    """{"<layer>.<name>": function} for every public function of each layer."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"polarot.{layer}")
        names = ["main"] if layer == "cli" else module.__all__
        for name in names:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[f"{layer}.{name}"] = fn
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.func = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_wall = array("d")
        self.counters: dict[str, float] = {
            "tomography.mle.iters": 0, "tomography.mle.converged": 0,
            "metrology.trials": 0, "io.bytes_written": 0}
        self.current_op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, qualname, fn):
        fid = len(self.names)
        self.names.append(qualname)
        start, end, func, parent, op = self.start, self.end, self.func, self.parent, self.op
        stack = self._stack
        clock = time.perf_counter
        after = COUNTERS.get(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            func.append(fid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            stack.append(idx)
            start.append(0.0)
            end.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of the traced functions in the polarot
        modules with a recording wrapper."""
        targets = {id(fn): (name, fn) for name, fn in traced_functions().items()}
        wrappers = {}
        modules = [importlib.import_module("polarot")] + [
            importlib.import_module(f"polarot.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(*hit)
                setattr(module, attr, wrappers[id(value)])
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def save(self, path, meta: dict) -> None:
        """Write the spans, the harness-measured wall time of every traced
        op, the counters and `meta` to a compressed .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            func=np.frombuffer(self.func, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            op_wall=np.frombuffer(self.op_wall, dtype=np.float64),
            meta=np.array(json.dumps({**meta, "counters": self.counters})))
