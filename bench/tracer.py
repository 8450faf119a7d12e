"""In-memory span tracer that wraps modedecomp's public functions from outside.

The library is not instrumented. While :meth:`Tracer.installed` is active,
each traced function is replaced at every module attribute that holds it:
``from .x import y`` binds a second name, so the wrapper must sit under the
name the *caller* looks up (``modedecomp.mmd.fold`` and
``modedecomp.gmd.fold`` are two names for ``modedecomp.fold_regress.fold``).

A span is ``[id, parent, name, start_ns, end_ns, count]``; ``count`` holds
the samples or bytes one call touched, where that applies. Spans are named
``<module>.<function>`` after the module that defines the function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager

import numpy as np

MODULES = ("synth", "signal_model", "fold_regress", "gmd", "mmd",
           "diagnostics", "cli")


def _array_size(index, key):
    def count(args, kwargs, result):
        return int(np.size(args[index] if len(args) > index else kwargs[key]))
    return count


def _prior_size(args, kwargs, result):
    return len(args[0] if args else kwargs["prior"])


def _path_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _report_bytes(args, kwargs, result):
    return os.path.getsize(result)  # write_report returns the path it wrote


# traced functions, with the hook that counts what one call touched
TRACED = {
    "synth.gen_example_4_1": None,
    "signal_model.eval_shape": _array_size(1, "v"),
    "signal_model.make_shape": None,
    "signal_model.signal_norm": None,
    "fold_regress.carrier": _prior_size,
    "fold_regress.demodulate": None,
    "fold_regress.unwarp_samples": None,
    "fold_regress.fold": _array_size(0, "vs"),
    "fold_regress.partition_regress": None,
    "fold_regress.center_shape": None,
    "gmd.gmd_decompose": None,
    "gmd.rdbr_sweep": None,
    "mmd.mmd_decompose": None,
    "mmd.modified_rdbr": None,
    "diagnostics.partition_counts": None,
    "diagnostics.well_diff_stats": None,
    "diagnostics.autocorrelation": None,
    "cli.main": None,
    "cli.read_signal_csv": _path_bytes,
    "cli.read_phases_csv": _path_bytes,
    "cli.write_signal_csv": _path_bytes,
    "cli.write_phases_csv": _path_bytes,
    "cli.write_shape_csv": _path_bytes,
    "cli.write_report": _report_bytes,
}


class Tracer:
    """Collects spans while installed and keeps them in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # mmd band passes seen: [useful, all]
        self.passes = [0, 0]
        self._signal_norm = 0.0

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an operation, a set-up)."""
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter_ns(), 0, 0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, count=None, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                self.spans[sid][5] = count(args, kwargs, result)
            return result
        return wrapper

    def _wrappers(self, originals: dict) -> dict:
        out = {name: self._wrap(name, fn, TRACED[name])
               for name, fn in originals.items()}

        # partition_regress reaches the sweeps as the default value of a
        # ``backend`` parameter, bound at import; hand over the traced one.
        def backend_hook(fn, extra=None):
            pos = list(inspect.signature(fn).parameters).index("backend")

            def before(args, kwargs):
                if len(args) <= pos and "backend" not in kwargs:
                    kwargs = dict(kwargs,
                                  backend=out["fold_regress.partition_regress"])
                if extra is not None:
                    extra(args, kwargs)
                return args, kwargs
            return before

        def remember_norm(args, kwargs):
            v = np.asarray((args[0] if args else kwargs["signal"]).values)
            self._signal_norm = float(np.sqrt(np.mean(v * v)))

        for name, extra in (("gmd.gmd_decompose", None),
                            ("mmd.mmd_decompose", remember_norm)):
            out[name] = self._wrap(name, originals[name], None,
                                   backend_hook(originals[name], extra))

        rdbr_sig = inspect.signature(originals["mmd.modified_rdbr"])

        def count_useful(args, kwargs, result):
            # a band pass is useful when its largest shape increment
            # exceeds eps2 times the decomposed signal's norm
            bound = rdbr_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            largest = max(shape.l2norm for shape in result[0])
            self.passes[1] += 1
            self.passes[0] += largest > bound.arguments["eps2"] * self._signal_norm
            return 0
        out["mmd.modified_rdbr"] = self._wrap(
            "mmd.modified_rdbr", originals["mmd.modified_rdbr"], count_useful)
        return out

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper, under every name."""
        package = importlib.import_module("modedecomp")
        modules = {m: importlib.import_module(f"modedecomp.{m}") for m in MODULES}
        originals = {name: getattr(modules[name.split(".")[0]], name.split(".")[1])
                     for name in TRACED}
        wrappers = self._wrappers(originals)
        by_id = {id(fn): name for name, fn in originals.items()}
        swapped = [(mod, attr, value)
                   for mod in (package, *modules.values())
                   for attr, value in vars(mod).items() if id(value) in by_id]
        for mod, attr, value in swapped:
            setattr(mod, attr, wrappers[by_id[id(value)]])
        try:
            yield self
        finally:
            for mod, attr, value in swapped:
                setattr(mod, attr, value)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans, roots) -> dict:
    """Aggregate the spans below ``roots`` per name.

    Returns ``{name: [calls, total_ns, self_ns, count]}``. Self time is a
    span's duration minus the durations of its direct children. Spans are
    ordered so that every parent precedes its children.
    """
    roots = set(roots)
    below = set(roots)
    child_ns: dict[int, int] = {}
    for sid, parent, _, start, end, _ in spans:
        if parent in below:
            below.add(sid)
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    stats: dict[str, list[int]] = {}
    for sid, parent, name, start, end, count in spans:
        if sid in below and sid not in roots:
            entry = stats.setdefault(name, [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += (end - start) - child_ns.get(sid, 0)
            entry[3] += count
    return stats
