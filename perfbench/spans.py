"""In-memory span recorder that wraps every finsq function from outside.

``install`` replaces each function defined in a ``finsq`` source file by a
timing wrapper, everywhere the package refers to it by name: module
attributes (so ``from .finsler import flag_curvature`` in ``suites`` is
caught as well as ``finsler.flag_curvature``), module-level dispatch
tables such as ``suites._SUITES``, and the methods, class methods, static
methods and property getters of classes defined in the package.  One
wrapper exists per original function, so the same function reached under
two names records under one span name.  Closures built at run time (chart
components, profile lambdas) are not module attributes and count towards
their caller's self time.

Each call appends one span (name id, parent span, start, end) to flat
arrays; nothing is aggregated while the program runs.  ``save`` writes the
arrays once at the end, and ``Spans`` reads them back for ``layers``.

The three float64 kernels record under a name that carries the size band
of the jet space they run on, because the band decides which workload a
kernel change moves.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from array import array

import numpy as np

LARGE_SPACE = 200
"""Jet-space size from which a kernel call counts as "large"."""

BANDED_KERNELS = ("finsq._kernels.mul_f", "finsq._kernels.div_f", "finsq._kernels.sqrt_f")


class Recorder:
    def __init__(self, package_dir: str):
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._wrappers: dict[int, types.FunctionType] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _owned(self, fn) -> bool:
        return (isinstance(fn, types.FunctionType)
                and os.path.realpath(fn.__code__.co_filename).startswith(self.package_dir))

    def _wrap(self, fn):
        w = self._wrappers.get(id(fn))
        if w is not None:
            return w
        name = f"{fn.__module__}.{fn.__qualname__}"
        name_id, parent, start, end = (self.name_id.append, self.parent.append,
                                       self.start, self.end)
        stack, clock = self._stack, time.perf_counter
        if name in BANDED_KERNELS:
            small, large = self._id(name + "[small]"), self._id(name + "[large]")

            def pick(args):
                return large if args[0].size >= LARGE_SPACE else small
        else:
            nid = self._id(name)

            def pick(args):
                return nid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id(pick(args))
            parent(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _wrap_class(self, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if isinstance(value, (staticmethod, classmethod)) and self._owned(value.__func__):
                setattr(cls, attr, type(value)(self._wrap(value.__func__)))
            elif isinstance(value, property) and self._owned(value.fget):
                setattr(cls, attr, value.getter(self._wrap(value.fget)))
            elif self._owned(value):
                setattr(cls, attr, self._wrap(value))

    def install(self) -> None:
        """Wrap every package function in every loaded finsq module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "finsq" or n.startswith("finsq.")) and m is not None]
        classes = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if self._owned(value):
                    setattr(mod, attr, self._wrap(value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if self._owned(v):
                            value[k] = self._wrap(v)
                elif (isinstance(value, type) and value.__module__.startswith("finsq")
                      and id(value) not in classes):
                    classes[id(value)] = value
        for cls in classes.values():
            self._wrap_class(cls)

    def save(self, path: str) -> None:
        np.savez(path,
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 names=np.array(json.dumps(self.names)))


class Spans:
    """Spans read back from a saved trace, with self times derived."""

    def __init__(self, path: str):
        with np.load(path) as z:
            self.name_id = z["name_id"]
            self.parent = z["parent"]
            self.start = z["start"]
            self.end = z["end"]
            self.names = json.loads(str(z["names"]))
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                            minlength=len(self.duration))
        self.self_time = self.duration - child

    def select(self, names) -> np.ndarray:
        """Indices of the spans recorded under any of the given names."""
        wanted = set(names)
        ids = [i for i, n in enumerate(self.names) if n in wanted]
        return np.flatnonzero(np.isin(self.name_id, ids))

    def calls(self, names) -> int:
        return int(self.select(names).size)

    def self_seconds(self, names) -> float:
        return float(self.self_time[self.select(names)].sum())

    def seconds(self, names) -> float:
        """Wall time inside any of the named functions, counting a span only
        when no enclosing span has one of the names (no double counting
        of recursion or of one named function calling another)."""
        idx = self.select(names)
        if idx.size == 0:
            return 0.0
        start, end = self.start[idx], self.end[idx]
        reach = np.maximum.accumulate(end)
        outer = np.ones(idx.size, dtype=bool)
        outer[1:] = start[1:] >= reach[:-1]
        return float((end[outer] - start[outer]).sum())
