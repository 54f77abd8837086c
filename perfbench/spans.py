"""In-memory span tracer that wraps the program's functions from outside.

A span is (name, start, end, parent). Spans live in flat arrays while the
traced code runs and are written out once at the end, so tracing costs
one clock read and a few appends per call. Self time is a span's duration
minus the durations of its direct children; the traced code is single
threaded, so children nest strictly inside their parent.
"""

import importlib
import sys
import time
from array import array
from contextlib import contextmanager


class Tracer:
    """Records spans for wrapped callables, plus counts and distinct values."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self.counters = {}
        self.distinct = {}

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def see(self, key: str, value) -> None:
        """Add value to the set of distinct values observed under key."""
        self.distinct.setdefault(key, set()).add(value)

    def wrap(self, label: str, fn, observe=None):
        """Return fn wrapped in a span; observe(tracer, args, kwargs, result)."""
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        nid = self._ids[label]

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0)
            self._stack.append(index)
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = self.clock()
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each (label, module, attribute, observe) target while inside.

        A dotted attribute (``Class.method``) is wrapped on its class. A
        module-level function is replaced in every loaded ``sarcnet``
        namespace that binds it, so callers that imported it by name are
        traced too. A target the program no longer defines is skipped and
        reads as zero calls. Everything is restored on exit.
        """
        restore = []
        try:
            for label, module_name, attribute, observe in targets:
                owner = importlib.import_module(module_name)
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name, None)
                if original is None:
                    continue
                wrapped = self.wrap(label, original, observe)
                if path:
                    restore.append((owner, name, original))
                    setattr(owner, name, wrapped)
                    continue
                for module in _sarcnet_modules():
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, bound, original))
                            setattr(module, bound, wrapped)
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    def summary(self) -> dict:
        """label -> {calls, self_ms, total_ms} over every recorded span."""
        import numpy as np  # imported late: the benchmark starts its launcher first

        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=dur, minlength=width)
        own = np.bincount(names, weights=dur - child, minlength=width)
        return {label: {"calls": int(calls[i]), "self_ms": float(own[i]) / 1e6,
                        "total_ms": float(total[i]) / 1e6}
                for i, label in enumerate(self.names)}

    def write(self, path) -> None:
        """Write spans as TSV: index, parent, name, start_ns, end_ns."""
        origin = self.start[0] if self.start else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - origin}\t{self.end[i] - origin}\n")


def _sarcnet_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "sarcnet" or name.startswith("sarcnet."))]
