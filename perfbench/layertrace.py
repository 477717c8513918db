"""Per-layer spans and call counts, recorded from outside the library.

``LayerTracer.install()`` replaces every public function of the ``qproj``
layer modules, and a few hot methods, with a wrapper that records a span.
A name is patched in *every* ``qproj`` namespace that holds it (``jordan_form``
is imported by classify, reversibility and decompose as well as used inside
spectral), otherwise the calls made through the missed namespace go
uncounted.  ``uninstall()`` puts the originals back, so traced and untraced
passes can alternate in one process.

Spans are aggregated in memory as they close: for each (phase, span key) the
call count, inclusive time and self time (inclusive minus the time covered by
child spans).  The benchmark sets ``phase`` before each call it makes.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("classify", "reversibility", "decompose", "spectral", "matrix",
          "quaternion", "generate")
# (module, class, attribute, span key)
METHODS = (
    ("matrix", "QMatrix3", "__matmul__", "matrix.matmul"),
    ("matrix", "QMatrix3", "adjoint", "matrix.adjoint"),
    ("quaternion", "Quaternion", "from_complex_pair", "quaternion.from_complex_pair"),
    ("quaternion", "Quaternion", "from_scalar", "quaternion.from_scalar"),
)
# keys whose individual call durations are kept for percentiles
KEEP_DURATIONS = ("spectral.jordan_form",)


def qproj_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qproj" or name.startswith("qproj."))]


def public_functions():
    """(span key, function) for every public function defined in a layer module."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"qproj.{layer}"]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                out.append((f"{layer}.{name}", obj))
    return out


class LayerTracer:
    def __init__(self):
        self.phase = "idle"
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (phase, key) -> calls, incl, self
        self.durations = {k: [] for k in KEEP_DURATIONS}
        self._stack = []
        self._saved = []  # (namespace, attribute, original)

    # -- recording ------------------------------------------------------

    def _close(self, key, frame, duration):
        rec = self.stats[(self.phase, key)]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        kept = self.durations.get(key)
        if kept is not None:
            kept.append(duration)

    @contextmanager
    def span(self, key):
        """A span opened by the benchmark itself; recorded only while installed."""
        if not self._saved:
            yield
            return
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - t0
            self._stack.pop()
            self._close(key, frame, duration)

    def _wrap(self, key, fn):
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                close(key, frame, duration)

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        replace = {id(fn): (fn, self._wrap(key, fn)) for key, fn in public_functions()}
        for ns in qproj_namespaces():
            for name, obj in list(vars(ns).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((ns, name, obj))
                    setattr(ns, name, hit[1])
        for layer, cls_name, attr, key in METHODS:
            cls = getattr(sys.modules[f"qproj.{layer}"], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(key, original.__func__))
            else:
                patched = self._wrap(key, original)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, patched)

    def uninstall(self):
        for ns, name, original in reversed(self._saved):
            setattr(ns, name, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- queries --------------------------------------------------------

    def calls(self, key, phases=None):
        return sum(rec[0] for (ph, k), rec in self.stats.items()
                   if k == key and (phases is None or ph in phases))

    def inclusive(self, key, phases=None):
        return sum(rec[1] for (ph, k), rec in self.stats.items()
                   if k == key and (phases is None or ph in phases))

    def layer_self(self, layer, phases=None):
        return sum(rec[2] for (ph, k), rec in self.stats.items()
                   if k.split(".", 1)[0] == layer and (phases is None or ph in phases))

    def table(self):
        """Rows (key, calls, inclusive s, self s) summed over phases, by self time."""
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, key), rec in self.stats.items():
            for i in range(3):
                totals[key][i] += rec[i]
        return sorted(((k, *v) for k, v in totals.items()), key=lambda r: -r[3])
