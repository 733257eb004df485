"""Spans recorded from outside the package, by patching module attributes.

A ``Tracer`` replaces a function with a timing wrapper in every
``driftless`` module namespace that binds it, because ``from .x import f``
copies the binding and each caller looks the name up in its own module.
Methods are patched on their class.  Spans are kept in memory as
(name, start, end, parent) and summarised after the traced iteration;
nothing is written while the iteration runs.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []  # span names, indexed by span id
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []  # open span ids
        self.counters = {}
        self.results = {}  # span name -> return values, for spans that keep them
        self._undo = []

    # -- recording ------------------------------------------------------

    def _open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(sid)
        self.starts.append(_clock())
        return sid

    def _close(self, sid):
        self.ends[sid] = _clock()
        self._stack.pop()

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrapper(self, fn, name, on_call, keep):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if on_call is not None:
                on_call(self, args, kwargs, result)
            if keep:
                self.results.setdefault(name, []).append(result)
            return result

        return wrapped

    # -- patching -------------------------------------------------------

    def patch_function(self, module, attr, name, on_call=None, keep=False):
        """Wrap ``module.attr`` in every loaded driftless module that binds
        the same function object.  Returns the number of bindings patched."""
        fn = getattr(module, attr)
        wrapped = self._wrapper(fn, name, on_call, keep)
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "driftless" or mod_name.startswith("driftless.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, key, fn))
                    setattr(mod, key, wrapped)
                    patched += 1
        return patched

    def patch_method(self, cls, attr, name, on_call=None, keep=False):
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(fn, name, on_call, keep))
        return 1

    def unpatch(self):
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    # -- summary --------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        own = list(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[sid]
        return own

    def has_ancestor(self, sid, name):
        p = self.parents[sid]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def table(self):
        """Per span name: calls, total seconds and self seconds."""
        dur = self.durations()
        own = self.self_times()
        out = {}
        for sid, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur[sid]
            row["self_s"] += own[sid]
        return out

    def durations_of(self, name, under=None):
        """Durations of the spans called ``name``, optionally only those
        with an ancestor span called ``under``."""
        dur = self.durations()
        return [
            dur[sid]
            for sid, n in enumerate(self.names)
            if n == name and (under is None or self.has_ancestor(sid, under))
        ]


def wrapper_cost_s(n=20_000, batches=5):
    """Seconds a span wrapper adds to one call, measured on a no-op: the
    median over ``batches`` of ``n`` wrapped calls, less the same for bare
    calls.  Times the wrapper without an ``on_call`` hook."""

    def noop():
        return None

    wrapped = Tracer()._wrapper(noop, "noop", None, False)

    def per_call(fn):
        t0 = _clock()
        for _ in range(n):
            fn()
        return (_clock() - t0) / n

    bare = statistics.median(per_call(noop) for _ in range(batches))
    return statistics.median(per_call(wrapped) for _ in range(batches)) - bare
