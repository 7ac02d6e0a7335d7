"""Patching, probes and the span tracer used by the benchmark.

Nothing here edits the csplade sources. A function is wrapped by
reassigning every name it is looked up under: the module attribute, the
same object imported by name into other modules (``trainer.pool_reps``),
aliases (``corpus.load_corpus``) and module-level registries
(``evalkit.METRICS``). Methods are wrapped on their class.
"""

from __future__ import annotations

from array import array
from time import perf_counter


class Patches:
    """Replaces functions everywhere they are looked up; ``restore`` undoes it."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._saved = []

    def function(self, module, attr, make):
        old = getattr(module, attr, None)
        if old is None:
            return None
        new = make(old)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._saved.append((vars(mod), key, old))
                    setattr(mod, key, new)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is old:
                            self._saved.append((value, dkey, old))
                            value[dkey] = new
        return new

    def method(self, cls, attr, make):
        old = cls.__dict__[attr]
        self._saved.append((cls, attr, old))
        setattr(cls, attr, make(old))

    def restore(self):
        for target, key, old in reversed(self._saved):
            if isinstance(target, type):
                setattr(target, key, old)
            else:
                target[key] = old
        self._saved.clear()


class PauseClock:
    """Pauses the measured work: after every ``every``-th event it runs
    ``pause`` (a set-up sample) and keeps that time out of the intervals
    and in ``paused_s``. Ticked by a probe below, or by the workload's own
    loop."""

    pause = None
    every = 0
    paused_s = 0.0

    def tick(self, now, events):
        """Run the pause when due; return when the next interval starts."""
        if self.pause is None or events % self.every:
            return now
        self.pause()
        resumed = perf_counter()
        self.paused_s += resumed - now
        return resumed


class StepClock(PauseClock):
    """Times optimizer steps from outside: one step ends at each
    ``AdamW.step`` return and starts at the previous return, or at the
    optimizer's construction for a phase's first step."""

    def __init__(self, patches, adamw_cls):
        self.steps = []          # (phase, tag, start, end)
        self.phase = None
        self.tracer = None
        self._start = None
        self._tag = -1
        self._next_tag = 0
        clock = self

        def make_init(init):
            def __init__(self, *args, **kwargs):
                init(self, *args, **kwargs)
                clock._begin(perf_counter())
            return __init__

        def make_step(step):
            def step_and_clock(self, lr):
                out = step(self, lr)
                now = perf_counter()
                clock.steps.append((clock.phase, clock._tag, clock._start, now))
                clock._begin(clock.tick(now, len(clock.steps)))
                return out
            return step_and_clock

        patches.method(adamw_cls, "__init__", make_init)
        patches.method(adamw_cls, "step", make_step)

    def _begin(self, now):
        self._start = now
        self._tag = self._next_tag
        self._next_tag += 1
        if self.tracer is not None:
            self.tracer.tag = self._tag


class ReturnClock(PauseClock):
    """Times the calls to one function from outside: an interval ends at
    each return and starts at the previous one. ``restart`` drops the
    interval that would span the gap before the next call."""

    def __init__(self, patches, module, attr):
        self.intervals_ms = array("d")
        self.calls = 0
        self._last = None
        clock = self

        def make(fn):
            def stamped(*args, **kwargs):
                out = fn(*args, **kwargs)
                now = perf_counter()
                if clock._last is not None:
                    clock.intervals_ms.append((now - clock._last) * 1e3)
                clock.calls += 1
                clock._last = clock.tick(now, clock.calls)
                return out
            return stamped

        patches.function(module, attr, make)

    def restart(self):
        self._last = None


class Tracer:
    """Spans in flat arrays: name id, parent span, tag (step, document
    pass or query id; -1 outside the measured work), start and end."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.tags = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = -1
        self.role = "doc"         # who a pooled SparseRep belongs to
        self.counts = {}          # counters keyed by metric-like names
        self.nodes = {}           # tag -> autodiff graph nodes created
        self._stack = [-1]

    def name(self, text):
        nid = self._ids.get(text)
        if nid is None:
            nid = self._ids[text] = len(self.names)
            self.names.append(text)
        return nid

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, label, fn, after=None):
        """Span around ``fn``; ``after(args, out)`` runs outside the span."""
        nid = self.name(label)
        name_id, parent, tags = self.name_id, self.parent, self.tags
        start, end, stack = self.start, self.end, self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            tags.append(tracer.tag)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def spans(self):
        """Columns as numpy arrays (imported lazily: numpy is the program's)."""
        import numpy as np
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tags, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        import numpy as np
        np.savez(path, names=np.array(self.names), **self.spans())
