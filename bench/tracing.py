"""Spans around the public entry points of each matrixcp layer.

The tracer patches classes and module globals from outside the package, so
the package itself carries no tracing code:

- ``run`` of every propagator class (``propagators`` layer), counting the
  domain-size drop over the propagator's ``variables()`` as removals;
- ``WeightedDfa.product`` (``automata``);
- ``achievable_totals`` and the ``build_*`` measuring-automaton builders as
  ``matrixcp.model`` looks them up (``model``), and ``Store.register`` as a
  counter of posted propagators;
- ``Store.undo`` (``engine``) and ``roster_model`` (``roster``).

The benchmark adds spans of its own around ``build``, the first
``Store.propagate`` and ``search``.  Spans are kept in memory as columns
(name, start, end, parent, instance) and written out when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from contextlib import contextmanager

from matrixcp import engine, model, propagators, roster
from matrixcp.automata import WeightedDfa

PROPAGATOR_CLASSES = ("Mcr", "GccColumn", "LinearEq", "Relation", "LexLe",
                      "SumColumn", "StretchLengthWindows")
MEASURING_BUILDERS = ("build_sliding_word_counter", "build_stretch_count",
                      "build_stretch_length_bounds")
CROSS_CAP = inspect.signature(model.build).parameters["cross_cap"].default

clock = time.perf_counter


class Tracer:
    """Span recorder.  ``begin`` returns a span id that ``end`` closes;
    spans nest in call order and carry the current instance id."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.inst = array("i")
        self.start = array("d")
        self.end_ = array("d")
        self._stack = []
        self.instance = -1
        self.counts = {}  # counter name -> int, recorded where work happens

    def begin(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.inst.append(self.instance)
        self._stack.append(sid)
        self.start.append(clock())
        self.end_.append(0.0)
        return sid

    def end(self, sid):
        self.end_[sid] = clock()
        self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def inside(self, name):
        nid = self._ids.get(name)
        return nid is not None and any(self.name[s] == nid for s in self._stack)

    @contextmanager
    def span(self, name):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def totals(self):
        """Per span name: (spans, seconds).  Spans outside any solved
        instance (instance id < 0, i.e. set-up) get the prefix ``setup:``."""
        out = {}
        for sid in range(len(self.name)):
            key = self.names[self.name[sid]]
            if self.inst[sid] < 0:
                key = "setup:" + key
            n, s = out.get(key, (0, 0.0))
            out[key] = (n + 1, s + self.end_[sid] - self.start[sid])
        return out

    def child_seconds(self, parent_name, child_prefix):
        """Seconds in spans named ``child_prefix*`` whose parent span is
        named ``parent_name``."""
        total = 0.0
        names, name, parent = self.names, self.name, self.parent
        for sid in range(len(name)):
            p = parent[sid]
            if (p >= 0 and names[name[p]] == parent_name
                    and names[name[sid]].startswith(child_prefix)):
                total += self.end_[sid] - self.start[sid]
        return total

    def write(self, path):
        """Spans as gzipped CSV: instance, span id, parent id, name, start
        and end in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("instance,span,parent,name,start_s,end_s\n")
            for sid in range(len(self.name)):
                fh.write(
                    f"{self.inst[sid]},{sid},{self.parent[sid]},"
                    f"{self.names[self.name[sid]]},"
                    f"{self.start[sid] - t0:.9f},{self.end_[sid] - t0:.9f}\n"
                )


def _spanned(tracer, name, fn):
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)

    return wrapper


def _traced_run(tracer, cls, run):
    name = f"propagators.{cls.__name__}"

    def wrapper(self, store):
        vids = self.variables()
        doms = store.domains
        before = sum(len(doms[v].values) for v in vids)
        sid = tracer.begin(name)
        try:
            return run(self, store)
        finally:
            tracer.end(sid)
            removed = before - sum(len(doms[v].values) for v in vids)
            tracer.count(name + ".removals", removed)
            if removed:
                tracer.count(name + ".useful")

    return wrapper


def _traced_product(tracer, product):
    def wrapper(self, *args, **kwargs):
        sid = tracer.begin("automata.product")
        try:
            out = product(self, *args, **kwargs)
        finally:
            tracer.end(sid)
        if tracer.instance >= 0:
            tracer.count("automata.product_states", out.dfa.n_states)
            if tracer.inside("model.build") and out.dfa.n_states > CROSS_CAP:
                tracer.count("automata.cross_fallbacks")
        return out

    return wrapper


def _counted(tracer, name, fn):
    def wrapper(*args, **kwargs):
        if tracer.instance >= 0:
            tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def installed(tracer):
    """Patch the layer entry points for the duration of the block."""
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for cname in PROPAGATOR_CLASSES:
        cls = getattr(propagators, cname)
        patch(cls, "run", _traced_run(tracer, cls, cls.run))
    patch(WeightedDfa, "product", _traced_product(tracer, WeightedDfa.product))
    patch(model, "achievable_totals",
          _spanned(tracer, "model.achievable_totals", model.achievable_totals))
    for fname in MEASURING_BUILDERS:
        patch(model, fname, _spanned(tracer, "model.measuring_automata",
                                     getattr(model, fname)))
    patch(engine.Store, "register",
          _counted(tracer, "model.propagators", engine.Store.register))
    patch(engine.Store, "undo",
          _spanned(tracer, "engine.undo", engine.Store.undo))
    patch(roster, "roster_model",
          _spanned(tracer, "roster.compile", roster.roster_model))
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)
