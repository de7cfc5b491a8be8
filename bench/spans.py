"""Spans around calls into treestab's layer modules, from outside them.

Every public function of each layer module, plus `Poset.covers` and
`Poset.is_lattice`, is replaced by a wrapper in every treestab module
that holds a reference to it; `restore` puts the originals back.  The
program's own files are not touched.

`SpanTracer` keeps one span per call (name, start, end, parent, command
id) in flat arrays, so tracing costs about a microsecond per call and
thirty bytes per span.  `AllocTracer` instead records, per layer, the
largest tracemalloc peak seen inside one call; it runs in a pass of its
own because tracemalloc slows every allocation.
"""

import importlib
import inspect
import os
import sys
import tracemalloc
from array import array
from time import perf_counter

LAYERS = ("tree_core", "nc_complex", "gc_vectors", "partitions",
          "string_modules", "semistable", "cli")
POSET_METHODS = ("covers", "is_lattice")
# helpers called once per segment pair, arc or vector entry: a span
# each would cost more than the work it times, so their time counts as
# self time of the caller
UNTRACED = {
    "tree_core.compose", "tree_core.turn", "tree_core.segment_turns",
    "nc_complex.crossing", "nc_complex.crossing_by_regions",
    "gc_vectors.zero_vector", "gc_vectors.add_vectors", "gc_vectors.dot",
    "gc_vectors.indicator", "partitions.refinement_leq",
    "partitions.block_segments", "string_modules.string_module",
    "string_modules.tiling_algebra",
    "semistable.theta_value", "semistable.is_semistable",
    "semistable.is_stable"}


def _targets():
    """(span name, function) for every traced module-level function."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module("treestab." + layer)
        for name, fn in sorted(vars(mod).items()):
            span = "%s.%s" % (layer, name)
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and span not in UNTRACED):
                out.append((span, fn))
    return out


def treestab_modules():
    """Names of the loaded treestab modules."""
    return [m for m in sys.modules
            if m == "treestab" or m.startswith("treestab.")]


def install(wrap):
    """Replace every traced callable by `wrap(name, fn)`; return the
    patch list for `restore`."""
    modules = [sys.modules[m] for m in treestab_modules()]
    patches = []
    for name, fn in _targets():
        wrapper = wrap(name, fn)
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                patches.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
    poset = getattr(importlib.import_module("treestab.partitions"),
                    "Poset", None)
    for meth in POSET_METHODS:
        fn = vars(poset).get(meth) if poset is not None else None
        if fn is not None:
            patches.append((poset, meth, fn))
            setattr(poset, meth, wrap("partitions.poset_" + meth, fn))
    return patches


def restore(patches):
    for owner, attr, fn in reversed(patches):
        setattr(owner, attr, fn)


def layer_of(name):
    return name.split(".", 1)[0]


class SpanTracer:
    """Timing spans, kept in memory until `write`."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no enclosing span of the same name
        self.current_command = -1
        self._stack = [-1]
        self._open = []  # open spans per name id

    def wrap(self, name, fn):
        if name in self.names:
            nid = self.names.index(name)
        else:
            nid = len(self.names)
            self.names.append(name)
            self._open.append(0)
        stack, opened = self._stack, self._open
        name_id, parent, command = self.name_id, self.parent, self.command
        start, end, outermost = self.start, self.end, self.outermost

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            command.append(self.current_command)
            outermost.append(opened[nid] == 0)
            end.append(0.0)
            opened[nid] += 1
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
                opened[nid] -= 1

        traced.__wrapped__ = fn
        return traced

    def __len__(self):
        return len(self.start)

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        own = array("d", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def summary(self):
        """Per span name: calls, inclusive seconds (outermost spans
        only, so recursion is not counted twice), and self seconds;
        and per (name, command id) the call count."""
        dur, own = self.self_times()
        by_name = {}
        per_command = {}
        for i, nid in enumerate(self.name_id):
            row = by_name.setdefault(nid, [0, 0.0, 0.0])
            row[0] += 1
            if self.outermost[i]:
                row[1] += dur[i]
            row[2] += own[i]
            key = (nid, self.command[i])
            per_command[key] = per_command.get(key, 0) + 1
        return ({self.names[k]: tuple(v) for k, v in by_name.items()},
                {(self.names[n], c): v for (n, c), v in per_command.items()})

    def write(self, path):
        """Spans as tab-separated lines: id, name, parent, command,
        start and end in seconds."""
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write("id\tname\tparent\tcommand\tstart\tend\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write("%d\t%s\t%d\t%d\t%.9f\t%.9f\n" % (
                    i, names[self.name_id[i]], self.parent[i],
                    self.command[i], self.start[i], self.end[i]))
        os.replace(tmp, path)


class AllocTracer:
    """Per layer, the largest tracemalloc peak above the starting size
    seen within one call, nested calls included."""

    def __init__(self):
        self.peak = {layer: 0 for layer in LAYERS}
        self._frames = [[0, 0]]  # [size at entry, peak so far]

    def wrap(self, name, fn):
        layer = layer_of(name)
        frames, peaks = self._frames, self.peak
        traced_memory, reset_peak = (tracemalloc.get_traced_memory,
                                     tracemalloc.reset_peak)

        def traced(*args, **kwargs):
            current, peak = traced_memory()
            outer = frames[-1]
            if peak > outer[1]:
                outer[1] = peak
            frames.append([current, current])
            reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                current, peak = traced_memory()
                frame = frames.pop()
                top = max(frame[1], peak)
                if top - frame[0] > peaks[layer]:
                    peaks[layer] = top - frame[0]
                outer = frames[-1]
                if top > outer[1]:
                    outer[1] = top
                reset_peak()

        traced.__wrapped__ = fn
        return traced
