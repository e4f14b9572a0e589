"""Spans around the calls into starcycle's modules, recorded from outside.

Tracer.install() rebinds the public callables at module boundaries to
timing wrappers; nothing under src/ changes.  A span records its name,
start, end, parent span and an optional note (e.g. samples drawn).
Spans stay in memory until the caller writes them out.  Polynomial
constructions are only counted, because timing each would cost more
than the construction.
"""

import itertools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter


def _entry_note(args, kwargs, result):
    return {"samples": result.samples, "rejected": result.rejected}


def _len_note(args, kwargs, result):
    return {"n": len(result)}


def _terms_note(args, kwargs, result):
    return {"n": len(args[0].terms)}


class _Proxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or None, name, start, end, note)
        self.counts = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note=None):
        spans, stack_of, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            spans.append((span_id, parent, name, start, end,
                          note(args, kwargs, result) if note else None))
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                           else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, note=None):
        """Rebind module.attr in every starcycle module that imported it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, note)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "starcycle" or mod_name.startswith("starcycle.")) \
                    and getattr(mod, attr, None) is original:
                self._set(mod, attr, traced)

    def patch_method(self, cls, attr, name, note=None):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], note))

    def count_calls(self, cls, attr, name):
        original = cls.__dict__[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._set(cls, attr, counted)

    def install(self):
        from starcycle import cli, diffops, graphs, poly, polyvector, star, weights

        np = weights.np
        traced_det = self.wrap("weights.det", np.linalg.det)
        self._set(weights, "np", _Proxy(np, linalg=_Proxy(np.linalg, det=traced_det)))
        self.patch_function(weights, "compute_weight", "weights.kernel", _entry_note)
        self.patch_function(weights, "halfplane_weight", "weights.kernel", _entry_note)
        self.patch_function(graphs, "star_graphs", "graphs.star_graphs", _len_note)
        self.patch_function(star, "graph_to_operator", "star.contract")
        self.patch_function(star, "assemble_star", "star.assemble")
        for check in ("associative", "cyclic", "closed", "alpha_independence"):
            self.patch_function(star, "check_" + check, "star." + check)
        self.patch_method(diffops.PolyDiffOperator, "ibp_normal_form",
                          "diffops.ibp_normal_form", _terms_note)
        self.patch_method(diffops.PolyDiffOperator, "apply", "diffops.apply")
        self.patch_method(polyvector.PolyVector, "schouten", "polyvector.schouten")
        self.count_calls(poly.Polynomial, "__init__", "poly.constructed")
        self.patch_function(cli, "main", "cli.main")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds, summed notes.

    Also returns the seconds covered by root spans.  Self time is a span's
    duration minus its children's, so the self times of all names add up
    to the root time exactly."""
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_id = {s[0]: s for s in spans}
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": Counter()})
    root_s = 0.0
    for span_id, parent, name, start, end, note in spans:
        dur = end - start
        row = stats[name]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[span_id]
        if parent is None:
            root_s += dur
        if note:
            # a kernel nested in a kernel (compute_weight at m = 2) must not count twice
            if not (parent is not None and by_id[parent][2] == name):
                row["notes"].update(note)
    return dict(stats), root_s


def children_of(spans, parent_name, child_name):
    """(calls, summed notes) of child_name spans directly under parent_name."""
    names = {s[0]: s[2] for s in spans}
    calls, notes = 0, Counter()
    for _, parent, name, _, _, note in spans:
        if name == child_name and parent is not None and names[parent] == parent_name:
            calls += 1
            if note:
                notes.update(note)
    return calls, notes
