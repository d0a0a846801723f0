"""Per-layer tracing for the omod benchmark, installed from outside the program.

The tracer wraps the public functions of every ``omod`` module, plus the
arithmetic methods of the element classes, and puts each wrapper wherever
callers look the original up: module globals (``from .x import f`` copies),
the ``omod`` package namespace and module-level dicts such as
``cli.RUNNERS``.  Methods are replaced on their class, so operator syntax
(``a * b``) reaches the wrapper too.

Two kinds of wrapper exist:

- a *span* wrapper records (name, start, end, parent) for every call;
- a *count* wrapper only counts calls.  It is used for the element
  operations of ``finitefield`` and ``quotring``, which run millions of times
  per pass; their time stays in the self time of the span that called them.

Recording happens only inside ``with tracer.recording():`` so the
benchmark's own output checks, which call omod too, are left out.  Spans are
kept in memory and summarised once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from array import array

# (module, class, method) -> layer name
METHODS = {
    ("series", "LocalFieldElement", "__mul__"): "series.mul",
    ("series", "LocalFieldElement", "__add__"): "series.add",
    ("series", "LocalFieldElement", "inv"): "series.inv",
    ("series", "LocalFieldElement", "frobenius_power"): "series.frobenius_power",
    ("series", "LocalFieldElement", "agrees"): "series.agrees",
    ("additive", "AdditivePolynomial", "__call__"): "additive.evaluate",
    ("additive", "AdditivePolynomial", "compose"): "additive.compose",
    ("finitefield", "FqElement", "__mul__"): "finitefield.mul",
    ("finitefield", "FqElement", "__add__"): "finitefield.add",
    ("finitefield", "FqElement", "inv"): "finitefield.inv",
    ("quotring", "OModElement", "__mul__"): "quotring.mul",
    ("quotring", "OModElement", "__add__"): "quotring.add",
}

# counted, not timed: these run per coefficient or per element, millions of
# times per pass
COUNT_ONLY = {"finitefield.mul", "finitefield.add", "finitefield.inv",
              "quotring.mul", "quotring.add", "series.make_element",
              "finitefield.embed_fq", "finitefield.project_fq", "formalmod.coord_key"}

MODULES = ("finitefield", "quotring", "series", "newton", "additive", "tower",
           "formalmod", "lubintate", "pi0", "report", "cache", "cli")


class Tracer:
    """Wraps omod, records spans and counters while recording is on."""

    def __init__(self):
        self.names = []            # layer names, indexed by span name id
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = {}            # count-only layer -> calls
        self.counters = {}         # work counters, e.g. series.mul.coeff_products
        self.maxima = {}           # e.g. series.mul.max_terms
        self._stack = [-1]
        self._on = False
        self._undo = []

    # --- recording ----------------------------------------------------------------

    @contextlib.contextmanager
    def recording(self):
        self._on = True
        try:
            yield
        finally:
            self._on = False

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span_wrapper(self, name, fn, after=None):
        """Wrap fn so each recorded call becomes a span; after(args, kwargs,
        result) may add work counters."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._on:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installation -------------------------------------------------------------

    def install(self, package):
        """Wrap the public functions and the listed methods of every module
        of `package` (the imported ``omod``)."""
        replaced = {}
        for short in MODULES:
            mod = sys.modules[package.__name__ + "." + short]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj):
                    continue
                replaced[id(obj)] = (obj, self._wrap("%s.%s" % (short, attr), obj))
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(sys.modules[package.__name__ + "." + short], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, orig))
            self._undo.append((setattr, cls, meth, orig))
        self._rebind(replaced)

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self.count_wrapper(name, fn)
        if name == "tower.ramified_extension_by_relation":
            fn = self._count_relation_calls(fn)
        return self.span_wrapper(name, fn, self._after(name))

    def _rebind(self, replaced):
        """Point every lookup site of an original (keyed by id) at its wrapper:
        module globals and the values of module-level dicts."""
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for where in [space] + [v for v in space.values() if isinstance(v, dict)]:
                for key, value in list(where.items()):
                    hit = replaced.get(id(value))
                    if hit is not None and hit[0] is value:
                        where[key] = hit[1]
                        self._undo.append((_setitem, where, key, value))

    def uninstall(self):
        while self._undo:
            op, where, key, value = self._undo.pop()
            op(where, key, value)

    def _after(self, name):
        """Work counters read from a call's arguments and result."""
        if name == "series.mul":
            return self._count_mul
        if name == "cache.save_tower":
            return lambda args, kwargs, path: self.add(
                "cache.bytes_written", os.path.getsize(path))
        if name == "report.dumps_canonical":
            return lambda args, kwargs, text: self.add(
                "report.bytes_out", len(text.encode("utf-8")))
        return None

    def _count_mul(self, args, kwargs, result):
        a, b = args
        if not a.coeffs or not b.coeffs:
            return
        products, useful = mul_products(a, b, result.precision)
        self.add("series.mul.coeff_products", products)
        self.add("series.mul.useful_products", useful)
        longest = max(len(a.coeffs), len(b.coeffs))
        if longest > self.maxima.get("series.mul.max_terms", 0):
            self.maxima["series.mul.max_terms"] = longest

    def _count_relation_calls(self, build):
        """ramified_extension_by_relation with its `relation` argument wrapped,
        so the fixed-point iterations are counted."""
        @functools.wraps(build)
        def counting(base, e, relation, *args, **kwargs):
            def counted(*rargs, **rkwargs):
                if self._on:
                    self.add("tower.relation_iterations", 1)
                return relation(*rargs, **rkwargs)
            return build(base, e, counted, *args, **kwargs)
        return counting

    # --- results ------------------------------------------------------------------

    def spans(self):
        """The recorded spans as (name, start, end, parent index) tuples."""
        names = self.names
        return [(names[n], s, e, p) for n, s, e, p in
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)]

    def summary(self):
        """{layer: {"calls", "self_s", "total_s"}} for span layers, plus
        {"calls"} for count-only layers, the work counters and the maxima."""
        layers = summarize_spans(self.spans())
        for name, calls in self.calls.items():
            layers[name] = {"calls": calls}
        return {"layers": layers, "counters": dict(self.counters),
                "maxima": dict(self.maxima)}


def mul_products(a, b, precision):
    """(products formed, products landing below `precision`) for the
    schoolbook product a * b, which skips zero coefficients of a."""
    products = useful = 0
    nb = len(b.coeffs)
    base = a.leading_exponent + b.leading_exponent
    for i, c in enumerate(a.coeffs):
        if c.is_zero():
            continue
        products += nb
        if precision is None:
            useful += nb
        else:
            useful += min(nb, max(0, precision - base - i))
    return products, useful


def summarize_spans(spans):
    """Aggregate spans (name, start, end, parent index; parents precede
    children) into {name: {"calls", "self_s", "total_s"}}.

    self_s is a span's duration minus the part of it covered by its direct
    children; total_s adds up only the outermost span of each name on a call
    path, so recursion is not counted twice."""
    n = len(spans)
    covered = [0.0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            _, pstart, pend, _ = spans[parent]
            covered[parent] += max(0.0, min(end, pend) - max(start, pstart))
    out = {}
    path = []            # indices of the open spans, root first
    active = {}          # name -> number of open spans with that name
    for i, (name, start, end, parent) in enumerate(spans):
        while path and path[-1] != parent:
            closed = spans[path.pop()][0]
            active[closed] -= 1
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - covered[i]
        if not active.get(name):
            row["total_s"] += end - start
        active[name] = active.get(name, 0) + 1
        path.append(i)
    return out


def _setitem(mapping, key, value):
    mapping[key] = value
