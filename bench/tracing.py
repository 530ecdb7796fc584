"""Out-of-process-code tracing for the traced benchmark run.

Two installers patch the package in place and restore it afterwards:

``SpanTracer`` wraps the public functions and methods of every ``algdeform``
module (classmethods re-wrapped as classmethods, the ``rank`` property through
its getter) and rebinds every module namespace that imported them by name.
Each call records a span (name, job, parent, start, end) in memory; self time
is a span's duration minus its direct children's.  Hot scalar-level helpers
are left unwrapped so that their cost stays in their caller's self time.

``CallCounter`` wraps everything, scalar dunders and the private
elimination routine ``linalg._rref_rows`` included, with plain counters, and
computes the size counts (identity tuples, build degree and basis words).
It runs as a separate pass so that its overhead never reaches a span's self
time, and its counts repeat exactly between runs of one seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from math import comb
from time import perf_counter

PACKAGE = "algdeform"
MODULES = (
    "linalg", "ncpoly", "algebra", "presentation", "analysis",
    "deformation", "obstruction", "constructions", "cli",
)

# Not spanned, so their time stays in the caller's self time.  Most are
# leaves called per scalar, per word or per table entry, where a span would
# cost more than the work it times; ``from_json_dict`` stays inside
# ``load``, the layer the metrics name.  Their calls come from CallCounter.
HOT = {
    "algebra.StructureAlgebra.from_json_dict",
    "linalg.GaussianRational", "linalg.parse_scalar", "ncpoly.TPoly", "ncpoly.NcPoly",
    "ncpoly.word_key", "ncpoly.word_to_str", "ncpoly.tpoly_eval", "algebra.Element",
    "algebra.StructureAlgebra.element", "algebra.StructureAlgebra.basis_element",
    "algebra.StructureAlgebra.unit_element", "algebra.StructureAlgebra.zero_element",
    "algebra.StructureAlgebra.multiply_coords", "algebra.StructureAlgebra.sparse_multiply",
    "algebra.StructureAlgebra.multiply", "algebra.StructureAlgebra.trace_vector",
    "analysis.BlockProfile", "obstruction.family_span_dim",
}

# The elimination entry points whose self times make up ``linalg.elim.self_s``.
ELIM = (
    "linalg.Subspace.from_vectors", "linalg.Matrix.rref", "linalg.Matrix.rank",
    "linalg.Matrix.kernel", "linalg.Matrix.inverse",
)

# Counts computed from a call's bound arguments or from its result.  A count
# that cannot be computed raises, and so fails the job, rather than reading 0.
ARG_COUNTS = {
    "analysis.standard_identity_values": {"tuples": lambda a: comb(a["alg"].dim, 2 * a["m"])},
}
RESULT_COUNTS = {
    "presentation.build": {
        "accepted_degree": lambda r: r.degree,
        "basis_words": lambda r: len(r.word_basis),
    },
}


def _modules():
    return [(short, importlib.import_module(f"{PACKAGE}.{short}")) for short in MODULES]


def _targets():
    """(span name, owner, attribute, original) for every public callable."""
    out = []
    for short, mod in _modules():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{short}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj):
                for meth, val in vars(obj).items():
                    if meth.startswith("_"):
                        continue
                    if isinstance(val, (classmethod, staticmethod)) or inspect.isfunction(val):
                        fn = val.__func__ if isinstance(val, (classmethod, staticmethod)) else val
                        out.append((f"{short}.{fn.__qualname__}", obj, meth, val))
                    elif isinstance(val, property) and meth == "rank":
                        out.append((f"{short}.{obj.__name__}.{meth}", obj, meth, val))
    return out


class _Patcher:
    """Installs wrappers over package callables and restores the originals."""

    def __init__(self):
        self._undo = []

    def _wrap(self, name, fn):
        raise NotImplementedError

    def keep(self, name) -> bool:
        return True

    def wrap_target(self, name, val):
        if isinstance(val, classmethod):
            return classmethod(self._wrap(name, val.__func__))
        if isinstance(val, staticmethod):
            return staticmethod(self._wrap(name, val.__func__))
        if isinstance(val, property):
            return property(self._wrap(name, val.fget), val.fset, val.fdel, val.__doc__)
        return self._wrap(name, val)

    def patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        replaced = {}
        for name, owner, attr, val in _targets():
            if not self.keep(name):
                continue
            new = self.wrap_target(name, val)
            self.patch(owner, attr, new)
            if inspect.isfunction(val):
                replaced[id(val)] = (val, new)
        # names bound by ``from .x import f`` elsewhere in the package
        package = importlib.import_module(PACKAGE)
        for mod in [package] + [m for _, m in _modules()]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit and hit[0] is obj:
                    self.patch(mod, attr, hit[1])
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)


def _is_hot(name):
    parts = name.split(".")
    return any(".".join(parts[:k]) in HOT for k in range(2, len(parts) + 1))


class SpanTracer(_Patcher):
    """Records one span per call of each non-hot public callable."""

    def __init__(self):
        super().__init__()
        self.spans = []  # [name, job, parent, start, end]
        self._stack = []
        self.job = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, tracer.job, stack[-1] if stack else None, perf_counter(), None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()

        return wrapper

    def keep(self, name) -> bool:
        return not _is_hot(name) and ".cmd_" not in name

    def summary(self):
        """Per span name: calls, total and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, job, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for k, (name, job, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[k]
        return out

    def dump(self):
        return [
            {"name": n, "job": j, "parent": p, "start": s, "end": e}
            for n, j, p, s, e in self.spans
        ]


class CallCounter(_Patcher):
    """Counts calls of every public callable, the parent-child call edges,
    eliminations, scalar ops, t-polynomial ops and the ``ARG_COUNTS`` and
    ``RESULT_COUNTS`` sizes."""

    SCALAR = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
              "__sub__": "add", "__rsub__": "add", "inverse": "inv"}
    TPOLY = ("__add__", "__sub__", "__mul__", "__neg__", "eval")

    def __init__(self):
        super().__init__()
        self.calls = {}
        self.edges = {}  # (caller, callee) -> calls, between wrapped callables
        self.counts = {}  # "<name>.<key>" -> summed ARG_COUNTS / RESULT_COUNTS
        self.scalar = {"mul": 0, "add": 0, "inv": 0, "complex_mul": 0}
        self.elim = {"calls": 0, "cells": 0}
        self.tpoly_ops = 0
        self._stack = [None]

    def _add(self, name, counts, value):
        for key, count in counts.items():
            self.counts[f"{name}.{key}"] += count(value)

    def _wrap(self, name, fn):
        calls, edges, stack = self.calls, self.edges, self._stack
        calls.setdefault(name, 0)
        arg_counts = ARG_COUNTS.get(name)
        result_counts = RESULT_COUNTS.get(name)
        for key in {**(arg_counts or {}), **(result_counts or {})}:
            self.counts[f"{name}.{key}"] = 0
        signature = inspect.signature(fn) if arg_counts else None
        counter = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            edge = (stack[-1], name)
            edges[edge] = edges.get(edge, 0) + 1
            if arg_counts:
                counter._add(name, arg_counts, signature.bind(*args, **kwargs).arguments)
            stack.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            if result_counts:
                counter._add(name, result_counts, result)
            return result

        return wrapper

    def _scalar_wrapper(self, kind, fn):
        scalar = self.scalar

        def wrapper(a, b=None):
            scalar[kind] += 1
            if kind == "mul" and (getattr(a, "im", 0) or getattr(b, "im", 0)):
                scalar["complex_mul"] += 1
            return fn(a) if b is None else fn(a, b)

        return wrapper

    def _tpoly_wrapper(self, fn):
        counter = self

        def wrapper(*args):
            counter.tpoly_ops += 1
            return fn(*args)

        return wrapper

    def _elim_wrapper(self, fn):
        """Every elimination goes through ``linalg._rref_rows``; it is counted
        there once, with the rows x columns it reduces."""
        elim = self.elim

        def wrapper(rows, ncols):
            rows = list(rows)
            elim["calls"] += 1
            elim["cells"] += len(rows) * ncols
            return fn(rows, ncols)

        return wrapper

    def install(self):
        super().install()
        linalg = importlib.import_module(f"{PACKAGE}.linalg")
        ncpoly = importlib.import_module(f"{PACKAGE}.ncpoly")
        self.patch(linalg, "_rref_rows", self._elim_wrapper(linalg._rref_rows))
        gq = linalg.GaussianRational
        for meth, kind in self.SCALAR.items():
            if meth in vars(gq):
                self.patch(gq, meth, self._scalar_wrapper(kind, vars(gq)[meth]))
        tp = ncpoly.TPoly
        for meth in self.TPOLY:
            if meth in vars(tp):
                self.patch(tp, meth, self._tpoly_wrapper(vars(tp)[meth]))
        return self
