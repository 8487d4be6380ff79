"""Per-layer tracing installed from the benchmark's own files.

``Tracer.install`` replaces each traced function of the ``trimodel`` package
by a wrapper that records one span per call (name, start, end, parent span)
and accumulates calls, self time and, for the rank kernels, the number of
input cells.  A name is patched in every ``trimodel`` module that holds the
original object, because ``fast_rank`` and ``array_rref`` are imported by
name into several modules.  Spans stay in memory until ``write_spans``.

Self time of a span is its duration minus the durations of the traced spans
called directly inside it.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name, extra counters).  A dotted attribute is a
# method on a class of that module.
TRACED = (
    ("exactlin", "array_rref", "exactlin.array_rref", ("cells",)),
    ("exactlin", "fast_rank", "exactlin.fast_rank", ("cells",)),
    ("exactlin", "array_solve", "exactlin.array_solve", ()),
    ("exactlin", "array_kernel", "exactlin.array_kernel", ()),
    ("meshcat", "MeshCategory.__init__", "meshcat.MeshCategory", ()),
    ("meshcat", "MeshCategory.validate", "meshcat.validate", ()),
    ("addcat", "compose", "addcat.compose", ()),
    ("addcat", "left_mul_matrix", "addcat.left_mul_matrix", ()),
    ("addcat", "right_mul_matrix", "addcat.right_mul_matrix", ()),
    ("rigidmodel", "build_rigid", "rigidmodel.build_rigid", ()),
    ("rigidmodel", "RigidStructure.approx", "rigidmodel.approx", ()),
    ("rigidmodel", "RigidStructure.classify", "rigidmodel.classify", ()),
    ("rigidmodel", "RigidStructure.cofibrant_replacement",
     "rigidmodel.cofibrant_replacement", ("failed",)),
    ("rigidmodel", "RigidStructure.factor_wcof_fib", "rigidmodel.factor", ()),
    ("rigidmodel", "RigidStructure.factor_htpcof_wfib", "rigidmodel.factor",
     ()),
    ("oracle", "rlp_against_generating_I", "oracle.rlp_against_generating_I",
     ()),
    ("oracle", "rlp_all_squares", "oracle.rlp_all_squares", ()),
    ("oracle", "run_axiom_suite", "oracle.run_axiom_suite", ("failed",)),
    ("oracle", "lemma_equivalence_suite", "oracle.lemma_equivalence_suite",
     ("failed",)),
    ("endalg", "check_equivalence", "endalg.check_equivalence", ("failed",)),
)

ITEM_SPAN = "bench.item"
LAYERS = ("exactlin", "meshcat", "addcat", "rigidmodel", "oracle", "endalg",
          "bench")


class _Stat:
    __slots__ = ("calls", "self_s", "cells", "failed")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.cells = 0
        self.failed = 0


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.stats: dict[str, _Stat] = {}
        self.enumerated = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # one [span index, child seconds] frame per open span
        self._stack: list[list] = []
        self._restore: list = []

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
            self._name_idx[name] = len(self.names)
            self.names.append(name)
        return st

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.span_start)
        self.span_name.append(self._name_idx[name])
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, st: _Stat, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        st.calls += 1
        st.self_s += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        self.span_start[frame[0]] = t0
        self.span_end[frame[0]] = t1

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _wrap(self, fn, name: str, extras: tuple):
        st = self._stat(name)
        count_cells = "cells" in extras
        count_failed = "failed" in extras

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_cells:
                shape = np.shape(args[0])
                if len(shape) == 2:
                    st.cells += shape[0] * shape[1]
            frame = self._open(name)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                self._close(frame, st, t0, t1)
                if count_failed and (not ok or (
                        hasattr(out, "passed") and not out.passed())):
                    st.failed += 1

        return traced

    def _wrap_enumeration(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.enumerated += 1
                yield item

        return counted

    def install(self) -> None:
        """Patch every traced name; ``uninstall`` restores the originals."""
        import trimodel  # noqa: F401  (loads every submodule)

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "trimodel" or name.startswith("trimodel.")}
        targets = [(mods["trimodel." + m], attr, name, extras)
                   for m, attr, name, extras in TRACED]
        targets.append((mods["trimodel.addcat"], "enumerate_morphisms",
                        None, ()))
        self._stat(ITEM_SPAN)
        for mod, attr, name, extras in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, extras))
                continue
            orig = getattr(mod, attr)
            wrapped = (self._wrap_enumeration(orig) if name is None
                       else self._wrap(orig, name, extras))
            for m in mods.values():
                if getattr(m, attr, None) is orig:
                    self._restore.append((m, attr, orig))
                    setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Flat per-layer numbers: calls, self time, cells, failures."""
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.cells"] = st.cells
            out[f"{name}.failed"] = st.failed
            layer_self[name.split(".")[0]] += st.self_s
        for layer, s in layer_self.items():
            out[f"{layer}.self_s"] = s
        out["addcat.enumerate_morphisms.items"] = self.enumerated
        out["trace.self_sum_s"] = sum(layer_self.values())
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path) -> None:
        """Spans as parallel arrays; start and end are perf_counter seconds."""
        np.savez(path,
                 names=np.array(json.dumps(self.names)),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


class _Span:
    __slots__ = ("tracer", "name", "stat", "frame", "t0")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.stat = tracer._stat(name)

    def __enter__(self):
        self.frame = self.tracer._open(self.name)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.frame, self.stat, self.t0, perf_counter())
