"""Outside-in layer trace of the qcrb modules.

``Tracer.install`` replaces every public function of each qcrb module by a
wrapper that records a span (name, start, end, parent span, op id).  The
replacement is made on every qcrb module attribute that refers to the
original function, so names imported elsewhere (``qcrb.cli.validate``,
``qcrb.holevo._x_eff``, …) are traced too.  ``numpy.linalg.eigh`` and
``numpy.linalg.svd`` get a counting wrapper instead.  Spans are kept in
memory and written out by the caller when the run ends.

A name listed in ``EXPECTED`` that the program no longer has is reported
as absent; its metrics read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("cli", "model", "sld", "bounds", "holevo", "sdp", "linalg", "povm", "gaussian")
COUNTED = ("eigh", "svd")

#: Functions whose self time per op the benchmark reports by name.
SELF_TIMED = (
    "cli.main",
    "model.load_model",
    "model.validate",
    "sld.compute_slds",
    "sld.information",
    "bounds.sandwich",
    "holevo.build_problem",
    "holevo.solve",
    "holevo.verify_solution",
    "sdp.solve_lmi",
    "linalg.z_matrix",
)
#: Functions whose calls per op the benchmark reports by name.
CALL_COUNTED = ("sdp.solve_lmi", "linalg.pseudoinverse", "povm.measurement_report", "gaussian.gaussian_fim")
EXPECTED = tuple(dict.fromkeys(SELF_TIMED + CALL_COUNTED))

OP = "op"


class Tracer:
    def __init__(self):
        self.spans = []  # [op, parent, name, t0, t1, raised, extra]
        self.counts = []  # per op: Counter of numpy.linalg calls
        self.stack = []
        self.op = None
        self.present = set()
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"qcrb.{short}")
            except ImportError:
                continue
        targets = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(fn)] = (f"{short}.{attr}", fn)
        holders = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qcrb" or name.startswith("qcrb."))]
        for name, fn in targets.values():
            wrapper = self._span_wrapper(name, fn)
            self.present.add(name)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self._replace(holder, attr, wrapper)
        for name in COUNTED:
            fn = getattr(np.linalg, name)
            self._replace(np.linalg, name, self._count_wrapper(f"numpy.linalg.{name}", fn))

    def _replace(self, holder, attr, new) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        for holder, attr, old in reversed(self._restore):
            setattr(holder, attr, old)
        self._restore.clear()

    def absent(self) -> list:
        return [name for name in EXPECTED if name not in self.present]

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            return tracer.span(name, fn, args, kwargs)

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                tracer.counts[-1][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name, fn, args=(), kwargs=None):
        sid = len(self.spans)
        record = [self.op, self.stack[-1] if self.stack else None, name, 0.0, 0.0, True, None]
        self.spans.append(record)
        self.stack.append(sid)
        record[3] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            record[5] = False
        finally:
            record[4] = time.perf_counter()
            self.stack.pop()
        if name == "sdp.solve_lmi":
            record[6] = [getattr(result, "iterations", None), getattr(result, "status", None)]
        return result

    def run_op(self, fn, *args):
        """Run one op under a root span; its spans share the op's id, which
        is the op's position among the traced ops."""
        self.op = len(self.counts)
        self.counts.append(Counter())
        try:
            return self.span(OP, fn, args)
        finally:
            self.op = None

    # -- aggregation --------------------------------------------------------

    def op_signatures(self) -> dict:
        """Per op id: calls per name, numpy counts and SDP iterations."""
        sigs = defaultdict(Counter)
        iters = defaultdict(list)
        for op, _, name, _, _, _, extra in self.spans:
            sigs[op][name] += 1
            if extra is not None:
                iters[op].append(extra[0])
        return {op: (sorted(sigs[op].items()), sorted(self.counts[op].items()), iters[op])
                for op in sigs}

    def layers(self) -> dict:
        """Per span name (and counted numpy name): calls, total_s, self_s, raised."""
        child = [0.0] * len(self.spans)
        for op, parent, name, t0, t1, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0})
        for sid, (op, parent, name, t0, t1, raised, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[sid]
            row["raised"] += int(raised)
        for counter in self.counts:
            for name, n in counter.items():
                out[name]["calls"] += n
        return dict(out)

    def sdp_results(self) -> list:
        return [extra for _, _, name, _, _, _, extra in self.spans if name == "sdp.solve_lmi"]

    def dump(self) -> dict:
        return {
            "fields": ["op", "parent", "name", "t0", "t1", "raised", "extra"],
            "spans": self.spans,
            "numpy_counts": [dict(c) for c in self.counts],
        }

