"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every name its callers
resolve (module attributes, class attributes, and names one module imported
from another) with a wrapper that records a span: name, start, end, parent
span, op id, and the type of any exception that escaped.  ``uninstall``
puts the originals back.  Spans stay in memory until ``dump`` writes them.

Self time is a span's duration minus the durations of its direct children.
The process is single threaded, so children never overlap and, within one
op, the self times of all spans add up to the op's wall time.

This module uses the standard library only, so the traced CLI child can
import it before ``rigidity``.
"""

import functools
import importlib
import json
import time
from collections import defaultdict

# (span name, holders, attribute).  A holder is "module" or "module.Class"
# inside the rigidity package; symdom imports rational_roots by name, so
# both modules hold it.
TARGETS = (
    ("exactpoly.discriminant", ("exactpoly.BivariatePolynomial",), "discriminant"),
    ("exactpoly.rational_roots", ("exactpoly", "symdom"), "rational_roots"),
    ("exactpoly.gcd", ("exactpoly.RationalPoly",), "gcd"),
    ("exactpoly.shift_y", ("exactpoly.BivariatePolynomial",), "shift_y"),
    ("exactpoly.substitute_puiseux", ("exactpoly.BivariatePolynomial",),
     "substitute_puiseux"),
    ("symdom.charpoly_path", ("symdom",), "charpoly_path"),
    ("symdom.newton_puiseux_index", ("symdom",), "newton_puiseux_index"),
    ("symdom.monodromy_branch_index", ("symdom",), "monodromy_branch_index"),
    ("symdom.smoothness_report", ("symdom",), "smoothness_report"),
    ("symdom.smoothness_report_from_charpoly", ("symdom",),
     "smoothness_report_from_charpoly"),
    ("flatsurf.saddle_connections", ("flatsurf",), "saddle_connections"),
    ("flatsurf.cylinder_decomposition", ("flatsurf",), "cylinder_decomposition"),
    ("flatsurf.profile_nonconstancy", ("flatsurf",), "profile_nonconstancy"),
    ("chplane.step2_verify", ("chplane",), "step2_verify"),
    ("cli.cmd_intersection", ("cli",), "cmd_intersection"),
    ("cli.cmd_horocycle", ("cli",), "cmd_horocycle"),
    ("cli.cmd_smoothness", ("cli",), "cmd_smoothness"),
)
# spans whose result size is recorded as an exact count
COUNTED = {"flatsurf.saddle_connections": "connections"}
OP = "bench.op"
# span fields
NAME, START, END, PARENT, OP_ID, ERROR, COUNT = range(7)


def _holder(path):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"rigidity.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None, None])
        self._stack.append(sid)
        return sid

    def end(self, sid, error=None, count=None):
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[ERROR] = error
        span[COUNT] = count
        self._stack.pop()

    def begin_op(self, op_id):
        self.op = op_id
        return self.begin(OP)

    def end_op(self, sid):
        """Close the op's root span.  A deadline can interrupt a wrapper
        between its bookkeeping steps, so spans still open are closed too."""
        now = time.perf_counter()
        for span in self.spans[sid:]:
            if span[END] is None:
                span[END] = now
                span[ERROR] = span[ERROR] or "Unfinished"
        self._stack.clear()
        self.op = None

    def adopt(self, child_spans):
        """Attach spans recorded by a child process under the open span.

        perf_counter is CLOCK_MONOTONIC on Linux, so child times share the
        parent's time base.
        """
        parent = self._stack[-1]
        offset = len(self.spans)
        for name, start, end, up, _, error, count in child_spans:
            self.spans.append([name, start, end, parent if up is None else up + offset,
                               self.op, error, count])

    def _wrap(self, name, fn):
        measure = len if name in COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(sid, error=type(exc).__name__)
                raise
            self.end(sid, count=measure(result) if measure else None)
            return result

        return traced

    def install(self):
        for name, holders, attr in TARGETS:
            for path in holders:
                holder = _holder(path)
                original = holder.__dict__[attr]
                self._saved.append((holder, attr, original))
                setattr(holder, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def summarize(spans):
    """Per-layer statistics of a finished trace.

    Returns (metrics, self_sum_error): ``<name>.calls``, ``.calls_per_op``,
    ``.self_s`` (mean self seconds per op), ``.errors``, the exact counts of
    COUNTED spans per op, and ``symdom.errors.<type>`` for exceptions that
    left the outermost symdom call.  ``self_sum_error`` is the largest gap,
    over ops, between the sum of self times and the op's wall time.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    ops = {}
    calls = defaultdict(int)
    errors = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    by_type = defaultdict(int)
    self_by_op = defaultdict(float)
    for sid, span in enumerate(spans):
        name = span[NAME]
        own = span[END] - span[START] - child_time[sid]
        self_by_op[span[OP_ID]] += own
        if name == OP:
            ops[span[OP_ID]] = span[END] - span[START]
        calls[name] += 1
        self_s[name] += own
        if span[COUNT] is not None:
            counts[name] += span[COUNT]
        if span[ERROR] is not None:
            errors[name] += 1
            parent = spans[span[PARENT]][NAME] if span[PARENT] is not None else ""
            if name.startswith("symdom.") and not parent.startswith("symdom."):
                by_type[f"symdom.errors.{span[ERROR]}"] += 1
    n_ops = max(len(ops), 1)
    metrics = {}
    for name in [t[0] for t in TARGETS] + [OP]:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.calls_per_op"] = calls[name] / n_ops
        metrics[f"{name}.self_s"] = self_s[name] / n_ops
        metrics[f"{name}.errors"] = errors[name]
    for name, stat in COUNTED.items():
        metrics[f"{name}.{stat}"] = counts[name] / n_ops
    metrics.update(by_type)
    gap = max((abs(self_by_op[op] - wall) for op, wall in ops.items()), default=0.0)
    return metrics, gap

