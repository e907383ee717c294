"""Spans around the package's layer boundaries, installed from outside.

The package is not edited: :func:`install` rebinds each traced function
under every name a ``faultfilter`` module holds it by (``bench_cli``
imports ``identify_xi`` by name, so patching ``sysid_markov`` alone
would miss its calls), and patches methods on their classes.  Each
call records a span (name, start, end, parent, operation id, size) in
flat arrays kept in memory; :meth:`Tracer.save` writes them when the
run ends and :func:`layer_metrics` derives the per-layer numbers.

``LAYER_METRICS`` is the single list of per-layer metrics: its names
and units must match ``per_layer`` in BENCHMARK.json, and ``moves``
records which end-to-end metric on which workload each should move.
"""
from __future__ import annotations

import inspect
import json
import os
from array import array
from time import perf_counter_ns

import numpy as np

# How a span's per-layer value is derived:
#   "time"           median inclusive duration per call (a tuple of spans
#                    sums their medians),
#   "time_per_size"  median of duration / size (samples or rows per call),
#   "self_time"      median self time (duration minus child spans),
#   "size"           median size per call (a work count),
#   "value"          median of values recorded with Tracer.note,
#   "per_op"         loop total of noted values per loop operation.
LAYER_METRICS = [
    # (metric, unit, span, derivation, moves)
    ("bench_cli.closed_loop_sim.us_per_sample", "us", "bench_cli.closed_loop_sim",
     "time_per_size", "op_ms@compare; setup_s elsewhere"),
    ("bench_cli.time_filter_step.ms", "ms", "bench_cli.time_filter_step",
     "time", "op_ms@compare"),
    ("bench_cli.time_window_step.ms", "ms", "bench_cli.time_window_step",
     "time", "op_ms@compare"),
    ("bench_cli.ellipse_stats.ms", "ms", "bench_cli.ellipse_stats",
     "time", "op_ms@compare (expected flat)"),
    ("bench_cli.main.estimate.self_ms", "ms", "bench_cli.main.estimate",
     "self_time", "op_ms@estimate"),
    ("sysid_markov.identify_xi.ms", "ms", "sysid_markov.identify_xi",
     "time", "op_ms@design; op_ms@compare"),
    ("sysid_markov.regressor_cells", "count", "sysid_markov.identify_xi",
     "size", "op_ms@design; op_ms@compare"),
    ("markov_design.design_filter_from_xi.ms", "ms", "markov_design.design_filter_from_xi",
     "time", "op_ms@design; op_ms@compare"),
    ("markov_design.expand.ms", "ms", ("markov_design.fault_markov", "markov_design.z_markov"),
     "time", "op_ms@design; op_ms@compare"),
    ("markov_design.inverse_markov.ms", "ms", "markov_design.inverse_markov",
     "time", "op_ms@design; op_ms@compare"),
    ("markov_design.convolve_R.ms", "ms", "markov_design.convolve_R",
     "time", "op_ms@design; op_ms@compare"),
    ("markov_design.convolve_Q.ms", "ms", "markov_design.convolve_Q",
     "time", "op_ms@design; op_ms@compare"),
    ("markov_design.realize.ms", "ms", "markov_design.realize",
     "time", "op_ms@design; op_ms@compare"),
    ("markov_design.assemble_filter.ms", "ms", "markov_design.assemble_filter",
     "time", "op_ms@design; op_ms@compare"),
    ("markov_design.predictor_from_xi.ms", "ms", "markov_design.predictor_from_xi",
     "time", "op_ms@compare"),
    ("markov_design.block_products", "count", "markov_design.design_filter_from_xi",
     "size", "op_ms@design; op_ms@compare"),
    ("markov_design.hankel_cells", "count", "lti_core.block_hankel",
     "size", "op_ms@design; op_ms@compare"),
    ("inverse_filter.stabilizing_gain.riccati.ms", "ms",
     "inverse_filter.stabilizing_gain.riccati", "time", "op_ms@design"),
    ("inverse_filter.stabilizing_gain.pole_placement.ms", "ms",
     "inverse_filter.stabilizing_gain.pole_placement", "time", "op_ms@design; op_ms@compare"),
    ("inverse_filter.open_loop_inverse.ms", "ms", "inverse_filter.open_loop_inverse",
     "time", "op_ms@compare"),
    ("inverse_filter.reduced_filter.ms", "ms", "inverse_filter.reduced_filter",
     "time", "op_ms@compare"),
    ("inverse_filter.run_filter.us_per_sample", "us", "inverse_filter.run_filter",
     "time_per_size", "op_ms@estimate; op_ms@compare"),
    ("inverse_filter.step.us", "us", "inverse_filter.step",
     "time", "op_ms@estimate"),
    ("inverse_filter.from_csv.ms", "ms", "inverse_filter.from_csv",
     "time", "op_ms@estimate"),
    ("inverse_filter.matvec_ns", "ns", "inverse_filter.matvec",
     "value", "none (floor under inverse_filter.step.us)"),
    ("lti_core.to_predictor.ms", "ms", "lti_core.to_predictor",
     "time", "op_ms@compare"),
    ("lti_core.LinearSystem.run.us_per_sample", "us", "lti_core.LinearSystem.run",
     "time_per_size", "op_ms@estimate; op_ms@compare"),
    ("lti_core.IOData.from_csv.us_per_row", "us", "lti_core.IOData.from_csv",
     "time_per_size", "op_ms@estimate; setup_s"),
    ("lti_core.IOData.to_csv.us_per_row", "us", "lti_core.IOData.to_csv",
     "time_per_size", "setup_s@estimate"),
    ("lti_core.csv_bytes", "count", "lti_core.csv",
     "per_op", "op_ms@estimate"),
    ("mhe_baseline.build_mhe.ms", "ms", "mhe_baseline.build_mhe",
     "time", "op_ms@compare"),
    ("mhe_baseline.run_mhe.us_per_sample", "us", "mhe_baseline.run_mhe",
     "time_per_size", "op_ms@estimate"),
]

# Every span reports "<span>.calls", its calls per loop operation.
COUNTED_SPANS = sorted(
    {s for _, _, span, how, _ in LAYER_METRICS if how not in ("value", "per_op")
     for s in (span if isinstance(span, tuple) else (span,))})

EXTRA_LAYER_METRICS = [("tracing_overhead_ms", "ms")]


def layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [(m, unit) for m, unit, _, _, _ in LAYER_METRICS]
    names += [(f"{span}.calls", "count") for span in COUNTED_SPANS]
    return names + EXTRA_LAYER_METRICS


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("d")
        self.notes: dict = {}
        self.op_id = -1  # -1 marks set-up; the loop sets 0, 1, ...
        self._stack: list = []
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def note(self, name: str, value: float) -> None:
        """Record a per-call value that is not a span (bytes, ns)."""
        self.notes.setdefault(name, []).append((self.op_id, float(value)))

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.size.append(0.0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, size=None):
        """Traced version of ``fn``.

        ``name`` is a span name or a callable of the bound arguments;
        ``size(arguments, result)`` gives the span's work size.
        """
        sig = inspect.signature(fn) if (size or callable(name)) else None

        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            idx = self.open(name(bound) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx)
            if size is not None:
                self.size[idx] = float(size(bound, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def rebind(self, fn, name, size=None) -> None:
        """Replace ``fn`` under every name a faultfilter module binds it."""
        import sys
        traced = self.wrap(fn, name, size)
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "faultfilter"
                                   or modname.startswith("faultfilter.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, traced)
                    self._restore.append((mod, attr, fn))
                    hits += 1
        if not hits:
            raise RuntimeError(f"no module binds {fn.__qualname__}")

    def patch_method(self, cls, attr, name, size=None) -> None:
        """Trace a plain, class or static method on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, size))
        else:
            new = self.wrap(raw, name, size)
        setattr(cls, attr, new)
        self._restore.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def save(self, path) -> None:
        """Write all spans as compressed columns plus the name table."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            size=np.frombuffer(self.size, dtype=np.float64))
        with open(os.path.splitext(path)[0] + ".notes.json", "w") as fh:
            json.dump(self.notes, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the imported package."""
    from faultfilter import (bench_cli, inverse_filter, lti_core,
                             markov_design, mhe_baseline, sysid_markov)

    def regressor_cells(a, r):
        data, p = a["data"], a["p"]
        cols = p * (data.n_inputs + data.n_outputs)
        if not a["assume_delay"]:
            cols += data.n_inputs
        return (data.n_samples - p) * cols

    t = tracer
    t.rebind(bench_cli.main, lambda a: f"bench_cli.main.{a['argv'][0]}")
    t.rebind(bench_cli.closed_loop_sim, "bench_cli.closed_loop_sim",
             lambda a, r: a["N"])

    def matvec_ns(a, r):
        # time_filter_step returns the median ns of the bare step matvec
        t.note("inverse_filter.matvec", r)
        return 0.0

    t.rebind(bench_cli.time_filter_step, "bench_cli.time_filter_step", matvec_ns)
    t.rebind(bench_cli.time_window_step, "bench_cli.time_window_step")
    t.rebind(bench_cli.ellipse_stats, "bench_cli.ellipse_stats")
    t.rebind(sysid_markov.identify_xi, "sysid_markov.identify_xi", regressor_cells)

    def block_products(a, r):
        # block matmuls the design's L-block algebra calls for: the
        # inverse recursion (L(L-1)/2 accumulations plus L-1 products
        # with G_0) and the R and Q convolutions (L(L+1)/2 each)
        L = a["cfg"].markov_length
        return L * (L - 1) // 2 + (L - 1) + L * (L + 1)

    t.rebind(markov_design.design_filter_from_xi,
             "markov_design.design_filter_from_xi", block_products)
    t.rebind(markov_design.fault_markov, "markov_design.fault_markov")
    t.rebind(markov_design.z_markov, "markov_design.z_markov")
    t.rebind(markov_design.inverse_markov, "markov_design.inverse_markov")
    t.rebind(markov_design.convolve_R, "markov_design.convolve_R")
    t.rebind(markov_design.convolve_Q, "markov_design.convolve_Q")
    t.rebind(markov_design.realize, "markov_design.realize")
    t.rebind(markov_design.assemble_filter, "markov_design.assemble_filter")
    t.rebind(markov_design.predictor_from_xi, "markov_design.predictor_from_xi")
    t.rebind(lti_core.block_hankel, "lti_core.block_hankel",
             lambda a, r: r.size)
    t.rebind(inverse_filter.stabilizing_gain,
             lambda a: f"inverse_filter.stabilizing_gain.{a['strategy']}")
    t.rebind(inverse_filter.open_loop_inverse, "inverse_filter.open_loop_inverse")
    t.rebind(inverse_filter.reduced_filter, "inverse_filter.reduced_filter")
    t.rebind(inverse_filter.run_filter, "inverse_filter.run_filter",
             lambda a, r: a["data"].n_samples)

    def filter_bytes(a, r):
        t.note("lti_core.csv", os.path.getsize(a["path"]))
        return 0.0

    t.patch_method(inverse_filter.FaultEstimationFilter, "from_csv",
                   "inverse_filter.from_csv", filter_bytes)
    t.rebind(lti_core.to_predictor, "lti_core.to_predictor")
    t.patch_method(lti_core.LinearSystem, "run", "lti_core.LinearSystem.run",
                   lambda a, r: len(r))

    def csv_rows(a, r):
        data = a["self"] if r is None else r
        t.note("lti_core.csv", os.path.getsize(a["path"]))
        return data.n_samples

    t.patch_method(lti_core.IOData, "from_csv", "lti_core.IOData.from_csv", csv_rows)
    t.patch_method(lti_core.IOData, "to_csv", "lti_core.IOData.to_csv", csv_rows)
    t.rebind(mhe_baseline.build_mhe, "mhe_baseline.build_mhe")
    t.rebind(mhe_baseline.run_mhe, "mhe_baseline.run_mhe",
             lambda a, r: len(r))


def trace_steps(tracer: Tracer, filt) -> None:
    """Trace ``step`` on one filter instance only.

    ``run`` calls ``step`` once per sample, so a class-level wrapper
    would put a span on every sample of every batch run; the estimate
    workload streams through an instance of its own, which is traced.
    """
    step = filt.step

    def traced(u, y):
        idx = tracer.open("inverse_filter.step")
        try:
            return step(u, y)
        finally:
            tracer.close(idx)

    filt.step = traced


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer values from the spans of a traced run of ``ops`` operations.

    Timings and sizes use set-up spans as well as loop spans, so a layer
    a workload only touches while setting up (the estimate workload
    identifies and designs its filter there) still has a number; call
    counts are per loop operation.  A layer the workload never reaches
    reads 0.
    """
    n = len(tracer.start)
    name = np.frombuffer(tracer.name, dtype=np.int32)[:n]
    in_loop = np.frombuffer(tracer.op, dtype=np.int32)[:n] >= 0
    start = np.frombuffer(tracer.start, dtype=np.int64)[:n]
    end = np.frombuffer(tracer.end, dtype=np.int64)[:n]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[:n]
    size = np.frombuffer(tracer.size, dtype=np.float64)[:n]
    dur = (end - start).astype(float)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def select(span):
        sid = tracer._ids.get(span)
        return np.zeros(n, bool) if sid is None else name == sid

    def median(values):
        return float(np.median(values)) if len(values) else 0.0

    out = {}
    for metric, unit, span, how, _ in LAYER_METRICS:
        scale = {"ms": 1e-6, "us": 1e-3, "ns": 1.0, "count": 1.0}[unit]
        if how == "time":
            spans = span if isinstance(span, tuple) else (span,)
            value = sum(median(dur[select(s)]) for s in spans) * scale
        elif how == "time_per_size":
            ok = select(span) & (size > 0)
            value = median(dur[ok] / size[ok]) * scale
        elif how == "self_time":
            value = median(self_time[select(span)]) * scale
        elif how == "size":
            value = median(size[select(span)])
        else:
            notes = tracer.notes.get(span, [])
            if how == "value":
                value = median([v for _, v in notes])
            else:
                value = sum(v for op, v in notes if op >= 0) / ops
        out[metric] = value
    for span in COUNTED_SPANS:
        out[f"{span}.calls"] = int((select(span) & in_loop).sum()) / ops
    return out
