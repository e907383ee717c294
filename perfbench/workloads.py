"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Every workload is a closed loop with one caller: the next operation
starts only after the previous one returned.  ``setup`` builds all
inputs from the workload seed (the package only sees the generated
arrays and files) and warms up the timed path, so first-call costs land
in set-up.  ``op`` runs one operation, timing only the calls into the
package, then checks their output; it returns the operation's time in
seconds and how many units of work it attempted and failed.  It also
adds each part's time to ``parts`` for the result file.  ``summary``
returns accuracy figures for the result file and ``checks`` any
whole-run check, as (attempted, failed).  Accuracy is checked through
the failure count, not gated as a metric: the design error spreads by
half its median across seeds.

Only the public API is used, imported after the runner has pinned BLAS
to one thread and put the checkout's ``src`` first on the path.
"""
from __future__ import annotations

import contextlib
import copy
import io
import os
import time

import numpy as np

import faultfilter as ff
import tracing
from faultfilter import bench_cli
from faultfilter.bench_cli import (BENCH_POLES, BenchConfig, FaultScenario,
                                   closed_loop_sim, collect_identification_data,
                                   run_comparison)

P = 100                 # past window of the VARX identification
L = 100                 # Markov length and MHE window
HANKEL = 20             # Hankel block rows = block columns
ORDER = 4
N_IDENT = 10 ** 4       # identification record (acceptance-08 scale)
WARMUP = 300            # samples excluded from accuracy scores
DESIGN_BOUND = 0.05     # acceptance-08 bound on the Markov response error
EXACT = 1e-12           # agreement required between two paths of one recursion
# Identified stacked Markov parameters sat 18-21% from the true ones on
# single records at q=1e-6, r=1e-4, N=10^4, p=100 (19-20% as medians of
# six); twice that means identification broke.
IDENT_BOUND = 0.4


def _seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2 ** 31 - 1, count)]


def _design_config(sensor: int, strategy: str) -> ff.DesignConfig:
    return ff.DesignConfig(sensor=sensor, markov_length=L, hankel_rows=HANKEL,
                           hankel_cols=HANKEL, order=ORDER, strategy=strategy,
                           poles=list(BENCH_POLES))


def _rmse(estimate, truth) -> float:
    return float(np.sqrt(np.mean((estimate[WARMUP:] - truth[WARMUP:]) ** 2)))


def _markov_stack(filt, blocks: int = 20) -> np.ndarray:
    return np.vstack(list(filt.as_system().markov(blocks)))


class Workload:
    """Part timings and defaults for the optional hooks."""

    def __init__(self):
        self.parts = {}

    def timed(self, part, fn, *args, **kwargs):
        """Call ``fn``, adding its wall time to ``parts[part]``."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.parts.setdefault(part, []).append(time.perf_counter() - t0)
        return result

    def trace(self, tracer):
        """Hook for tracing that needs the set-up's objects."""

    def checks(self):
        return 0, 0


class Compare(Workload):
    """Four-way comparison, ``run_comparison`` with the default protocol."""

    def setup(self, seed, workdir):
        self.seeds = _seeds(seed, 12)
        self.scores = {}
        run_comparison(BenchConfig(seed=self.seeds[0]))  # warm-up

    def op(self, i):
        s = self.seeds[i % len(self.seeds)]
        t0 = time.perf_counter()
        report = self.timed("run_comparison", run_comparison, BenchConfig(seed=s))
        dt = time.perf_counter() - t0
        k0, k1 = report.window
        failed = 0
        mse = {}
        for res in report.results:
            ok = res.ok and np.all(np.isfinite(res.estimates[k0:k1]))
            failed += not ok
            if ok:
                err = res.estimates[k0:k1] - report.fault[k0:k1]
                mse[res.name] = float(np.mean(err ** 2))
        self.scores.setdefault(s, mse)
        return dt, len(report.results), failed

    def summary(self):
        diag = {}
        for name in ("alg0", "alg1", "alg2", "alg3"):
            vals = [m[name] for m in self.scores.values() if name in m]
            diag[f"mse_{name}"] = float(np.median(vals)) if vals else None
        return diag


class Design(Workload):
    """Offline data-driven design from one fault-free record.

    One operation identifies ξ with ``identify_xi`` (p = 100, delay
    assumed) on a 10^4-sample record, then designs from that ξ for
    sensors {0, 1} x {pole placement, riccati}.
    """

    RECORDS = 3
    CASES = [(0, "pole_placement"), (0, "riccati"),
             (1, "pole_placement"), (1, "riccati")]

    def setup(self, seed, workdir):
        model, ctrl = ff.get_plant("unstable4").factory(q=1e-6, r=1e-4)
        faulty = ff.sensor_fault_plant(model, 0)
        self.truth = ff.xi_from_predictor(ff.to_predictor(faulty), P).stacked()
        self.records = [collect_identification_data(faulty, ctrl, N_IDENT, seed=s)
                        for s in _seeds(seed, self.RECORDS)]
        self.reference = {}
        for sensor, strategy in self.CASES:
            pred = ff.to_predictor(ff.sensor_fault_plant(model, sensor))
            inv = ff.open_loop_inverse(pred)
            Kr = ff.stabilizing_gain(inv.Phi1, inv.C2, strategy=strategy,
                                     poles=list(BENCH_POLES))
            self.reference[sensor, strategy] = _markov_stack(
                ff.reduced_filter(pred, Kr, strategy=strategy))
        self.configs = {case: _design_config(*case) for case in self.CASES}
        self.first = {}
        self.xi_errors = {}
        self.errors = {}
        xi = ff.identify_xi(self.records[0], P, assume_delay=True)  # warm-up
        ff.design_filter_from_xi(xi, self.configs[self.CASES[0]])

    def op(self, i):
        r = i % len(self.records)
        t0 = time.perf_counter()
        xi = self.timed("identify_xi", ff.identify_xi, self.records[r], P,
                        assume_delay=True)
        designs = {}
        failed = 0
        for case in self.CASES:
            try:
                designs[case] = self.timed("design_filter_from_xi",
                                           ff.design_filter_from_xi, xi,
                                           self.configs[case])
            except ff.FaultFilterError:
                failed += 1
        dt = time.perf_counter() - t0

        got = xi.stacked()
        err = float(np.linalg.norm(got - self.truth) / np.linalg.norm(self.truth))
        first = self.first.setdefault(r, got)
        # same record, same estimate; and close to the true predictor
        failed += not (np.all(np.isfinite(got)) and np.max(np.abs(got - first)) <= EXACT
                       and err <= IDENT_BOUND)
        self.xi_errors[r] = err
        for case, filt in designs.items():
            ref = self.reference[case]
            self.errors[r, case] = float(
                np.linalg.norm(_markov_stack(filt) - ref) / np.linalg.norm(ref))
            failed += not (np.all(np.isfinite(filt.step_matrix()))
                           and ff.spectral_radius(filt.Af) < 1.0)
        return dt, 1 + len(self.CASES), failed

    def checks(self):
        # Acceptance 08 bounds the median over records of the sensor-0
        # pole-placement error; single records may exceed it.  The other
        # cases are diagnostics only.
        return 1, int(not self._median((0, "pole_placement")) <= DESIGN_BOUND)

    def _median(self, case):
        vals = [e for (r, c), e in self.errors.items() if c == case]
        return float(np.median(vals)) if vals else float("nan")

    def summary(self):
        diag = {f"design_rel_err.sensor{s}.{k}": self._median((s, k))
                for s, k in self.CASES}
        diag["design_rel_err"] = self._median((0, "pole_placement"))
        diag["records_over_bound"] = sum(
            e > DESIGN_BOUND for (r, c), e in self.errors.items()
            if c == (0, "pole_placement"))
        diag["xi_rel_err"] = float(np.median(list(self.xi_errors.values())))
        return diag


class Estimate(Workload):
    """One designed filter and the MHE baseline over a long faulty log.

    The filter is identified and designed in set-up.  The log is cut into
    ``SEGMENT``-sample CSV files; one operation takes one segment through
    the CLI ``estimate`` (CSV read, batch run, CSV write), runs ``step()``
    sample by sample over its first ``STREAM`` samples, and runs the
    residual generator and ``run_mhe`` over it.
    """

    LOG = 5 * 10 ** 4
    SEGMENT = 10 ** 4
    STREAM = 2000
    SPOT_CHECKS = 3

    def setup(self, seed, workdir):
        s_ident, s_log = _seeds(seed, 2)
        model, ctrl = ff.get_plant("unstable4").factory()
        faulty = ff.sensor_fault_plant(model, 0)
        ident = collect_identification_data(faulty, ctrl, N_IDENT, seed=s_ident)
        xi = ff.identify_xi(ident, P, assume_delay=True)
        self.filt = ff.design_filter_from_xi(xi, _design_config(0, "pole_placement"))
        # a second instance streams, so that tracing its step() leaves the
        # batch runs that give the reference estimates untraced
        self.stream = copy.deepcopy(self.filt)
        base, _ = ff.predictor_from_xi(xi, HANKEL, HANKEL, order=ORDER)
        pred = ff.sensor_fault_channel(base, [0])
        self.problem = ff.build_mhe(pred, L)
        self.resgen = ff.residual_generator(pred)

        log, fault = closed_loop_sim(faulty, ctrl, self.LOG,
                                     np.random.default_rng(s_log),
                                     scenario=FaultScenario())
        cuts = range(0, self.LOG, self.SEGMENT)
        self.segments = [ff.IOData(log.u[k:k + self.SEGMENT], log.y[k:k + self.SEGMENT])
                         for k in cuts]
        self.faults = [fault[k:k + self.SEGMENT, 0] for k in cuts]
        self.dir = workdir
        self.filter_csv = os.path.join(workdir, "filter.csv")
        self.filt.to_csv(self.filter_csv)
        self.data_csv = []
        for k, seg in enumerate(self.segments):
            self.data_csv.append(os.path.join(workdir, f"log{k}.csv"))
            seg.to_csv(self.data_csv[k])
        self.spots = np.random.default_rng(seed).integers(L - 1, self.SEGMENT,
                                                          self.SPOT_CHECKS)
        self.reference = {}
        self.errors = {"cli": {}, "mhe": {}}
        self.out = np.empty(self.STREAM)
        self._cli(self.data_csv[0])  # warm-up
        self._stream(0)
        self._mhe(0)

    def _cli(self, data_csv):
        with contextlib.redirect_stdout(io.StringIO()):
            return bench_cli.main(["estimate", "--filter", self.filter_csv,
                                   "--data", data_csv, "--out", self.dir])

    def _stream(self, k):
        seg, filt, out = self.segments[k], self.stream, self.out
        filt.reset()
        for j, u, y in zip(range(self.STREAM), seg.u, seg.y):
            out[j] = filt.step(u, y)[0]
        return out

    def _mhe(self, k):
        seg = self.segments[k]
        res = self.resgen.run(np.hstack([seg.u, seg.y]))
        return res, ff.run_mhe(self.problem, res)

    def op(self, i):
        k = i % len(self.segments)
        t0 = time.perf_counter()
        code = self.timed("cli_estimate", self._cli, self.data_csv[k])
        stream = self.timed("step", self._stream, k)
        res, est_mhe = self.timed("mhe", self._mhe, k)
        dt = time.perf_counter() - t0

        if k not in self.reference:
            seg = self.segments[k]
            self.reference[k] = self.filt.run(seg.u, seg.y)[:, 0].copy()
        ref = self.reference[k]
        failed = int(code != 0)
        if code == 0:
            # the CLI must reproduce the in-memory batch run exactly
            est = np.loadtxt(os.path.join(self.dir, "estimates.csv"), delimiter=",",
                             skiprows=1, usecols=1)
            failed += not (est.shape == ref.shape and np.max(np.abs(est - ref)) <= EXACT)
            self.errors["cli"].setdefault(k, _rmse(est, self.faults[k]) ** 2)
        # streaming step() must reproduce batch run() sample for sample
        failed += not np.all(np.abs(stream - ref[:self.STREAM]) <= EXACT)
        # the sliding MHE sweep must agree with the one-window estimator
        ok = bool(np.all(np.isfinite(est_mhe[L - 1:])))
        for j in self.spots:
            one = ff.mhe_estimate(self.problem, res[j - L + 1:j + 1])[-est_mhe.shape[1]:]
            ok = ok and np.max(np.abs(one - est_mhe[j])) <= 1e-9 * max(1.0, np.max(np.abs(one)))
        failed += not ok
        self.errors["mhe"].setdefault(k, _rmse(est_mhe[:, 0], self.faults[k]) ** 2)
        return dt, 3, failed

    def trace(self, tracer):
        # the bare step_matrix() matvec, the floor under step(); traced
        # time_filter_step records it as inverse_filter.matvec_ns
        bench_cli.time_filter_step(self.filt, 2000)
        tracing.trace_steps(tracer, self.stream)

    def summary(self):
        return {f"{name}_rmse": float(np.sqrt(np.mean(list(errs.values()))))
                for name, errs in self.errors.items()}


WORKLOADS = {
    "compare": Compare,
    "design": Design,
    "estimate": Estimate,
}
