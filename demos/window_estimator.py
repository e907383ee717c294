#!/usr/bin/env python3
"""Moving-horizon least squares as the accuracy/cost baseline.

Builds the windowed estimator from the same predictor the inversion
filter uses, confirms its closed-form newest gain rows solve the
stacked LS problem, slides it over a faulty run, and times one window
update against one recursive filter step.
"""
import numpy as np

from faultfilter import (
    FaultScenario,
    build_mhe,
    closed_loop_sim,
    get_plant,
    open_loop_inverse,
    reduced_filter,
    residual_generator,
    run_filter,
    run_mhe,
    sensor_fault_plant,
    stabilizing_gain,
    to_predictor,
    xi_from_predictor,
)
from faultfilter.bench_cli import time_filter_step, time_window_step
from faultfilter.lti_core import block_toeplitz
from faultfilter.markov_design import z_markov


def main():
    model, controller = get_plant("unstable4").factory()
    faulty = sensor_fault_plant(model, 0)
    pred = to_predictor(faulty)

    L = 100
    problem = build_mhe(pred, L)
    print(f"window L={L}: newest gain rows {problem.gain_rows.shape}, "
          f"{problem.n_states} initial states projected out")

    # the closed-form rows solve the stacked least squares problem
    rng = np.random.default_rng(3)
    r = rng.standard_normal(problem.Tf.shape[0])
    lsq = np.linalg.pinv(np.hstack([problem.O, problem.Tf])) @ r
    dev = np.max(np.abs(problem.gain_rows @ r - lsq[-problem.n_faults:]))
    print(f"gain rows vs pseudo-inverse solution: max deviation {dev:.2e}")

    # slide over a faulty closed-loop record; the window needs the
    # residual series, so run the innovation filter over [u, y] first
    scenario = FaultScenario(onset=51)
    data, fault = closed_loop_sim(faulty, controller, 1300,
                                  np.random.default_rng(11),
                                  scenario=scenario)
    residuals = residual_generator(pred).run(np.hstack([data.u, data.y]))
    estimates = run_mhe(problem, residuals)
    err = estimates[300:] - fault[300:]
    print(f"window estimator:  error variance {np.var(err):.5f}")

    inv = open_loop_inverse(pred)
    filt = reduced_filter(pred, stabilizing_gain(inv.Phi1, inv.C2))
    ferr = run_filter(filt, data)[300:] - fault[300:]
    print(f"recursive filter:  error variance {np.var(ferr):.5f}")

    # per-sample cost: the recursive filter does one matrix-vector
    # product; the window path shifts the window and multiplies the
    # newest gain rows composed with the residual generator (folded in
    # through the [u; y] -> e convolution)
    xi = xi_from_predictor(pred, L - 1)
    Hz = z_markov(xi.Hu, xi.Hy, L)
    window_map = problem.gain_rows @ block_toeplitz(Hz, L)
    t_rec = time_filter_step(filt, steps=5000)
    t_win = time_window_step(window_map, Hz.shape[2], steps=5000)
    print(f"per-sample cost: recursive {t_rec:.0f} ns, "
          f"window {t_win:.0f} ns ({t_win / t_rec:.1f}x)")


if __name__ == "__main__":
    main()
