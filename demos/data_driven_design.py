#!/usr/bin/env python3
"""Design the fault filter from data alone and compare to the model.

The plant runs in closed loop under white excitation; a VARX regression
estimates the predictor Markov parameters, and the whole filter is then
assembled from those estimates without ever forming a plant model.  Two
effects worth seeing in the numbers: the actuation delay makes the
lag-zero input coefficient structurally zero, and estimating it anyway
picks up a repeatable feedback-induced bias; and the raw output-channel
blocks carry a lot of regression noise that the low-rank realization
step averages away.
"""
import numpy as np

from faultfilter import (
    DesignConfig,
    FaultScenario,
    closed_loop_sim,
    collect_identification_data,
    design_filter_from_xi,
    get_plant,
    identify_xi,
    open_loop_inverse,
    reduced_filter,
    run_filter,
    sensor_fault_plant,
    stabilizing_gain,
    to_predictor,
    xi_from_predictor,
)
from faultfilter.bench_cli import BENCH_POLES

POLES = list(BENCH_POLES)


def filter_markov(filt, L=20):
    return np.vstack(list(filt.as_system().markov(L)))


def block_error(est, tru, L):
    return np.linalg.norm(est[:L] - tru[:L]) / np.linalg.norm(tru[:L])


def main():
    model, gain = get_plant("unstable4").factory()
    faulty = sensor_fault_plant(model, 0)
    pred = to_predictor(faulty)

    data = collect_identification_data(faulty, gain, 4000, seed=0)
    truth = xi_from_predictor(pred, 100)

    # the plant actuates with a one sample delay, so the true lag-zero
    # input block is exactly zero; the unconstrained estimate of it is
    # not noise but a repeatable bias from the feedback loop
    for delay in (False, True):
        xi = identify_xi(data, 100, assume_delay=delay)
        print(f"assume_delay={delay}: |H0u| = {np.abs(xi.Hu[0]).max():.4f} "
              f"(true value 0)")

    xi = identify_xi(data, 100, assume_delay=True)
    print(f"raw block error over first 10 lags: "
          f"input channel {block_error(xi.Hu, truth.Hu, 10):.1%}, "
          f"output channel {block_error(xi.Hy, truth.Hy, 10):.1%}")

    cfg = DesignConfig(sensor=0, markov_length=100, hankel_rows=20,
                       hankel_cols=20, order=4, strategy="pole_placement",
                       poles=POLES)
    filt_data = design_filter_from_xi(xi, cfg)

    inv = open_loop_inverse(pred)
    Kr = stabilizing_gain(inv.Phi1, inv.C2, strategy="pole_placement",
                          poles=POLES)
    filt_model = reduced_filter(pred, Kr)

    # the rank-4 realization projects the noisy block sequence onto a
    # genuine order-4 system, so the designed filter sits much closer to
    # the model-based one than the raw blocks above suggest
    M_data, M_model = filter_markov(filt_data), filter_markov(filt_model)
    rel = np.linalg.norm(M_data - M_model) / np.linalg.norm(M_model)
    print(f"filter impulse response, data-driven vs model-based: "
          f"{rel:.1%} relative error")

    # both filters on a fresh faulty run
    run, fault = closed_loop_sim(faulty, gain, 1300,
                                 np.random.default_rng(42),
                                 scenario=FaultScenario(onset=51))
    for name, filt in (("model-based", filt_model), ("data-driven", filt_data)):
        err = run_filter(filt, run)[300:] - fault[300:]
        print(f"{name}: error variance {np.var(err):.5f}, "
              f"bias {err.mean():+.5f}")


if __name__ == "__main__":
    main()
