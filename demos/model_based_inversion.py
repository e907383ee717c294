#!/usr/bin/env python3
"""Sensor fault reconstruction on an unstable plant, model known.

Walks the model-based route end to end: put the plant in predictor
form, check the fault subsystem has no bad invariant zeros, build the
open-loop inverse, stabilize it by output injection, and run the
resulting recursive filter against a simulated closed-loop record with
a sinusoid + step fault on the first sensor.
"""
import numpy as np

from faultfilter import (
    FaultScenario,
    IOData,
    closed_loop_sim,
    get_plant,
    invariant_zeros_stable,
    open_loop_inverse,
    reduced_filter,
    run_filter,
    sensor_fault_plant,
    spectral_radius,
    stabilizing_gain,
    to_predictor,
)


def main():
    model, gain = get_plant("unstable4").factory()
    print("open-loop spectral radius:", round(spectral_radius(model.A), 4))

    # fault channel on sensor 1 (index 0), then predictor form
    faulty = sensor_fault_plant(model, 0)
    pred = to_predictor(faulty)
    print("predictor spectral radius:", round(spectral_radius(pred.Phi), 4))

    ok, zeros = invariant_zeros_stable(pred.Phi, pred.Et, pred.C, pred.G)
    print("invariant zeros:", zeros if zeros.size else "none",
          "-> stable inversion possible" if ok else "-> NOT invertible stably")

    inv = open_loop_inverse(pred)
    print("open-loop inverse spectral radius:",
          round(spectral_radius(inv.Phi1), 4))

    Kr = stabilizing_gain(inv.Phi1, inv.C2)
    filt = reduced_filter(pred, Kr)
    print("filter spectral radius after injection:",
          round(spectral_radius(filt.Af), 4))

    # faulty closed-loop run: fault appears at sample 51
    scenario = FaultScenario(onset=51)
    rng = np.random.default_rng(7)
    data, fault = closed_loop_sim(faulty, gain, 800, rng,
                                  scenario=scenario)
    fhat = run_filter(filt, data)

    err = fhat - fault
    rmse_pre = np.sqrt(np.mean(err[10:51] ** 2))
    rmse_post = np.sqrt(np.mean(err[200:] ** 2))
    print(f"rmse before onset {rmse_pre:.4f}, after transient {rmse_post:.4f}")

    # with the noise switched off the reconstruction is exact
    quiet, _ = get_plant("unstable4").factory(q=0.0, r=1e-30)
    quiet_faulty = sensor_fault_plant(quiet, 0)
    qdata, qfault = closed_loop_sim(quiet_faulty, gain, 400,
                                    np.random.default_rng(7),
                                    scenario=scenario)
    qhat = run_filter(reduced_filter(to_predictor(quiet_faulty), Kr),
                      IOData(qdata.u, qdata.y))
    print("noise-free max deviation:",
          f"{np.max(np.abs(qhat[100:] - qfault[100:])):.2e}")


if __name__ == "__main__":
    main()
