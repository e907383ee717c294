#!/usr/bin/env python3
"""Four-way benchmark on one seeded trajectory.

Compares, on the same faulty closed-loop run of an unstable plant:

  alg0  model-based inversion filter on the true plant (reference),
  alg1  inversion filter built from the realized identified predictor,
  alg2  inversion filter realized directly from identified Markov
        parameters,
  alg3  moving-horizon least squares on the identified predictor.

Writes the same artifacts the `faultfilter compare` command produces:
estimates.csv, stats.csv, report.svg and cost.txt in out/.
"""
import os

import numpy as np

from faultfilter import BenchConfig, run_comparison


def main():
    cfg = BenchConfig(seed=1000)
    report = run_comparison(cfg)
    print(report.summary())

    # steady-state error traces, the single-number accuracy ranking
    print("\nerror covariance traces:")
    for res in report.results:
        if res.ok:
            print(f"  {res.name}: {np.trace(res.stats.covariance):.5f}")

    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    report.write(out)
    print(f"\nwrote estimates.csv, stats.csv, report.svg, cost.txt to {out}")


if __name__ == "__main__":
    main()
