"""Accuracy of the four-way comparison over fixed seed sets.

Usage, from the root of a checkout:

    python3 accuracy/run.py

Runs ``run_comparison`` at the default config on seeds 0-299 and
1000-1299 and writes ``BENCH_accuracy.json`` at the root of the
checkout.  For each seed set (0-49, 0-299 and 1000-1299) and each arm
the file records the failure count, the median, p90 and max of the MSE,
the median of the bias and the p90 and max of |bias|.  An arm's MSE and
bias on one seed are the mean squared and the mean estimation error over
the scoring window [window_start, run_samples), over every fault
component; a failed arm counts as a failure and adds no figure.  Keys
are sorted and floats are written by ``repr``, so a rerun writes the
same bytes.  Nothing is timed.
"""
from __future__ import annotations

import os

if __name__ == "__main__":
    # one BLAS thread, set before numpy loads: the figures were bit-identical
    # at 1 and 2 threads, and on a 2-core host 2 threads took twice as long
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from faultfilter import run_comparison  # noqa: E402
from faultfilter.bench_cli import load_bench_config  # noqa: E402

OUT = ROOT / "BENCH_accuracy.json"
SEED_SETS = {"0-49": range(50), "0-299": range(300), "1000-1299": range(1000, 1300)}


def arm_errors(seeds) -> dict:
    """{seed: {arm: (mse, bias), or None where the arm failed}}."""
    out = {}
    for seed in seeds:
        report = run_comparison(load_bench_config(seed=seed))
        k0, k1 = report.window
        out[seed] = dict.fromkeys(res.name for res in report.results)
        for res in report.results:
            if res.ok:
                err = res.estimates[k0:k1] - report.fault[k0:k1]
                out[seed][res.name] = float(np.mean(err ** 2)), float(np.mean(err))
    return out


def summarize(errors: dict, seeds) -> dict:
    """Per-arm figures over ``seeds`` of an :func:`arm_errors` table."""
    table = {}
    for arm in errors[seeds[0]]:
        runs = [errors[s][arm] for s in seeds]
        ok = np.array([r for r in runs if r is not None]).reshape(-1, 2)
        mse, bias = ok[:, 0], ok[:, 1]
        row = {"failures": len(runs) - len(ok)}
        if len(ok):
            row.update(mse_median=float(np.median(mse)),
                       mse_p90=float(np.percentile(mse, 90)),
                       mse_max=float(mse.max()),
                       bias_median=float(np.median(bias)),
                       abs_bias_p90=float(np.percentile(np.abs(bias), 90)),
                       abs_bias_max=float(np.abs(bias).max()))
        table[arm] = row
    return table


def accuracy(seed_sets=SEED_SETS) -> dict:
    """The file's contents: the per-arm figures of every seed set."""
    errors = arm_errors(sorted(set().union(*seed_sets.values())))
    return {name: summarize(errors, list(seeds)) for name, seeds in seed_sets.items()}


def main() -> int:
    OUT.write_text(json.dumps(accuracy(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
