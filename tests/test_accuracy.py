"""The accuracy harness reproduces its committed figures and the paper's claim.

Seeds 0-49 of ``accuracy/run.py`` are run again at the default config
and checked against ``BENCH_accuracy.json``: the failure counts must
match, and the MSE medians and p90s of alg0..alg2 must lie within a
relative MARGIN of the file's.  alg3 is reported, not checked: where
alg1's realized predictor has a spectral radius of 1 or more, the
window estimator on it runs an unstable residual generator.
"""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# The file's figures were bit-identical at 1 and 2 BLAS threads, and a
# relative 1e-13 change of every identification record moved no checked
# figure by more than 3e-11; a design change moves them by percents.
MARGIN = 1e-6
CHECKED = ("alg0", "alg1", "alg2")


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / "BENCH_accuracy.json").read_text())["0-49"]


@pytest.fixture(scope="module")
def rerun():
    spec = importlib.util.spec_from_file_location("accuracy_run", ROOT / "accuracy" / "run.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness.accuracy(seed_sets={"0-49": range(50)})["0-49"]


def test_failure_counts_match(committed, rerun):
    assert {arm: row["failures"] for arm, row in rerun.items()} == {
        arm: row["failures"] for arm, row in committed.items()}


@pytest.mark.parametrize("arm", CHECKED)
@pytest.mark.parametrize("figure", ["mse_median", "mse_p90"])
def test_figures_match_the_file(committed, rerun, arm, figure):
    assert rerun[arm][figure] == pytest.approx(committed[arm][figure], rel=MARGIN)


def test_direct_design_beats_the_identified_model(rerun):
    # the paper's claim: designing from the Markov parameters directly is
    # more accurate than designing on a plant realized from them
    assert rerun["alg2"]["mse_median"] < rerun["alg1"]["mse_median"]
