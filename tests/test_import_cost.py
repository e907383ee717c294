"""Which code loads ``scipy.signal``.

Importing ``scipy.signal`` costs ~0.9 s, more than the rest of the
package together, and its only user is pole placement in
``stabilizing_gain``.  Each case runs in a fresh interpreter, so a
later top-level import that brings the cost back to ``import
faultfilter``, the ``estimate`` and ``identify`` verbs or a riccati
design fails here.
"""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import faultfilter as ff

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports the package from src/."""
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
    child = subprocess.run([sys.executable, "-c", prelude + code],
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


def test_import_does_not_load_scipy_signal():
    run_fresh("import faultfilter, faultfilter.bench_cli\n"
              "assert 'scipy.signal' not in sys.modules, 'scipy.signal was loaded'")


@pytest.mark.parametrize("verb", ["estimate", "identify"])
def test_cli_verb_does_not_load_scipy_signal(tmp_path, rng, verb):
    ff.FaultEstimationFilter(
        0.5 * np.eye(2), rng.standard_normal((2, 1)), rng.standard_normal((2, 1)),
        rng.standard_normal((1, 2)), np.zeros((1, 1)), np.ones((1, 1)),
    ).to_csv(tmp_path / "filter.csv")
    ff.IOData(rng.standard_normal((200, 1)), rng.standard_normal((200, 1))).to_csv(
        tmp_path / "run.csv")
    (tmp_path / "bench.ini").write_text("[identify]\np = 3\n")
    argv = [verb, "--data", str(tmp_path / "run.csv"), "--out", str(tmp_path),
            "--config", str(tmp_path / "bench.ini")]
    if verb == "estimate":
        argv += ["--filter", str(tmp_path / "filter.csv")]
    run_fresh("from faultfilter.bench_cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "assert 'scipy.signal' not in sys.modules, 'scipy.signal was loaded'")
    assert (tmp_path / {"estimate": "estimates.csv", "identify": "xi.csv"}[verb]).exists()


def test_only_pole_placement_loads_scipy_signal():
    run_fresh("""
import numpy as np
from faultfilter import (DesignConfig, design_filter_from_xi, open_loop_inverse,
                         sensor_fault_plant, spectral_radius, stabilizing_gain,
                         to_predictor, xi_from_predictor)
from faultfilter.bench_cli import BENCH_POLES, get_plant

model, _ = get_plant("unstable4").factory()
cfg = DesignConfig(sensor=0, markov_length=60, hankel_rows=12, hankel_cols=12,
                   order=4, strategy="riccati")
filt = design_filter_from_xi(xi_from_predictor(to_predictor(model), 60), cfg)
assert spectral_radius(filt.Af) < 1
assert 'scipy.signal' not in sys.modules, 'scipy.signal was loaded'
inv = open_loop_inverse(to_predictor(sensor_fault_plant(model, 0)))
Kr = stabilizing_gain(inv.Phi1, inv.C2, "pole_placement", poles=BENCH_POLES)
assert spectral_radius(inv.Phi1 - Kr @ inv.C2) < 1
assert 'scipy.signal' in sys.modules, 'pole placement did not load scipy.signal'
""")
