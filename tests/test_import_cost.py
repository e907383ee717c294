"""Which code loads ``scipy``.

Running a designed filter needs only numpy, so ``import faultfilter``
and the ``estimate`` verb load no scipy module at all: ``scipy.linalg``
costs ~0.25 s to import and identification and design load it on first
use.  ``scipy.signal`` costs ~0.9 s, more than the rest of the package
together, and its only user is pole placement in ``stabilizing_gain``.
Each case runs in a fresh interpreter, so a later top-level import that
brings either cost back to ``import faultfilter``, the ``estimate`` and
``identify`` verbs or a riccati design fails here.
"""
import subprocess
import sys
from pathlib import Path

import numpy as np

import faultfilter as ff

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SCIPY = "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy was loaded'\n"

BLOCK_SCIPY = """
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'scipy':
            raise ImportError(f'{name} is blocked')

sys.meta_path.insert(0, NoScipy())
"""


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports the package from src/."""
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
    child = subprocess.run([sys.executable, "-c", prelude + code],
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


def write_inputs(tmp_path, rng):
    """A stable two-state filter, a 200-sample record and a p = 3 config."""
    filt = ff.FaultEstimationFilter(
        0.5 * np.eye(2), rng.standard_normal((2, 1)), rng.standard_normal((2, 1)),
        rng.standard_normal((1, 2)), np.zeros((1, 1)), np.ones((1, 1)),
    )
    filt.to_csv(tmp_path / "filter.csv")
    data = ff.IOData(rng.standard_normal((200, 1)), rng.standard_normal((200, 1)))
    data.to_csv(tmp_path / "run.csv")
    (tmp_path / "bench.ini").write_text("[identify]\np = 3\n")
    return filt, data


def test_import_loads_no_scipy():
    run_fresh("import faultfilter, faultfilter.bench_cli\n" + NO_SCIPY)


def test_estimate_runs_without_scipy(tmp_path, rng):
    filt, data = write_inputs(tmp_path, rng)
    argv = ["estimate", "--data", str(tmp_path / "run.csv"),
            "--filter", str(tmp_path / "filter.csv")]
    run_fresh(BLOCK_SCIPY + f"""
from faultfilter.bench_cli import entry, main
sys.argv = ["faultfilter", *{argv!r}, "--out", {str(tmp_path / "entry")!r}]
try:
    entry()
except SystemExit as exc:
    assert exc.code == 0, exc.code
else:
    raise AssertionError("entry() did not exit")
assert main({argv!r} + ["--out", {str(tmp_path / "main")!r}]) == 0
""" + NO_SCIPY)
    want = ff.run_filter(filt, data)
    for out in ("entry", "main"):
        got = np.loadtxt(tmp_path / out / "estimates.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got[:, 0], np.arange(200))
        np.testing.assert_allclose(got[:, 1:], want, rtol=0, atol=1e-12)


def test_identify_loads_scipy_linalg_not_signal(tmp_path, rng):
    write_inputs(tmp_path, rng)
    argv = ["identify", "--data", str(tmp_path / "run.csv"), "--out", str(tmp_path),
            "--config", str(tmp_path / "bench.ini")]
    run_fresh("from faultfilter.bench_cli import main\n" + NO_SCIPY
              + f"assert main({argv!r}) == 0\n"
              "assert 'scipy.linalg' in sys.modules, 'identify did not load scipy.linalg'\n"
              "assert 'scipy.signal' not in sys.modules, 'scipy.signal was loaded'")
    assert (tmp_path / "xi.csv").exists()


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
