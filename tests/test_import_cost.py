"""Which code loads ``scipy``.

Running a designed filter needs only numpy, so ``import faultfilter``
and the ``estimate`` verb load no scipy module at all: ``scipy.linalg``
costs ~0.25 s to import and identification and design load it on first
use.  ``scipy.signal`` costs ~0.5 s more, and its only user is pole
placement in ``stabilizing_gain`` when the healthy outputs give C2 a
rank of 2 or more; rank one, as on every single-sensor fault of the
two-output ``unstable4``, has a closed-form gain computed with numpy.
Each case runs in a fresh interpreter, so a later top-level import that
brings either cost back to ``import faultfilter``, the ``estimate`` and
``identify`` verbs, or a riccati or rank-one design fails here.
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


def test_rank_one_pole_placement_loads_no_scipy_signal(tmp_path):
    # design and compare on unstable4 place poles for alg0, alg1 and alg2
    argv = ["--seed", "1", "--out", str(tmp_path)]
    run_fresh(f"""
from faultfilter.bench_cli import main
assert main(["design", *{argv!r}]) == 0
assert main(["compare", *{argv!r}]) == 0
assert 'scipy.linalg' in sys.modules, 'design did not load scipy.linalg'
assert 'scipy.signal' not in sys.modules, 'scipy.signal was loaded'
""")
    assert (tmp_path / "filter.csv").exists()
    rows = (tmp_path / "stats.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1"] * 4  # every arm ran


def test_rank_two_pole_placement_loads_scipy_signal():
    # three outputs and one faulty sensor leave two healthy rows in C2
    run_fresh("""
import numpy as np
from faultfilter import (StateSpaceModel, open_loop_inverse, sensor_fault_plant,
                         spectral_radius, stabilizing_gain, to_predictor)

A = np.array([[0.9, 0.2, 0.0], [0.0, 1.1, 0.3], [0.1, 0.0, 0.5]])
model = StateSpaceModel(A, np.ones((3, 1)), np.eye(3), Q=1e-3 * np.eye(3),
                        R=1e-2 * np.eye(3))
inv = open_loop_inverse(to_predictor(sensor_fault_plant(model, 0)))
assert np.linalg.matrix_rank(inv.C2) == 2
Kr = stabilizing_gain(inv.Phi1, inv.C2, "pole_placement", poles=[0.5, 0.3, 0.1])
assert spectral_radius(inv.Phi1 - Kr @ inv.C2) < 1
assert 'scipy.signal' in sys.modules, 'rank-two pole placement did not load scipy.signal'
""")
