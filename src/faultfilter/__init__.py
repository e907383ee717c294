"""Sensor fault estimation filters from plant input-output data.

The package identifies predictor Markov parameters from closed-loop
records, inverts the fault-to-residual dynamics with a stabilized
reduced-order filter (either from a known model or directly from the
identified parameters), and benchmarks the result against a moving
horizon least squares baseline.

Each module's ``__all__`` is the one list of its public names; the
package republishes them all.
"""
from .errors import *
from .lti_core import *
from .sysid_markov import *
from .inverse_filter import *
from .markov_design import *
from .mhe_baseline import *
from .bench_cli import *

__version__ = "0.1.0"
