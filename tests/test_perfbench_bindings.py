"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracing.py`` rebinds named package functions and methods;
its ``rebind`` raises RuntimeError when a traced name is gone.  Running
the install here makes a rename or removal fail in the test suite
instead of only in the benchmark.
"""
import sys
from pathlib import Path

import faultfilter as ff
from faultfilter import bench_cli, inverse_filter, lti_core

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bindings():
    """Every attribute of every loaded faultfilter module and traced class."""
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "faultfilter" or name.startswith("faultfilter."))]
    owners += [lti_core.LinearSystem, lti_core.IOData,
               inverse_filter.FaultEstimationFilter]
    return {(id(o), attr): val for o in owners for attr, val in vars(o).items()}


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        installed = len(tracer._restore)
        assert installed > 0
        assert bench_cli.closed_loop_sim is not before[id(bench_cli), "closed_loop_sim"]
        assert ff.run_filter is not before[id(ff), "run_filter"]
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key, val in before.items() if after[key] is not val]
    assert not changed
