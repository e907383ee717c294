"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracing.py`` rebinds named package functions and methods;
its ``rebind`` raises RuntimeError when a traced name is gone.  Running
the install here makes a rename or removal fail in the test suite
instead of only in the benchmark.
"""
import copy
import sys
from pathlib import Path

import numpy as np

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


def test_traced_step_on_a_copy_matches_run(monkeypatch):
    # the estimate workload deep-copies a designed filter and rebinds step
    # on the copy; a frozen or __slots__ filter would break either
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    model, ctrl = ff.get_plant("unstable4").factory()
    faulty = ff.sensor_fault_plant(model, 0)
    xi = ff.identify_xi(ff.collect_identification_data(faulty, ctrl, 2000, seed=3), 40,
                        assume_delay=True)
    filt = ff.design_filter_from_xi(xi, ff.DesignConfig(sensor=0, markov_length=40,
                                                        hankel_rows=10, hankel_cols=10,
                                                        order=4))
    stream = copy.deepcopy(filt)
    tracer = tracing.Tracer()
    tracing.trace_steps(tracer, stream)
    rng = np.random.default_rng(0)
    u, y = rng.standard_normal((300, filt.n_inputs)), rng.standard_normal((300, filt.n_outputs))
    ref = filt.run(u, y)
    got = np.array([stream.step(u[k], y[k]) for k in range(len(u))])
    assert len(tracer.start) == len(u)
    assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.abs(ref).max())


def test_second_strategy_on_one_xi_skips_realize(monkeypatch):
    # a xi keeps its realized inverse: the traced design of the other gain
    # strategy records an assemble_filter span but no second realize span
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    model, ctrl = ff.get_plant("unstable4").factory()
    xi = ff.identify_xi(ff.collect_identification_data(ff.sensor_fault_plant(model, 0), ctrl,
                                                       2000, seed=3), 40, assume_delay=True)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for strategy in ("pole_placement", "riccati"):
            ff.design_filter_from_xi(xi, ff.DesignConfig(
                sensor=0, markov_length=40, hankel_rows=10, hankel_cols=10, order=4,
                strategy=strategy, poles=[0.5, 0.4, 0.3, 0.2]))
    finally:
        tracer.uninstall()
    spans = [tracer.names[i] for i in tracer.name]
    assert spans.count("markov_design.design_filter_from_xi") == 2
    assert spans.count("markov_design.realize") == 1
    assert spans.count("markov_design.assemble_filter") == 2


def test_every_arm_designs_through_assemble_filter(monkeypatch):
    # alg0, alg1 and alg2 all end in one assemble_filter; a warm plant
    # cache keeps alg0's filter, so the second comparison designs two
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cfg = ff.BenchConfig(p=40, markov_length=40, hankel_rows=12, hankel_cols=12,
                         n_ident=800, run_samples=500, window_start=300, seed=3)
    counts = []
    tracer = tracing.Tracer()
    bench_cli._registry_loop.cache_clear()
    bench_cli._registry_alg0.cache_clear()
    try:
        tracing.install(tracer)
        for _ in range(2):
            start = len(tracer.name)
            report = ff.run_comparison(cfg)
            assert all(res.ok for res in report.results)
            spans = [tracer.names[i] for i in tracer.name[start:]]
            counts.append(spans.count("markov_design.assemble_filter"))
    finally:
        tracer.uninstall()
        bench_cli._registry_loop.cache_clear()
        bench_cli._registry_alg0.cache_clear()
    assert counts == [3, 2]
