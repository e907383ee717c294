import dataclasses
import hashlib
import re
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import faultfilter as ff
from faultfilter import (
    BenchConfig,
    ExperimentReport,
    FaultScenario,
    ValidationError,
    closed_loop_sim,
    collect_identification_data,
    ellipse_stats,
    run_comparison,
)
from faultfilter import bench_cli
from faultfilter.bench_cli import (
    ALGORITHM_NAMES,
    AlgorithmResult,
    BENCH_POLES,
    load_bench_config,
    main,
    parse_fault_signal,
    parse_matrix,
    time_filter_step,
    time_window_step,
    write_report_svg,
)
from faultfilter.inverse_filter import _inverse_system, assemble_filter
from faultfilter.lti_core import _CHUNK, _write_csv, block_toeplitz, lti_recursion

from conftest import (
    HIDDEN_MODE_INI,
    UNSTABLE_INVERSE_INI,
    _window_map,
    filter_markov_gap,
    planted_zero_predictor,
    stable_invertible_predictor,
)


def per_sample_closed_loop(model, gain, N, rng, scenario=None, eta=None):
    """Reference closed loop: the feedback solved sample by sample.

    Draws process noise and measurement noise in the same order as
    closed_loop_sim, then steps u = (I + gain D)^-1 (eta - gain ycore).
    """
    nu, ny = model.n_inputs, model.n_outputs
    Fg = gain
    loop_inv = np.linalg.inv(np.eye(nu) + Fg @ model.D)
    eta = np.zeros((N, nu)) if eta is None else eta
    W = rng.standard_normal((N, model.F.shape[1])) @ ff.psd_factor(model.Q).T
    V = rng.standard_normal((N, ny)) @ ff.psd_factor(model.R).T
    fault = (np.zeros((N, model.n_faults)) if scenario is None
             else scenario.evaluate(N, model.n_faults))
    x = np.zeros(model.n_states)
    U = np.empty((N, nu))
    Y = np.empty((N, ny))
    for k in range(N):
        ycore = model.C @ x + model.G @ fault[k] + V[k]
        U[k] = loop_inv @ (eta[k] - Fg @ ycore)
        Y[k] = ycore + model.D @ U[k]
        x = model.A @ x + model.B @ U[k] + model.E @ fault[k] + model.F @ W[k]
    return U, Y


# feedthrough the registry controller still stabilizes (rho 0.80)
D_PLANT = np.array([[0.3, -0.2], [0.25, 0.4]])


def with_feedthrough(model, D):
    return ff.StateSpaceModel(model.A, model.B, model.C, D=D,
                              Q=model.Q, R=model.R)


def result(report, name):
    return next(res for res in report.results if res.name == name)


# what small_cfg's arms report when their data or poles defeat them
SHORT_IDENT = ("identify: insufficient excitation: 20 regression rows must exceed the "
               "160 coefficient columns; record more samples or lower p")
FOUR_FOLD_POLE = ("pole placement failed on this pair (pole 0.5 is requested 4 times, "
                  "more than rank(C2) = 1); the riccati strategy handles any detectable pair")


def small_cfg(**kw):
    """Comparison settings scaled down for test speed."""
    base = dict(p=40, markov_length=40, hankel_rows=12, hankel_cols=12,
                n_ident=800, run_samples=500, window_start=300, seed=3)
    base.update(kw)
    return BenchConfig(**base)


def never_build(*args, **kwargs):
    raise AssertionError("a closed loop was built")


def never_chunk(*args, **kwargs):
    raise AssertionError("a record took the chunked path")


# config values no run could satisfy, each with its message
REJECTED_INI = [
    pytest.param("[identify]\np = 0\n", "p must be at least 1, got 0", id="zero-p"),
    pytest.param("[design]\nmarkov_length = -1\n", "markov_length must be at least 1, got -1",
                 id="negative-markov-length"),
    pytest.param("[design]\nhankel_rows = 0\n",
                 "hankel_rows and hankel_cols must be at least 2", id="zero-hankel-rows"),
    pytest.param("[design]\norder = -2\n", "order must be positive or 'auto'",
                 id="negative-order"),
    pytest.param("[design]\nstrategy = pole_placement\npoles = none\n",
                 "pole_placement needs poles", id="pole-placement-without-poles"),
    pytest.param("[design]\norder = 4\npoles = 0.5 0.4 0.3\n",
                 "pole_placement at order 4 needs 4 poles, got 3", id="pole-count-not-order"),
    pytest.param("[design]\npoles = nan 0.3 0.2 0.1\n",
                 "requested pole nan is not a real number inside the unit circle",
                 id="nan-pole"),
    pytest.param("[design]\npoles = 1.5 0.3 0.2 0.1\n",
                 "requested pole 1.5 is not a real number inside the unit circle",
                 id="pole-outside-circle"),
    pytest.param("[plant]\nA = 1 2; 3\nB = 1; 1\nC = 1 0\n",
                 "ragged matrix literal '1 2; 3'", id="ragged-matrix"),
    pytest.param("[plant]\nB = 1; 1\nC = 1 0\n", "[plant] section must define A",
                 id="plant-without-A"),
]


SMALL_INI = """
[identify]
p = 40
n_samples = 400

[design]
markov_length = 40
hankel_rows = 12
hankel_cols = 12
order = 4
strategy = pole_placement
poles = 0.948 0.532 0.225 0.141

[bench]
run_samples = 500
window_start = 300
"""


class TestParseFaultSignal:
    def test_grammar(self):
        # the values at the sample indices k, terms summed in order
        k = np.arange(5, 12)
        for text, want in [
            ("1.5", np.full(7, 1.5)),
            ("step 2", np.full(7, 2.0)),
            ("sin 0.1pi", np.sin(0.1 * np.pi * k)),
            ("0.5 cos 0.2", 0.5 * np.cos(0.2 * k)),
            ("sin pi", np.sin(np.pi * k)),
            ("0.5 sin 0.05pi + step 2", 0.5 * np.sin(0.05 * np.pi * k) + 2.0),
        ]:
            assert np.array_equal(parse_fault_signal(text, k), want), text

    @pytest.mark.parametrize("bad", ["", "step", "sin", "1 2 3",
                                     "sin one", "x sin 0.1"])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_fault_signal(bad, np.arange(3))


class TestFaultScenario:
    def test_default_signal(self):
        scen = FaultScenario(onset=10)
        f = scen.evaluate(30, 1)
        assert f.shape == (30, 1)
        assert np.all(f[:10] == 0.0)
        k = np.arange(10, 30)
        assert np.allclose(f[10:, 0], np.sin(0.1 * np.pi * k) + 1.0)

    def test_phase_is_absolute(self):
        a = FaultScenario(onset=0, signals=("sin 0.1pi",))
        b = FaultScenario(onset=25, signals=("sin 0.1pi",))
        fa, fb = a.evaluate(60, 1), b.evaluate(60, 1)
        assert np.allclose(fa[25:], fb[25:])

    def test_string_signals_and_scalar_sensor(self):
        cfg = BenchConfig(sensors=1, scenario=FaultScenario(onset=5, signals=("step 3",)))
        assert cfg.sensors == (1,)
        f = cfg.scenario.evaluate(8, 1)
        assert np.allclose(f[5:, 0], 3.0)

    def test_default_signal_on_every_fault(self):
        f = FaultScenario(onset=10).evaluate(30, 2)
        assert np.array_equal(f[:, 0], f[:, 1])
        assert np.array_equal(f[:, :1], FaultScenario(onset=10).evaluate(30, 1))

    def test_validation(self):
        with pytest.raises(ValidationError, match="1 fault signals for a plant with 2"):
            FaultScenario(signals=("step 1",)).evaluate(10, 2)
        with pytest.raises(ValidationError, match="onset"):
            FaultScenario(onset=-1)

    def test_bare_string_signals_rejected(self):
        # a bare string would be read one character per fault
        with pytest.raises(ValidationError, match=re.escape(
                "signals needs one string per fault, not 'step 1'")):
            FaultScenario(signals="step 1")

    @pytest.mark.parametrize("signals", [5, b"step 1"], ids=["number", "bytes"])
    def test_signals_not_a_collection_of_strings_rejected(self, signals):
        # bytes would be read one byte per fault, a number not at all
        with pytest.raises(ValidationError, match=re.escape(
                f"signals needs one string per fault, not {signals!r}")):
            FaultScenario(signals=signals)

    @pytest.mark.parametrize("signal", [
        5, [("ramp", 1.0)], [("step",)], [("sin", np.nan, 0.3)], [("step", 1.0)],
    ], ids=["not-a-sequence", "unknown-term", "missing-amplitude", "nan-amplitude", "well-formed"])
    def test_bad_term_tuples_rejected(self, monkeypatch, signal):
        # a signal is text in the [scenario] grammar, checked when the
        # scenario is built, not when a comparison runs it; term tuples,
        # even well formed ones, are not signals
        monkeypatch.setattr(ff.bench_cli._Loop, "build", never_build)
        with pytest.raises(ValidationError, match=re.escape(
                f"fault signal {signal!r} is not a string in the [scenario] grammar")):
            BenchConfig(scenario=FaultScenario(signals=[signal]))

    def test_signals_keep_their_text(self):
        scen = FaultScenario(onset=3, signals=["step 2 + 0.5 cos 0.3"])
        assert scen.signals == ("step 2 + 0.5 cos 0.3",)
        f = scen.evaluate(20, 1)[:, 0]
        assert not f[:3].any()
        assert np.array_equal(f[3:], 2.0 + 0.5 * np.cos(0.3 * np.arange(3, 20)))

    def test_replace_round_trips(self):
        # the kept text is checked again and evaluates as when first given
        scen = dataclasses.replace(FaultScenario(signals=["step 1"]), onset=10)
        assert scen == FaultScenario(onset=10, signals=["step 1"])
        assert np.array_equal(scen.evaluate(30, 1),
                              FaultScenario(onset=10, signals=["step 1"]).evaluate(30, 1))
        with pytest.raises(ValidationError, match="bad amplitude 'x'"):
            dataclasses.replace(scen, signals=["x"])

    @pytest.mark.parametrize("name, value", [("onset", 5), ("signals", ("step 2",))])
    def test_fields_are_fixed(self, name, value):
        scen = FaultScenario(onset=10, signals=("step 1",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scen, name, value)
        assert (scen.onset, scen.signals) == (10, ("step 1",))


class TestRegistry:
    def test_default_plant_registered(self):
        entry = ff.get_plant("unstable4")
        model, ctrl = entry.factory()
        assert model.n_states == 4
        assert ff.spectral_radius(model.A) > 1.0
        assert ctrl.shape == (2, 2)
        # the built-in gain stabilizes its loop (the check closed_loop_sim runs)
        loop = ff.bench_cli._closed_loop_system(model, ctrl)
        assert ff.spectral_radius(loop.A) < 1.0

    def test_unknown_plant(self):
        with pytest.raises(ValidationError, match="unknown plant"):
            ff.get_plant("not_a_plant")


class TestClosedLoopSim:
    def setup_method(self):
        self.model, self.ctrl = ff.get_plant("unstable4").factory()
        self.faulty = ff.sensor_fault_plant(self.model, 0)

    def test_shapes_and_determinism(self):
        a, fa = closed_loop_sim(self.faulty, self.ctrl, 100,
                                np.random.default_rng(5),
                                scenario=FaultScenario(onset=20))
        b, fb = closed_loop_sim(self.faulty, self.ctrl, 100,
                                np.random.default_rng(5),
                                scenario=FaultScenario(onset=20))
        assert a.u.shape == (100, 2) and a.y.shape == (100, 2)
        assert fa.shape == (100, 1)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.y, b.y)
        c, _ = closed_loop_sim(self.faulty, self.ctrl, 100,
                               np.random.default_rng(6),
                               scenario=FaultScenario(onset=20))
        assert not np.array_equal(a.y, c.y)

    def test_fault_changes_output_only_after_onset(self):
        scen = FaultScenario(onset=40, signals=("step 5",))
        clean, _ = closed_loop_sim(self.faulty, self.ctrl, 80,
                                   np.random.default_rng(7))
        faulted, _ = closed_loop_sim(self.faulty, self.ctrl, 80,
                                     np.random.default_rng(7), scenario=scen)
        assert np.allclose(clean.y[:40], faulted.y[:40])
        assert np.max(np.abs(faulted.y[40:] - clean.y[40:])) > 1.0

    def test_step_moves_only_the_plants_faulty_sensor(self):
        # the plant's G places the fault: a step on sensor_fault_plant(model, 1)
        # moves y2 alone at its onset, before the feedback carries it on
        faulty = ff.sensor_fault_plant(self.model, 1)
        scen = FaultScenario(onset=40, signals=("step 5",))
        clean, _ = closed_loop_sim(faulty, self.ctrl, 41, np.random.default_rng(7))
        faulted, fault = closed_loop_sim(faulty, self.ctrl, 41,
                                         np.random.default_rng(7), scenario=scen)
        assert fault.shape == (41, 1)
        step = faulted.y - clean.y
        assert np.array_equal(step[:, 0], np.zeros(41))
        assert np.allclose(step[:40, 1], 0.0) and np.isclose(step[40, 1], 5.0)

    def test_preset_zero_reference_equals_no_excitation(self):
        a, _ = closed_loop_sim(self.faulty, self.ctrl, 50,
                               np.random.default_rng(9), eta=np.zeros((50, 2)))
        b, _ = closed_loop_sim(self.faulty, self.ctrl, 50,
                               np.random.default_rng(9))
        assert np.array_equal(a.y, b.y)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="gain"):
            closed_loop_sim(self.faulty,
                            np.zeros((3, 2)), 10, rng)
        with pytest.raises(ValidationError, match="unstable"):
            closed_loop_sim(self.faulty,
                            np.zeros((2, 2)), 10, rng)
        with pytest.raises(ValidationError, match="excitation must be 10 x 2"):
            closed_loop_sim(self.faulty, self.ctrl, 10, rng, eta=np.zeros((5, 2)))
        both = ff.sensor_fault_plant(self.model, [0, 1])
        with pytest.raises(ValidationError, match="faults"):
            closed_loop_sim(both, self.ctrl, 10, rng,
                            scenario=FaultScenario(onset=2, signals=("step 1",)))

    @pytest.mark.parametrize("case", ["registry", "feedthrough_two_sensors",
                                      "preset_reference"])
    def test_matches_per_sample_loop(self, case):
        model, ctrl, sensors = self.model, self.ctrl, (0,)
        eta = np.sqrt(0.5) * np.random.default_rng(1).standard_normal((150, 2))
        if case != "registry":
            model, sensors = with_feedthrough(self.model, D_PLANT), (0, 1)
        if case == "preset_reference":
            eta = np.random.default_rng(2).standard_normal((150, 2))
        faulty = ff.sensor_fault_plant(model, sensors)
        scen = FaultScenario(onset=30, signals=("step 2", "0.5 sin 0.3")[:len(sensors)])
        data, fault = closed_loop_sim(faulty, ctrl, 150,
                                      np.random.default_rng(4), scenario=scen, eta=eta)
        U, Y = per_sample_closed_loop(faulty, ctrl, 150,
                                      np.random.default_rng(4), scenario=scen, eta=eta)
        assert np.array_equal(fault, scen.evaluate(150, len(sensors)))
        for got, want in ((data.u, U), (data.y, Y)):
            assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.abs(want).max())

    def test_near_singular_loop_rejected(self):
        # gain -inv(D) makes I + gain D vanish up to rounding only
        model = with_feedthrough(self.model, D_PLANT)
        ctrl = -np.linalg.inv(D_PLANT)
        with pytest.raises(ValidationError, match="algebraically singular"):
            closed_loop_sim(model, ctrl, 10, np.random.default_rng(0))

    def test_collect_identification_data(self):
        a = collect_identification_data(self.model, self.ctrl, 200, seed=11)
        b = collect_identification_data(self.model, self.ctrl, 200, seed=11)
        assert a.n_samples == 200
        assert np.array_equal(a.u, b.u) and np.array_equal(a.y, b.y)
        # excitation keeps the input from being a pure function of y
        resid = a.u + a.y @ self.ctrl.T
        assert np.std(resid) > 0.1


class TestEllipseStats:
    def test_matches_eigen_oracle(self, rng):
        E = rng.standard_normal((500, 2)) @ np.array([[1.0, 0.4], [0.0, 0.3]])
        E += [0.5, -0.2]
        st = ellipse_stats(E)
        mean = E.mean(axis=0)
        cov = (E - mean).T @ (E - mean) / len(E)
        lam = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert np.allclose(st.mean, mean)
        assert np.allclose(st.covariance, cov)
        assert np.allclose(st.axes, np.sqrt(3 * lam))
        assert np.allclose(st.directions.T @ st.directions, np.eye(2),
                           atol=1e-12)
        assert not st.degenerate
        assert st.n_samples == 500

    def test_one_dimensional(self, rng):
        e = rng.standard_normal(300) * 0.2 + 1.0
        st = ellipse_stats(e.reshape(-1, 1))
        assert st.axes.shape == (1,)
        assert np.isclose(st.axes[0], np.sqrt(3 * e.var()))

    def test_nan_rows_dropped(self, rng):
        E = rng.standard_normal((50, 2))
        E[:10] = np.nan
        assert ellipse_stats(E).n_samples == 40

    def test_degenerate_flag(self, rng):
        x = rng.standard_normal(100)
        st = ellipse_stats(np.column_stack([x, 2 * x]))
        assert st.degenerate

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            ellipse_stats(np.ones((2, 2)))


def synthetic_report(nf=1, with_failure=True):
    rng = np.random.default_rng(9)
    N = 50
    fault = np.zeros((N, nf))
    fault[20:] = 1.0
    est = fault + 0.05 * rng.standard_normal((N, nf))
    stats = ellipse_stats(est[10:] - fault[10:])
    results = [AlgorithmResult(name="alg0", ok=True, estimates=est,
                               stats=stats, macs_per_sample=40)]
    if with_failure:
        results.append(AlgorithmResult(name="alg1", ok=False,
                                       message="alg1: synthetic failure"))
    return ExperimentReport(plant="unstable4", seed=9,
                            window=(10, N), fault=fault, results=results)


def svg_variant(nf, variant):
    """synthetic_report(nf) with the arm mix ``variant`` names.

    "plain" has alg0 only, "failure" adds a failed alg1, "nan" adds to
    that an alg2 whose estimates have non-finite rows in the window, and
    "no-ok" keeps only the failed alg1.
    """
    rep = synthetic_report(nf, with_failure=variant != "plain")
    if variant == "nan":
        est = rep.results[0].estimates * 1.2 - 0.03
        est[30, 0] = np.nan
        est[31:33, -1] = np.inf
        rep.results.append(AlgorithmResult(
            name="alg2", ok=True, estimates=est,
            stats=ellipse_stats(est[10:] - rep.fault[10:]), macs_per_sample=40))
    elif variant == "no-ok":
        rep.results = rep.results[1:]
    return rep


class TestExperimentReport:
    def test_summary_mentions_failure(self):
        text = synthetic_report().summary()
        assert "alg0" in text and "trace(cov)" in text
        assert "FAILED" in text and "synthetic failure" in text

    def test_csv_layout_and_determinism(self, tmp_path):
        rep = synthetic_report()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        rep.write(d1)
        rep.write(d2)
        est = (d1 / "estimates.csv").read_text()
        head = est.splitlines()[0].split(",")
        assert head == ["k", "f1", "alg0_f1"]
        assert len(est.splitlines()) == 51
        assert est == (d2 / "estimates.csv").read_text()
        stats = (d1 / "stats.csv").read_text().splitlines()
        assert stats[0].startswith("algorithm,ok,samples")
        assert stats[1].startswith("alg0,1,40")
        assert stats[2].startswith("alg1,0,0")
        assert "synthetic failure" in stats[2]
        assert stats == (d2 / "stats.csv").read_text().splitlines()
        assert sorted(p.name for p in d1.iterdir()) == [
            "cost.txt", "estimates.csv", "report.svg", "stats.csv"]

    def test_summary_states_cost(self):
        assert ", 40 MACs/sample" in synthetic_report().summary()

    def test_cost_file(self, tmp_path):
        # the failed alg1 has no count and no line
        rep = synthetic_report()
        rep.write(tmp_path)
        lines = (tmp_path / "cost.txt").read_text().splitlines()
        assert lines == ["alg0 macs_per_sample 40"]


# sha256 of write_report_svg(svg_variant(nf, variant)), keyed (nf, variant)
SVG_DIGESTS = {
    (1, "plain"): "c82c406d267a58e6d26bb404c1b83aba33f086e153da7dfd686ccd9d5c8ef26d",
    (1, "failure"): "b86175ad902cccfea973da155b1f0b899fd23c09b4794ac568998c911cad20b2",
    (1, "nan"): "e22a52427502ea3992a020239654f576f14e0360bb90ef9097464082c412a5a8",
    (1, "no-ok"): "a91c1ae296c9830f0ccb354281c9e7e2e9e5458cf79ef838d51cce251f7acc0f",
    (2, "plain"): "75c8e07cbad17fc1a8cc25915a4f5eac301f1bcec11e88da973ad4626da73d1a",
    (2, "failure"): "8d875f44b0320071dd861a5cc5de78268d477d65a2e2bbf6df765c11b774cd49",
    (2, "nan"): "972528f8ef427d78ca7cbc9fb6ac1d56aeed56faf703145405cad30e8fca0b70",
    (2, "no-ok"): "a91c1ae296c9830f0ccb354281c9e7e2e9e5458cf79ef838d51cce251f7acc0f",
    (3, "plain"): "975ee301dbbe1e872136885cc80147e7308a5a23c798d3a009d86c0653228610",
    (3, "failure"): "103cc797e6d3e28df7bdd114c3b55cf89e58a354711c46c456c7988f663cc7d3",
    (3, "nan"): "a4fea5d19aab56c529af4e289e421ca3600944b167f00cd672dda13e3b47dd86",
    (3, "no-ok"): "a91c1ae296c9830f0ccb354281c9e7e2e9e5458cf79ef838d51cce251f7acc0f",
}


class TestReportSvg:
    def test_scalar_fault_plot(self, tmp_path):
        path = tmp_path / "r1.svg"
        write_report_svg(synthetic_report(nf=1), path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        text = path.read_text()
        assert "alg0" in text and "failed" in text
        assert "dasharray" in text  # the +/- band around the mean

    def test_planar_fault_plot(self, tmp_path):
        path = tmp_path / "r2.svg"
        write_report_svg(synthetic_report(nf=2, with_failure=False), path)
        ET.parse(path)
        assert "<ellipse" in path.read_text()

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "x.svg", tmp_path / "y.svg"
        write_report_svg(synthetic_report(), p1)
        write_report_svg(synthetic_report(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("variant", ["plain", "failure", "nan", "no-ok"])
    @pytest.mark.parametrize("nf", [1, 2, 3])
    def test_pinned_bytes(self, tmp_path, nf, variant):
        # recorded from the renderer that drew each layout on its own path;
        # a moved or reformatted element changes them
        path = tmp_path / "r.svg"
        write_report_svg(svg_variant(nf, variant), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SVG_DIGESTS[nf, variant]


class TestBenchConfig:
    def test_explicit_model_needs_controller(self):
        model, _ = ff.get_plant("unstable4").factory()
        with pytest.raises(ValidationError, match="controller"):
            BenchConfig(model=model).resolve_plant()

    def test_noise_overrides_reach_factory(self):
        model, _ = BenchConfig(q=0.5, r=2.0).resolve_plant()
        assert np.allclose(model.Q, 0.5 * np.eye(4))
        assert np.allclose(model.R, 2.0 * np.eye(2))

    def test_bad_window_rejected(self):
        with pytest.raises(ValidationError, match="window"):
            run_comparison(small_cfg(window_start=500))

    @pytest.mark.parametrize("start", [38, 0])
    def test_window_before_mhe_fills_rejected(self, monkeypatch, start):
        # the MHE estimate (alg3) starts at sample markov_length - 1 = 39;
        # an earlier window would score it on fewer samples than the others
        monkeypatch.setattr(ff.bench_cli._Loop, "simulate", None)  # nothing simulated
        with pytest.raises(ValidationError, match=rf"window \[{start}, 500\) for 500 "
                           "samples; it must start at or after sample 39, where the MHE "
                           "window of markov_length 40 fills"):
            run_comparison(small_cfg(window_start=start))

    def test_window_from_mhe_fill_scores_every_arm_alike(self):
        rep = run_comparison(small_cfg(window_start=39))
        assert rep.window == (39, 500)
        assert [r.stats.n_samples for r in rep.results] == [461] * 4

    def test_unsorted_sensors_rejected(self):
        with pytest.raises(ValidationError, match="sorted"):
            small_cfg(sensors=(1, 0),
                      scenario=FaultScenario(onset=5, signals=("step 1", "step 1")))

    def test_python_sensors_stay_zero_based(self, monkeypatch):
        monkeypatch.setattr(ff.bench_cli._Loop, "simulate", None)  # nothing simulated
        with pytest.raises(ValidationError, match=r"sensor index 2 outside \[0, 2\)"):
            run_comparison(small_cfg(sensors=2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("name", ["q", "r"])
    def test_bad_noise_scale_rejected(self, name, value):
        # before the factory forms q * I, which warns on inf and gives
        # an asymmetric nan matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(
                    f"{name} must be finite and nonnegative, got {value}")):
                BenchConfig(**{name: value})

    @pytest.mark.parametrize("sensors, signals, message", [
        ((0, 0), None, r"sorted, unique and nonnegative, got zero based \[0, 0\]"),
        ((-1,), None, r"sorted, unique and nonnegative, got zero based \[-1\]"),
        ((0, 1), ("step 1",), "2 sensors but 1 fault signals"),
    ], ids=["duplicate", "negative", "signal-count"])
    def test_bad_sensors_rejected(self, sensors, signals, message):
        with pytest.raises(ValidationError, match=message):
            small_cfg(sensors=sensors, scenario=FaultScenario(signals=signals))

    @pytest.mark.parametrize("build, message", [
        (lambda: small_cfg(sensors=()), "sensors must name at least one sensor, got none"),
        (lambda: BenchConfig(sensors=[]), "sensors must name at least one sensor, got none"),
        (lambda: small_cfg(sensors=(0.5,)), "each entry of sensors must be an integer, got 0.5"),
        (lambda: small_cfg(p=40.5), "p must be an integer, got 40.5"),
        (lambda: small_cfg(n_ident="many"),
         "n_ident ([identify] n_samples) must be an integer, got 'many'"),
        (lambda: small_cfg(seed=None), "seed must be an integer, got None"),
        (lambda: small_cfg(hankel_rows=12.0), "hankel_rows must be an integer, got 12.0"),
        (lambda: small_cfg(order="abc"), "order must be an integer, got 'abc'"),
        (lambda: small_cfg(window_start=300.5), "window_start must be an integer, got 300.5"),
        (lambda: small_cfg(scenario=FaultScenario(onset=5.5)),
         "onset must be an integer, got 5.5"),
        (lambda: small_cfg(window_start=500), "bad statistics window [500, 500)"),
        (lambda: small_cfg(window_start=38),
         "bad statistics window [38, 500) for 500 samples"),
        (lambda: small_cfg(markov_length=-1), "markov_length must be at least 1, got -1"),
        (lambda: small_cfg(hankel_cols=1), "hankel_rows and hankel_cols must be at least 2"),
        (lambda: small_cfg(order=0), "order must be positive or 'auto'"),
        (lambda: small_cfg(strategy="magic"), "unknown strategy 'magic'"),
        (lambda: small_cfg(poles=None), "pole_placement needs poles"),
        (lambda: small_cfg(poles=(0.5, 0.4, 0.3)),
         "pole_placement at order 4 needs 4 poles, got 3"),
        (lambda: small_cfg(poles=(np.nan, 0.3, 0.2, 0.1)), "requested pole nan"),
    ], ids=["empty-sensors", "empty-sensor-list", "fractional-sensor", "fractional-p",
            "text-n-ident", "no-seed", "float-hankel-rows", "text-order",
            "fractional-window-start", "fractional-onset",
            "window-past-run", "window-before-mhe-fills", "negative-markov-length",
            "one-hankel-col", "zero-order", "unknown-strategy", "no-poles",
            "pole-count-not-order", "nan-pole"])
    def test_bad_setting_raises_on_construction(self, monkeypatch, build, message):
        # checked when the config is built, before any closed loop
        monkeypatch.setattr(ff.bench_cli._Loop, "build", never_build)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            build()

    @pytest.mark.parametrize("ini, message", REJECTED_INI + [
        pytest.param("[scenario]\nsensors =\n",
                     "sensors must name at least one sensor, got none", id="empty-sensors"),
        pytest.param("[bench]\nwindow_start = 10\n", "bad statistics window [10, 1300)",
                     id="window-before-mhe-fills"),
    ])
    def test_bad_ini_value_raises_on_load(self, tmp_path, monkeypatch, ini, message):
        monkeypatch.setattr(ff.bench_cli._Loop, "build", never_build)
        path = tmp_path / "bench.ini"
        path.write_text(ini)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            load_bench_config(path)

    def test_window_reported_before_controller(self, monkeypatch):
        # a zero gain leaves the unstable plant unstable, but the window
        # is checked first, when the config is built
        with pytest.raises(ValidationError, match="controller fails to stabilize"):
            run_comparison(small_cfg(controller=np.zeros((2, 2))))
        monkeypatch.setattr(ff.bench_cli._Loop, "build", never_build)
        with pytest.raises(ValidationError, match=r"^bad statistics window \[0, 500\)"):
            run_comparison(small_cfg(controller=np.zeros((2, 2)), window_start=0))

    def test_replace_rebuilds_design(self):
        cfg = small_cfg()
        new = dataclasses.replace(cfg, hankel_rows=15, order="auto", strategy="riccati",
                                  sensors=(1,))
        assert (new.design.hankel_rows, new.design.order, new.design.strategy,
                new.design.sensor) == (15, "auto", "riccati", (1,))
        assert (cfg.design.hankel_rows, cfg.design.order, cfg.design.strategy,
                cfg.design.sensor) == (12, 4, "pole_placement", (0,))
        with pytest.raises(ValidationError, match="hankel_rows and hankel_cols"):
            dataclasses.replace(cfg, hankel_rows=1)
        with pytest.raises(ValidationError, match="bad statistics window"):
            dataclasses.replace(cfg, markov_length=400)

    @pytest.mark.parametrize("name, value", [
        ("sensors", (1,)), ("hankel_rows", 1), ("order", "junk"), ("seed", 4),
        ("design", ff.DesignConfig()),
    ])
    def test_fields_are_fixed(self, name, value):
        # an assigned field would leave cfg.design built from the old one
        cfg = small_cfg()
        design = cfg.design
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
        assert (cfg.sensors, cfg.hankel_rows, cfg.order, cfg.seed) == ((0,), 12, 4, 3)
        assert cfg.design is design and design.sensor == (0,)

    def test_design_holds_the_checked_settings(self):
        cfg = small_cfg(order="4", hankel_cols=np.int64(12), poles=[0.9, 0.5, 0.3, 0.1],
                        sensors=1)
        assert cfg.design == ff.DesignConfig(
            sensor=[1], markov_length=40, hankel_rows=12, hankel_cols=12, order=4,
            strategy="pole_placement", poles=(0.9, 0.5, 0.3, 0.1))
        assert type(cfg.design.order) is int and type(cfg.design.hankel_cols) is int
        assert cfg.order == "4"  # the field keeps the value given

    def test_checked_design_reaches_alg1_and_alg2(self, monkeypatch):
        seen = {}
        predictor, design = bench_cli.predictor_from_xi, bench_cli.design_filter_from_xi

        def alg1_predictor(xi, l, m, order):
            seen["alg1"] = (l, m, order)
            return predictor(xi, l, m, order=order)

        def alg2_design(xi, cfg):
            seen["alg2"] = (cfg.hankel_rows, cfg.hankel_cols, cfg.order)
            return design(xi, cfg)

        monkeypatch.setattr(bench_cli, "predictor_from_xi", alg1_predictor)
        monkeypatch.setattr(bench_cli, "design_filter_from_xi", alg2_design)
        rep = run_comparison(small_cfg(order="4", hankel_rows=np.int64(12)))
        assert all(res.ok for res in rep.results)
        assert seen["alg1"] == seen["alg2"] == (12, 12, 4)
        assert all(type(v) is int for v in seen["alg1"] + seen["alg2"])


class TestRunComparison:
    def test_four_way_smoke(self):
        rep = run_comparison(small_cfg())
        assert [r.name for r in rep.results] == list(ALGORITHM_NAMES)
        assert all(r.ok for r in rep.results)
        assert rep.window == (300, 500)
        for res in rep.results:
            assert res.estimates.shape == (500, 1)
            assert res.macs_per_sample > 0
            assert np.trace(res.stats.covariance) < 0.5
        assert np.trace(result(rep, "alg0").stats.covariance) < 0.1

    def test_gain_failure_marks_arms_independently(self):
        # a four-fold pole cannot be placed by a rank-one injection, so
        # every arm that computes a gain fails; the window estimator
        # needs no gain and survives
        rep = run_comparison(small_cfg(poles=(0.5, 0.5, 0.5, 0.5)))
        assert [res.ok for res in rep.results] == [False, False, False, True]
        assert [res.message for res in rep.results] == [
            FOUR_FOLD_POLE, FOUR_FOLD_POLE, f"stabilize: {FOUR_FOLD_POLE}", ""]

    def test_identification_failure_marks_downstream(self):
        rep = run_comparison(small_cfg(n_ident=60))
        assert [res.ok for res in rep.results] == [True, False, False, False]
        assert [res.message for res in rep.results[1:]] == [SHORT_IDENT] * 3

    def test_failed_arm_is_named_once(self, tmp_path):
        # the row and the summary line name the arm; the message is the
        # error's own stage-tagged text
        rep = run_comparison(small_cfg(n_ident=60))
        summary = rep.summary()
        assert f"  alg1: FAILED ({SHORT_IDENT})" in summary.split("\n")
        assert "(alg1:" not in summary and "FAILED (alg" not in summary
        rep.write(tmp_path)
        rows = (tmp_path / "stats.csv").read_text().splitlines()
        assert rows[2:] == [f"{name},0,0,,,,,{SHORT_IDENT}"
                            for name in ("alg1", "alg2", "alg3")]

    def test_realization_failure_marks_alg3_upstream(self, monkeypatch):
        # alg3 runs on alg1's realized predictor, so when that realization
        # fails alg3 fails with the same error, and alg2, which realizes
        # its own inverse, runs
        def no_predictor(*args, **kwargs):
            raise ValidationError("no predictor")

        monkeypatch.setattr(bench_cli, "predictor_from_xi", no_predictor)
        rep = run_comparison(small_cfg())
        assert [res.ok for res in rep.results] == [True, False, True, False]
        assert result(rep, "alg1").message == result(rep, "alg3").message == "no predictor"

    def test_noise_free_loop_tracks_exactly(self):
        # with the process noise off and measurement noise negligible the
        # model-based inversion filter reproduces the fault pointwise
        cfg = small_cfg(q=0.0, r=1e-30)
        model, ctrl = cfg.resolve_plant()
        faulty = ff.sensor_fault_plant(model, 0)
        pred = ff.to_predictor(faulty)
        inv = ff.open_loop_inverse(pred)
        Kr = ff.stabilizing_gain(inv.Phi1, inv.C2, strategy="pole_placement",
                                 poles=list(BENCH_POLES))
        filt = ff.reduced_filter(pred, Kr, strategy="pole_placement")
        data, fault = closed_loop_sim(faulty, ctrl, 400,
                                      np.random.default_rng(21),
                                      scenario=FaultScenario(onset=51))
        fhat = ff.run_filter(filt, data)
        assert np.max(np.abs(fhat[100:] - fault[100:])) < 1e-6

    @staticmethod
    def counts(rep):
        return [result(rep, name).macs_per_sample for name in ALGORITHM_NAMES]

    def test_counted_work_at_default_config(self):
        # alg0..alg2 step a 5 x 8 matrix; alg3 steps the 6 x 8 residual
        # generator and applies 1 x 100 x 2 newest-row FIR taps
        rep = run_comparison(BenchConfig())
        assert all(res.ok for res in rep.results)
        assert self.counts(rep) == [40, 40, 40, 48 + 200]

    def test_other_step_shape_counted_apart(self, monkeypatch):
        design = ff.bench_cli.design_filter_from_xi

        def padded(xi, cfg):
            # the designed filter plus one stable state nothing drives or reads
            f = design(xi, cfg)
            n = f.n_states
            return ff.FaultEstimationFilter(
                Af=np.block([[f.Af, np.zeros((n, 1))], [np.zeros((1, n)), 0.5]]),
                Bu=np.vstack([f.Bu, np.zeros((1, f.n_inputs))]),
                By=np.vstack([f.By, np.zeros((1, f.n_outputs))]),
                Cf=np.hstack([f.Cf, np.zeros((f.n_faults, 1))]),
                Du=f.Du, Dy=f.Dy, strategy=f.strategy)

        plain = run_comparison(small_cfg())
        monkeypatch.setattr(ff.bench_cli, "design_filter_from_xi", padded)
        rep = run_comparison(small_cfg())
        assert self.counts(rep)[:3] == [40, 40, 6 * 9]
        assert np.allclose(result(rep, "alg2").estimates,
                           result(plain, "alg2").estimates, rtol=0, atol=1e-12)

    def test_counted_without_copying_a_step_matrix(self, monkeypatch):
        # step_matrix() returns a fresh copy; the count reads the dimensions
        def copy_step_matrix(self):
            raise AssertionError("run_comparison copied a step matrix")

        monkeypatch.setattr(ff.FaultEstimationFilter, "step_matrix", copy_step_matrix)
        assert self.counts(run_comparison(small_cfg())) == [40, 40, 40, 128]

    def test_failed_arm_has_no_count(self):
        # without measurement noise the true plant has no Kalman predictor,
        # so alg0 fails; the identified arms still run and are counted
        rep = run_comparison(small_cfg(r=0.0))
        assert not result(rep, "alg0").ok
        assert "R must be positive definite" in result(rep, "alg0").message
        assert self.counts(rep) == [None, 40, 40, 128]

    def test_short_past_window_keeps_the_mhe_window(self, monkeypatch):
        # the design reads l + m = 20 of the p + 1 = 21 identified blocks;
        # markov_length 100 is alg3's window alone and bounds no design
        rep = run_comparison(BenchConfig(p=20, hankel_rows=10, hankel_cols=10,
                                         strategy="riccati"))
        assert [res.name for res in rep.results if res.ok] == list(ALGORITHM_NAMES)
        assert np.trace(result(rep, "alg2").stats.covariance) < 0.05
        # 11 x 11 reads 22 > 21 blocks, which no record can satisfy, so the
        # run stops before it simulates
        def never_simulate(*args, **kwargs):
            raise AssertionError("a record was simulated")

        monkeypatch.setattr(ff.bench_cli._Loop, "simulate", never_simulate)
        with pytest.raises(ValidationError, match="^" + re.escape(
                "hankel_rows 11 + hankel_cols 11 exceed the 21 blocks identified at p = 20")
                + "$"):
            run_comparison(BenchConfig(p=20, hankel_rows=11, hankel_cols=11,
                                       strategy="riccati"))

    def test_runs_no_timer(self, monkeypatch):
        def timer(*args, **kwargs):
            raise AssertionError("run_comparison called a step timer")

        monkeypatch.setattr(ff.bench_cli, "time_filter_step", timer)
        monkeypatch.setattr(ff.bench_cli, "time_window_step", timer)
        rep = run_comparison(BenchConfig(seed=1))
        assert [res.name for res in rep.results if res.ok] == list(ALGORITHM_NAMES)


@pytest.fixture
def cold_plant_cache():
    """Empty the kept registry plants before and after the test."""
    def clear():
        bench_cli._registry_loop.cache_clear()
        bench_cli._registry_alg0.cache_clear()

    clear()
    yield clear
    clear()


def report_files(report, out_dir):
    """The bytes of the files compare writes that do not name the plant."""
    report.write(out_dir)
    return {name: (out_dir / name).read_bytes()
            for name in ("estimates.csv", "stats.csv", "cost.txt")}


def assert_same_report(a, b):
    """Equal reports, every number bit for bit (nan where nan)."""
    assert (a.plant, a.seed, a.window) == (b.plant, b.seed, b.window)
    assert np.array_equal(a.fault, b.fault)
    assert len(a.results) == len(b.results)
    for x, y in zip(a.results, b.results):
        assert (x.name, x.ok, x.message, x.macs_per_sample) == (
            y.name, y.ok, y.message, y.macs_per_sample)
        if x.ok:
            assert np.array_equal(x.estimates, y.estimates, equal_nan=True)
            assert np.array_equal(x.stats.covariance, y.stats.covariance)


class TestPlantMemo:
    """run_comparison keeps the plant-only half of a registry comparison.

    Kept or built anew, the plant gives the same report bit for bit.
    """

    def test_seed_order_does_not_matter(self, cold_plant_cache):
        first = {seed: run_comparison(small_cfg(seed=seed)) for seed in (5, 6)}
        again = run_comparison(small_cfg(seed=5))
        assert bench_cli._registry_loop.cache_info().misses == 1
        assert bench_cli._registry_alg0.cache_info().misses == 1
        assert_same_report(again, first[5])
        for seed in (6, 5):
            cold_plant_cache()
            assert_same_report(run_comparison(small_cfg(seed=seed)), first[seed])

    @pytest.mark.parametrize("explicit", ["model", "controller"])
    def test_explicit_plant_matches_registry(self, cold_plant_cache, tmp_path, explicit):
        model, ctrl = ff.get_plant("unstable4").factory()
        kw = dict(controller=ctrl, **({"model": model} if explicit == "model" else {}))
        registry = run_comparison(small_cfg())
        given = run_comparison(small_cfg(**kw))
        assert report_files(given, tmp_path / "given") == report_files(
            registry, tmp_path / "registry")
        assert given.summary().split("\n")[1:] == registry.summary().split("\n")[1:]
        # the explicit plant was built on the call: nothing kept, nothing frozen
        assert bench_cli._registry_loop.cache_info().currsize == 1
        assert model.A.flags.writeable and ctrl.flags.writeable

    @pytest.mark.parametrize("kw, message", [
        (dict(poles=(0.5,) * 4), FOUR_FOLD_POLE),
        (dict(r=0.0), "R must be positive definite"),
    ], ids=["four-fold-pole", "no-measurement-noise"])
    def test_repeated_alg0_failure(self, cold_plant_cache, kw, message):
        reports = [run_comparison(small_cfg(**kw)) for _ in range(3)]
        for rep in reports:
            assert not result(rep, "alg0").ok
            assert result(rep, "alg0").message == message
            assert_same_report(rep, reports[0])
        # the plant is kept; the failed design is tried again on each call
        assert bench_cli._registry_loop.cache_info().misses == 1
        info = bench_cli._registry_alg0.cache_info()
        assert (info.misses, info.currsize) == (3, 0)
        assert result(reports[0], "alg3").ok

    def test_explicit_plant_alg0_failure_is_an_arm_failure(self):
        # the explicit plant's alg0 filter is built in alg0's attempt, so a
        # design failure there fails alg0 and does not leave run_comparison
        model, ctrl = ff.get_plant("unstable4").factory()
        rep = run_comparison(small_cfg(model=model, controller=ctrl, poles=(0.5,) * 4))
        assert [res.ok for res in rep.results] == [False, False, False, True]
        assert [res.name for res in rep.results] == ["alg0", "alg1", "alg2", "alg3"]
        assert result(rep, "alg0").message == FOUR_FOLD_POLE

    def test_plant_errors_are_not_kept(self, cold_plant_cache, monkeypatch):
        monkeypatch.setattr(ff.bench_cli._Loop, "simulate", None)  # nothing simulated
        for _ in range(2):
            with pytest.raises(ValidationError, match="outside"):
                run_comparison(small_cfg(sensors=2))
            with pytest.raises(ValidationError, match="unknown plant 'bogus'"):
                run_comparison(small_cfg(plant="bogus"))
        assert bench_cli._registry_loop.cache_info().currsize == 0

    @pytest.mark.parametrize("strategy", ["riccati", "pole_placement"])
    def test_model_based_filter_is_the_public_design(self, strategy):
        # alg0's and alg1's design, assemble_filter on the folded inverse,
        # takes the gain from it; the filter is the public open_loop_inverse
        # -> stabilizing_gain -> reduced_filter chain's, bit for bit
        model, _ = ff.get_plant("unstable4").factory()
        preds = [ff.to_predictor(ff.sensor_fault_plant(model, s)) for s in (0, 1)]
        preds += [stable_invertible_predictor(np.random.default_rng(seed), n_y=3)
                  for seed in (3, 4)]
        for pred in preds:
            inv = ff.open_loop_inverse(pred)
            Kr = ff.stabilizing_gain(inv.Phi1, inv.C2, strategy=strategy,
                                     poles=BENCH_POLES)
            want = ff.reduced_filter(pred, Kr, strategy=strategy)
            got = assemble_filter(_inverse_system(pred), range(pred.n_faults),
                                  strategy=strategy, poles=BENCH_POLES)
            assert got.strategy == want.strategy == strategy
            for name in ("Af", "Bu", "By", "Cf", "Du", "Dy"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    def test_kept_arrays_are_read_only(self, cold_plant_cache):
        cfg = small_cfg()
        rep = run_comparison(cfg)
        loop = bench_cli._registry_loop(cfg.plant, cfg.q, cfg.r, cfg.sensors)
        filt = bench_cli._registry_alg0(cfg.plant, cfg.q, cfg.r, cfg.sensors,
                                        cfg.strategy, cfg.poles)
        # the closed loop's plan runs on its state map (n^2 = 16 < 4 x 9),
        # so it holds the quadruple and the plan of (A, I, I, 0) with its
        # four chunk factors
        plans = (loop.plan, loop.plan.state)
        arrays = [v for obj in (loop, loop.model, *plans, filt)
                  for v in vars(obj).values() if isinstance(v, np.ndarray)]
        assert bench_cli._registry_loop.cache_info().misses == 1
        assert bench_cli._registry_alg0.cache_info().misses == 1
        assert len(arrays) == 2 + 9 + (4 + 8) + 7
        assert not any(a.flags.writeable for a in arrays)
        # alg0 ran on a copy: the kept filter's state never moved
        assert not filt.state.any()
        assert_same_report(run_comparison(cfg), rep)


    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("N, k", [(500, 137), (2 * _CHUNK - 1, None)],
                             ids=["nan-in-eta", "short-record"])
    def test_kept_loop_runs_the_per_call_checks(self, cold_plant_cache, monkeypatch, N, k):
        # the kept plan fixes what the matrices decide; a nan input or a
        # record under two chunks still sends the run sample by sample
        cfg = small_cfg()
        run_comparison(cfg)
        loop = bench_cli._registry_loop(cfg.plant, cfg.q, cfg.r, cfg.sensors)
        eta = np.random.default_rng(7).standard_normal((N, 2))
        if k is not None:
            eta[k, 1] = np.nan
        with monkeypatch.context() as m:
            if k is None:  # only the chunked path takes a matrix power per call
                m.setattr(np.linalg, "matrix_power", never_chunk)
            data, fault = loop.simulate(N, np.random.default_rng(8),
                                        scenario=cfg.scenario, eta=eta)
        rng = np.random.default_rng(8)  # the same draws, through a fresh plan
        Z = np.hstack([eta, rng.standard_normal((N, 4)) @ loop.w_factor.T,
                       rng.standard_normal((N, 2)) @ loop.v_factor.T, fault])
        plan = loop.plan
        UY, _ = lti_recursion(plan.A, plan.B, plan.C, plan.D, Z)
        got = np.hstack([data.u, data.y])
        assert np.array_equal(got, UY, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(UY))
        if k is not None:  # a chunk product would carry the nan to the chunk's start
            assert np.isfinite(got[:k]).all() and np.isnan(got[k:]).any(axis=1).all()


class TestUnstableInversePlant:
    """The paper's case: an unstable inverse that only the injection gain fixes."""

    @pytest.fixture
    def cfg_path(self, tmp_path):
        path = tmp_path / "unstable_inverse.ini"
        path.write_text(UNSTABLE_INVERSE_INI)
        return path

    @staticmethod
    def true_predictor(cfg):
        model, _ = cfg.resolve_plant()
        return ff.to_predictor(ff.sensor_fault_plant(model, cfg.sensors))

    def test_only_the_gain_stabilizes_the_inverse(self, cfg_path):
        pred = self.true_predictor(load_bench_config(cfg_path))
        inv = ff.open_loop_inverse(pred)
        assert ff.spectral_radius(inv.Phi1) == pytest.approx(1.024, abs=5e-4)
        ok, zeros = ff.invariant_zeros_stable(pred.Phi, pred.Et, pred.C, pred.G)
        assert ok and len(zeros) == 0
        for strategy, poles, rho in (("riccati", None, 0.833),
                                     ("pole_placement", BENCH_POLES, 0.948)):
            Kr = ff.stabilizing_gain(inv.Phi1, inv.C2, strategy=strategy, poles=poles)
            assert ff.spectral_radius(inv.Phi1 - Kr @ inv.C2) == pytest.approx(rho, abs=5e-4)

    @pytest.mark.parametrize("strategy, poles, wins", [
        ("riccati", None, 20), ("pole_placement", BENCH_POLES, 19),
    ])
    def test_direct_design_beats_the_identified_model(self, cfg_path, strategy, poles,
                                                      wins):
        # seeds 0-19 measured: median MSE 0.0313 against 0.188 under
        # riccati, 0.0504 against 0.495 under pole placement.  markov_length
        # sizes only alg3's window, so 40 in place of 100 leaves alg1 and
        # alg2 bit for bit and costs a third of the time
        mse = {"alg1": [], "alg2": []}
        for seed in range(20):
            cfg = dataclasses.replace(load_bench_config(cfg_path, seed=seed),
                                      strategy=strategy, poles=poles, markov_length=40)
            rep = run_comparison(cfg)
            assert all(res.ok for res in rep.results)
            start, stop = rep.window
            for name in mse:
                err = result(rep, name).estimates[start:stop] - rep.fault[start:stop]
                mse[name].append(np.mean(err ** 2))
        assert np.median(mse["alg2"]) < np.median(mse["alg1"])
        assert np.sum(np.less(mse["alg2"], mse["alg1"])) >= wins

    def test_exact_data_gives_the_true_filter(self, cfg_path):
        # pole placement only: the identity-weight riccati gain depends on
        # the state basis, so there the two filters differ (by 0.144)
        cfg = load_bench_config(cfg_path)
        pred = self.true_predictor(cfg)
        design = ff.DesignConfig(sensor=cfg.sensors, markov_length=60, order=4,
                                 strategy="pole_placement", poles=BENCH_POLES)
        filt2 = ff.design_filter_from_xi(ff.xi_from_predictor(pred, 60), design)
        filt0 = assemble_filter(_inverse_system(pred), cfg.sensors,
                                strategy="pole_placement", poles=BENCH_POLES)
        assert filter_markov_gap(filt2, filt0) < 1e-6


class TestTimers:
    def test_filter_step_timer(self, rng):
        from conftest import stable_invertible_predictor

        pred = stable_invertible_predictor(rng)
        Kr = ff.stabilizing_gain(ff.open_loop_inverse(pred).Phi1,
                                 ff.open_loop_inverse(pred).C2)
        filt = ff.reduced_filter(pred, Kr)
        t = time_filter_step(filt, steps=200)
        assert np.isfinite(t) and t > 0

    def test_window_step_timer(self):
        t = time_window_step(np.ones((1, 40)), block=4, steps=200)
        assert np.isfinite(t) and t > 0

    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_rejected(self, steps):
        filt = SimpleNamespace(step_matrix=lambda: np.ones((2, 3)), n_states=1)
        with pytest.raises(ValidationError, match="steps"):
            time_filter_step(filt, steps)
        with pytest.raises(ValidationError, match="steps"):
            time_window_step(np.ones((1, 40)), 4, steps)

    @pytest.mark.parametrize("block", [0, 41])
    def test_block_outside_window_rejected(self, block):
        with pytest.raises(ValidationError, match="block"):
            time_window_step(np.ones((1, 40)), block, 10)


class CountingMatrix(np.ndarray):
    """A matrix that counts the products taken with it, by ``@`` or ``np.dot``."""

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            self.products += 1
        return super().__array_function__(func, types, args, kwargs)


class TestTimerBatches:
    """Each timer runs exactly ``steps`` steps and reads the clock twice a batch."""

    B = bench_cli._TIMING_BATCH

    @pytest.fixture
    def clock(self, monkeypatch):
        reads = []

        def perf_counter_ns():
            reads.append(None)
            return 1000 * len(reads)

        monkeypatch.setattr(bench_cli, "time", SimpleNamespace(perf_counter_ns=perf_counter_ns))
        return reads

    @staticmethod
    def counting(shape):
        M = np.full(shape, 0.1).view(CountingMatrix)
        M.products = 0
        return M

    @pytest.mark.parametrize("steps", [1, 8, B - 1, B, B + 1, 2000])
    def test_filter_step_batches(self, clock, steps):
        M = self.counting((3, 5))
        time_filter_step(SimpleNamespace(step_matrix=lambda: M, n_states=2), steps)
        assert M.products == steps
        assert len(clock) == 2 * -(-steps // self.B)

    @pytest.mark.parametrize("steps", [1, 8, B - 1, B, B + 1, 2000])
    def test_window_step_batches(self, clock, steps):
        W = self.counting((2, 12))
        time_window_step(W, 3, steps)
        assert W.products == steps
        assert len(clock) == 2 * -(-steps // self.B)

    def test_short_last_batch_is_a_per_step_mean(self, clock):
        # the fake clock advances 1000 ns between reads, so a full batch
        # costs 1000 / B ns a step and the short batch of one 1000 ns
        W = self.counting((2, 12))
        assert time_window_step(W, 3, self.B + 1) == (1000 / self.B + 1000) / 2


class TestWindowMap:
    @pytest.mark.parametrize("nf", [1, 2])
    @pytest.mark.parametrize("L", [1, 2, 5, 100])
    def test_equals_toeplitz_product(self, rng, nf, L):
        # the block correlation form of alg3's window map, the input of
        # time_window_step, against the product it stands for, on the
        # newest rows of an (L nf, L ny) gain
        ny, q = 3, 5
        Hz = rng.standard_normal((L + 2, ny, q))
        gain = rng.standard_normal((L * nf, L * ny))[-nf:]
        ref = gain @ block_toeplitz(Hz, L)
        got = _window_map(gain, Hz, L)
        assert got.shape == ref.shape == (nf, L * q)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.abs(ref).max())


class TestParseMatrix:
    def test_round_trip(self):
        M = parse_matrix("1 2; 3 4.5")
        assert np.allclose(M, [[1.0, 2.0], [3.0, 4.5]])

    def test_ragged(self):
        with pytest.raises(ValidationError, match=r"^ragged matrix literal '1 2; 3'$"):
            parse_matrix("1 2; 3")

    def test_non_numeric(self):
        with pytest.raises(ValidationError, match="matrix"):
            parse_matrix("a b; c d")


class TestLoadBenchConfig:
    def test_defaults(self):
        cfg = load_bench_config()
        assert cfg.plant == "unstable4"
        assert cfg.p == 100 and cfg.seed == 0

    def test_full_ini(self, tmp_path):
        path = tmp_path / "bench.ini"
        path.write_text(SMALL_INI + "\n[scenario]\nonset = 60\n"
                        "sensors = 2\nsignals = step 2\n")
        cfg = load_bench_config(path, seed=7)
        assert cfg.p == 40 and cfg.n_ident == 400
        assert cfg.markov_length == 40
        assert cfg.poles == [0.948, 0.532, 0.225, 0.141]
        assert cfg.seed == 7
        assert cfg.scenario.onset == 60
        assert cfg.sensors == (1,)
        assert cfg.run_samples == 500

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_bench_config(path)
        assert cfg.p == 60 and cfg.n_ident == 1500 and cfg.assume_delay
        assert cfg.q == 1e-5 and cfg.order == "auto"
        assert cfg.poles == [0.7, 0.5, 0.3, 0.1]
        assert cfg.controller.shape == (2, 2)

    def test_design_section_values(self, tmp_path):
        path = tmp_path / "design.ini"
        path.write_text(
            "[design]\n"
            "markov_length = 60\n"
            "hankel_rows = 12\n"
            "hankel_cols = 12\n"
            "order = auto\n"
            "strategy = pole_placement\n"
            "poles = 0.5 0.3, 0.2 0.1\n")
        cfg = load_bench_config(path)
        assert (cfg.markov_length, cfg.hankel_rows, cfg.hankel_cols) == (60, 12, 12)
        assert cfg.order == "auto"
        assert cfg.poles == [0.5, 0.3, 0.2, 0.1]

    def test_design_poles_none(self, tmp_path):
        path = tmp_path / "design.ini"
        path.write_text("[design]\nstrategy = riccati\npoles = none\n")
        assert load_bench_config(path).poles is None

    def test_sensor_index_base(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nsensors = 0\n")
        with pytest.raises(ValidationError, match="one based"):
            load_bench_config(path)

    def test_plant_file_with_matrices(self, tmp_path):
        path = tmp_path / "plant.ini"
        path.write_text(
            "[plant]\n"
            "A = 0.5 0.1; 0 0.4\n"
            "B = 1; 0\n"
            "C = 1 0; 0 1\n"
            "q = 0.001\n"
            "R = 0.01 0; 0 0.04\n"
            "[controller]\n"
            "gain = 0.1 0.1\n")
        cfg = load_bench_config(plant=str(path))
        model, ctrl = cfg.resolve_plant()
        assert model.n_states == 2
        assert np.allclose(model.Q, 0.001 * np.eye(2))
        assert np.allclose(model.R, [[0.01, 0.0], [0.0, 0.04]])
        assert ctrl.shape == (1, 2)

    def test_scalar_q_defers_to_matrix_Q(self, tmp_path):
        path = tmp_path / "plant.ini"
        path.write_text(
            "[plant]\n"
            "A = 0.5\n"
            "B = 1\n"
            "C = 1\n"
            "Q = 0.25\n"
            "q = 9.0\n")
        cfg = load_bench_config(plant=str(path))
        assert np.allclose(cfg.model.Q, [[0.25]])

    def test_missing_plant_file(self):
        with pytest.raises(ValidationError, match="neither a registered"):
            load_bench_config(plant="no_such_plant_or_file")


TOP_HELP = """\
usage: faultfilter [-h] {identify,design,estimate,compare,zeros} ...

data-driven sensor fault estimation filters: identify Markov parameters,
design inversion filters, run and benchmark them

positional arguments:
  {identify,design,estimate,compare,zeros}
    identify            estimate Markov parameters from data
    design              design a fault estimation filter
    estimate            run a saved filter on recorded data
    compare             four-way benchmark on a faulty closed-loop run
    zeros               list invariant zeros and check stable invertibility

options:
  -h, --help            show this help message and exit
"""


def help_text(parse, argv, capsys):
    """What a parse of ``argv + ["--help"]`` prints; it must exit 0."""
    with pytest.raises(SystemExit) as exc:
        parse(argv + ["--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestCli:
    def test_successive_calls_parse_into_fresh_namespaces(self, monkeypatch, capsys):
        # one parser serves the whole process; no option of an earlier
        # call may leak into a later one
        seen = []

        def spy(args, cfg):
            seen.append(args)
            return 0

        for verb in ("identify", "design", "estimate"):
            monkeypatch.setattr(bench_cli, f"_cmd_{verb}", spy)
        assert main(["design", "--xi", "a.csv", "--data", "b.csv", "--seed", "3",
                     "--out", "o"]) == 0
        assert main(["estimate", "--filter", "f.csv"]) == 0
        assert main(["design"]) == 0
        assert main(["identify", "--data", "d.csv"]) == 0
        assert len({id(a) for a in seen}) == 4
        common = {"config": None, "seed": None, "out": None, "plant": None}
        assert vars(seen[0]) == {**common, "command": "design", "xi": "a.csv",
                                 "data": "b.csv", "seed": 3, "out": "o"}
        assert vars(seen[1]) == {**common, "command": "estimate", "filter": "f.csv",
                                 "data": None}
        assert vars(seen[2]) == {**common, "command": "design", "xi": None, "data": None}
        assert vars(seen[3]) == {**common, "command": "identify", "data": "d.csv"}
        capsys.readouterr()

    def test_successive_calls_keep_exit_codes(self, capsys):
        for argv, code in [(["estimate"], 2), (["zeros"], 0),
                           (["zeros", "--plant", "bogus_plant"], 2), (["zeros"], 0),
                           (["estimate"], 2)]:
            assert main(argv) == code, argv
        capsys.readouterr()

    @pytest.mark.parametrize("verb", ["", "identify", "design", "estimate", "compare",
                                      "zeros"])
    def test_help_output_unchanged(self, monkeypatch, capsys, verb):
        # the cached parser prints what a freshly built one does, on
        # every call; the top-level text is pinned
        monkeypatch.setenv("COLUMNS", "80")
        argv = [verb] if verb else []
        first = help_text(main, argv, capsys)
        assert help_text(main, argv, capsys) == first
        assert help_text(bench_cli._parser.__wrapped__().parse_args, argv, capsys) == first
        assert first.startswith(f"usage: faultfilter {verb}".rstrip() + " [-h]")
        if not verb:
            assert first == TOP_HELP

    def test_zeros_verb(self, capsys):
        assert main(["zeros"]) == 0
        out = capsys.readouterr().out
        assert "sensors 1:" in out
        assert "no invariant zeros" in out
        assert "stable inversion possible" in out

    def test_zeros_verb_on_an_unstable_zero(self, tmp_path, capsys):
        # a verdict, not an error: the plant is valid, its inversion is not
        cfg_path = tmp_path / "hidden.ini"
        cfg_path.write_text(HIDDEN_MODE_INI)
        assert main(["zeros", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == (
            "sensors 1: invariant zeros [1.05]\n"
            "stable inversion NOT possible (zero on or outside the unit circle)\n")

    def test_identify_design_estimate_pipeline(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(SMALL_INI)
        out = str(tmp_path)
        args = ["--config", str(cfg_path), "--seed", "3", "--out", out]
        assert main(["identify"] + args) == 0
        assert (tmp_path / "xi.csv").exists()
        assert main(["design", "--xi", str(tmp_path / "xi.csv")] + args) == 0
        assert (tmp_path / "filter.csv").exists()
        model, ctrl = ff.get_plant("unstable4").factory()
        faulty = ff.sensor_fault_plant(model, 0)
        data, fault = closed_loop_sim(faulty, ctrl, 200,
                                      np.random.default_rng(4),
                                      scenario=FaultScenario(onset=50))
        data.to_csv(tmp_path / "run.csv")
        assert main(["estimate", "--filter", str(tmp_path / "filter.csv"),
                     "--data", str(tmp_path / "run.csv")] + args) == 0
        est = (tmp_path / "estimates.csv").read_text().splitlines()
        assert est[0] == "k,fhat1"
        assert len(est) == 201
        capsys.readouterr()

    def test_compare_verb_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(SMALL_INI)
        code = main(["compare", "--config", str(cfg_path), "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        for name in ("estimates.csv", "stats.csv", "report.svg", "cost.txt"):
            assert (tmp_path / name).exists(), name
        out = capsys.readouterr().out
        assert "alg0" in out and "alg3" in out
        # markov_length 40: alg3 adds 1 x 40 x 2 FIR taps to its 48
        assert (tmp_path / "cost.txt").read_text().splitlines() == [
            "alg0 macs_per_sample 40", "alg1 macs_per_sample 40",
            "alg2 macs_per_sample 40", "alg3 macs_per_sample 128"]

    def test_compare_outputs_repeat(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(SMALL_INI)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(["compare", "--config", str(cfg_path), "--seed", "3",
                         "--out", str(d)]) == 0
        capsys.readouterr()
        for name in ("estimates.csv", "stats.csv", "report.svg", "cost.txt"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    def test_estimate_requires_files(self, capsys):
        assert main(["estimate"]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("plant_section", [
        "A = 0.5 0; 0 0.3\nB = 1 0; 0 1\nC = 1 0; 0 1\nq = 0.001\nr = 0.01\n",
        "name = bogus\n",
    ], ids=["matrices", "unknown-name"])
    def test_registry_plant_option_beats_config_plant(self, tmp_path, capsys,
                                                      plant_section):
        # the 2-state plant's sensor-1 channel has an invariant zero at 0.5
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(f"[plant]\n{plant_section}\n"
                            "[controller]\ngain = 0.1 0; 0 0.1\n")
        assert main(["zeros"]) == 0
        expected = capsys.readouterr().out
        assert main(["zeros", "--config", str(cfg_path), "--plant", "unstable4"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("verb, first_output", [
        ("identify", "xi.csv"), ("design", "filter.csv"),
        ("estimate", "estimates.csv"), ("compare", "estimates.csv")])
    def test_unwritable_output_file_exit_code(self, tmp_path, capsys, verb,
                                              first_output):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(SMALL_INI)
        common = ["--config", str(cfg_path), "--seed", "3"]
        assert main(["identify", "--out", str(tmp_path)] + common) == 0
        assert main(["design", "--xi", str(tmp_path / "xi.csv"),
                     "--out", str(tmp_path)] + common) == 0
        model, ctrl = ff.get_plant("unstable4").factory()
        data, _ = closed_loop_sim(model, ctrl, 200, np.random.default_rng(4))
        data.to_csv(tmp_path / "run.csv")
        capsys.readouterr()
        blocked = tmp_path / "out" / first_output
        blocked.mkdir(parents=True)
        extra = {"design": ["--xi", str(tmp_path / "xi.csv")],
                 "estimate": ["--filter", str(tmp_path / "filter.csv"),
                              "--data", str(tmp_path / "run.csv")]}.get(verb, [])
        assert main([verb, "--out", str(tmp_path / "out")] + common + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and str(blocked) in err

    def test_unknown_plant_exit_code(self, capsys):
        assert main(["zeros", "--plant", "bogus_plant"]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, content, message", [
        (["identify", "--data", "missing.csv"], None, "cannot read"),
        (["estimate", "--filter", "missing.csv", "--data", "missing.csv"],
         None, "cannot read"),
        (["design", "--xi", "missing.csv"], None, "cannot read"),
        (["identify", "--data", "bad.csv"], "k,u1,y1\n0,0.5,abc\n",
         "non-numeric"),
        (["identify", "--data", "bad.csv"],
         "k,u1,u2,y1,y2\n0,0.1,0.2,0.3\n1,0.1,0.2,0.3\n",
         "row 2 has 4 fields, expected 5"),
        (["design", "--xi", "bad.csv"], "p,n_u,n_y\n2,1,x\n", "row 2: expected sizes"),
        (["estimate", "--filter", "bad.csv", "--data", "missing.csv"],
         "n,n_u,n_y,n_f,strategy\n1,1,1,1,riccati\nmatrix,Af,1,1\nabc\n",
         "non-numeric"),
        (["identify", "--data", "bad.csv"], "k,u1,y1\n0,0.5,1\n5,0.5,1\n",
         "row 3: k = 5, expected 1"),
        (["design", "--data", "bad.csv"], "k,u1,y1\n0,0.5,1\n0,0.5,1\n",
         "row 3: k = 0, expected 1"),
    ], ids=["identify-missing", "estimate-missing", "design-missing",
            "non-numeric-cell", "header-wider-than-rows", "xi-bad-manifest",
            "filter-non-numeric-cell", "identify-k-gap", "design-k-repeat"])
    def test_bad_data_file_exit_code(self, tmp_path, capsys, argv, content, message):
        path = tmp_path / argv[2]
        if content is not None:
            path.write_text(content)
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"validation error: {path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("design", "order", "abc"),
        ("identify", "p", "1.5"),
        ("scenario", "onset", "soon"),
        ("identify", "assume_delay", "perhaps"),
    ])
    def test_bad_ini_value_exit_code(self, tmp_path, capsys, section, key, value):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["zeros", "--config", str(cfg_path)]) == 2
        assert f"[{section}] {key} = {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        "p = 3\n",
        "[design]\norder = 4\n[design]\norder = 5\n",
        "[identify]\np = 3\np = 4\n",
    ], ids=["no-section-header", "duplicate-section", "duplicate-key"])
    def test_malformed_ini_exit_code(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(content)
        assert main(["zeros", "--config", str(cfg_path)]) == 2
        assert f"malformed config file {cfg_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("design", "hankel_row"),
        ("identify", "P"),
        ("scenario", "sensor"),
        ("bench", "steps"),
        ("plant", "nmae"),
        ("controller", "gains"),
    ])
    def test_unknown_ini_key_exit_code(self, tmp_path, capsys, section, key):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(f"[{section}]\n{key} = 1\n")
        assert main(["zeros", "--config", str(cfg_path)]) == 2
        assert f"[{section}] {key}: unknown key" in capsys.readouterr().err

    def test_unknown_key_in_plant_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "plant.ini"
        path.write_text("[plant]\nA = 0.5\nB = 1\nC = 1\nq = 0.1\nrr = 2\n")
        assert main(["zeros", "--plant", str(path)]) == 2
        assert "[plant] rr: unknown key; accepted keys are name, A, B" in (
            capsys.readouterr().err)

    def test_design_sensor_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text("[design]\nsensor = 2\n")
        assert main(["zeros", "--config", str(cfg_path)]) == 2
        assert "[scenario] sensors" in capsys.readouterr().err

    def test_design_unknown_key_lists_bench_keys(self, tmp_path, capsys):
        # a benchmark config takes its sensors from [scenario], so the
        # accepted keys it lists for [design] leave sensor out
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text("[design]\nhankel_row = 12\n")
        assert main(["zeros", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert ("[design] hankel_row: unknown key; accepted keys are "
                "markov_length, hankel_rows, hankel_cols, order, strategy, poles") in err
        assert "sensor" not in err

    @pytest.mark.parametrize("args, ini, message", [
        (["--seed", "-3"], "", "seed must be at least 0, got -3"),
        ([], "[identify]\nn_samples = -5\n",
         "n_ident ([identify] n_samples) must be at least 1, got -5"),
        ([], "[bench]\nrun_samples = 0\nwindow_start = 0\n",
         "run_samples must be at least 1, got 0"),
    ], ids=["negative-seed", "negative-n-samples", "zero-run-samples"])
    def test_bad_count_exit_code(self, tmp_path, capsys, args, ini, message):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(ini)
        code = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)] + args)
        assert code == 2
        assert f"validation error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "cost.txt").exists()

    @pytest.mark.parametrize("ini, message", [
        ("[plant]\nq = nan\n", "q must be finite and nonnegative, got nan"),
        ("[plant]\nname = unstable4\nr = -1\n",
         "r must be finite and nonnegative, got -1.0"),
        ("[plant]\nA = 0.5\nB = 1\nC = 1\nq = inf\n[controller]\ngain = 0.1\n",
         "q must be finite and nonnegative, got inf"),
    ], ids=["nan-q", "negative-r", "explicit-plant-inf-q"])
    def test_bad_noise_scale_exit_code(self, tmp_path, capsys, ini, message):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(ini)
        code = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        assert f"validation error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "cost.txt").exists()

    @pytest.mark.parametrize("key, value", [("timing_steps", 500), ("window_stop", 400)],
                             ids=["timing_steps", "window_stop"])
    def test_removed_timing_steps_key_exit_code(self, tmp_path, capsys, key, value):
        # compare times nothing, so [bench] has no timing_steps key, and
        # the statistics window ends at run_samples, so no window_stop key
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(f"[bench]\n{key} = {value}\n")
        code = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        assert (f"validation error: [bench] {key}: unknown key; accepted keys "
                "are run_samples, window_start") in capsys.readouterr().err
        assert not (tmp_path / "cost.txt").exists()

    def test_removed_ridge_key_exit_code(self, tmp_path, capsys):
        # identification is plain least squares, so [identify] has no ridge key
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text("[identify]\nridge = 0.0\n")
        code = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        assert ("validation error: [identify] ridge: unknown key; accepted keys "
                "are p, n_samples, assume_delay") in capsys.readouterr().err
        assert not (tmp_path / "stats.csv").exists()

    @pytest.mark.parametrize("ini, message", REJECTED_INI + [
        pytest.param("[identify]\np = 20\n[design]\nhankel_rows = 11\nhankel_cols = 11\n",
                     "hankel_rows 11 + hankel_cols 11 exceed the 21 blocks identified at "
                     "p = 20", id="hankel-past-identified-blocks"),
    ])
    def test_compare_rejects_config_before_running(self, tmp_path, capsys, ini, message):
        # no record could satisfy these values, so compare stops before
        # simulating instead of writing every affected arm as failed
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(ini)
        code = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        assert f"validation error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "stats.csv").exists()

    @pytest.mark.parametrize("pole", ["nan", "1.5"])
    def test_design_rejects_pole_before_identifying(self, tmp_path, capsys, pole):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(f"[design]\npoles = {pole} 0.3 0.2 0.1\n")
        code = main(["design", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"validation error: requested pole {pole} is not a "
                                "real number inside the unit circle\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("verb", ["zeros", "design", "compare"])
    def test_unsorted_sensors_exit_code(self, tmp_path, capsys, verb):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text("[scenario]\nsensors = 2 1\nsignals = step 1; step 1\n")
        code = main([verb, "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert ("validation error: sensors must be sorted, unique and nonnegative, "
                "got zero based [1, 0]") in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("verb", ["zeros", "design", "compare"])
    def test_empty_sensors_exit_code(self, tmp_path, capsys, verb):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text("[scenario]\nsensors =\n")
        code = main([verb, "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == ("validation error: sensors must name at least one "
                                "sensor, got none\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("verb", ["identify", "estimate", "zeros", "design", "compare"])
    def test_bad_design_value_stops_every_verb(self, tmp_path, capsys, verb):
        # the config is checked whole on loading, also by verbs that do
        # not design; estimate's missing files are never reached
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text("[design]\nhankel_rows = 0\n")
        extra = (["--filter", str(tmp_path / "filter.csv"), "--data", str(tmp_path / "rec.csv")]
                 if verb == "estimate" else [])
        code = main([verb, "--config", str(cfg_path), "--out", str(tmp_path)] + extra)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == ("validation error: hankel_rows and hankel_cols must be "
                                "at least 2\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("verb", ["zeros", "design", "compare"])
    def test_sensor_past_outputs_exit_code(self, tmp_path, capsys, verb):
        # the key is one based, so the message is too: 3 of the 2 outputs
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text("[scenario]\nsensors = 3\n")
        code = main([verb, "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == ("validation error: [scenario] sensors: sensor 3 outside "
                                "1..2, the outputs of the plant\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_sensors_checked_against_a_recorded_file(self, tmp_path, capsys):
        # a 3-output record: sensor 3 exists there though not on unstable4
        model = ff.StateSpaceModel(
            np.array([[0.5, 0.1], [0.0, 0.4]]), np.array([[1.0], [0.5]]),
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            Q=1e-4 * np.eye(2), R=1e-2 * np.eye(3))
        rng = np.random.default_rng(1)
        data, _ = closed_loop_sim(model, np.zeros((1, 3)), 400,
                                  rng, eta=rng.standard_normal((400, 1)))
        data.to_csv(tmp_path / "rec.csv")
        ini = ("[identify]\np = 20\n[design]\nmarkov_length = 20\nhankel_rows = 8\n"
               "hankel_cols = 8\norder = 2\nstrategy = riccati\npoles = none\n"
               "[scenario]\nsensors = ")
        (tmp_path / "s3.ini").write_text(ini + "3\n")
        (tmp_path / "s4.ini").write_text(ini + "4\n")
        out = ["--out", str(tmp_path)]
        for verb, extra in [("identify", ["--data", str(tmp_path / "rec.csv")]),
                            ("design", ["--data", str(tmp_path / "rec.csv")]),
                            ("design", ["--xi", str(tmp_path / "xi.csv")])]:
            assert main([verb, "--config", str(tmp_path / "s3.ini")] + extra + out) == 0
        capsys.readouterr()
        xi = str(tmp_path / "xi.csv")
        assert main(["design", "--config", str(tmp_path / "s4.ini"), "--xi", xi] + out) == 2
        assert capsys.readouterr().err == (
            f"validation error: [scenario] sensors: sensor 4 outside 1..3, "
            f"the outputs of {xi}\n")

    def test_out_through_a_regular_file_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(SMALL_INI)
        common = ["--config", str(cfg_path), "--seed", "3"]
        assert main(["identify", "--out", str(tmp_path)] + common) == 0
        assert main(["design", "--xi", str(tmp_path / "xi.csv"),
                     "--out", str(tmp_path)] + common) == 0
        model, ctrl = ff.get_plant("unstable4").factory()
        data, _ = closed_loop_sim(model, ctrl, 200, np.random.default_rng(4))
        data.to_csv(tmp_path / "run.csv")
        capsys.readouterr()
        (tmp_path / "blocker").write_text("a regular file\n")
        out = tmp_path / "blocker" / "run1"
        for verb, extra in [
                ("identify", []),
                ("design", ["--xi", str(tmp_path / "xi.csv")]),
                ("estimate", ["--filter", str(tmp_path / "filter.csv"),
                              "--data", str(tmp_path / "run.csv")]),
                ("compare", [])]:
            assert main([verb, "--out", str(out)] + common + extra) == 2, verb
            assert (f"validation error: cannot create output directory {out}: "
                    "Not a directory") in capsys.readouterr().err, verb

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_estimate_rejects_non_finite_sample(self, tmp_path, capsys, rng, bad):
        filt = ff.FaultEstimationFilter(
            0.5 * np.eye(2), rng.standard_normal((2, 2)), rng.standard_normal((2, 2)),
            rng.standard_normal((1, 2)), np.zeros((1, 2)), np.ones((1, 2)))
        filt.to_csv(tmp_path / "filter.csv")
        data = ff.IOData(rng.standard_normal((300, 2)), rng.standard_normal((300, 2)))
        data.y[100, 1] = bad
        data.u[200, 0] = bad
        data.to_csv(tmp_path / "run.csv")
        code = main(["estimate", "--filter", str(tmp_path / "filter.csv"),
                     "--data", str(tmp_path / "run.csv"), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"non-finite value in sample k=100 of {tmp_path / 'run.csv'}" in err
        assert not (tmp_path / "estimates.csv").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("lag", [1, 40], ids=["read-lag", "unread-lag"])
    def test_design_rejects_non_finite_xi(self, tmp_path, capsys, lag, bad):
        # the design reads the l + m = 24 window blocks H_0 .. H_23 of the
        # p = 40 lags, so lag 40 is never read; the file is refused either way.
        # IdentifiedXi itself refuses the entry, so the file is written
        # without one, by the writer of IdentifiedXi.to_csv
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text(SMALL_INI)
        common = ["--config", str(cfg_path), "--seed", "3", "--out", str(tmp_path)]
        assert main(["identify"] + common) == 0
        path = tmp_path / "xi.csv"
        xi = ff.IdentifiedXi.from_csv(path)
        stacked = xi.stacked()
        stacked[0, (xi.p - lag) * (xi.n_u + xi.n_y)] = bad  # deepest lag first
        _write_csv(path, [["p", "n_u", "n_y"], [xi.p, xi.n_u, xi.n_y]], stacked,
                   xi.residual_variance)
        capsys.readouterr()
        assert main(["design", "--xi", str(path)] + common) == 2
        assert (f"validation error: {path}: row 3: non-finite value in the Markov "
                "coefficients") in capsys.readouterr().err
        assert not (tmp_path / "filter.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: ["p,n_u"] + rows[1:], "expected a 'p,n_u,n_y' manifest header and row"),
        (lambda rows: rows[:-1], "expected 4 data rows, got 3"),
    ], ids=["bad-manifest", "missing-row"])
    def test_design_rejects_malformed_xi(self, tmp_path, capsys, rng, edit, message):
        # rows: manifest (1-2), the n_y = 2 coefficient rows, then the 2
        # covariance rows
        path = tmp_path / "xi.csv"
        ff.xi_from_predictor(stable_invertible_predictor(rng), 30).to_csv(path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        assert main(["design", "--xi", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"validation error: {path}: {message}\n"
        assert not (tmp_path / "filter.csv").exists()

    @staticmethod
    def estimate_with_Af(tmp_path, rng, i, j, value):
        """Exit code of estimate with a stable filter whose Af[i, j] is set to value."""
        Af = 0.5 * np.eye(2)
        Af[i, j] = value
        filt = ff.FaultEstimationFilter(
            Af, rng.standard_normal((2, 2)), rng.standard_normal((2, 2)),
            rng.standard_normal((1, 2)), np.zeros((1, 2)), np.ones((1, 2)))
        filt.to_csv(tmp_path / "filter.csv")
        ff.IOData(rng.standard_normal((100, 2)), rng.standard_normal((100, 2))).to_csv(
            tmp_path / "run.csv")
        return main(["estimate", "--filter", str(tmp_path / "filter.csv"),
                     "--data", str(tmp_path / "run.csv"), "--out", str(tmp_path)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_estimate_rejects_non_finite_filter(self, tmp_path, capsys, rng, bad):
        assert self.estimate_with_Af(tmp_path, rng, 1, 0, bad) == 2
        # rows 1-2 hold the manifest, row 3 the Af header
        assert (f"validation error: {tmp_path / 'filter.csv'}: row 5: non-finite value "
                "in matrix Af") in capsys.readouterr().err
        assert not (tmp_path / "estimates.csv").exists()

    def test_estimate_rejects_unstable_filter(self, tmp_path, capsys, rng):
        assert self.estimate_with_Af(tmp_path, rng, 0, 0, 50.0) == 2
        assert (f"validation error: {tmp_path / 'filter.csv'}: unstable filter, "
                "spectral radius of Af is 50 >= 1") in capsys.readouterr().err
        assert not (tmp_path / "estimates.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows + ["matrix,Zz,1,1", "0.5"],
         "row 24: unexpected or repeated matrix 'Zz'"),
        (lambda rows: rows + rows[21:23],
         "row 24: unexpected or repeated matrix 'Dy'"),
        (lambda rows: rows[:2] + ["matrix,Af,4,3"]
         + [r.rsplit(",", 1)[0] for r in rows[3:7]] + rows[7:],
         "row 3: matrix Af is 4 x 3, the manifest sizes give 4 x 4"),
        (lambda rows: [rows[0], rows[1].replace("4,2,2,1", "4,2,3,1")] + rows[2:],
         "row 13: matrix By is 4 x 2, the manifest sizes give 4 x 3"),
        (lambda rows: ["n,n_u,n_y,n_f"] + rows[1:], "not a filter bundle (bad manifest)"),
        (lambda rows: rows[:2] + ["0.5,0.5"] + rows[2:], "expected a matrix header at row 3"),
        (lambda rows: rows[:-1], "truncated matrix Dy"),
        (lambda rows: rows[:21], "missing matrices ['Dy']"),
    ], ids=["extra-matrix", "repeated-matrix", "non-square-Af", "manifest-sizes",
            "bad-manifest", "no-matrix-header", "truncated-matrix", "missing-matrix"])
    def test_estimate_rejects_malformed_filter(self, tmp_path, capsys, rng, edit, message):
        # rows: manifest (1-2), then header + rows of Af (3-7), Bu (8-12),
        # By (13-17), Cf (18-19), Du (20-21) and Dy (22-23)
        filt = ff.FaultEstimationFilter(
            0.5 * np.eye(4), rng.standard_normal((4, 2)), rng.standard_normal((4, 2)),
            rng.standard_normal((1, 4)), np.zeros((1, 2)), np.ones((1, 2)),
            strategy="pole_placement")
        path = tmp_path / "filter.csv"
        filt.to_csv(path)
        rows = path.read_text().splitlines()
        assert rows[1] == "4,2,2,1,pole_placement" and rows[21] == "matrix,Dy,1,2"
        path.write_text("\n".join(edit(rows)) + "\n")
        ff.IOData(rng.standard_normal((100, 2)), rng.standard_normal((100, 2))).to_csv(
            tmp_path / "run.csv")
        code = main(["estimate", "--filter", str(path), "--data", str(tmp_path / "run.csv"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert f"validation error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "estimates.csv").exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys, rng):
        pred = planted_zero_predictor(rng, 1.2)
        xi = ff.xi_from_predictor(pred, 60)
        xi.to_csv(tmp_path / "xi.csv")
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text("[design]\nmarkov_length = 48\n"
                            "hankel_rows = 12\nhankel_cols = 12\norder = 4\n")
        code = main(["design", "--xi", str(tmp_path / "xi.csv"),
                     "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
