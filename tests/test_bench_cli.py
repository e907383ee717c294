import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import faultfilter as ff
from faultfilter import (
    BenchConfig,
    ExperimentReport,
    FaultScenario,
    FeedbackController,
    ValidationError,
    closed_loop_sim,
    collect_identification_data,
    ellipse_stats,
    run_comparison,
)
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

from conftest import planted_zero_predictor


def per_sample_closed_loop(model, controller, N, rng, scenario=None,
                           excite_cov=None):
    """Reference closed loop: the controller solved sample by sample.

    Draws eta, process noise and measurement noise in the same order as
    closed_loop_sim, then steps u = (I + gain D)^-1 (eta - gain ycore).
    """
    nu, ny = model.n_inputs, model.n_outputs
    Fg = controller.gain
    loop_inv = np.linalg.inv(np.eye(nu) + Fg @ model.D)
    if controller.reference is not None:
        eta = controller.reference[:N]
    elif excite_cov is not None:
        eta = rng.standard_normal((N, nu)) @ ff.psd_factor(excite_cov).T
    else:
        eta = np.zeros((N, nu))
    W = rng.standard_normal((N, model.F.shape[1])) @ ff.psd_factor(model.Q).T
    V = rng.standard_normal((N, ny)) @ ff.psd_factor(model.R).T
    fault = (np.zeros((N, model.n_faults)) if scenario is None
             else scenario.evaluate(N))
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


def small_cfg(**kw):
    """Comparison settings scaled down for test speed."""
    base = dict(p=40, markov_length=40, hankel_rows=12, hankel_cols=12,
                n_ident=800, run_samples=500, window_start=300,
                timing_steps=50, seed=3)
    base.update(kw)
    return BenchConfig(**base)


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
timing_steps = 50
"""


class TestParseFaultSignal:
    def test_grammar(self):
        assert parse_fault_signal("1.5") == [("step", 1.5)]
        assert parse_fault_signal("step 2") == [("step", 2.0)]
        assert parse_fault_signal("sin 0.1pi") == [("sin", 1.0, 0.1 * np.pi)]
        assert parse_fault_signal("0.5 cos 0.2") == [("cos", 0.5, 0.2)]
        assert parse_fault_signal("sin pi") == [("sin", 1.0, np.pi)]
        terms = parse_fault_signal("0.5 sin 0.05pi + step 2")
        assert terms == [("sin", 0.5, 0.05 * np.pi), ("step", 2.0)]

    @pytest.mark.parametrize("bad", ["", "step", "sin", "1 2 3",
                                     "sin one", "x sin 0.1"])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_fault_signal(bad)


class TestFaultScenario:
    def test_default_signal(self):
        scen = FaultScenario(onset=10)
        f = scen.evaluate(30)
        assert f.shape == (30, 1)
        assert np.all(f[:10] == 0.0)
        k = np.arange(10, 30)
        assert np.allclose(f[10:, 0], np.sin(0.1 * np.pi * k) + 1.0)

    def test_phase_is_absolute(self):
        a = FaultScenario(onset=0, signals=("sin 0.1pi",))
        b = FaultScenario(onset=25, signals=("sin 0.1pi",))
        fa, fb = a.evaluate(60), b.evaluate(60)
        assert np.allclose(fa[25:], fb[25:])

    def test_string_signals_and_scalar_sensor(self):
        scen = FaultScenario(onset=5, sensors=1, signals=("step 3",))
        assert scen.sensors == (1,)
        assert scen.n_faults == 1
        f = scen.evaluate(8)
        assert np.allclose(f[5:, 0], 3.0)

    def test_validation(self):
        with pytest.raises(ValidationError, match="signals"):
            FaultScenario(sensors=(0, 1), signals=("step 1",))
        with pytest.raises(ValidationError, match="onset"):
            FaultScenario(onset=-1)


class TestRegistry:
    def test_default_plant_registered(self):
        assert "unstable4" in ff.list_plants()
        entry = ff.get_plant("unstable4")
        model, ctrl = entry.factory()
        assert model.n_states == 4
        assert ff.spectral_radius(model.A) > 1.0
        assert ctrl.gain.shape == (2, 2)

    def test_unknown_plant(self):
        with pytest.raises(ValidationError, match="unknown plant"):
            ff.get_plant("not_a_plant")

    def test_rejects_non_stabilizing_controller(self):
        def bad_factory(q=None, r=None):
            model, _ = ff.get_plant("unstable4").factory(q=q, r=r)
            return model, FeedbackController(np.zeros((2, 2)))

        with pytest.raises(ValidationError, match="fails to stabilize"):
            ff.register_plant("broken", bad_factory)
        assert "broken" not in ff.list_plants()


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

    def test_preset_zero_reference_equals_no_excitation(self):
        ctrl_ref = FeedbackController(self.ctrl.gain,
                                      reference=np.zeros((50, 2)))
        a, _ = closed_loop_sim(self.faulty, ctrl_ref, 50,
                               np.random.default_rng(9))
        b, _ = closed_loop_sim(self.faulty, self.ctrl, 50,
                               np.random.default_rng(9))
        assert np.array_equal(a.y, b.y)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="gain"):
            closed_loop_sim(self.faulty,
                            FeedbackController(np.zeros((3, 2))), 10, rng)
        with pytest.raises(ValidationError, match="unstable"):
            closed_loop_sim(self.faulty,
                            FeedbackController(np.zeros((2, 2))), 10, rng)
        short = FeedbackController(self.ctrl.gain, reference=np.zeros((5, 2)))
        with pytest.raises(ValidationError, match="reference"):
            closed_loop_sim(self.faulty, short, 10, rng)
        both = ff.sensor_fault_plant(self.model, [0, 1])
        with pytest.raises(ValidationError, match="faults"):
            closed_loop_sim(both, self.ctrl, 10, rng,
                            scenario=FaultScenario(onset=2, sensors=(0,)))

    @pytest.mark.parametrize("case", ["registry", "feedthrough_two_sensors",
                                      "preset_reference"])
    def test_matches_per_sample_loop(self, case):
        model, ctrl, sensors = self.model, self.ctrl, (0,)
        excite = 0.5 * np.eye(2)
        if case != "registry":
            model, sensors = with_feedthrough(self.model, D_PLANT), (0, 1)
        if case == "preset_reference":
            ref = np.random.default_rng(2).standard_normal((150, 2))
            ctrl = FeedbackController(self.ctrl.gain, reference=ref)
        faulty = ff.sensor_fault_plant(model, sensors)
        scen = FaultScenario(onset=30, sensors=sensors,
                             signals=("step 2", "0.5 sin 0.3")[:len(sensors)])
        data, fault = closed_loop_sim(faulty, ctrl, 150,
                                      np.random.default_rng(4), scenario=scen,
                                      excite_cov=excite)
        U, Y = per_sample_closed_loop(faulty, ctrl, 150,
                                      np.random.default_rng(4), scenario=scen,
                                      excite_cov=excite)
        assert np.array_equal(fault, scen.evaluate(150))
        for got, want in ((data.u, U), (data.y, Y)):
            assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.abs(want).max())

    def test_near_singular_loop_rejected(self):
        # gain -inv(D) makes I + gain D vanish up to rounding only
        model = with_feedthrough(self.model, D_PLANT)
        ctrl = FeedbackController(-np.linalg.inv(D_PLANT))
        with pytest.raises(ValidationError, match="algebraically singular"):
            closed_loop_sim(model, ctrl, 10, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="algebraically singular"):
            ff.register_plant("cancelled", lambda q=None, r=None: (model, ctrl))
        assert "cancelled" not in ff.list_plants()

    def test_collect_identification_data(self):
        a = collect_identification_data(self.model, self.ctrl, 200, seed=11)
        b = collect_identification_data(self.model, self.ctrl, 200, seed=11)
        assert a.n_samples == 200
        assert np.array_equal(a.u, b.u) and np.array_equal(a.y, b.y)
        # excitation keeps the input from being a pure function of y
        resid = a.u + a.y @ self.ctrl.gain.T
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
                               stats=stats, step_time_ns=500.0)]
    if with_failure:
        results.append(AlgorithmResult(name="alg1", ok=False,
                                       message="alg1: synthetic failure"))
    return ExperimentReport(plant="unstable4", seed=9,
                            scenario=FaultScenario(onset=20,
                                                   sensors=tuple(range(nf))),
                            window=(10, N), fault=fault, results=results)


class TestExperimentReport:
    def test_result_lookup(self):
        rep = synthetic_report()
        assert rep.result("alg0").ok
        with pytest.raises(ValidationError):
            rep.result("alg9")

    def test_summary_mentions_failure(self):
        text = synthetic_report().summary()
        assert "alg0" in text and "trace(cov)" in text
        assert "FAILED" in text and "synthetic failure" in text

    def test_csv_layout_and_determinism(self, tmp_path):
        rep = synthetic_report()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        rep.to_csv(d1)
        rep.to_csv(d2)
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

    def test_timing_file(self, tmp_path):
        rep = synthetic_report()
        path = tmp_path / "timing.txt"
        rep.write_timing(path)
        lines = path.read_text().splitlines()
        assert lines == ["alg0 median_step_ns 500.0"]


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

    def test_unsorted_sensors_rejected(self):
        cfg = small_cfg(scenario=FaultScenario(
            onset=5, sensors=(1, 0), signals=("step 1", "step 1")))
        with pytest.raises(ValidationError, match="sorted"):
            run_comparison(cfg)


class TestRunComparison:
    def test_four_way_smoke(self):
        rep = run_comparison(small_cfg())
        assert [r.name for r in rep.results] == list(ALGORITHM_NAMES)
        assert all(r.ok for r in rep.results)
        assert rep.window == (300, 500)
        for res in rep.results:
            assert res.estimates.shape == (500, 1)
            assert res.step_time_ns > 0
            assert np.trace(res.stats.covariance) < 0.5
        assert np.trace(rep.result("alg0").stats.covariance) < 0.1

    def test_gain_failure_marks_arms_independently(self):
        # a four-fold pole cannot be placed by a rank-one injection, so
        # every arm that computes a gain fails; the window estimator
        # needs no gain and survives
        rep = run_comparison(small_cfg(poles=(0.5, 0.5, 0.5, 0.5)))
        assert not rep.result("alg0").ok
        assert rep.result("alg0").message.startswith("alg0:")
        assert not rep.result("alg1").ok
        assert not rep.result("alg2").ok
        assert rep.result("alg3").ok

    def test_identification_failure_marks_downstream(self):
        rep = run_comparison(small_cfg(n_ident=60))
        assert rep.result("alg0").ok
        for name in ("alg1", "alg2", "alg3"):
            res = rep.result(name)
            assert not res.ok
            assert f"{name}: identify:" in res.message

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


class TestTimers:
    def test_filter_step_timer(self, rng):
        from conftest import stable_invertible_predictor

        pred = stable_invertible_predictor(rng)
        Kr = ff.stabilizing_gain(ff.open_loop_inverse(pred).Phi1,
                                 ff.open_loop_inverse(pred).C2)
        filt = ff.reduced_filter(pred, Kr)
        t = time_filter_step(filt, steps=200, seed=1)
        assert np.isfinite(t) and t > 0

    def test_window_step_timer(self):
        t = time_window_step(np.ones((1, 40)), block=4, steps=200, seed=1)
        assert np.isfinite(t) and t > 0


class TestParseMatrix:
    def test_round_trip(self):
        M = parse_matrix("1 2; 3 4.5")
        assert np.allclose(M, [[1.0, 2.0], [3.0, 4.5]])

    def test_ragged(self):
        with pytest.raises(ValidationError, match="matrix literal"):
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
        assert cfg.scenario.sensors == (1,)
        assert cfg.run_samples == 500

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_bench_config(path)
        assert cfg.p == 60 and cfg.n_ident == 1500 and cfg.assume_delay
        assert cfg.q == 1e-5 and cfg.order == "auto"
        assert cfg.poles == [0.7, 0.5, 0.3, 0.1]
        assert cfg.controller.gain.shape == (2, 2)

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
        assert ctrl.gain.shape == (1, 2)

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

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="bad benchmark config"):
            load_bench_config(overrides={"nonsense": 1})


class TestCli:
    def test_zeros_verb(self, capsys):
        assert main(["zeros"]) == 0
        out = capsys.readouterr().out
        assert "sensors 1:" in out
        assert "no invariant zeros" in out
        assert "stable inversion possible" in out

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
        for name in ("estimates.csv", "stats.csv", "report.svg", "timing.txt"):
            assert (tmp_path / name).exists(), name
        out = capsys.readouterr().out
        assert "alg0" in out and "alg3" in out
        timing = (tmp_path / "timing.txt").read_text()
        assert timing.count("median_step_ns") == 4

    def test_estimate_requires_files(self, capsys):
        assert main(["estimate"]) == 2
        assert "validation error" in capsys.readouterr().err

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
    ], ids=["identify-missing", "estimate-missing", "design-missing",
            "non-numeric-cell", "header-wider-than-rows", "xi-bad-manifest",
            "filter-non-numeric-cell"])
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
