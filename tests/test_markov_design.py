import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faultfilter as ff
from faultfilter import (
    DesignConfig,
    FaultDirectionError,
    FaultEstimationFilter,
    StabilizationError,
    ValidationError,
    assemble_filter,
    block_toeplitz,
    convolve_Q,
    convolve_R,
    design_filter_from_xi,
    fault_markov,
    ho_kalman,
    identify_xi,
    inverse_markov,
    left_inverse,
    markov_from_ss,
    markov_parameters,
    open_loop_inverse,
    predictor_from_xi,
    realize,
    reduced_filter,
    stabilizing_gain,
    stack_windows,
    to_predictor,
    xi_from_predictor,
    z_markov,
)
from faultfilter.bench_cli import BENCH_POLES
from faultfilter.inverse_filter import _inverse_system
from faultfilter.markov_design import design_filter_from_data

from conftest import (
    gelsy_identify_xi,
    planted_zero_predictor,
    random_model,
    random_predictor,
    stable_invertible_predictor,
)

POLES4 = [0.7, 0.5, 0.3, 0.1]


def exact_xi(pred, p=60):
    return xi_from_predictor(pred, p)


class TestFaultMarkov:
    def test_matches_predictor_fault_channel(self, rng):
        pred = random_predictor(rng, n_y=3, sensors=(1,))
        xi = exact_xi(pred)
        Hf = fault_markov(xi.Hy, [1], 30)
        ref = markov_parameters(pred, "f", 30)
        assert np.allclose(Hf.blocks, ref.blocks, atol=1e-12)

    def test_multi_sensor_columns(self, rng):
        pred = random_predictor(rng, n_y=3, sensors=(0, 2))
        xi = exact_xi(pred)
        Hf = fault_markov(xi.Hy, [0, 2], 20)
        ref = markov_parameters(pred, "f", 20)
        assert np.allclose(Hf.blocks, ref.blocks, atol=1e-12)

    def test_scalar_sensor_accepted(self, rng):
        pred = random_predictor(rng, sensors=(1,))
        xi = exact_xi(pred)
        a = fault_markov(xi.Hy, 1, 10)
        b = fault_markov(xi.Hy, [1], 10)
        assert np.allclose(a.blocks, b.blocks)


class TestZMarkov:
    def test_block_structure(self, rng):
        pred = random_predictor(rng, with_d=True)
        xi = exact_xi(pred)
        Hz = z_markov(xi.Hu, xi.Hy, 15)
        assert np.allclose(Hz[0], np.hstack([-pred.D, np.eye(2)]))
        for i in range(1, 15):
            assert np.allclose(Hz[i],
                               np.hstack([-xi.Hu[i], -xi.Hy[i - 1]]))

    def test_residual_window_identity(self, rng):
        # the z-channel Toeplitz maps stacked [u; y] to stacked
        # residuals of the residual generator
        pred = random_predictor(rng, with_d=True)
        xi = exact_xi(pred)
        L = 12
        Hz = z_markov(xi.Hu, xi.Hy, L)
        Tz = block_toeplitz(Hz)
        z = rng.standard_normal((L, 4))
        r = ff.residual_generator(pred).run(z)
        assert np.allclose(Tz @ z.reshape(-1), r.reshape(-1), atol=1e-10)


class TestInverseMarkov:
    def test_matches_open_loop_inverse_channel(self, rng):
        pred = random_predictor(rng, with_d=True)
        inv = open_loop_inverse(pred)
        Hf = markov_parameters(pred, "f", 20)
        Gi = inverse_markov(Hf, 20)
        ref = markov_from_ss(inv.Phi1, inv.B1, inv.C1, inv.D1, 20)
        assert np.allclose(Gi.blocks, ref.blocks, atol=1e-10)

    def test_toeplitz_inverse_identity(self, rng):
        pred = random_predictor(rng, n_y=3, sensors=(0, 1))
        Hf = markov_parameters(pred, "f", 25)
        Gi = inverse_markov(Hf, 25)
        prod = block_toeplitz(Gi) @ block_toeplitz(Hf)
        assert np.max(np.abs(prod - np.eye(prod.shape[0]))) < 1e-10

    def test_feedthrough_rank_error(self):
        blocks = np.zeros((5, 2, 2))
        blocks[0] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(FaultDirectionError,
                           match="fault feedthrough rank"):
            inverse_markov(ff.MarkovSequence(blocks), 5)


class TestWindowConvolutions:
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), n_u=st.integers(1, 3),
           n_y=st.integers(2, 4), n_f=st.integers(1, 3))
    def test_against_matrix_powers(self, seed, n, n_u, n_y, n_f):
        rng = np.random.default_rng(seed)
        J = sorted(int(j) for j in rng.choice(n_y, min(n_f, n_y - 1), replace=False))
        pred = random_predictor(rng, n, n_u, n_y, sensors=J, with_d=True)
        xi = exact_xi(pred)
        L = 18
        Hf = fault_markov(xi.Hy, J, L)
        Hz = z_markov(xi.Hu, xi.Hy, L)
        Gi = inverse_markov(Hf, L)
        Ri = convolve_R(Gi, Hz, L)
        Qi = convolve_Q(Hz, Hf, Ri, L)
        Gm = left_inverse(pred.G)
        proj = np.eye(n_y) - pred.G @ Gm
        Bf = pred.Bt - pred.Et @ Gm @ pred.D
        Kf = pred.K + pred.Et @ Gm
        inv = open_loop_inverse(pred)
        # window maps are the Markov parameters of the inverse cascade
        R_ref = markov_from_ss(inv.Phi1, np.hstack([Bf, Kf]), inv.C1,
                               np.hstack([-Gm @ pred.D, Gm]), L)
        Q_ref = markov_from_ss(inv.Phi1, np.hstack([Bf, Kf]), -inv.C2,
                               np.hstack([-proj @ pred.D, proj]), L)
        W_ref = np.concatenate([R_ref.blocks, Q_ref.blocks], axis=1)
        tol = 1e-9 * (1.0 + np.abs(W_ref).max())
        assert np.max(np.abs(Ri.blocks - R_ref.blocks)) <= tol
        assert np.max(np.abs(Qi.blocks - Q_ref.blocks)) <= tol
        # ... and of the folded inverse both design routes inject into
        system = _inverse_system(pred)
        W = stack_windows(Ri, Qi).blocks
        assert np.max(np.abs(system.markov(L).blocks - W)) <= tol
        Kr = rng.standard_normal((n, n_y))
        model_route = reduced_filter(pred, Kr)
        data_route = assemble_filter(system, J, Kr=Kr)
        for name in ("Af", "Bu", "By", "Cf", "Du", "Dy"):
            a, b = getattr(model_route, name), getattr(data_route, name)
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-15 * (
                1.0 + np.abs(a).max(initial=0.0))

    def test_faulty_rows_of_Q_vanish(self, rng):
        pred = random_predictor(rng, n_y=3, sensors=(1,), with_d=True)
        xi = exact_xi(pred)
        L = 15
        Hf = fault_markov(xi.Hy, [1], L)
        Hz = z_markov(xi.Hu, xi.Hy, L)
        Gi = inverse_markov(Hf, L)
        Ri = convolve_R(Gi, Hz, L)
        Qi = convolve_Q(Hz, Hf, Ri, L)
        for i in range(L):
            assert np.allclose(Qi[i][1], 0.0, atol=1e-10)

    def test_stack_windows_shape(self, rng):
        pred = random_predictor(rng, with_d=True)
        xi = exact_xi(pred)
        Hf = fault_markov(xi.Hy, [0], 10)
        Hz = z_markov(xi.Hu, xi.Hy, 10)
        Gi = inverse_markov(Hf, 10)
        Ri = convolve_R(Gi, Hz, 10)
        Qi = convolve_Q(Hz, Hf, Ri, 10)
        Wi = stack_windows(Ri, Qi)
        assert Wi.block_shape == (3, 4)
        assert np.allclose(Wi[3], np.vstack([Ri[3], Qi[3]]))


class TestHoKalman:
    def test_round_trip_exact_markov(self, rng):
        A = 0.7 * np.diag([0.9, -0.5, 0.4]) + 0.05 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        C = rng.standard_normal((2, 3))
        D = rng.standard_normal((2, 2))
        seq = markov_from_ss(A, B, C, D, 41)
        sys, s = ho_kalman(seq, 10, 10, order=3)
        back = sys.markov(41)
        assert np.max(np.abs(back.blocks - seq.blocks)) < 1e-10
        assert s[3] < 1e-10 * s[0]

    def test_auto_order_detection(self, rng):
        A = np.diag([0.8, 0.5, -0.3])
        B = rng.standard_normal((3, 1))
        C = rng.standard_normal((2, 3))
        seq = markov_from_ss(A, B, C, np.zeros((2, 1)), 21)
        sys, _ = ho_kalman(seq, 8, 8, order="auto")
        assert sys.A.shape == (3, 3)

    def test_order_above_rank_warns(self, rng):
        A = np.diag([0.8, 0.5])
        B = rng.standard_normal((2, 1))
        C = rng.standard_normal((1, 2))
        seq = markov_from_ss(A, B, C, np.zeros((1, 1)), 21)
        with pytest.warns(UserWarning):
            ho_kalman(seq, 8, 8, order=5)

    def test_needs_enough_blocks(self, rng):
        seq = ff.MarkovSequence(rng.standard_normal((5, 1, 1)))
        with pytest.raises(ValidationError):
            ho_kalman(seq, 4, 4)

    def test_state_basis_ignores_singular_vector_signs(self, rng, monkeypatch):
        # LAPACK may return either sign for each singular pair, and a
        # roundoff change in the blocks can switch it
        A = 0.7 * np.diag([0.9, -0.5, 0.4]) + 0.05 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        C = rng.standard_normal((2, 3))
        seq = markov_from_ss(A, B, C, rng.standard_normal((2, 2)), 41)
        ref, _ = ho_kalman(seq, 10, 10, order=3)
        svd = np.linalg.svd

        def flipped_svd(H, full_matrices=True):
            U, s, Vt = svd(H, full_matrices=full_matrices)
            sign = np.where(np.arange(len(s)) % 2 == 0, -1.0, 1.0)
            return U * sign, s, Vt * sign[:, None]

        monkeypatch.setattr(np.linalg, "svd", flipped_svd)
        bumped = ff.MarkovSequence(
            seq.blocks * (1 + 1e-15 * rng.standard_normal(seq.blocks.shape)))
        got, _ = ho_kalman(bumped, 10, 10, order=3)
        for want, have in ((ref.A, got.A), (ref.B, got.B), (ref.C, got.C)):
            assert np.abs(have - want).max() <= 1e-9 * np.abs(want).max()


class TestRealize:
    def build_windows(self, pred, L=100):
        xi = exact_xi(pred, p=L)
        Hf = fault_markov(xi.Hy, [0], L)
        Hz = z_markov(xi.Hu, xi.Hy, L)
        Gi = inverse_markov(Hf, L)
        Ri = convolve_R(Gi, Hz, L)
        Qi = convolve_Q(Hz, Hf, Ri, L)
        return stack_windows(Ri, Qi)

    def test_exact_recovery_of_window_sequence(self, rng):
        pred = stable_invertible_predictor(rng)
        Wi = self.build_windows(pred)
        cfg = DesignConfig(sensor=0, markov_length=100, hankel_rows=20,
                           hankel_cols=20, order=4)
        realized, singular_values = realize(Wi, cfg)
        assert realized.A.shape[0] == 4
        assert singular_values[4] < 1e-8 * singular_values[0]
        # realized matrices reproduce the window Markov sequence
        for i in range(1, 30):
            P = np.linalg.matrix_power(realized.A, i - 1)
            assert np.allclose(realized.C @ P @ realized.B, Wi[i], atol=1e-8)
        W0 = Wi[0]
        assert np.allclose(realized.D[:1, :2], W0[:1, :2])
        assert np.allclose(realized.D[:1, 2:], W0[:1, 2:])
        assert np.allclose(realized.D[1:, 2:], W0[1:, 2:])


    def test_assemble_filter_rejects_wrong_gain_shape(self, rng):
        pred = stable_invertible_predictor(rng)
        cfg = DesignConfig(sensor=0, markov_length=100, hankel_rows=20,
                           hankel_cols=20, order=4)
        realized, _ = realize(self.build_windows(pred), cfg)
        filt = assemble_filter(realized, 0, Kr=np.zeros((4, 2)))
        assert isinstance(filt, FaultEstimationFilter)
        with pytest.raises(ValidationError, match="Kr must have 2 columns"):
            assemble_filter(realized, 0, Kr=np.zeros((4, 3)))


class TestDesignPipeline:
    def test_exact_data_matches_model_based_filter(self, rng):
        # with exact Markov parameters and a basis-independent gain the
        # data-driven filter equals the model-based one as a system
        pred = stable_invertible_predictor(rng)
        xi = exact_xi(pred, p=100)
        cfg = DesignConfig(sensor=0, markov_length=100, order=4,
                           strategy="pole_placement", poles=POLES4)
        filt2 = design_filter_from_xi(xi, cfg)
        inv = open_loop_inverse(pred)
        Kr = stabilizing_gain(inv.Phi1, inv.C2, strategy="pole_placement",
                              poles=POLES4)
        filt0 = reduced_filter(pred, Kr, strategy="pole_placement")
        M2 = np.vstack(list(filt2.as_system().markov(20)))
        M0 = np.vstack(list(filt0.as_system().markov(20)))
        assert np.linalg.norm(M2 - M0) / np.linalg.norm(M0) < 1e-8

    def test_predictor_from_xi_round_trip(self, rng):
        model = random_model(rng, n=4, rho=0.7)
        pred = to_predictor(model)
        xi = exact_xi(pred, p=100)
        realized, s = predictor_from_xi(xi, 20, 20, order=4)
        assert s[4] < 1e-8 * s[0]
        for ch in ("u", "y"):
            ref = markov_parameters(pred, ch, 25)
            got = markov_parameters(realized, ch, 25)
            assert np.allclose(got.blocks, ref.blocks, atol=1e-8)
        assert np.allclose(realized.D, pred.D)
        assert np.allclose(realized.SigmaE, pred.SigmaE)

    def test_unstable_zero_fails_at_stabilize_stage(self, rng):
        pred = planted_zero_predictor(rng, 1.2)
        xi = exact_xi(pred, p=100)
        cfg = DesignConfig(sensor=0, markov_length=100, order=4)
        with pytest.raises(StabilizationError, match="stabilize:"):
            design_filter_from_xi(xi, cfg)

    def test_window_longer_than_past_horizon_rejected(self, rng):
        pred = random_predictor(rng)
        xi = exact_xi(pred, p=30)
        with pytest.raises(ValidationError):
            design_filter_from_xi(
                xi, DesignConfig(sensor=0, markov_length=50, order=4))

    def test_design_from_data_end_to_end(self, rng):
        # noisy data from the registry loop; the designed filter must
        # track a fault on fresh data reasonably well
        model, ctrl = ff.get_plant("unstable4").factory()
        faulty = ff.sensor_fault_plant(model, 0)
        data = ff.collect_identification_data(faulty, ctrl, 6000, seed=2)
        cfg = DesignConfig(sensor=0, markov_length=80, order=4,
                           strategy="pole_placement",
                           poles=list(ff.bench_cli.BENCH_POLES))
        filt = design_filter_from_data(data, p=80, cfg=cfg,
                                       assume_delay=True)
        rng2 = np.random.default_rng(77)
        scen = ff.FaultScenario(onset=40)
        run, fault = ff.closed_loop_sim(faulty, ctrl, 500, rng2,
                                        scenario=scen)
        fhat = ff.run_filter(filt, run)
        err = fhat[200:, 0] - fault[200:, 0]
        assert np.sqrt(np.mean(err ** 2)) < 0.5


    def test_saved_filter_matches_gelsy_identification(self, tmp_path):
        # the Gram-matrix fit moves xi by ~1e-10 against pivoted QR on
        # the explicit regressor; the saved filter must not notice
        model, ctrl = ff.get_plant("unstable4").factory(q=1e-6, r=1e-4)
        faulty = ff.sensor_fault_plant(model, 0)
        data = ff.collect_identification_data(faulty, ctrl, 3000, seed=4)
        cfg = DesignConfig(sensor=0, markov_length=60, hankel_rows=15,
                           hankel_cols=15, order=4, strategy="pole_placement",
                           poles=list(BENCH_POLES))
        files = []
        for name, fit in (("gram", identify_xi), ("gelsy", gelsy_identify_xi)):
            path = tmp_path / f"{name}.csv"
            design_filter_from_xi(fit(data, 60, assume_delay=True), cfg).to_csv(path)
            files.append([line.split(",") for line in path.read_text().splitlines()])
        got, want = [], []
        for row_g, row_w in zip(*files, strict=True):
            assert len(row_g) == len(row_w)
            for cell_g, cell_w in zip(row_g, row_w):
                try:
                    want.append(float(cell_w))
                except ValueError:
                    assert cell_g == cell_w
                else:
                    got.append(float(cell_g))
        got, want = np.array(got), np.array(want)
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


class TestDesignConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DesignConfig(sensor=0, hankel_rows=1)
        with pytest.raises(ValidationError):
            DesignConfig(sensor=0, markov_length=10, hankel_rows=20,
                         hankel_cols=20)
        with pytest.raises(ValidationError):
            DesignConfig(sensor=0, strategy="magic")

    def test_from_ini_poles_none(self, tmp_path):
        # the same [design] section parses for the CLI and for from_ini
        path = tmp_path / "design.ini"
        path.write_text("[design]\nstrategy = riccati\npoles = none\n")
        assert DesignConfig.from_ini(path).poles is None
        assert ff.bench_cli.load_bench_config(path).poles is None

    def test_from_ini_bad_value_names_key(self, tmp_path):
        path = tmp_path / "design.ini"
        path.write_text("[design]\nmarkov_length = 1e2\n")
        with pytest.raises(ValidationError, match=r"\[design\] markov_length"):
            DesignConfig.from_ini(path)

    def test_from_ini_unknown_key_lists_accepted(self, tmp_path):
        path = tmp_path / "design.ini"
        path.write_text("[design]\nhankel_row = 12\n")
        with pytest.raises(ValidationError, match=(
                r"\[design\] hankel_row: unknown key; accepted keys are "
                r"sensor, markov_length, hankel_rows, hankel_cols")):
            DesignConfig.from_ini(path)

    def test_from_ini_malformed_file(self, tmp_path):
        path = tmp_path / "design.ini"
        path.write_text("hankel_rows = 12\n")
        with pytest.raises(ValidationError, match=f"malformed config file {path}"):
            DesignConfig.from_ini(path)

    def test_from_ini_one_based_sensors(self, tmp_path):
        path = tmp_path / "design.ini"
        path.write_text(
            "[design]\n"
            "sensor = 2\n"
            "markov_length = 60\n"
            "hankel_rows = 12\n"
            "hankel_cols = 12\n"
            "order = auto\n"
            "strategy = pole_placement\n"
            "poles = 0.5 0.3, 0.2 0.1\n")
        cfg = DesignConfig.from_ini(path)
        assert cfg.sensor == [1]
        assert cfg.markov_length == 60
        assert cfg.order == "auto"
        assert cfg.poles == [0.5, 0.3, 0.2, 0.1]
