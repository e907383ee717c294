import copy
import dataclasses
import gc
import pickle
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    invariant_zeros_stable,
    inverse_markov,
    left_inverse,
    markov_from_ss,
    markov_parameters,
    open_loop_inverse,
    predictor_from_xi,
    realize,
    reduced_filter,
    sensor_fault_channel,
    spectral_radius,
    stabilizing_gain,
    to_predictor,
    xi_from_predictor,
    z_markov,
)
from faultfilter.bench_cli import BENCH_POLES, load_bench_config
from faultfilter.inverse_filter import _inverse_system
from faultfilter import markov_design
from faultfilter.markov_design import _window_blocks

from conftest import (
    HIDDEN_MODE_INI,
    filter_markov_gap,
    full_row_realize,
    gelsy_identify_xi,
    planted_zero_predictor,
    random_model,
    random_predictor,
    sign_all_ho_kalman,
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
        assert np.allclose(Hf, ref, atol=1e-12)

    def test_multi_sensor_columns(self, rng):
        pred = random_predictor(rng, n_y=3, sensors=(0, 2))
        xi = exact_xi(pred)
        Hf = fault_markov(xi.Hy, [0, 2], 20)
        ref = markov_parameters(pred, "f", 20)
        assert np.allclose(Hf, ref, atol=1e-12)

    def test_scalar_sensor_accepted(self, rng):
        pred = random_predictor(rng, sensors=(1,))
        xi = exact_xi(pred)
        a = fault_markov(xi.Hy, 1, 10)
        b = fault_markov(xi.Hy, [1], 10)
        assert np.allclose(a, b)

    @pytest.mark.parametrize("shape, L, message", [
        ((5, 2, 3), 3, "Hy must hold square output blocks"),
        ((5, 2, 2), 7, "need 6 output blocks for L=7 fault blocks, have 5"),
    ], ids=["non-square", "past-the-blocks"])
    def test_bad_blocks_rejected(self, shape, L, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            fault_markov(np.ones(shape), 0, L)


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

    @pytest.mark.parametrize("hy_shape, L, message", [
        ((4, 3, 3), 3, "Hu and Hy block shapes are inconsistent"),
        ((4, 2, 2), 6, "L=6 exceeds the available blocks (5 input, 4 output)"),
    ], ids=["mismatched", "past-the-blocks"])
    def test_bad_blocks_rejected(self, hy_shape, L, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            z_markov(np.ones((5, 2, 1)), np.ones(hy_shape), L)


class TestInverseMarkov:
    def test_matches_open_loop_inverse_channel(self, rng):
        pred = random_predictor(rng, with_d=True)
        inv = open_loop_inverse(pred)
        Hf = markov_parameters(pred, "f", 20)
        Gi = inverse_markov(Hf, 20)
        ref = markov_from_ss(inv.Phi1, inv.B1, inv.C1, inv.D1, 20)
        assert np.allclose(Gi, ref, atol=1e-10)

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
            inverse_markov(blocks, 5)

    def test_length_past_the_blocks_rejected(self):
        Hf = np.ones((5, 2, 1))
        with pytest.raises(ValidationError,
                           match="^L=6 exceeds the 5 available fault blocks$"):
            inverse_markov(Hf, L=len(Hf) + 1)


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
        W_ref = np.concatenate([R_ref, Q_ref], axis=1)
        tol = 1e-9 * (1.0 + np.abs(W_ref).max())
        assert np.max(np.abs(Ri - R_ref)) <= tol
        assert np.max(np.abs(Qi - Q_ref)) <= tol
        # ... and of the folded inverse both design routes inject into
        system = _inverse_system(pred)
        W = np.concatenate([Ri, Qi], axis=1)
        assert np.max(np.abs(system.markov(L) - W)) <= tol
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

    def test_window_blocks_shape(self, rng):
        pred = random_predictor(rng, with_d=True)
        xi = exact_xi(pred)
        Hf = fault_markov(xi.Hy, [0], 10)
        Hz = z_markov(xi.Hu, xi.Hy, 10)
        Gi = inverse_markov(Hf, 10)
        Ri = convolve_R(Gi, Hz, 10)
        Qi = convolve_Q(Hz, Hf, Ri, 10)
        Wi = _window_blocks(Hf, Hz, 10)
        assert Wi.shape == (10, 3, 4)
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
        assert np.max(np.abs(back - seq)) < 1e-10
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
        seq = rng.standard_normal((5, 1, 1))
        with pytest.raises(ValidationError):
            ho_kalman(seq, 4, 4)

    @pytest.mark.parametrize("seq, message", [
        (np.ones((2, 1, 1)), "not enough singular values to pick an order"),
        (np.zeros((9, 2, 2)), "all Markov blocks are zero, nothing to realize"),
    ], ids=["one-singular-value", "all-zero"])
    def test_nothing_to_realize(self, seq, message):
        l = m = len(seq) // 2
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ho_kalman(seq, l, m)

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
        bumped = seq * (1 + 1e-15 * rng.standard_normal(seq.shape))
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
        return np.concatenate([Ri, Qi], axis=1)

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


@pytest.fixture(scope="module")
def bench_xi():
    """Identified xi of the benchmark loop at p = 99: 100 blocks."""
    model, ctrl = ff.get_plant("unstable4").factory(q=1e-6, r=1e-4)
    data = ff.collect_identification_data(ff.sensor_fault_plant(model, 0), ctrl,
                                          4000, seed=5)
    return identify_xi(data, 99, assume_delay=True)


def window_blocks(xi, sensor, L=40):
    return _window_blocks(fault_markov(xi.Hy, sensor, L), z_markov(xi.Hu, xi.Hy, L), L)


class TestLiveRowRealization:
    """realize leaves out the faulty sensors' q rows, which are exactly zero."""

    @pytest.fixture(params=["bench", "exact"])
    def xi(self, request, bench_xi):
        if request.param == "bench":
            return bench_xi
        return exact_xi(stable_invertible_predictor(np.random.default_rng(11)), p=100)

    @pytest.mark.parametrize("sensor", [0, 1, (0, 1)], ids=["0", "1", "0-1"])
    def test_faulty_rows_are_exactly_zero(self, xi, sensor):
        J = np.atleast_1d(sensor)
        rows = len(J) + J  # the q rows of the faulty sensors
        Wi = window_blocks(xi, sensor)
        assert not Wi[:, rows].any()
        inv, s = realize(Wi, DesignConfig(sensor=sensor, order=4))
        assert not inv.C[rows].any() and np.delete(inv.C, rows, axis=0).all()
        assert len(s) == 20 * (Wi.shape[1] - len(J))

    @pytest.mark.parametrize("strategy", ["riccati", "pole_placement"])
    @pytest.mark.parametrize("sensor", [0, 1])
    def test_design_matches_full_row_oracle(self, xi, sensor, strategy):
        cfg = DesignConfig(sensor=sensor, order=4, strategy=strategy, poles=list(BENCH_POLES))
        got = design_filter_from_xi(xi, cfg).step_matrix()
        inv, _ = full_row_realize(window_blocks(xi, sensor), cfg)
        want = assemble_filter(inv, sensor, strategy=strategy, poles=cfg.poles).step_matrix()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_sensor_outside_the_blocks_is_named(self, bench_xi):
        # the live rows are read by sensor index, so one past the q rows
        # is a ValidationError, not an IndexError
        with pytest.raises(ValidationError, match=re.escape(
                "window block shape (3, 4) inconsistent with sensors (2,)")):
            realize(window_blocks(bench_xi, 0), DesignConfig(sensor=2, order=4))

    def test_live_hankel_has_no_structural_tail(self, bench_xi):
        # all 60 rows give rank 40 and 20 singular values at rounding
        # level; the 40 live rows give the same 40 and no tail
        cfg = DesignConfig(sensor=0, order=4)
        Wi = window_blocks(bench_xi, 0)
        _, s = realize(Wi, cfg)
        _, full = full_row_realize(Wi, cfg)
        assert len(s) == 40 and s[-1] > 1e-10 * s[0]
        assert full[40:].max() < 1e-14 * full[0]
        assert np.abs(s - full[:40]).max() <= 1e-13 * s[0]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, "auto"])
def test_ho_kalman_signs_only_kept_pairs(bench_xi, order):
    # signing the pairs past the order is work thrown away: the kept ones
    # carry the realization, and it keeps its bits
    seq = window_blocks(bench_xi, 0)[:, [0, 2]]  # the live rows of sensor 0
    sys, s = ho_kalman(seq, 20, 20, order=order)
    want = sign_all_ho_kalman(seq, 20, 20, order)
    for got, ref in zip((sys.A, sys.B, sys.C, sys.D, s), want):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestDesignPipeline:
    @pytest.mark.parametrize("sensor", [0, 1])
    def test_leading_window_blocks_keep_their_bits(self, bench_xi, sensor):
        # at the design's default shape the 40-block solve repeats the
        # 100-block one bit for bit (in general they agree to rounding,
        # see test_markov_algebra)
        Hf = fault_markov(bench_xi.Hy, sensor, 100)
        Hz = z_markov(bench_xi.Hu, bench_xi.Hy, 100)
        assert np.array_equal(_window_blocks(Hf, Hz, 100)[:40], _window_blocks(Hf, Hz, 40))

    @pytest.mark.parametrize("strategy", ["riccati", "pole_placement"])
    @pytest.mark.parametrize("sensor", [0, 1])
    def test_markov_length_only_bounds_the_design(self, bench_xi, sensor, strategy):
        # the design reads l + m = 40 window blocks whatever markov_length
        # is, below l + m or above the p + 1 = 100 identified blocks, and
        # gives the filter the full 100-block solve gives; each design runs
        # on its own copy, as one xi would reuse its realization
        cfgs = [DesignConfig(sensor=sensor, markov_length=L, order=4, strategy=strategy,
                             poles=list(BENCH_POLES)) for L in (100, 40, 1, 1000)]
        first, *others = (design_filter_from_xi(copy.deepcopy(bench_xi), cfg).step_matrix()
                          for cfg in cfgs)
        Hf = fault_markov(bench_xi.Hy, sensor, 100)
        Hz = z_markov(bench_xi.Hu, bench_xi.Hy, 100)
        inv, _ = realize(_window_blocks(Hf, Hz, 100), cfgs[0])
        full = assemble_filter(inv, sensor, strategy=strategy, poles=cfgs[0].poles)
        assert all(np.array_equal(first, other) for other in others)
        assert np.array_equal(first, full.step_matrix())

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
            assert np.allclose(got, ref, atol=1e-8)
        assert np.allclose(realized.D, pred.D)
        assert np.allclose(realized.SigmaE, pred.SigmaE)

    def test_predictor_from_xi_takes_the_one_shift(self, bench_xi):
        # the identified-model route realizes its [H^u H^y] blocks with the
        # controllability shift the direct design uses; no other is offered
        n_y = bench_xi.n_y
        Hy = np.concatenate([np.zeros((1, n_y, n_y)), bench_xi.Hy])
        seq = np.concatenate([bench_xi.Hu, Hy], axis=2)
        pred, s = predictor_from_xi(bench_xi, 20, 20, order=4)
        sys, want = ho_kalman(seq, 20, 20, 4)
        assert np.array_equal(s, want)
        assert np.array_equal(pred.Phi, sys.A)
        assert np.array_equal(np.hstack([pred.Bt, pred.K]), sys.B)
        assert np.array_equal(pred.C, sys.C)
        with pytest.raises(TypeError):
            ho_kalman(seq, 20, 20, 4, shift="observability")

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

    def test_markov_length_failure_is_stage_tagged(self, rng):
        # the markov stage checks the l + m blocks the design reads against
        # the p + 1 identified; markov_length 100 > 41 is not read
        xi = exact_xi(random_predictor(rng), p=40)
        design_filter_from_xi(xi, DesignConfig(sensor=0, markov_length=100, order=4))
        message = ("markov: hankel_rows 21 + hankel_cols 21 exceed the 41 blocks "
                   "identified at p = 40")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            design_filter_from_xi(xi, DesignConfig(sensor=0, markov_length=100, order=4,
                                                   hankel_rows=21, hankel_cols=21))

    def test_design_from_data_end_to_end(self, rng):
        # noisy data from the registry loop; the designed filter must
        # track a fault on fresh data reasonably well
        model, ctrl = ff.get_plant("unstable4").factory()
        faulty = ff.sensor_fault_plant(model, 0)
        data = ff.collect_identification_data(faulty, ctrl, 6000, seed=2)
        cfg = DesignConfig(sensor=0, markov_length=80, order=4,
                           strategy="pole_placement",
                           poles=list(ff.bench_cli.BENCH_POLES))
        filt = design_filter_from_xi(identify_xi(data, 80, assume_delay=True), cfg)
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


class TestExactDataProperties:
    """The two identities the direct design rests on, over random draws.

    On exact Markov parameters (p = 60, the default 20 x 20 Hankel matrix,
    order 4) the direct design reproduces the model-based filter, and it
    refuses exactly where the model-based inverse cannot be stabilized.
    Two and three outputs are drawn; with three, the filter comparison
    faults two sensors so that one healthy output remains.  The
    identified-model route, on the same exact data, reproduces it too.
    """

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), k_scale=st.sampled_from([0.3, 0.6, 1.0]),
           channel=st.sampled_from([(2, (0,)), (3, (0, 1)), (3, (0, 2))]))
    def test_exact_data_gives_the_model_based_filter(self, seed, k_scale, channel):
        # one healthy output, so pole placement's gain does not depend on
        # the state basis; the draws include unstable inverses that only
        # the gain stabilizes.  Past rho(Phi1) ~ 2 the 20 x 20 Hankel
        # matrix's dynamic range loses the stable modes to rounding, so
        # draws stop at 1.5
        n_y, sensors = channel
        pred = random_predictor(np.random.default_rng(seed), n_y=n_y, sensors=sensors,
                                rho=0.6, k_scale=k_scale)
        inv = open_loop_inverse(pred)
        assume(spectral_radius(inv.Phi1) < 1.5)
        filt2 = design_filter_from_xi(exact_xi(pred), DesignConfig(
            sensor=sensors, markov_length=60, order=4, strategy="pole_placement",
            poles=POLES4))
        Kr = stabilizing_gain(inv.Phi1, inv.C2, strategy="pole_placement", poles=POLES4)
        filt0 = reduced_filter(pred, Kr, strategy="pole_placement")
        assert filter_markov_gap(filt2, filt0) < 1e-6

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), k_scale=st.sampled_from([0.3, 0.6, 1.0]))
    def test_identified_model_route_gives_the_model_based_filter(self, seed, k_scale):
        # alg1's route: realize the plant predictor from exact xi, attach the
        # fault channel, then the model-based design.  It realizes the
        # decaying predictor, not the inverse, so no rho(Phi1) range applies
        pred = random_predictor(np.random.default_rng(seed), rho=0.6, k_scale=k_scale)
        base, _ = predictor_from_xi(exact_xi(pred), 20, 20, order=4)
        filt1 = assemble_filter(_inverse_system(sensor_fault_channel(base, 0)), 0,
                                strategy="pole_placement", poles=POLES4)
        inv = open_loop_inverse(pred)
        Kr = stabilizing_gain(inv.Phi1, inv.C2, strategy="pole_placement", poles=POLES4)
        filt0 = reduced_filter(pred, Kr, strategy="pole_placement")
        assert filter_markov_gap(filt1, filt0) < 1e-6

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1),
           lam=st.floats(0.2, 0.9) | st.floats(1.1, 1.5), n_y=st.sampled_from([2, 3]))
    def test_the_two_routes_refuse_together(self, seed, lam, n_y):
        pred = planted_zero_predictor(np.random.default_rng(seed), lam, n_y=n_y)
        ok, _ = invariant_zeros_stable(pred.Phi, pred.Et, pred.C, pred.G)
        cfg = DesignConfig(sensor=0, markov_length=60, order=4, strategy="riccati")
        if ok:
            design_filter_from_xi(exact_xi(pred), cfg)
        else:
            with pytest.raises(StabilizationError, match="^stabilize: "):
                design_filter_from_xi(exact_xi(pred), cfg)

    @pytest.mark.parametrize("strategy, poles", [("riccati", None),
                                                 ("pole_placement", BENCH_POLES)])
    def test_the_two_routes_refuse_the_hidden_mode(self, tmp_path, strategy, poles):
        # HIDDEN_MODE_INI's second sensor cannot see the 1.05 mode, so a
        # fault on the first leaves it an unstable invariant zero; the data
        # route refuses it at its stabilize stage as the model route does
        path = tmp_path / "hidden.ini"
        path.write_text(HIDDEN_MODE_INI)
        cfg = load_bench_config(path)
        model, _ = cfg.resolve_plant()
        pred = to_predictor(ff.sensor_fault_plant(model, cfg.sensors))
        with pytest.raises(StabilizationError, match=r"modes \[1\.05\]") as model_route:
            assemble_filter(_inverse_system(pred), cfg.sensors, strategy=strategy, poles=poles)
        design = DesignConfig(sensor=cfg.sensors, markov_length=60, order=4,
                              strategy=strategy, poles=poles)
        with pytest.raises(StabilizationError) as data_route:
            design_filter_from_xi(exact_xi(pred), design)
        assert str(data_route.value) == f"stabilize: {model_route.value}"


def pp_config(**kw):
    return DesignConfig(**{"sensor": 0, "markov_length": 100, "order": 4,
                           "strategy": "pole_placement", "poles": POLES4, **kw})


def count_realize(monkeypatch):
    calls = []
    realize_ = markov_design.realize

    def counted(Wi, cfg):
        calls.append(cfg)
        return realize_(Wi, cfg)

    monkeypatch.setattr(markov_design, "realize", counted)
    return calls


class TestRealizationCache:
    """A xi keeps one realized inverse per (sensors, l, m, order)."""

    @pytest.fixture
    def xi(self, rng):
        return exact_xi(stable_invertible_predictor(rng), p=100)

    def test_repeat_designs_match_fresh_ones(self, xi):
        cfgs = [pp_config(), pp_config(strategy="riccati"), pp_config()]
        got = [design_filter_from_xi(xi, cfg).step_matrix() for cfg in cfgs]
        for cfg, M in zip(cfgs, got):
            assert np.array_equal(M, design_filter_from_xi(copy.deepcopy(xi), cfg).step_matrix())
        assert not np.array_equal(got[0], got[1])

    def test_realize_runs_once_per_key(self, xi, monkeypatch):
        calls = count_realize(monkeypatch)
        for cfg in (pp_config(), pp_config(strategy="riccati"), pp_config(sensor=[0]),
                    pp_config(markov_length=40), pp_config(poles=[0.2, 0.1, 0.3, 0.4])):
            design_filter_from_xi(xi, cfg)
        assert len(calls) == 1
        for cfg in (pp_config(sensor=1), pp_config(hankel_rows=15),
                    pp_config(hankel_cols=15), pp_config(order=3, poles=POLES4[:3])):
            design_filter_from_xi(xi, cfg)
            design_filter_from_xi(xi, cfg)
        assert len(calls) == 5
        design_filter_from_xi(copy.deepcopy(xi), pp_config())
        assert len(calls) == 6
        key = ((0,), 20, 20, 4)
        inv = markov_design._REALIZED[xi][key]
        assert not any(M.flags.writeable for M in (inv.A, inv.B, inv.C, inv.D))

    @pytest.mark.parametrize("edit", ["in_place", "reassigned"])
    def test_edits_raise(self, xi, edit):
        # a xi is fixed once built, so its realization cannot go stale
        cfg = pp_config()
        before = design_filter_from_xi(xi, cfg).step_matrix()
        if edit == "in_place":
            with pytest.raises(ValueError, match="read-only"):
                xi.Hy[0] *= 1.1
        else:
            with pytest.raises(dataclasses.FrozenInstanceError):
                xi.Hu = xi.Hu * 1.1
        assert np.array_equal(design_filter_from_xi(xi, cfg).step_matrix(), before)

    @pytest.mark.parametrize("rebuild", [copy.deepcopy,
                                         lambda xi: pickle.loads(pickle.dumps(xi))],
                             ids=["deepcopy", "pickle"])
    def test_copy_is_fixed_and_realized_anew(self, xi, monkeypatch, rebuild):
        cfg = pp_config()
        before = design_filter_from_xi(xi, cfg).step_matrix()
        calls = count_realize(monkeypatch)
        twin = rebuild(xi)
        assert type(twin) is type(xi) and twin.p == xi.p
        for name in ("Hu", "Hy", "residual_variance"):
            a, b = getattr(xi, name), getattr(twin, name)
            assert np.array_equal(a, b) and not np.shares_memory(a, b)
            assert not b.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.p = 3
        assert np.array_equal(design_filter_from_xi(twin, cfg).step_matrix(), before)
        assert len(calls) == 1 and twin in markov_design._REALIZED

    def test_entry_lives_as_long_as_its_xi(self, rng):
        xi = exact_xi(stable_invertible_predictor(rng), p=100)  # not the fixture's: it holds one
        design_filter_from_xi(xi, pp_config())
        gc.collect()  # other tests' xi may wait in reference cycles
        entries = len(markov_design._REALIZED)
        inv = weakref.ref(markov_design._REALIZED[xi][((0,), 20, 20, 4)])
        ref = weakref.ref(xi)
        del xi
        gc.collect()
        assert ref() is None and inv() is None
        assert len(markov_design._REALIZED) == entries - 1

    @pytest.mark.parametrize("cfg, message", [
        (dict(order=200), "realize: order 200 outside [1, 40] for this Hankel matrix"),
        (dict(sensor=2, strategy="riccati"), "markov: sensor index 2 outside [0, 2)"),
    ], ids=["realize", "markov"])
    def test_failure_is_not_kept(self, xi, monkeypatch, cfg, message):
        calls = count_realize(monkeypatch)
        cfg = pp_config(**{"poles": None, "strategy": "riccati", **cfg})
        for _ in range(2):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                design_filter_from_xi(xi, cfg)
        assert len(calls) == (2 if message.startswith("realize") else 0)

    def test_rank_warning_once_per_key(self, xi):
        # exact data of a 4-state predictor: orders above 4 exceed the rank
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for order in (5, 5, 6, 5, 6):
                for strategy in ("riccati", "pole_placement"):
                    design_filter_from_xi(xi, pp_config(
                        order=order, strategy=strategy,
                        poles=list(np.linspace(0.1, 0.6, order))))
        assert [str(w.message).split(";")[0] for w in caught] == [
            "requested order 5 exceeds the numerical rank 4",
            "requested order 6 exceeds the numerical rank 4"]


class TestDesignConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DesignConfig(sensor=0, hankel_rows=1)
        with pytest.raises(ValidationError, match=r"^markov_length must be at least 1, got 0$"):
            DesignConfig(sensor=0, markov_length=0)
        with pytest.raises(ValidationError):
            DesignConfig(sensor=0, strategy="magic")

    @pytest.mark.parametrize("kw, message", [
        (dict(order="abc"), "order must be an integer, got 'abc'"),
        (dict(order=4.5), "order must be an integer, got 4.5"),
        (dict(hankel_rows=12.0), "hankel_rows must be an integer, got 12.0"),
        (dict(hankel_cols="x"), "hankel_cols must be an integer, got 'x'"),
        (dict(markov_length=None), "markov_length must be an integer, got None"),
    ], ids=["text-order", "fractional-order", "float-hankel-rows", "text-hankel-cols",
            "no-markov-length"])
    def test_non_integer_count_is_named(self, kw, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            DesignConfig(**kw)

    @pytest.mark.parametrize("sensor, message", [
        ([], "sensor must name at least one sensor, got none"),
        ((), "sensor must name at least one sensor, got none"),
        (0.5, "sensor index must be an integer, got 0.5"),
        ([0, "x"], "sensor index must be an integer, got 'x'"),
        (None, "sensor index must be an integer, got None"),
        (-1, "sensor index -1 outside [0, inf)"),
        ([1, 1], "duplicate sensor indices in [1, 1]"),
    ], ids=["empty-list", "empty-tuple", "fraction", "text", "none", "negative", "repeated"])
    def test_bad_sensor_is_named(self, sensor, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            DesignConfig(sensor=sensor)

    def test_sensor_kept_as_sorted_tuple(self):
        assert DesignConfig(sensor=[1, 0]).sensor == (0, 1)
        assert DesignConfig(sensor=np.int64(5)).sensor == (5,)
        assert type(DesignConfig(sensor=np.int64(5)).sensor[0]) is int

    @pytest.mark.parametrize("name, value", [
        ("sensor", 1), ("hankel_rows", 1), ("order", "junk"), ("strategy", "riccati"),
        ("poles", None),
    ])
    def test_fields_are_fixed(self, name, value):
        cfg = DesignConfig(order=4, strategy="pole_placement", poles=POLES4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
        assert cfg == DesignConfig(order=4, strategy="pole_placement", poles=POLES4)
        assert dataclasses.replace(cfg, sensor=[1]).sensor == (1,)

    def test_counts_read_as_int(self):
        cfg = DesignConfig(markov_length=np.int64(60), hankel_rows="12", order="4",
                           strategy="pole_placement", poles=[0.5, 0.4, 0.3, 0.2])
        assert (cfg.markov_length, cfg.hankel_rows, cfg.order) == (60, 12, 4)
        assert all(type(v) is int for v in (cfg.markov_length, cfg.hankel_rows, cfg.order))

    @pytest.mark.parametrize("bad, shown", [
        (float("nan"), "nan"), (1.5, "1.5"), (-1.0, "-1"), (0.2 - 0.1j, "0.2-0.1j"),
    ], ids=["nan", "outside", "on-circle", "complex"])
    def test_bad_pole_is_named(self, bad, shown):
        # checked for either strategy: no design could use such a pole
        for strategy in ("pole_placement", "riccati"):
            with pytest.raises(ValidationError, match=f"^requested pole {re.escape(shown)} "):
                DesignConfig(sensor=0, order=4, strategy=strategy,
                             poles=[0.3, bad, 0.2, 0.1])
