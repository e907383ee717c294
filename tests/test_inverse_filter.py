import numpy as np
import pytest

import faultfilter as ff
from faultfilter import (
    FaultDirectionError,
    FaultEstimationFilter,
    IOData,
    StabilizationError,
    ValidationError,
    block_toeplitz,
    cascade_filter,
    closed_loop_inverse,
    invariant_zeros_stable,
    left_inverse,
    markov_parameters,
    open_loop_inverse,
    reduced_filter,
    residual_generator,
    run_filter,
    spectral_radius,
    stabilizing_gain,
)

from conftest import (
    assert_same_zeros,
    pencil_zeros,
    planted_zero_predictor,
    random_predictor,
    stable_invertible_predictor,
)


def simulate_predictor(pred, u, f=None, e=None, x0=None):
    """Run the innovation-form recursion of a faulty predictor.

    y(k) = C x(k) + D u(k) + G f(k) + e(k)
    x(k+1) = Phi x(k) + Bt u(k) + Et f(k) + K y(k)
    """
    N = u.shape[0]
    nf = pred.G.shape[1]
    f = np.zeros((N, nf)) if f is None else f
    e = np.zeros((N, pred.C.shape[0])) if e is None else e
    x = np.zeros(pred.Phi.shape[0]) if x0 is None else np.asarray(x0, float)
    Y = np.empty((N, pred.C.shape[0]))
    for k in range(N):
        Y[k] = pred.C @ x + pred.D @ u[k] + pred.G @ f[k] + e[k]
        x = pred.Phi @ x + pred.Bt @ u[k] + pred.Et @ f[k] + pred.K @ Y[k]
    return IOData(u, Y)


class TestLeftInverse:
    def test_identity(self, rng):
        G = np.eye(3)[:, [0, 2]]
        Gm = left_inverse(G)
        assert np.allclose(Gm @ G, np.eye(2))
        G2 = rng.standard_normal((4, 2))
        assert np.allclose(left_inverse(G2) @ G2, np.eye(2), atol=1e-12)

    def test_rank_deficient_rejected(self):
        G = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        with pytest.raises(FaultDirectionError, match="fault direction rank"):
            left_inverse(G)


class TestResidualGenerator:
    def test_zero_residual_matched_faultfree(self, rng):
        pred = random_predictor(rng)
        u = rng.standard_normal((60, 2))
        data = simulate_predictor(pred, u)
        r = residual_generator(pred).run(np.hstack([data.u, data.y]))
        assert np.max(np.abs(r)) < 1e-10

    def test_residual_equals_fault_convolution(self, rng):
        pred = random_predictor(rng, with_d=True)
        L = 40
        u = rng.standard_normal((L, 2))
        f = rng.standard_normal((L, 1))
        data = simulate_predictor(pred, u, f=f)
        r = residual_generator(pred).run(np.hstack([data.u, data.y]))
        Tf = block_toeplitz(markov_parameters(pred, "f", L))
        assert np.allclose(r.reshape(-1), Tf @ f.reshape(-1), atol=1e-9)


class TestOpenLoopInverse:
    def test_matrix_relations(self, rng):
        pred = random_predictor(rng, n_y=3, sensors=(0, 2), with_d=True)
        inv = open_loop_inverse(pred)
        Gm = left_inverse(pred.G)
        assert np.allclose(inv.Phi1, pred.Phi - pred.Et @ Gm @ pred.C)
        assert np.allclose(inv.B1, pred.Et @ Gm)
        assert np.allclose(inv.C1, -Gm @ pred.C)
        assert np.allclose(inv.D1, Gm)
        assert np.allclose(inv.C2, (np.eye(3) - pred.G @ Gm) @ pred.C)
        assert np.allclose(inv.D2, pred.G @ Gm)
        # faulty sensor rows of the healthy-output matrix vanish
        assert np.allclose(inv.C2[[0, 2]], 0.0)

    def test_reconstructs_fault_exactly(self, rng):
        pred = stable_invertible_predictor(rng)
        inv = open_loop_inverse(pred)
        L = 60
        u = rng.standard_normal((L, 2))
        f = rng.standard_normal((L, 1))
        data = simulate_predictor(pred, u, f=f)
        r = residual_generator(pred).run(np.hstack([data.u, data.y]))
        fhat = ff.LinearSystem(inv.Phi1, inv.B1, inv.C1, inv.D1).run(r)
        assert np.allclose(fhat, f, atol=1e-8)


class TestInvariantZeros:
    def test_agrees_with_pencil_oracle_generic(self, rng):
        for _ in range(10):
            pred = random_predictor(rng)
            ok, zeros = invariant_zeros_stable(pred.Phi, pred.Et, pred.C,
                                               pred.G)
            oracle = pencil_zeros(pred.Phi, pred.Et, pred.C, pred.G)
            assert_same_zeros(zeros, oracle)

    @pytest.mark.parametrize("lam,expect_ok", [(0.5, True), (1.2, False)])
    def test_planted_zero_found(self, rng, lam, expect_ok):
        pred = planted_zero_predictor(rng, lam)
        ok, zeros = invariant_zeros_stable(pred.Phi, pred.Et, pred.C, pred.G)
        assert ok == expect_ok
        assert any(abs(z - lam) < 1e-6 for z in zeros)
        oracle = pencil_zeros(pred.Phi, pred.Et, pred.C, pred.G)
        assert any(abs(z - lam) < 1e-6 for z in oracle)

    def test_square_channel_zeros_are_inverse_poles(self, rng):
        pred = random_predictor(rng, sensors=(0, 1))
        ok, zeros = invariant_zeros_stable(pred.Phi, pred.Et, pred.C, pred.G)
        Phi1 = open_loop_inverse(pred).Phi1
        assert_same_zeros(zeros, np.linalg.eigvals(Phi1), tol=1e-8)
        assert_same_zeros(zeros,
                          pencil_zeros(pred.Phi, pred.Et, pred.C, pred.G))

    def test_margin_flips_verdict_near_boundary(self, rng):
        pred = planted_zero_predictor(rng, 0.999)
        ok_tight, _ = invariant_zeros_stable(pred.Phi, pred.Et, pred.C,
                                             pred.G, margin=1e-6)
        ok_wide, _ = invariant_zeros_stable(pred.Phi, pred.Et, pred.C,
                                            pred.G, margin=0.01)
        assert ok_tight and not ok_wide


class TestStabilizingGain:
    def test_riccati_stabilizes_random_pairs(self, rng):
        for _ in range(10):
            pred = random_predictor(rng)
            inv = open_loop_inverse(pred)
            Kr = stabilizing_gain(inv.Phi1, inv.C2)
            assert spectral_radius(inv.Phi1 - Kr @ inv.C2) < 1.0

    def test_pole_placement_hits_requested_poles(self, rng):
        pred = random_predictor(rng)
        inv = open_loop_inverse(pred)
        poles = [0.7, 0.5, 0.3, 0.1]
        Kr = stabilizing_gain(inv.Phi1, inv.C2, strategy="pole_placement",
                              poles=poles)
        got = np.sort(np.linalg.eigvals(inv.Phi1 - Kr @ inv.C2).real)
        assert np.allclose(got, sorted(poles), atol=1e-8)

    def test_unstable_zero_is_rejected_with_modes(self, rng):
        pred = planted_zero_predictor(rng, 1.2)
        inv = open_loop_inverse(pred)
        with pytest.raises(StabilizationError, match="unstabilizable pair"):
            stabilizing_gain(inv.Phi1, inv.C2)
        with pytest.raises(StabilizationError, match="1.2"):
            stabilizing_gain(inv.Phi1, inv.C2)

    def test_pole_placement_failure_suggests_riccati(self, rng):
        # healthy output row is rank one, so a fourfold repeated pole
        # is out of reach for output injection
        pred = random_predictor(rng)
        inv = open_loop_inverse(pred)
        with pytest.raises(StabilizationError, match="riccati"):
            stabilizing_gain(inv.Phi1, inv.C2, strategy="pole_placement",
                             poles=[0.5, 0.5, 0.5, 0.5])

    def test_pole_list_validation(self, rng):
        pred = random_predictor(rng)
        inv = open_loop_inverse(pred)
        with pytest.raises(ValidationError):
            stabilizing_gain(inv.Phi1, inv.C2, strategy="pole_placement",
                             poles=[0.5, 0.5])
        with pytest.raises(ValidationError):
            stabilizing_gain(inv.Phi1, inv.C2, strategy="pole_placement",
                             poles=[0.5, 0.3, 0.2, 1.5])
        with pytest.raises(ValidationError):
            stabilizing_gain(inv.Phi1, inv.C2, strategy="nonsense")


class TestClosedLoopInverse:
    def test_matrix_relations(self, rng):
        pred = random_predictor(rng, with_d=True)
        inv = open_loop_inverse(pred)
        Kr = stabilizing_gain(inv.Phi1, inv.C2)
        Phi2, B2, C1, D1 = closed_loop_inverse(inv, Kr)
        assert np.allclose(Phi2, inv.Phi1 - Kr @ inv.C2)
        assert np.allclose(B2, inv.B1 + Kr @ (np.eye(2) - inv.D2))
        assert np.allclose(C1, inv.C1)
        assert np.allclose(D1, inv.D1)
        assert spectral_radius(Phi2) < 1.0

    def test_window_gain_decomposition(self, rng):
        # the closed loop inverse's Toeplitz operator splits into the
        # open loop part plus the correction driven by reconstruction
        # error: K_L = G_L + M_L (I - Tf_L G_L)
        pred = random_predictor(rng, with_d=True)
        inv = open_loop_inverse(pred)
        Kr = stabilizing_gain(inv.Phi1, inv.C2)
        Phi2, B2, C1, D1 = closed_loop_inverse(inv, Kr)
        L = 25
        KL = block_toeplitz(ff.markov_from_ss(Phi2, B2, C1, D1, L))
        GL = block_toeplitz(ff.markov_from_ss(inv.Phi1, inv.B1, inv.C1,
                                              inv.D1, L))
        ML = block_toeplitz(ff.markov_from_ss(Phi2, Kr, C1,
                                              np.zeros_like(D1), L))
        TfL = block_toeplitz(markov_parameters(pred, "f", L))
        rhs = GL + ML @ (np.eye(L * 2) - TfL @ GL)
        assert np.max(np.abs(KL - rhs)) < 1e-9


class TestFaultEstimationFilter:
    def make_filter(self, rng, strategy="riccati", poles=None):
        pred = random_predictor(rng)
        inv = open_loop_inverse(pred)
        Kr = stabilizing_gain(inv.Phi1, inv.C2, strategy=strategy,
                              poles=poles)
        return pred, reduced_filter(pred, Kr, strategy=strategy)

    def test_step_equals_linear_system_run(self, rng):
        pred, filt = self.make_filter(rng)
        N = 40
        u = rng.standard_normal((N, 2))
        y = rng.standard_normal((N, 2))
        ref = filt.as_system().run(np.hstack([u, y]))
        filt.reset()
        got = np.array([filt.step(u[k], y[k]) for k in range(N)])
        assert np.allclose(got, ref, atol=1e-12)

    def test_run_leaves_state_where_step_does(self, rng):
        pred, filt = self.make_filter(rng)
        N = 50
        u = rng.standard_normal((N, 2))
        y = rng.standard_normal((N, 2))
        x0 = rng.standard_normal(filt.n_states)
        batch = filt.run(u, y, x0=x0)
        x_end = filt.state.copy()
        filt.reset(x0)
        streamed = np.array([filt.step(u[k], y[k]) for k in range(N)])
        scale = 1.0 + np.abs(streamed).max()
        assert np.max(np.abs(batch - streamed)) <= 1e-12 * scale
        assert np.max(np.abs(x_end - filt.state)) <= 1e-12 * (1.0 + np.abs(filt.state).max())
        # run_filter documents the same end-of-record state
        run_filter(filt, IOData(u, y), x_f0=x0)
        assert np.array_equal(filt.state, x_end)

    def test_run_filter_resets_state(self, rng):
        pred, filt = self.make_filter(rng)
        data = IOData(rng.standard_normal((30, 2)), rng.standard_normal((30, 2)))
        a = run_filter(filt, data)
        b = run_filter(filt, data)
        assert np.array_equal(a, b)

    def test_matched_init_recovers_fault(self, rng):
        pred = stable_invertible_predictor(rng)
        inv = open_loop_inverse(pred)
        Kr = stabilizing_gain(inv.Phi1, inv.C2)
        filt = reduced_filter(pred, Kr)
        N = 80
        u = rng.standard_normal((N, 2))
        f = np.zeros((N, 1))
        f[20:, 0] = np.sin(0.2 * np.arange(N - 20)) + 1.0
        data = simulate_predictor(pred, u, f=f)
        fhat = run_filter(filt, data)
        assert np.allclose(fhat, f, atol=1e-8)

    def test_step_matrix_layout(self, rng):
        pred, filt = self.make_filter(rng)
        M = filt.step_matrix()
        n, nu, ny = filt.n_states, filt.n_inputs, filt.n_outputs
        assert M.shape == (n + filt.n_faults, n + nu + ny)
        assert np.allclose(M[:n, :n], filt.Af)
        assert np.allclose(M[n:, n + nu:], filt.Dy)

    def test_csv_round_trip_exact(self, rng, tmp_path):
        pred, filt = self.make_filter(rng, strategy="pole_placement",
                                      poles=[0.6, 0.4, 0.2, 0.1])
        path = tmp_path / "filter.csv"
        filt.to_csv(path)
        back = FaultEstimationFilter.from_csv(path)
        assert back.strategy == "pole_placement"
        for name in ("Af", "Bu", "By", "Cf", "Du", "Dy"):
            assert np.array_equal(getattr(back, name), getattr(filt, name))

    def test_reduced_equals_cascade(self, rng):
        pred = random_predictor(rng)
        inv = open_loop_inverse(pred)
        Kr = stabilizing_gain(inv.Phi1, inv.C2)
        filt = reduced_filter(pred, Kr)
        casc = cascade_filter(pred, Kr)
        N = 100
        z = np.hstack([rng.standard_normal((N, 2)),
                       rng.standard_normal((N, 2))])
        # matched initialization: x_f(0) = x_r(0) + xhat(0) with zeros
        ref = casc.run(z)
        got = filt.as_system().run(z)
        assert np.max(np.abs(got - ref)) < 1e-9
