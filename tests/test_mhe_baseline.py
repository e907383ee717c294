import numpy as np
import pytest

from faultfilter import (
    ValidationError,
    WindowRankError,
    build_mhe,
    mhe_estimate,
    run_mhe,
    to_predictor,
)

from conftest import random_model, random_predictor


def joint_pinv_fault(problem, r):
    """Minimum norm joint LS oracle: fault part of pinv([O Tf]) r."""
    sol = np.linalg.pinv(np.hstack([problem.O, problem.Tf])) @ r
    return sol[problem.n_states:]


class TestBuildMhe:
    def test_matrix_shapes_and_props(self, rng):
        pred = random_predictor(rng, n=3, n_y=2, sensors=(0,))
        prob = build_mhe(pred, 8)
        assert prob.L == 8
        assert prob.n_outputs == 2
        assert prob.n_faults == 1
        assert prob.n_states == 3
        assert prob.O.shape == (16, 3)
        assert prob.Tf.shape == (16, 8)
        assert prob.gain.shape == (8, 16)

    def test_gain_equals_joint_pinv_when_identifiable(self, rng):
        # tall fault channel, enough samples: the joint LS problem has a
        # unique solution, so the eliminated form must reproduce it
        for _ in range(8):
            pred = random_predictor(rng, n=int(rng.integers(2, 5)))
            L = int(rng.integers(6, 13))
            prob = build_mhe(pred, L)
            Psi = np.hstack([prob.O, prob.Tf])
            assert np.linalg.matrix_rank(Psi) == Psi.shape[1]
            r = rng.standard_normal(2 * L)
            assert np.allclose(prob.gain @ r, joint_pinv_fault(prob, r),
                               atol=1e-8)

    def test_square_channel_degenerates_to_toeplitz_inverse(self, rng):
        # with as many faults as outputs any state explains nothing extra:
        # the Schur complement vanishes, the state estimate stays at zero
        # and the gain is the plain Toeplitz inverse, fitting the window
        # exactly
        pred = random_predictor(rng, n_y=2, sensors=(0, 1))
        prob = build_mhe(pred, 6)
        assert np.allclose(prob.gain, np.linalg.inv(prob.Tf), atol=1e-8)
        assert np.allclose(prob.gain @ prob.Tf, np.eye(12), atol=1e-8)
        r = rng.standard_normal(12)
        assert np.allclose(prob.Tf @ (prob.gain @ r), r, atol=1e-8)

    def test_rank_failure(self, rng):
        # both fault columns hit sensor 1: G has dependent columns
        pred = random_predictor(rng, sensors=(0, 0))
        with pytest.raises(WindowRankError, match="window inversion rank"):
            build_mhe(pred, 5)

    def test_validation(self, rng):
        pred = random_predictor(rng)
        with pytest.raises(ValidationError):
            build_mhe(pred, 0)
        plain = to_predictor(random_model(rng))
        with pytest.raises(ValidationError, match="fault channel"):
            build_mhe(plain, 5)


class TestEstimate:
    def test_exact_on_noise_free_window(self, rng):
        pred = random_predictor(rng, n=4)
        L = 10
        prob = build_mhe(pred, L)
        x0 = rng.standard_normal(4)
        f = rng.standard_normal(L)
        r = prob.O @ x0 + prob.Tf @ f
        fhat = mhe_estimate(prob, r)
        assert np.allclose(fhat, f, atol=1e-9)

    def test_accepts_2d_window(self, rng):
        pred = random_predictor(rng)
        prob = build_mhe(pred, 5)
        r = rng.standard_normal((5, 2))
        assert np.allclose(mhe_estimate(prob, r),
                           mhe_estimate(prob, r.reshape(-1)))

    def test_window_length_checked(self, rng):
        prob = build_mhe(random_predictor(rng), 5)
        with pytest.raises(ValidationError):
            mhe_estimate(prob, np.zeros(9))


class TestRunMhe:
    def test_warm_up_rows_are_nan(self, rng):
        prob = build_mhe(random_predictor(rng), 7)
        out = run_mhe(prob, rng.standard_normal((30, 2)))
        assert out.shape == (30, 1)
        assert np.all(np.isnan(out[:6]))
        assert np.all(np.isfinite(out[6:]))

    def test_matches_per_window_estimates(self, rng):
        pred = random_predictor(rng)
        L = 6
        prob = build_mhe(pred, L)
        R = rng.standard_normal((25, 2))
        out = run_mhe(prob, R)
        for k in range(L - 1, 25):
            full = mhe_estimate(prob, R[k - L + 1:k + 1])
            assert np.allclose(out[k], full[-1:], atol=1e-12)

    def test_short_series_all_nan(self, rng):
        prob = build_mhe(random_predictor(rng), 10)
        out = run_mhe(prob, rng.standard_normal((4, 2)))
        assert out.shape == (4, 1)
        assert np.all(np.isnan(out))

    def test_column_count_checked(self, rng):
        prob = build_mhe(random_predictor(rng), 5)
        with pytest.raises(ValidationError):
            run_mhe(prob, np.zeros((20, 3)))

    def test_tracks_fault_through_residual_recursion(self, rng):
        # feed the estimator residuals generated by the faulty predictor
        # recursion itself: after warm-up every window is noise free, so
        # the newest-sample estimate equals the injected fault
        import faultfilter as ff

        pred = random_predictor(rng, n=4)
        N, L = 60, 12
        u = rng.standard_normal((N, 2))
        f = np.zeros((N, 1))
        f[20:, 0] = 1.5
        x = np.zeros(4)
        y = np.zeros((N, 2))
        for k in range(N):
            y[k] = pred.C @ x + pred.D @ u[k] + pred.G @ f[k]
            x = pred.Phi @ x + pred.Bt @ u[k] + pred.Et @ f[k] + pred.K @ y[k]
        r = ff.residual_generator(pred).run(np.hstack([u, y]))
        prob = build_mhe(pred, L)
        out = run_mhe(prob, r)
        assert np.allclose(out[40:, 0], 1.5, atol=1e-8)
