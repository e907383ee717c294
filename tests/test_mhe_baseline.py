import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultfilter import (
    ValidationError,
    WindowRankError,
    build_mhe,
    mhe_estimate,
    run_mhe,
    to_predictor,
)

from faultfilter import mhe_baseline
from faultfilter.mhe_baseline import _RANK_CERT_C, _RANK_CERT_COND, _full_rank_certified

from conftest import dense_mhe_gain, random_model, random_predictor


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

    @pytest.mark.parametrize("n_y, sensors", [(2, (0,)), (3, (0, 2)), (2, (0, 1)),
                                              (3, (0, 1, 2))])
    @pytest.mark.parametrize("L", [1, 5, 12, 40])
    def test_gain_matches_dense_projector(self, rng, n_y, sensors, L):
        # the factored state correction against Gp + Mp (I - Tf Gp) formed
        # with the L n_y square projector, for n_f < n_y and n_f = n_y
        pred = random_predictor(rng, n=4, n_y=n_y, sensors=sensors)
        prob = build_mhe(pred, L)
        ref = dense_mhe_gain(prob.O, prob.Tf)
        assert np.max(np.abs(prob.gain - ref)) <= 1e-11 * (1.0 + np.abs(ref).max())

    def test_rank_failure(self, rng):
        # both fault columns hit sensor 1: G has dependent columns
        pred = random_predictor(rng, sensors=(0, 0))
        with pytest.raises(WindowRankError, match="window inversion rank"):
            build_mhe(pred, 5)

    def test_wide_fault_channel_is_rank_failure(self, rng):
        # three fault columns on two outputs: Tf is 10 x 15, so its column
        # rank is at most 10 whatever its singular values say
        pred = random_predictor(rng, n_y=2, sensors=(0, 0, 1))
        with pytest.raises(WindowRankError, match="window inversion rank"):
            build_mhe(pred, 5)

    @pytest.mark.parametrize("n_y, sensors", [(2, (0,)), (3, (0, 2)), (2, (0, 1))])
    def test_certified_gain_takes_the_factor(self, rng, n_y, sensors):
        # at compare's window length a certified Tf never reaches the
        # normal equations, and R^-1 R^-T Tf' matches the dense oracle
        pred = random_predictor(rng, n=4, n_y=n_y, sensors=sensors)
        L = 100
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "solve", None)
            prob = build_mhe(pred, L)
        assert _full_rank_certified(prob.Tf)
        ref = dense_mhe_gain(prob.O, prob.Tf)
        assert np.max(np.abs(prob.gain - ref)) <= 1e-11 * (1.0 + np.abs(ref).max())

    def test_validation(self, rng):
        pred = random_predictor(rng)
        with pytest.raises(ValidationError):
            build_mhe(pred, 0)
        plain = to_predictor(random_model(rng))
        with pytest.raises(ValidationError, match="fault channel"):
            build_mhe(plain, 5)


def svd_rank_loss(A):
    """The SVD rule build_mhe applies when the certificate does not hold."""
    s = np.linalg.svd(A, compute_uv=False)
    return bool(s[-1] <= 1e-10 * s[0])


class TestRankCertificate:
    @settings(max_examples=150)
    @given(seed=st.integers(0, 2 ** 32 - 1), L=st.integers(1, 8),
           cols=st.floats(0.0, 1.0), decades=st.floats(0.0, 14.0),
           lost=st.integers(0, 2), scale=st.floats(-8.0, 8.0))
    def test_decision_is_the_svd_rule(self, seed, L, cols, decades, lost, scale):
        # Tf = U diag(s) V' with sigma_min / sigma_max = 10^-decades, or with
        # `lost` exact zeros; build_mhe must raise exactly where the SVD rule
        # says rank loss, whether or not the certificate holds
        rng = np.random.default_rng(seed)
        pred = random_predictor(rng, n=3, n_y=2, sensors=(0,))
        m = 2 * L
        n = 1 + int(cols * (m - 1))
        U = np.linalg.qr(rng.standard_normal((m, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        e = np.sort(rng.uniform(0.0, decades, n))
        e[0], e[-1] = 0.0, decades
        s = 10.0 ** (scale - e)
        s[n - min(lost, n - 1):] = 0.0
        Tf = (U * s) @ V.T
        loss = svd_rank_loss(Tf)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mhe_baseline, "block_toeplitz", lambda blocks, L: Tf)
            try:
                build_mhe(pred, L)
            except WindowRankError:
                assert loss
            else:
                assert not loss
        certified = _full_rank_certified(Tf)
        assert not (certified and loss)
        # the Frobenius bounds lose at most a factor n each, so a well
        # conditioned matrix takes the certificate and skips the SVD
        assert certified or s[-1] < 1e-3 * s[0]

    def test_wide_and_non_finite_matrices_not_certified(self):
        assert not _full_rank_certified(np.ones((2, 3)))
        assert not _full_rank_certified(np.zeros((4, 2)))
        assert not _full_rank_certified(np.full((4, 2), np.nan))

    def test_sound_for_a_worst_case_qr(self, monkeypatch):
        # A has cond2 just above the certified bound.  Householder QR may
        # return R of A + dA for any dA within its backward error; this dA
        # lifts sigma_min by almost all of it, which must not certify A.
        K, m, n = _RANK_CERT_COND, 8, 2
        kappa = K * (1 + 5e-8)
        V = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        A = np.zeros((m, n))
        A[:n] = np.diag([1.0, 1.0 / kappa]) @ V.T
        # columnwise |dA_j| <= g |A_j| with g = c m n u
        g = _RANK_CERT_C * m * n * np.finfo(float).eps / 2
        eta = 0.99 * g * min(np.linalg.norm(A, axis=0)) * np.sqrt(2)
        dA = np.zeros((m, n))
        dA[1] = eta * V[:, 1]
        assert np.all(np.linalg.norm(dA, axis=0) <= g * np.linalg.norm(A, axis=0))
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda M, mode="reduced": qr(M + dA, mode=mode))
        assert not _full_rank_certified(A)


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

    @pytest.mark.parametrize("n_y, n_f", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "4L"])
    def test_fir_sweep_matches_every_full_window(self, rng, n_y, n_f, extra):
        L = 7
        N = 4 * L if extra == "4L" else L + extra
        prob = build_mhe(random_predictor(rng, n_y=n_y, sensors=range(n_f)), L)
        R = rng.standard_normal((N, n_y))
        out = run_mhe(prob, R)
        assert out.shape == (N, n_f)
        assert np.all(np.isnan(out[:L - 1]))
        # a bound on the magnitude of every product the sums add up
        scale = np.abs(prob.gain[-n_f:]).sum(axis=1).max() * np.abs(R).max()
        for k in range(L - 1, N):
            want = mhe_estimate(prob, R[k - L + 1:k + 1])[-n_f:]
            assert np.max(np.abs(out[k] - want)) <= 1e-13 * scale

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
