from dataclasses import replace

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
from faultfilter.lti_core import block_toeplitz, extended_observability, markov_parameters
from faultfilter.mhe_baseline import MheProblem, _smallest_singular_value

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
        assert prob.gain_rows.shape == (1, 16)

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
            f = joint_pinv_fault(prob, r)
            assert np.allclose(prob.gain_rows @ r, f[-1:], atol=1e-8)
            assert np.allclose(mhe_estimate(prob, r), f, atol=1e-8)

    @pytest.mark.parametrize("n_y, sensors", [(2, (0,)), (3, (0, 2)), (2, (0, 1)),
                                              (3, (0, 1, 2))])
    @pytest.mark.parametrize("L", [1, 5, 12, 40])
    def test_gain_matches_dense_projector(self, rng, n_y, sensors, L):
        # the projected rows against the last rows of Gp + Mp (I - Tf Gp)
        # formed with the L n_y square projector.  A square channel, or a
        # single sample of n_y < n outputs, has more unknowns than
        # equations: no window separates its faults from x0
        pred = random_predictor(rng, n=4, n_y=n_y, sensors=sensors)
        if len(sensors) == n_y or L == 1:
            with pytest.raises(WindowRankError, match="window inversion rank"):
                build_mhe(pred, L)
            return
        prob = build_mhe(pred, L)
        ref = dense_mhe_gain(prob.O, prob.Tf)[-len(sensors):]
        assert np.max(np.abs(prob.gain_rows - ref)) <= 1e-11 * (1.0 + np.abs(ref).max())

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
        # at compare's window length a window that passes the rank rule
        # takes its rows from the triangle R alone, with no normal
        # equations or dense solve, and they match the dense oracle; a
        # square channel fails the rule at any length
        pred = random_predictor(rng, n=4, n_y=n_y, sensors=sensors)
        L = 100
        if len(sensors) == n_y:
            with pytest.raises(WindowRankError, match="window inversion rank"):
                build_mhe(pred, L)
            return
        with pytest.MonkeyPatch.context() as mp:
            for name in ("solve", "inv", "pinv", "lstsq"):
                mp.setattr(np.linalg, name, None)
            prob = build_mhe(pred, L)
        ref = dense_mhe_gain(prob.O, prob.Tf)[-len(sensors):]
        assert np.max(np.abs(prob.gain_rows - ref)) <= 1e-11 * (1.0 + np.abs(ref).max())

    def test_validation(self, rng):
        pred = random_predictor(rng)
        with pytest.raises(ValidationError):
            build_mhe(pred, 0)
        plain = to_predictor(random_model(rng))
        with pytest.raises(ValidationError, match="fault channel"):
            build_mhe(plain, 5)


def projected_rank_ratio(O, Tf):
    """sigma_min of Tf projected off range(O), over ||Tf||_F, by a dense SVD.

    The oracle of build_mhe's rank rule: the projector comes from pinv,
    and a wide projection counts as rank zero.
    """
    Tp = Tf - O @ (np.linalg.pinv(O) @ Tf)
    s = np.linalg.svd(Tp, compute_uv=False)
    s_min = s[-1] if len(s) == Tf.shape[1] else 0.0
    return s_min / np.linalg.norm(Tf)


class TestRankRule:
    @settings(max_examples=150)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5),
           n_y=st.integers(1, 3), faults=st.floats(0.0, 1.0), L=st.integers(1, 12),
           kind=st.sampled_from(["free", "square", "short", "in_range"]))
    def test_rows_match_dense_oracle_where_identifiable(self, seed, n, n_y, faults, L, kind):
        # a window whose projected fault stack keeps full column rank gives
        # the last rows of the dense oracle; one whose faults cannot be told
        # apart from x0 raises: a square channel, a single sample of at most
        # n outputs, or a fault whose first column lies in range(O)
        rng = np.random.default_rng(seed)
        n_f = n_y if kind == "square" else 1 + int(faults * (n_y - 1))
        if kind == "short":
            n, L = max(n, n_y), 1
        sensors = np.sort(rng.choice(n_y, n_f, replace=False))
        pred = random_predictor(rng, n=n, n_y=n_y, sensors=sensors)
        if kind == "in_range":
            # G_0 = C x and Et_0 = Phi x make the fault's response from
            # sample 0 the free response O x of the initial state x
            x = rng.standard_normal(n)
            G, Et = pred.G.copy(), pred.Et.copy()
            G[:, 0], Et[:, 0] = pred.C @ x, pred.Phi @ x
            pred = replace(pred, G=G, Et=Et)
        O = extended_observability(pred.Phi, pred.C, L)
        Tf = block_toeplitz(markov_parameters(pred, "f", L), L)
        ratio = projected_rank_ratio(O, Tf)
        assert kind == "free" or ratio < 1e-13
        if ratio < 1e-13:
            with pytest.raises(WindowRankError, match="window inversion rank"):
                build_mhe(pred, L)
            return
        if ratio < 1e-6:
            return  # too near the rule's 1e-10 cut to call either way
        prob = build_mhe(pred, L)
        ref = dense_mhe_gain(O, Tf)[-n_f:]
        # the oracle solves normal equations: its error grows with the
        # square of the projected stack's condition
        tol = 1e-14 * ratio ** -2 * (1.0 + np.abs(ref).max())
        assert np.max(np.abs(prob.gain_rows - ref)) <= tol
        r = rng.standard_normal(L * n_y)
        assert np.allclose(mhe_estimate(prob, r)[-n_f:], prob.gain_rows @ r,
                           atol=tol * np.abs(r).sum())


def triangular_factor(seed, n, log_cond):
    """Upper triangular R of a random n x n matrix with the given condition."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.logspace(0.0, -log_cond, n)
    return np.linalg.qr((U * s) @ V.T, mode="r")


class TestRankScreen:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           log_cond=st.floats(0.0, 14.0), log_tol=st.floats(-16.0, 1.0))
    def test_bound_is_below_smallest_singular_value(self, seed, n, log_cond, log_tol):
        # 1/||R^-1||_F <= sigma_min(R), up to rounding of the order of
        # eps ||R||; so a bound above 2 tol decides the rule as the SVD does
        R = triangular_factor(seed, n, log_cond)
        sv = np.linalg.svd(R, compute_uv=False)
        rounding = 8 * n * np.finfo(float).eps * sv[0]
        bound = _smallest_singular_value(R, 0.0)
        assert 0.0 < bound <= sv[-1] + rounding
        tol = 10.0 ** log_tol
        got = _smallest_singular_value(R, tol)
        assert got == bound if bound > 2 * tol else got == sv[-1]
        if abs(sv[-1] - tol) > rounding:
            assert (got > tol) == (sv[-1] > tol)

    def test_inconclusive_bound_falls_back_to_svd(self, monkeypatch):
        # the identity's bound is 1/sqrt(n) of its sigma_min = 1: at
        # tol = 0.1 it does not clear 2 tol, but the SVD passes the rule
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        assert _smallest_singular_value(np.eye(100), 0.1) == 1.0
        assert len(calls) == 1
        assert _smallest_singular_value(np.eye(100), 0.01) == 0.1
        assert len(calls) == 1

    def test_wide_factor_has_a_zero_singular_value(self):
        assert _smallest_singular_value(np.triu(np.ones((2, 3))), 1e-300) == 0.0

    def test_certified_window_runs_one_svd(self, rng, monkeypatch):
        # the screen settles an identifiable window: the only SVD left is
        # the one of O
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        pred = random_predictor(rng, n=3, n_y=2, sensors=(0,))
        prob = build_mhe(pred, 20)
        assert len(calls) == 1
        ref = dense_mhe_gain(prob.O, prob.Tf)[-1:]
        assert np.allclose(prob.gain_rows, ref, atol=1e-8 * np.abs(ref).max())


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

    @pytest.mark.parametrize("shape", [(2, 5), (10, 1), (1, 10), (5, 2, 1)],
                             ids=["transposed", "column", "row", "3-d"])
    def test_window_shape_checked(self, rng, shape):
        # a transposed (n_y, L) window has the right element count, but
        # flattening it interleaves samples and channels
        prob = build_mhe(random_predictor(rng), 5)
        with pytest.raises(ValidationError, match=r"\(5, 2\) array"):
            mhe_estimate(prob, rng.standard_normal(shape))


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
        # the sweep against the gain rows times each full window, for
        # drawn rows: a square channel has no identifiable window to
        # build them from
        L = 7
        N = 4 * L if extra == "4L" else L + extra
        prob = MheProblem(O=np.zeros((L * n_y, 0)), Tf=np.zeros((L * n_y, L * n_f)),
                          L=L, gain_rows=rng.standard_normal((n_f, L * n_y)))
        R = rng.standard_normal((N, n_y))
        out = run_mhe(prob, R)
        assert out.shape == (N, n_f)
        assert np.all(np.isnan(out[:L - 1]))
        # a bound on the magnitude of every product the sums add up
        scale = np.abs(prob.gain_rows).sum(axis=1).max() * np.abs(R).max()
        for k in range(L - 1, N):
            want = prob.gain_rows @ R[k - L + 1:k + 1].reshape(-1)
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
