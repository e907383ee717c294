import copy
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import faultfilter as ff
from faultfilter import (
    FaultDirectionError,
    FaultEstimationFilter,
    IOData,
    RiccatiError,
    StabilizationError,
    ValidationError,
    block_toeplitz,
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
    cascade_filter,
    closed_loop_inverse,
    family_matrix,
    pencil_zeros,
    planted_zero_predictor,
    random_predictor,
    random_stable,
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


def jordan_zero_channel(rng, others=2, rho=0.3, cond=None):
    """Fault channel (Phi, Et, C, G) with a defective double zero at 0.5.

    Phi1 has a 2 x 2 Jordan block at 0.5 that the healthy output cannot
    see and ``others`` modes of radius ``rho``, in a random basis T
    whose singular values are uniform in [1, 10], or spread
    geometrically over [1, cond].
    """
    n = 2 + others
    Phi1 = np.zeros((n, n))
    Phi1[:2, :2] = [[0.5, 1.0], [0.0, 0.5]]
    Phi1[:2, 2:] = rng.standard_normal((2, others))
    Phi1[2:, 2:] = random_stable(rng, others, rho)
    C = rng.standard_normal((2, n))
    C[1, :2] = 0.0
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    s = rng.uniform(1.0, 10.0, n) if cond is None else np.geomspace(1.0, cond, n)
    T = Q1 * s @ Q2
    Phi1, C = np.linalg.solve(T, Phi1 @ T), C @ T
    Et, G = 0.3 * rng.standard_normal((n, 1)), np.eye(2)[:, [0]]
    return Phi1 + Et @ G.T @ C, Et, C, G


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

    @pytest.mark.filterwarnings("error:zero computation ill conditioned")
    def test_defective_double_zero_found(self, rng):
        # a 2 x 2 Jordan block at 0.5 that the healthy output cannot see,
        # the other modes within 0.3 of the origin, in a random basis of
        # condition <= 10: eig splits the double eigenvalue by about
        # sqrt(eps cond), and the PBH screen must keep both copies
        # without calling the result ill conditioned
        for _ in range(200):
            ok, zeros = invariant_zeros_stable(*jordan_zero_channel(rng))
            assert ok
            assert len(zeros) == 2
            assert np.max(np.abs(zeros - 0.5)) < 1e-5

    def test_miscounted_zero_warns(self):
        # four other modes within 0.6 and a basis of condition 1e3: some
        # observable mode's PBH ratio falls under the rank threshold and
        # is counted as a third zero; the ratio sits in the ambiguous
        # band, so the count comes with a warning
        rng = np.random.default_rng(2)
        found = 0
        for _ in range(100):
            args = jordan_zero_channel(rng, others=4, rho=0.6, cond=1e3)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                ok, zeros = invariant_zeros_stable(*args)
            if len(zeros) == 3:
                found += 1
                assert any("ill conditioned" in str(w.message) for w in caught)
        assert found >= 5

    def test_zero_inside_the_guard_band_is_stable(self, rng):
        pred = planted_zero_predictor(rng, 0.999)
        ok, _ = invariant_zeros_stable(pred.Phi, pred.Et, pred.C, pred.G)
        assert ok


@pytest.mark.parametrize("call, name", [
    (lambda: stabilizing_gain(np.ones((2, 3)), np.ones((1, 2))), "Phi1"),
    (lambda: invariant_zeros_stable(np.ones((2, 3)), np.ones((2, 1)),
                                    np.ones((1, 2)), np.ones((1, 1))), "Phi"),
    (lambda: invariant_zeros_stable(np.eye(2), np.ones((2, 1)),
                                    np.ones((1, 3)), np.ones((1, 1))), "C"),
    (lambda: invariant_zeros_stable(np.eye(2), np.ones((2, 1)),
                                    np.ones((1, 2)), np.ones((2, 1))), "G"),
    (lambda: invariant_zeros_stable(np.eye(2), np.ones((3, 1)),
                                    np.ones((1, 2)), np.ones((1, 1))), "Etilde"),
    (lambda: invariant_zeros_stable(np.eye(2), np.ones((2, 2)),
                                    np.ones((1, 2)), np.ones((1, 1))), "Etilde"),
], ids=["gain-Phi1-square", "zeros-Phi-square", "zeros-C-columns", "zeros-G-rows",
        "zeros-Etilde-rows", "zeros-Etilde-columns"])
def test_mis_sized_matrix_is_named(call, name):
    with pytest.raises(ValidationError, match=f"^{name} must have"):
        call()


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

    @pytest.mark.parametrize("bad, shown", [
        (np.nan, "nan"), (np.inf, "inf"), (-1.0, "-1"), (0.3 + 0.2j, "0.3+0.2j"),
    ], ids=["nan", "inf", "on-circle", "complex"])
    def test_bad_pole_is_named(self, rng, bad, shown):
        inv = open_loop_inverse(random_predictor(rng))
        match = f"requested pole {re.escape(shown)} is not a real"
        with pytest.raises(ValidationError, match=match):
            stabilizing_gain(inv.Phi1, inv.C2, strategy="pole_placement",
                             poles=[bad, 0.3, 0.2, 0.1])

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 6), kind=st.sampled_from(["random", "dense", "unstable",
                                                      "non-normal"]),
           rows=st.sampled_from(["one", "zero-row", "scaled-row"]),
           keep_eigenvalue=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=1, kind="random", rows="one", keep_eigenvalue=False, seed=0)
    @example(n=1, kind="dense", rows="zero-row", keep_eigenvalue=True, seed=1)
    @example(n=4, kind="non-normal", rows="one", keep_eigenvalue=True, seed=2)
    def test_rank_one_gain_matches_scipy(self, n, kind, rows, keep_eigenvalue, seed):
        # one independent C2 row leaves a unique gain, so the numpy
        # construction and scipy's must agree to rounding, which grows
        # with the condition of the closed loop eigenvector matrix X
        from scipy.signal import place_poles
        rng = np.random.default_rng(seed)
        Phi1 = (rng.standard_normal((n, n)) if kind == "random"
                else family_matrix(rng, n, kind))
        c = rng.standard_normal((1, n))
        C2 = {"one": c, "zero-row": np.vstack([np.zeros((1, n)), c]),
              "scaled-row": np.vstack([c, -2.5 * c])}[rows]
        poles = rng.uniform(-0.9, 0.9, n)
        if keep_eigenvalue:  # a pole the injection leaves where it is
            lams = np.linalg.eigvals(Phi1)
            real = lams[(lams.imag == 0) & (np.abs(lams) < 0.9)].real
            assume(real.size > 0)
            poles[0] = real[0]
        assume(n == 1 or np.diff(np.sort(poles)).min() > 0.05)
        oracle = place_poles(Phi1.T, c.T, poles)
        cond = np.linalg.cond(oracle.X)
        assume(cond < 1e8)  # nearer an uncontrollable mode no gain is trustworthy
        want = oracle.gain_matrix.T @ c
        got = stabilizing_gain(Phi1, C2, strategy="pole_placement", poles=poles) @ C2
        assert np.abs(got - want).max() <= 1e-13 * cond * max(1.0, np.abs(want).max())
        if cond <= 1e3:  # pole error is about eps * cond(X) for any gain, scipy's too
            placed = np.sort(np.linalg.eigvals(Phi1 - got).real)
            assert np.abs(placed - np.sort(poles)).max() <= 1e-8

    def test_rank_two_gain_is_scipys(self, rng):
        # two independent C2 rows leave freedom; scipy's Yang-Tits
        # iteration spends it, and its gain comes back bit for bit, mapped
        # back through the pseudo-inverse of W = U_r diag(s_r), C2 = W Vt_r
        from scipy.signal import place_poles
        Phi1 = family_matrix(rng, 4, "unstable")
        C2 = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 4))
        poles = np.array([0.5, 0.5, 0.3, -0.2])  # rank two allows a double pole
        U, s, Vt = np.linalg.svd(C2)
        W_pinv = (U[:, :2] / s[:2]).T
        np.testing.assert_allclose(W_pinv, np.linalg.pinv(U[:, :2] * s[:2]),
                                   rtol=0, atol=1e-14 * np.abs(W_pinv).max())
        want = place_poles(Phi1.T, Vt[:2].T, poles).gain_matrix.T @ W_pinv
        got = stabilizing_gain(Phi1, C2, strategy="pole_placement", poles=poles)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("C2, poles, shown", [
        (np.array([[1.0, 1.0, 0.0]]), [0.5, 0.5, 0.1], "pole 0.5 is requested 2 times"),
        (np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), [0.2, 0.2, 0.2],
         "pole 0.2 is requested 3 times"),
        (np.array([[1.0, 0.0, 1.0]]), [0.3, 0.2, 0.1], "singular eigenvector matrix"),
        (np.array([[1.0, 1e-18, 1.0]]), [0.3, 0.2, 0.1], "singular eigenvector matrix"),
    ], ids=["double-pole-rank-one", "triple-pole-rank-two", "singular-X",
            "numerically-singular-X"])
    def test_unplaceable_poles_suggest_riccati(self, C2, poles, shown):
        # C2 = [1 0 1] does not see the stable mode 0.4, so no gain moves
        # it and the closed loop eigenvector matrix is singular; at
        # [1 1e-18 1] the mode is seen only at rounding level
        Phi1 = np.diag([0.5, 0.4, 0.2])
        with pytest.raises(StabilizationError, match=f"{shown}.*riccati"):
            stabilizing_gain(Phi1, C2, strategy="pole_placement", poles=poles)


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

    def test_one_dimensional_series_is_one_channel(self, rng):
        # as in IOData: a 1-D series is N samples of one channel, not one
        # sample of N channels
        siso = FaultEstimationFilter(0.5 * np.eye(1), np.ones((1, 1)), np.ones((1, 1)),
                                     np.ones((1, 1)), np.zeros((1, 1)), np.ones((1, 1)))
        u, y = rng.standard_normal(300), rng.standard_normal(300)
        got = siso.run(u, y)
        assert got.shape == (300, 1)
        assert np.array_equal(got, siso.run(u[:, None], y[:, None]))
        wide = FaultEstimationFilter(0.5 * np.eye(2), np.ones((2, 3)), np.ones((2, 3)),
                                     np.ones((1, 2)), np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(ValidationError, match=r"expected widths \(3, 3\), got \(1, 1\)"):
            wide.run(np.ones(3), np.ones(3))
        with pytest.raises(ValidationError, match=r"y must be 1-D or 2-D, got shape \(3, 3, 1\)"):
            wide.run(np.ones((3, 3)), np.ones((3, 3, 1)))

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

    def test_rejects_non_square_Af(self, rng):
        with pytest.raises(ValidationError, match="Af must have 4 columns, got 3"):
            FaultEstimationFilter(np.zeros((4, 3)), np.zeros((4, 2)), np.zeros((4, 2)),
                                  np.zeros((1, 4)), np.zeros((1, 2)), np.zeros((1, 2)))

    def test_reduced_filter_rejects_wrong_gain_shape(self, rng):
        pred = random_predictor(rng)
        with pytest.raises(ValidationError, match="Kr must have 2 columns"):
            reduced_filter(pred, np.zeros((4, 3)))

    @settings(max_examples=80)
    @given(n=st.integers(1, 6), n_u=st.integers(1, 3), n_y=st.integers(2, 4),
           k_scale=st.floats(0.1, 2.0), unstable_inverse=st.booleans(),
           strategy=st.sampled_from(["riccati", "pole_placement"]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_reduced_equals_cascade(self, n, n_u, n_y, k_scale, unstable_inverse,
                                    strategy, seed, data):
        # a large K_J pushes rho(Phi1) = rho(Phi + K_J C_J) past 1, so both
        # stable and unstable open-loop inverses are drawn
        J = data.draw(st.lists(st.integers(0, n_y - 1), min_size=1,
                               max_size=n_y - 1, unique=True).map(sorted))
        rng = np.random.default_rng(seed)
        pred = random_predictor(rng, n, n_u, n_y, sensors=J, k_scale=k_scale,
                                with_d=True)
        inv = open_loop_inverse(pred)
        assume((spectral_radius(inv.Phi1) >= 1.0) == unstable_inverse)
        try:
            Kr = stabilizing_gain(inv.Phi1, inv.C2, strategy=strategy,
                                  poles=np.linspace(-0.5, 0.6, n))
        except (StabilizationError, RiccatiError):
            reject()
        filt = reduced_filter(pred, Kr, strategy=strategy)
        casc = cascade_filter(pred, Kr)
        z = rng.standard_normal((100, n_u + n_y))
        # matched initialization: x_f(0) = x_r(0) + xhat(0) with zeros
        ref = casc.run(z)
        got = filt.as_system().run(z)
        assert np.max(np.abs(got - ref)) <= 1e-8 * np.abs(ref).max()


class TestStepCache:
    """``step()`` is one matvec on a fixed step matrix and a work vector.

    The matrices are read-only views of the step matrix, built once, and
    ``state`` a view of the work vector that only ``reset`` sets.
    """

    def make(self, rng):
        return TestFaultEstimationFilter().make_filter(rng)[1]

    def stream(self, filt, u, y):
        return np.array([filt.step(u[k], y[k]) for k in range(len(u))])

    def test_wrong_widths_rejected(self, rng):
        filt = self.make(rng)
        for u, y in [(np.zeros(1), np.zeros(2)), (np.zeros(2), np.zeros(3)),
                     ([0.0], [0.0, 0.0])]:
            with pytest.raises(ValidationError, match=r"expected widths \(2, 2\), got"):
                filt.step(u, y)
        # any input of the right size still goes, as it did through reshape
        a = filt.step([1.0, 2.0], np.array([[3.0], [4.0]]))
        filt.reset()
        b = filt.step(np.array([1, 2]), np.array([3.0, 4.0]))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["Af", "Bu", "By", "Cf", "Du", "Dy", "state"])
    def test_assignment_raises_and_names_attribute(self, rng, name):
        filt = self.make(rng)
        before = filt.step_matrix()
        with pytest.raises(AttributeError, match=f"cannot assign {name}: a built filter is fixed"):
            setattr(filt, name, np.zeros_like(getattr(filt, name)))
        assert np.array_equal(filt.step_matrix(), before)

    def test_in_place_edit_raises(self, rng):
        filt = self.make(rng)
        before = filt.step_matrix()
        with pytest.raises(ValueError, match="read-only"):
            filt.Du[0, 1] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            filt.Af[:] = 0.0
        assert np.array_equal(filt.step_matrix(), before)

    def test_step_matrix_copy_does_not_reach_step(self, rng):
        filt = self.make(rng)
        u, y = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        filt.step(u[0], y[0])
        M = filt.step_matrix()
        M[:] = 0.0
        x = filt.state.copy()
        want = filt.Cf @ x + filt.Du @ u[1] + filt.Dy @ y[1]
        assert np.allclose(filt.step(u[1], y[1]), want, atol=1e-13)
        assert np.allclose(filt.state, filt.Af @ x + filt.Bu @ u[1] + filt.By @ y[1],
                           atol=1e-13)
        assert np.any(filt.step_matrix() != 0.0)

    @pytest.mark.parametrize("clone", [copy.deepcopy, copy.copy,
                                       lambda f: pickle.loads(pickle.dumps(f))])
    def test_copies_continue_the_stream(self, rng, clone):
        filt = self.make(rng)
        u, y = rng.standard_normal((40, 2)), rng.standard_normal((40, 2))
        self.stream(filt, u[:15], y[:15])
        twin = clone(filt)
        assert np.array_equal(twin.state, filt.state)
        a = self.stream(filt, u[15:], y[15:])
        assert not np.array_equal(twin.state, filt.state)  # no shared work vector
        b = self.stream(twin, u[15:], y[15:])
        assert np.array_equal(a, b)
        assert np.array_equal(twin.state, filt.state)
        assert twin.strategy == filt.strategy

    def test_step_after_run_continues(self, rng):
        filt = self.make(rng)
        u, y = rng.standard_normal((300, 2)), rng.standard_normal((300, 2))
        whole = filt.run(u, y)
        filt.run(u[:200], y[:200])
        rest = self.stream(filt, u[200:], y[200:])
        scale = 1.0 + np.abs(whole).max()
        assert np.max(np.abs(rest - whole[200:])) <= 1e-12 * scale

    def test_state_is_a_live_view(self, rng):
        filt = self.make(rng)
        live = filt.state
        filt.step(np.ones(2), np.ones(2))
        assert np.array_equal(live, filt.state) and np.any(live != 0.0)
        x0 = rng.standard_normal(filt.n_states)
        filt.reset(x0)
        assert np.array_equal(live, x0)
        x0[:] = 0.0  # the filter holds its own copy
        assert not np.array_equal(filt.state, x0)
        filt.run(np.ones((5, 2)), np.ones((5, 2)))
        assert np.array_equal(live, filt.state) and np.any(live != 0.0)
        filt.reset()
        assert np.array_equal(live, np.zeros(filt.n_states))


@settings(max_examples=60)
@given(st.integers(0, 6), st.integers(1, 3), st.integers(0, 3), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 300))
def test_step_equals_run(n, nf, nu, ny, seed, N):
    rng = np.random.default_rng(seed)
    filt = FaultEstimationFilter(
        Af=random_stable(rng, n, 0.95) if n else np.zeros((0, 0)),
        Bu=rng.standard_normal((n, nu)), By=rng.standard_normal((n, ny)),
        Cf=rng.standard_normal((nf, n)), Du=rng.standard_normal((nf, nu)),
        Dy=rng.standard_normal((nf, ny)))
    u, y = rng.standard_normal((N, nu)), rng.standard_normal((N, ny))
    x0 = rng.standard_normal(n)
    batch = filt.run(u, y, x0=x0)
    x_end = filt.state.copy()
    filt.reset(x0)
    streamed = np.array([filt.step(u[k], y[k]) for k in range(N)])
    assert np.max(np.abs(streamed - batch)) <= 1e-12 * (1.0 + np.abs(batch).max())
    scale = 1.0 + np.abs(x_end).max(initial=0.0)
    assert np.max(np.abs(filt.state - x_end), initial=0.0) <= 1e-12 * scale
