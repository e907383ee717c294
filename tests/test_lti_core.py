import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import faultfilter as ff
from faultfilter import (
    IOData,
    FaultScenario,
    LinearSystem,
    RiccatiError,
    StateSpaceModel,
    ValidationError,
    block_hankel,
    block_toeplitz,
    dare_fixed_point,
    extended_observability,
    lti_recursion,
    markov_from_ss,
    markov_parameters,
    psd_factor,
    sensor_fault_channel,
    sensor_fault_plant,
    spectral_radius,
    to_predictor,
)
from faultfilter import lti_core
from faultfilter.lti_core import _CHUNK

from conftest import (
    family_matrix,
    open_loop_sim,
    per_sample_run,
    random_model,
    random_predictor,
    sequential_observability,
)


class TestLtiRecursion:
    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           n_in=st.integers(1, 4), n_out=st.integers(1, 3),
           rho=st.floats(0.0, 1.6), N=st.integers(0, 60), zero_x0=st.booleans())
    def test_matches_per_sample_loop(self, seed, n, n_in, n_out, rho, N, zero_x0):
        # rho(A) > 1 grows the state geometrically, so unstable draws
        # keep the record short
        if rho > 1.0:
            N = min(N, 25)
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        A *= rho / max(spectral_radius(A), 1e-12)
        B = rng.standard_normal((n, n_in))
        C = rng.standard_normal((n_out, n))
        D = rng.standard_normal((n_out, n_in))
        x0 = np.zeros(n) if zero_x0 else rng.standard_normal(n)
        Z = rng.standard_normal((N, n_in))
        out, x_end = lti_recursion(A, B, C, D, Z, None if zero_x0 else x0)
        ref, x_ref = per_sample_run(A, B, C, D, Z, x0)
        assert out.shape == (N, n_out)
        scale = 1.0 + np.abs(ref).max(initial=0.0)
        assert np.max(np.abs(out - ref), initial=0.0) <= 1e-12 * scale
        assert np.max(np.abs(x_end - x_ref)) <= 1e-12 * (1.0 + np.abs(x_ref).max())

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 6),
           n_in=st.integers(1, 4), n_out=st.integers(1, 3),
           kind=st.sampled_from(["dense", "non-normal", "unstable"]),
           chunks=st.integers(2, 4), rest=st.integers(0, _CHUNK - 1),
           zero_x0=st.booleans())
    def test_chunked_records_match_per_sample_loop(self, seed, n, n_in, n_out, kind,
                                                   chunks, rest, zero_x0):
        # records of two or more chunks plus a remainder; n^2 below or
        # above n_out n_in picks the state or the Markov-block products,
        # and rho(A) >= 1 takes the per-sample path for the whole record
        rng = np.random.default_rng(seed)
        A = family_matrix(rng, n, kind)
        B = rng.standard_normal((n, n_in))
        C = rng.standard_normal((n_out, n))
        D = rng.standard_normal((n_out, n_in))
        x0 = np.zeros(n) if zero_x0 else rng.standard_normal(n)
        Z = rng.standard_normal((chunks * _CHUNK + rest, n_in))
        out, x_end = lti_recursion(A, B, C, D, Z, None if zero_x0 else x0)
        ref, x_ref = per_sample_run(A, B, C, D, Z, x0)
        assert np.max(np.abs(out - ref)) <= 1e-12 * (1.0 + np.abs(ref).max())
        assert np.max(np.abs(x_end - x_ref), initial=0.0) <= 1e-12 * (
            1.0 + np.abs(x_ref).max(initial=0.0))

    @pytest.mark.parametrize("kind", ["dense", "non-normal"])
    @pytest.mark.parametrize("N", [2 * _CHUNK, 2 * _CHUNK + 1, 5 * _CHUNK - 1, 5 * _CHUNK,
                                   1000, 1300, 10_000])
    @pytest.mark.parametrize("n, m, p", [(4, 9, 4), (4, 4, 1), (4, 4, 2)],
                             ids=["closed-loop", "filter", "residual-generator"])
    def test_long_records_match_per_sample_loop(self, rng, n, m, p, N, kind):
        # the benchmark's shapes (the closed loop on the state branch) at
        # record lengths whose chunk start-state scan takes up to
        # ceil(log2(10^4 / T)) doublings, with a zero-padded last chunk
        # whenever T does not divide N
        A = family_matrix(rng, n, kind)
        B, C, D = (rng.standard_normal(s) for s in ((n, m), (p, n), (p, m)))
        x0 = rng.standard_normal(n)
        Z = rng.standard_normal((N, m))
        out, x_end = lti_recursion(A, B, C, D, Z, x0)
        ref, x_ref = per_sample_run(A, B, C, D, Z, x0)
        assert out.shape == (N, p)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.abs(ref).max()
        assert np.max(np.abs(x_end - x_ref)) <= 1e-12 * np.abs(x_ref).max()

    @pytest.mark.parametrize("n, p, m, branch", [
        (4, 1, 4, "markov-blocks"),   # the benchmark filter
        (4, 2, 4, "markov-blocks"),   # its residual generator
        (4, 4, 9, "state"),           # closed_loop_sim's plant
        (30, 20, 40, "loop"),
        (50, 20, 40, "loop"),
    ])
    def test_cost_rule_picks_branch(self, rng, monkeypatch, n, p, m, branch):
        # the chunked path builds one block Toeplitz matrix of its Markov
        # blocks, m columns wide, or n wide on (A, I, I, 0) for the state
        # branch; the loop never builds one
        seen = []

        def spy(seq, L=None):
            seen.append(seq.shape[2])
            return block_toeplitz(seq, L)

        monkeypatch.setattr(lti_core, "block_toeplitz", spy)
        A = rng.standard_normal((n, n))
        A *= 0.9 / spectral_radius(A)
        B, C, D = (rng.standard_normal(s) for s in ((n, m), (p, n), (p, m)))
        Z = rng.standard_normal((3 * _CHUNK, m))
        out, x_end = lti_recursion(A, B, C, D, Z)
        assert seen == {"markov-blocks": [m], "state": [n], "loop": []}[branch]
        ref, x_ref = per_sample_run(A, B, C, D, Z, np.zeros(n))
        assert np.max(np.abs(out - ref)) <= 1e-12 * (1.0 + np.abs(ref).max())
        assert np.max(np.abs(x_end - x_ref)) <= 1e-12 * (1.0 + np.abs(x_ref).max())

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("k0", [0, 1, 63, 64, 197, 326])
    @pytest.mark.parametrize("n", [4, 2], ids=["markov-blocks", "state"])
    def test_non_finite_input_spreads_forward_only(self, rng, k0, bad, n):
        # in a chunk product 0 * nan = nan would reach the samples before
        # k0 in the same chunk; the per-sample path keeps them exact.  For
        # a T dividing 64, k0 = 63 and 64 end and start a chunk, and 326 is
        # the last sample of the 327, in a zero-padded last chunk
        assert 64 % _CHUNK == 0 and 327 % _CHUNK != 0
        A = rng.standard_normal((n, n))
        A *= 0.9 / spectral_radius(A)
        B, C, D = (rng.standard_normal(s) for s in ((n, 3), (2, n), (2, 3)))
        Z = rng.standard_normal((327, 3))
        Z[k0, 1] = bad
        out, _ = lti_recursion(A, B, C, D, Z)
        ref, _ = per_sample_run(A, B, C, D, Z, np.zeros(n))
        assert np.isfinite(out[:k0]).all()
        assert np.max(np.abs(out[:k0] - ref[:k0]), initial=0.0) <= 1e-12 * (
            1.0 + np.abs(ref[:k0]).max(initial=0.0))
        assert np.array_equal(np.isfinite(out), np.isfinite(ref))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rho", [1.2, 1.6])
    def test_unstable_record_overflows_where_per_sample_loop_does(self, rng, rho):
        # the state overflows within the record; rho(A) >= 1 keeps the
        # per-sample path, so the first inf and the first nan come at the
        # samples where the loop has them
        A = rng.standard_normal((4, 4))
        A *= rho / spectral_radius(A)
        B, C, D = (rng.standard_normal(s) for s in ((4, 3), (2, 4), (2, 3)))
        Z = rng.standard_normal((5000, 3))
        out, _ = lti_recursion(A, B, C, D, Z)
        ref, _ = per_sample_run(A, B, C, D, Z, np.zeros(4))
        k_inf, k_nan = (int(np.argmax(~np.isfinite(ref).all(axis=1))),
                        int(np.argmax(np.isnan(ref).any(axis=1))))
        assert 0 < k_inf <= k_nan
        assert not np.isfinite(out[k_inf]).all() and np.isfinite(out[:k_inf]).all()
        assert np.isnan(out[k_nan]).any() and not np.isnan(out[:k_nan]).any()
        assert np.all(np.abs(out[:k_inf] - ref[:k_inf])
                      <= 1e-12 * (1.0 + np.abs(ref[:k_inf]).max(axis=1, keepdims=True)))


class TestDare:
    def test_matches_scipy_on_random_models(self, rng):
        for unstable in (False, True):
            for _ in range(10):
                model = random_model(rng, n=4, n_u=2, n_y=2, q=0.05, r=0.1,
                                     unstable=unstable)
                P, K, SigmaE = dare_fixed_point(model.A, model.C, model.Q,
                                                model.R, model.F)
                P_ref = sla.solve_discrete_are(
                    model.A.T, model.C.T, model.F @ model.Q @ model.F.T,
                    model.R)
                assert np.allclose(P, P_ref, atol=1e-8)
                K_ref = model.A @ P_ref @ model.C.T @ np.linalg.inv(
                    model.C @ P_ref @ model.C.T + model.R)
                assert np.allclose(K, K_ref, atol=1e-8)
                assert np.allclose(SigmaE,
                                   model.C @ P @ model.C.T + model.R)

    def test_predictor_stable_with_zero_process_noise(self, rng):
        # unstable A and Q = 0: P = 0 solves the equation but is not
        # stabilizing; the solver must find the stabilizing solution
        model = random_model(rng, n=4, q=0.0, r=1.0, unstable=True)
        pred = to_predictor(model)
        assert spectral_radius(pred.Phi) < 1.0

    @pytest.mark.parametrize("r", [1.0, 1e-30])
    def test_zero_process_noise_mirrors_unstable_poles(self, rng, r):
        # with Q = 0 the stabilizing solution keeps the stable poles of A
        # and reflects the unstable ones to 1/conj(lambda), at any scale
        # of R; a tiny R once gave a non-stabilizing solution
        model = random_model(rng, n=4, q=0.0, r=r, unstable=True)
        pred = to_predictor(model)
        lam = np.abs(np.linalg.eigvals(model.A))
        want = np.sort(np.minimum(lam, 1.0 / lam))
        got = np.sort(np.abs(np.linalg.eigvals(pred.Phi)))
        assert np.allclose(got, want, atol=1e-8)

    def test_riccati_error_on_undetectable_pair(self):
        # unstable mode invisible from the output
        A = np.diag([1.3, 0.5])
        C = np.array([[0.0, 1.0]])
        with pytest.raises(RiccatiError):
            dare_fixed_point(A, C, np.eye(2), np.eye(1))

    def test_rejects_indefinite_R(self, rng):
        model = random_model(rng)
        with pytest.raises(ValidationError):
            dare_fixed_point(model.A, model.C, model.Q, 0.0 * model.R)


class TestPredictor:
    def test_innovation_form_consistency(self, rng):
        model = random_model(rng, n=3, n_u=1, n_y=2)
        pred = to_predictor(model)
        assert np.allclose(pred.Phi, model.A - pred.K @ model.C)
        assert np.allclose(pred.Bt, model.B - pred.K @ model.D)
        assert spectral_radius(pred.Phi) < 1.0

    def test_predictor_tracks_plant_without_noise(self, rng):
        # with matched initial state the one step predictions are exact
        model = random_model(rng, n=3, n_u=2, n_y=2, q=0.0, r=1e-2)
        model = StateSpaceModel(A=model.A, B=model.B, C=model.C,
                                Q=model.Q, R=0.0 * model.R)
        pred = to_predictor(StateSpaceModel(A=model.A, B=model.B, C=model.C,
                                            Q=np.eye(3), R=np.eye(2)))
        u = rng.standard_normal((50, 2))
        data = open_loop_sim(model, u)
        xh = np.zeros(3)
        for k in range(50):
            assert np.allclose(data.y[k], model.C @ xh + model.D @ u[k],
                               atol=1e-9)
            xh = pred.Phi @ xh + pred.Bt @ u[k] + pred.K @ data.y[k]

    def test_sensor_fault_shapes(self, rng):
        model = random_model(rng, n_y=3)
        faulty = sensor_fault_plant(model, [0, 2])
        assert faulty.G.shape == (3, 2)
        assert np.allclose(faulty.G[:, 0], [1, 0, 0])
        assert np.allclose(faulty.G[:, 1], [0, 0, 1])
        assert np.allclose(faulty.E, 0.0)
        pred = sensor_fault_channel(to_predictor(model), [1])
        assert np.allclose(pred.Et, -pred.K[:, [1]])

    def test_sensor_validation(self, rng):
        model = random_model(rng, n_y=2)
        with pytest.raises(ValidationError):
            sensor_fault_plant(model, [2])
        with pytest.raises(ValidationError):
            sensor_fault_plant(model, [0, 0])


class TestMarkov:
    def test_channels_against_direct_powers(self, rng):
        pred = random_predictor(rng, n=3, n_u=2, n_y=2, with_d=True)
        L = 6
        Hu = markov_parameters(pred, "u", L)
        Hy = markov_parameters(pred, "y", L)
        Hf = markov_parameters(pred, "f", L)
        assert np.allclose(Hu[0], pred.D)
        assert np.allclose(Hy[0], 0.0)
        assert np.allclose(Hf[0], pred.G)
        for i in range(1, L):
            P = np.linalg.matrix_power(pred.Phi, i - 1)
            assert np.allclose(Hu[i], pred.C @ P @ pred.Bt)
            assert np.allclose(Hy[i], pred.C @ P @ pred.K)
            assert np.allclose(Hf[i], pred.C @ P @ pred.Et)

    def test_markov_from_ss_equals_impulse_response(self, rng):
        A = 0.5 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        C = rng.standard_normal((2, 3))
        D = rng.standard_normal((2, 2))
        L = 8
        seq = markov_from_ss(A, B, C, D, L)
        sys = LinearSystem(A, B, C, D)
        for j in range(2):
            u = np.zeros((L, 2))
            u[0, j] = 1.0
            y = sys.run(u)
            for i in range(L):
                assert np.allclose(seq[i][:, j], y[i], atol=1e-12)


class TestStacking:
    def test_block_toeplitz_structure(self, rng):
        blocks = rng.standard_normal((4, 2, 3))
        T = block_toeplitz(blocks)
        assert T.shape == (8, 12)
        for i in range(4):
            for j in range(4):
                got = T[2 * i:2 * i + 2, 3 * j:3 * j + 3]
                want = blocks[i - j] if i >= j else np.zeros((2, 3))
                assert np.allclose(got, want)

    def test_block_hankel_structure(self, rng):
        blocks = rng.standard_normal((6, 2, 3))
        H = block_hankel(blocks, 3, 3)
        for i in range(3):
            for j in range(3):
                assert np.allclose(H[2 * i:2 * i + 2, 3 * j:3 * j + 3],
                                   blocks[i + j])

    def test_extended_observability(self, rng):
        A = 0.6 * rng.standard_normal((3, 3))
        C = rng.standard_normal((2, 3))
        O = extended_observability(A, C, 4)
        assert O.shape == (8, 3)
        assert np.allclose(O[:2], C)
        assert np.allclose(O[6:], C @ np.linalg.matrix_power(A, 3))

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 6), ny=st.integers(1, 3),
           L=st.integers(1, 130), kind=st.sampled_from(["dense", "non-normal", "unstable"]))
    def test_extended_observability_matches_sequential_products(self, seed, n, ny, L, kind):
        # block doubling multiplies by A^(2^k); the loop by A, L - 1 times
        rng = np.random.default_rng(seed)
        A = family_matrix(rng, n, kind)
        C = rng.standard_normal((ny, n))
        ref = sequential_observability(A, C, L)
        O = extended_observability(A, C, L)
        assert O.shape == ref.shape
        assert np.max(np.abs(O - ref), initial=0.0) <= 1e-12 * (
            1.0 + np.abs(ref).max(initial=0.0))

    @pytest.mark.parametrize("A_shape, C_shape", [((2, 3), (1, 2)), ((3, 2), (1, 3)),
                                                  ((3, 3), (1, 2)), ((2, 2), (2, 3))])
    def test_extended_observability_shape_errors(self, A_shape, C_shape):
        with pytest.raises(ValidationError,
                           match=re.escape(f"A {A_shape} and C {C_shape}")):
            extended_observability(np.ones(A_shape), np.ones(C_shape), 4)

    def test_toeplitz_maps_windowed_response(self, rng):
        # stacked outputs of a zero-state run equal T_L times stacked inputs
        A = 0.5 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        C = rng.standard_normal((1, 3))
        D = rng.standard_normal((1, 2))
        L = 7
        sys = LinearSystem(A, B, C, D)
        u = rng.standard_normal((L, 2))
        y = sys.run(u)
        T = block_toeplitz(markov_from_ss(A, B, C, D, L))
        assert np.allclose(T @ u.reshape(-1), y.reshape(-1), atol=1e-12)


class TestSimulate:
    def test_fault_enters_measured_output(self, rng):
        model = sensor_fault_plant(random_model(rng, q=0.0, r=1e-2), [0])
        noise_free = StateSpaceModel(A=model.A, B=model.B, C=model.C,
                                     E=model.E, G=model.G,
                                     Q=model.Q * 0, R=model.R * 0)
        data = open_loop_sim(noise_free, np.zeros((20, model.n_inputs)),
                             scenario=FaultScenario(onset=5, signals=("step 2",)))
        assert np.allclose(data.y[5:, 0], 2.0)
        assert np.allclose(data.y[:, 1], 0.0)


class TestIOData:
    def test_csv_round_trip_exact(self, rng, tmp_path):
        data = IOData(rng.standard_normal((15, 2)), rng.standard_normal((15, 3)))
        path = tmp_path / "run.csv"
        data.to_csv(path)
        back = IOData.from_csv(path)
        assert np.array_equal(back.u, data.u)
        assert np.array_equal(back.y, data.y)

    def test_csv_write_deterministic(self, rng, tmp_path):
        data = IOData(rng.standard_normal((10, 1)), rng.standard_normal((10, 2)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        data.to_csv(p1)
        data.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValidationError):
            IOData(rng.standard_normal((5, 1)), rng.standard_normal((6, 1)))

    @pytest.mark.parametrize("u_shape, y_shape", [((300, 2, 2), (300, 1)),
                                                  ((300, 1), (300, 1, 1))])
    def test_more_than_two_dimensions_rejected(self, u_shape, y_shape):
        # a third axis used to pass as extra channels and fail later in numpy
        name, shape = ("u", u_shape) if len(u_shape) == 3 else ("y", y_shape)
        with pytest.raises(ValidationError,
                           match=re.escape(f"{name} must be 1-D or 2-D, got shape {shape}")):
            IOData(np.ones(u_shape), np.ones(y_shape))

    def test_one_dimensional_series_is_one_channel(self, rng, tmp_path):
        # a 1-D series is N samples of one channel, not one sample of N
        u, y = rng.standard_normal(300), rng.standard_normal((300, 2))
        data = IOData(u, y)
        assert (data.n_samples, data.n_inputs, data.n_outputs) == (300, 1, 2)
        assert np.array_equal(data.u, u[:, None])
        data.to_csv(tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_text().splitlines()[0] == "k,u1,y1,y2"
        assert np.array_equal(IOData.from_csv(tmp_path / "run.csv").u, data.u)
        short = IOData(np.ones(50), np.ones(50))
        assert (short.u.shape, short.y.shape) == ((50, 1), (50, 1))
        with pytest.raises(ff.ExcitationError, match="got 50"):
            ff.identify_xi(short, p=100)


class TestLinearSystemRun:
    def test_one_dimensional_input_is_one_channel(self, rng):
        # as in IOData: a 1-D input is N samples of one channel
        sys = LinearSystem(0.5 * np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.ones((1, 1)))
        u = rng.standard_normal(300)
        got = sys.run(u)
        assert got.shape == (300, 1)
        assert np.array_equal(got, sys.run(u[:, None]))

    def test_more_than_two_dimensions_rejected(self):
        sys = LinearSystem(0.5 * np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.ones((1, 1)))
        with pytest.raises(ValidationError,
                           match=re.escape("inputs must be 1-D or 2-D, got shape (30, 1, 1)")):
            sys.run(np.ones((30, 1, 1)))


class TestPsdFactor:
    def test_factor_recovers_matrix(self, rng):
        S = rng.standard_normal((4, 4))
        M = S @ S.T
        Fc = psd_factor(M)
        assert np.allclose(Fc @ Fc.T, M, atol=1e-10)

    def test_scaled_identity_exact(self):
        assert np.array_equal(psd_factor(4.0 * np.eye(3)), 2.0 * np.eye(3))

    def test_clips_tiny_negative_eigenvalues(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-15]])
        Fc = psd_factor(M)
        assert np.all(np.isfinite(Fc))
