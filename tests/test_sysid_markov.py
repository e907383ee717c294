import dataclasses
import re
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import faultfilter as ff
from faultfilter import (
    ExcitationError,
    IOData,
    IdentifiedXi,
    ValidationError,
    identify_xi,
    markov_parameters,
    to_predictor,
    xi_from_predictor,
)

from faultfilter.bench_cli import main
from faultfilter.sysid_markov import _gram_work, _lagged_gram, _window_residuals

from conftest import (blockwise_lagged_gram, correlate_window_residuals,
                      cumsum_lagged_gram, gelsy_identify_xi, open_loop_sim,
                      random_model, run_fresh, varx_regression, xi_residuals)

try:
    import resource
except ImportError:  # not on Windows
    resource = None


def equilibrated_gram(data, p, assume_delay=False):
    """The matrix identify_xi factors, built apart from it: the regressor
    block of the lagged Gram matrix over the outer product of its column
    norms."""
    ncols = p * (data.n_inputs + data.n_outputs) + (0 if assume_delay else data.n_inputs)
    G = blockwise_lagged_gram(np.hstack([data.u, data.y]), p + 1)[:ncols, :ncols]
    scale = np.sqrt(np.diag(G))
    return G / np.outer(scale, scale)


def varx_data(rng, p=3, n_u=2, n_y=2, N=400, with_feedthrough=True):
    """Data generated exactly by a finite VARX recursion.

    Rows k >= p satisfy the identification regression with zero
    residual, so the estimator must recover the blocks to machine
    precision.
    """
    Hu = 0.5 * rng.standard_normal((p + 1, n_y, n_u))
    if not with_feedthrough:
        Hu[0] = 0.0
    Hy = 0.2 * rng.standard_normal((p, n_y, n_y))
    u = rng.standard_normal((N, n_u))
    y = np.zeros((N, n_y))
    for k in range(N):
        acc = Hu[0] @ u[k]
        for i in range(1, p + 1):
            if k - i >= 0:
                acc = acc + Hu[i] @ u[k - i] + Hy[i - 1] @ y[k - i]
        y[k] = acc
    return IOData(u, y), Hu, Hy


class TestExactRecovery:
    def test_recovers_varx_blocks(self, rng):
        data, Hu, Hy = varx_data(rng)
        xi = identify_xi(data, p=3)
        for i in range(4):
            assert np.allclose(xi.Hu[i], Hu[i], atol=1e-9)
        for i in range(3):
            assert np.allclose(xi.Hy[i], Hy[i], atol=1e-9)
        assert np.linalg.norm(xi.residual_variance) < 1e-16

    def test_assume_delay_on_strictly_causal_data(self, rng):
        data, Hu, Hy = varx_data(rng, with_feedthrough=False)
        xi = identify_xi(data, p=3, assume_delay=True)
        assert np.array_equal(xi.Hu[0], np.zeros((2, 2)))
        for i in range(1, 4):
            assert np.allclose(xi.Hu[i], Hu[i], atol=1e-9)


class TestStatisticalRecovery:
    def test_open_loop_markov_estimates(self, rng):
        model = random_model(rng, n=3, n_u=2, n_y=2, rho=0.7,
                             q=0.02, r=0.05)
        u = rng.standard_normal((20000, 2))
        data = open_loop_sim(model, u, seed=11)
        xi = identify_xi(data, p=40)
        ref = xi_from_predictor(to_predictor(model), p=40)
        got = np.vstack([np.hstack([xi.Hu[i + 1], xi.Hy[i]])
                         for i in range(8)])
        want = np.vstack([np.hstack([ref.Hu[i + 1], ref.Hy[i]])
                          for i in range(8)])
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 0.1
        SigmaE = to_predictor(model).SigmaE
        assert (np.linalg.norm(xi.residual_variance - SigmaE)
                / np.linalg.norm(SigmaE) < 0.15)

    def test_closed_loop_needs_delay_assumption(self, rng):
        # static output feedback correlates u(k) with the innovation:
        # the lag-0 feedthrough estimate comes out far from the true
        # zero, and dropping the lag-0 regressor halves the error of
        # the remaining blocks
        model, ctrl = ff.get_plant("unstable4").factory(q=1e-2, r=1.0)
        data = ff.collect_identification_data(model, ctrl, 4000, seed=5)
        biased = identify_xi(data, p=60)
        clean = identify_xi(data, p=60, assume_delay=True)
        assert np.linalg.norm(biased.Hu[0]) > 0.3
        assert np.array_equal(clean.Hu[0], np.zeros((2, 2)))
        ref = xi_from_predictor(to_predictor(model), p=60)
        want = np.vstack([ref.Hy[i] for i in range(6)])

        def rel(xi):
            got = np.vstack([xi.Hy[i] for i in range(6)])
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        assert rel(clean) < 0.6 * rel(biased)
        assert rel(clean) < 0.5

    def test_residual_variance_is_unbiased(self):
        # at p = 100 the fit spends 400 of 900 rows on coefficients: over
        # rows the variance would read (900 - 400) / 900 = 0.556 of the truth
        model, ctrl = ff.get_plant("unstable4").factory()
        truth = np.diag(to_predictor(model).SigmaE)
        ratios = [np.diag(identify_xi(ff.collect_identification_data(model, ctrl, 1000, seed=s),
                                      100, assume_delay=True).residual_variance) / truth
                  for s in range(20)]
        mean = np.mean(ratios, axis=0)
        assert np.all((0.9 <= mean) & (mean <= 1.1)), mean


class TestReference:
    def test_xi_from_predictor_matches_markov_parameters(self, rng):
        model = random_model(rng, n=3)
        pred = to_predictor(model)
        xi = xi_from_predictor(pred, p=6)
        Hu = markov_parameters(pred, "u", 7)
        Hy = markov_parameters(pred, "y", 7)
        for i in range(7):
            assert np.allclose(xi.Hu[i], Hu[i])
        for i in range(6):
            assert np.allclose(xi.Hy[i], Hy[i + 1])

    def test_stacked_round_trip(self, rng):
        model = random_model(rng, n=3)
        xi = xi_from_predictor(to_predictor(model), p=5)
        back = IdentifiedXi.from_stacked(xi.stacked(), 5, xi.n_u, xi.n_y,
                                         residual_variance=xi.residual_variance)
        assert np.allclose(back.Hu, xi.Hu)
        assert np.allclose(back.Hy, xi.Hy)

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda xi: IdentifiedXi(xi.Hu.reshape(6, -1), xi.Hy, 5),
                     "Hu and Hy must be arrays of shape (blocks, rows, cols)", id="Hu"),
        pytest.param(lambda xi: IdentifiedXi(xi.Hu, xi.Hy.reshape(5, -1), 5),
                     "Hu and Hy must be arrays of shape (blocks, rows, cols)", id="Hy"),
        pytest.param(lambda xi: IdentifiedXi(xi.Hu[1:], xi.Hy, 5),
                     "expected 6 input blocks, got 5", id="input-block-count"),
        pytest.param(lambda xi: IdentifiedXi(xi.Hu, xi.Hy[1:], 5),
                     "expected 5 output blocks, got 4", id="output-block-count"),
        pytest.param(lambda xi: IdentifiedXi(xi.Hu, xi.Hy[:, :, :1], 5),
                     "output blocks must be 2 x 2, got (2, 1)", id="output-block-shape"),
        pytest.param(lambda xi: IdentifiedXi(xi.Hu, xi.Hy, 5, residual_variance=np.eye(3)),
                     "residual variance must be n_y x n_y", id="covariance-shape"),
        pytest.param(lambda xi: IdentifiedXi.from_stacked(xi.stacked()[:, 1:], 5, 2, 2),
                     "stacked shape (2, 21) does not match p=5, n_u=2, n_y=2",
                     id="stacked-shape"),
    ])
    def test_blocks_must_be_three_dimensional(self, rng, build, message):
        xi = xi_from_predictor(to_predictor(random_model(rng, n=3)), p=5)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(xi)


class TestFixedXi:
    """A built xi is fixed: read-only copies of its arrays, no assignment."""

    @pytest.fixture
    def parts(self, rng):
        xi = xi_from_predictor(to_predictor(random_model(rng, n=3)), p=5)
        return [np.array(a) for a in (xi.Hu, xi.Hy)] + [5, np.eye(2)]

    @pytest.mark.parametrize("name, value", [
        ("Hu", np.zeros((6, 2, 2))), ("Hy", np.zeros((5, 2, 2))), ("p", 4),
        ("residual_variance", np.eye(2)),
    ])
    def test_assigning_a_field_raises(self, parts, name, value):
        xi = IdentifiedXi(*parts)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(xi, name, value)
        assert xi.p == 5 and np.array_equal(xi.Hu, parts[0])

    @pytest.mark.parametrize("name", ["Hu", "Hy", "residual_variance"])
    def test_editing_an_array_in_place_raises(self, parts, name):
        xi = IdentifiedXi(*parts)
        with pytest.raises(ValueError, match="read-only"):
            getattr(xi, name)[0] += 1.0

    def test_callers_arrays_stay_writeable(self, parts):
        xi = IdentifiedXi(*parts)
        arrays = (parts[0], parts[1], parts[3])
        assert all(a.flags.writeable for a in arrays)
        for a, b in zip(arrays, (xi.Hu, xi.Hy, xi.residual_variance)):
            assert not np.shares_memory(a, b)
        parts[0][0] += 1.0  # the caller's edit does not reach the xi
        assert not np.array_equal(xi.Hu, parts[0])

    def test_predictor_stays_writeable(self, rng):
        pred = to_predictor(random_model(rng, n=3))
        xi = xi_from_predictor(pred, p=5)
        assert pred.SigmaE.flags.writeable
        assert not np.shares_memory(pred.SigmaE, xi.residual_variance)
        assert not xi.residual_variance.flags.writeable


class TestResiduals:
    def test_zero_on_exact_varx_data(self, rng):
        data, _, _ = varx_data(rng)
        xi = identify_xi(data, p=3)
        res = xi_residuals(xi, data)
        assert res.shape == (data.n_samples - 3, 2)
        assert np.max(np.abs(res)) < 1e-9

    def test_faults_show_up_in_residuals(self, rng):
        data, _, _ = varx_data(rng, with_feedthrough=False)
        xi = identify_xi(data, p=3, assume_delay=True)
        bumped = IOData(data.u, data.y + np.array([1.0, 0.0]))
        res = xi_residuals(xi, bumped)
        assert np.mean(np.abs(res[:, 0])) > 0.1

    def test_dimension_check(self, rng):
        data, _, _ = varx_data(rng)
        xi = identify_xi(data, p=3)
        with pytest.raises(ValidationError):
            xi_residuals(xi, IOData(data.u[:, :1], data.y))


class TestCsv:
    def test_round_trip_exact(self, rng, tmp_path):
        data, _, _ = varx_data(rng)
        xi = identify_xi(data, p=3)
        path = tmp_path / "xi.csv"
        xi.to_csv(path)
        back = IdentifiedXi.from_csv(path)
        assert back.p == xi.p and back.n_u == xi.n_u and back.n_y == xi.n_y
        assert np.array_equal(back.stacked(), xi.stacked())
        assert np.array_equal(back.residual_variance, xi.residual_variance)


class TestErrors:
    def test_too_few_samples(self, rng):
        data, _, _ = varx_data(rng, N=50)
        with pytest.raises(ExcitationError, match="insufficient excitation"):
            identify_xi(data, p=40)

    def test_record_shorter_than_window(self, rng):
        data, _, _ = varx_data(rng, N=10)
        with pytest.raises(ExcitationError, match="insufficient excitation"):
            identify_xi(data, p=12)

    def test_rank_deficient_regressors(self):
        # constant input, zero output: regressor columns are collinear
        u = np.ones((100, 2))
        y = np.zeros((100, 2))
        with pytest.raises(ExcitationError, match="insufficient excitation"):
            identify_xi(IOData(u, y), p=4)

    def test_bad_p(self, rng):
        data, _, _ = varx_data(rng)
        with pytest.raises(ValidationError, match="^past window p must be at least 1, got 0$"):
            identify_xi(data, p=0)

    @pytest.mark.parametrize("p", [4.0, 4.5, None])
    def test_non_integer_p_is_named(self, rng, p):
        data, _, _ = varx_data(rng)
        with pytest.raises(ValidationError, match=f"^past window p must be an integer, got {p}$"):
            identify_xi(data, p)

    def test_integer_like_p_accepted(self, rng):
        data, _, _ = varx_data(rng)
        xi = identify_xi(data, np.int64(3))
        assert type(xi.p) is int and xi.p == 3


def random_record(seed, p, n_u, n_y, extra, assume_delay):
    """Correlated random record with ``extra`` more rows than coefficients."""
    rng = np.random.default_rng(seed)
    ncols = p * (n_u + n_y) + (0 if assume_delay else n_u)
    N = p + ncols + extra
    u = rng.standard_normal((N, n_u))
    y = np.cumsum(rng.standard_normal((N, n_y)), axis=0) * 0.1 + u[:, :1]
    return IOData(u, y)


RECORDS = dict(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 12),
               n_u=st.integers(1, 3), n_y=st.integers(1, 3),
               extra=st.integers(20, 200), assume_delay=st.booleans())


class TestAgainstGelsyOracle:
    """The Gram-matrix fit against the explicit regressor and pivoted QR."""

    @settings(max_examples=60)
    @given(**RECORDS)
    def test_lagged_gram_is_regressor_gram(self, seed, p, n_u, n_y, extra,
                                           assume_delay):
        data = random_record(seed, p, n_u, n_y, extra, assume_delay)
        Y, Z = varx_regression(data, p, assume_delay)
        G = _lagged_gram(np.hstack([data.u, data.y]), p + 1, _gram_work(n_u + n_y, p + 1))
        ncols = Z.shape[1]
        ZtZ = Z.T @ Z
        scale = np.abs(ZtZ).max()
        assert np.abs(G[:ncols, :ncols] - ZtZ).max() <= 1e-12 * scale
        assert np.abs(G[:ncols, -n_y:] - Z.T @ Y).max() <= 1e-12 * scale

    @settings(max_examples=150)
    @given(m=st.integers(1, 6), p=st.integers(1, 12), k=st.integers(1, 6),
           length=st.sampled_from(["short", "kB-1", "kB", "kB+1"]),
           seed=st.integers(0, 2**32 - 1), draw=st.data())
    def test_lagged_gram_is_window_gram_at_tile_edges(self, m, p, k, length, seed, draw):
        # the phase tiles' first row and head windows for row counts below
        # B = p + 1 and around its multiples, where the last phase row is
        # part padding; columns 1e-6 .. 1e6 apart and some all-zero rows
        B = p + 1
        rows = {"short": draw.draw(st.integers(1, p), label="rows"),
                "kB-1": k * B - 1, "kB": k * B, "kB+1": k * B + 1}[length]
        N = rows + p
        exponents = draw.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m),
                              label="column exponents")
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((N, m)) * 10.0 ** np.array(exponents)
        w[draw.draw(st.lists(st.integers(0, N - 1), max_size=N // 3), label="zero rows")] = 0.0
        Z = sliding_window_view(w, B, axis=0).transpose(0, 2, 1).reshape(rows, B * m)
        ZtZ = Z.T @ Z
        G = _lagged_gram(w, B, _gram_work(m, B))
        assert G.shape == (B * m, B * m)
        assert np.abs(G - ZtZ).max() <= 1e-12 * np.abs(ZtZ).max()

    @settings(max_examples=40)
    @given(**RECORDS)
    def test_estimate_matches_oracle(self, seed, p, n_u, n_y, extra,
                                     assume_delay):
        data = random_record(seed, p, n_u, n_y, extra, assume_delay)
        got = identify_xi(data, p, assume_delay=assume_delay)
        want = gelsy_identify_xi(data, p, assume_delay=assume_delay)
        assert (np.linalg.norm(got.stacked() - want.stacked())
                <= 1e-8 * np.linalg.norm(want.stacked()))
        assert (np.abs(got.residual_variance - want.residual_variance).max()
                <= 1e-12 * np.abs(want.residual_variance).max())

    @settings(max_examples=40)
    @given(**RECORDS)
    def test_residuals_match_explicit_regression(self, seed, p, n_u, n_y,
                                                 extra, assume_delay):
        data = random_record(seed, p, n_u, n_y, extra, assume_delay)
        xi = gelsy_identify_xi(data, p, assume_delay=assume_delay)
        Y, Z = varx_regression(data, p, assume_delay=False)
        want = Y - Z @ xi.stacked().T
        assert np.abs(xi_residuals(xi, data) - want).max() <= 1e-12 * np.abs(Y).max()

    @settings(max_examples=200)
    @given(m=st.integers(1, 6), B=st.integers(2, 40), draw=st.data())
    def test_lagged_gram_matches_blockwise_oracle(self, m, B, draw):
        # from the shortest record identify_xi admits (p = B-1 with
        # assume_delay needs N >= p (m+1)) up; columns 1e-6 .. 1e6 apart
        # and some all-zero rows, so rounding and signed zeros both show
        N = draw.draw(st.integers(2 * B - 2, 300), label="N")
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1), label="seed"))
        exponents = draw.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m),
                              label="column exponents")
        w = rng.standard_normal((N, m)) * 10.0 ** np.array(exponents)
        w[draw.draw(st.lists(st.integers(0, N - 1), max_size=N // 3), label="zero rows")] = 0.0
        got, want = _lagged_gram(w, B, _gram_work(m, B)), blockwise_lagged_gram(w, B)
        assert got.shape == want.shape == (B * m, B * m)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("N", [1000, 10_000])
    def test_lagged_gram_matches_cumsum_bands(self, N):
        # the row additions repeat np.cumsum's adds in its order; at p = 100,
        # the window of both benchmark records, with a few zero rows
        rng = np.random.default_rng(N)
        w = rng.standard_normal((N, 4)) * np.array([1.0, 1e-3, 10.0, 1e2])
        w[rng.choice(N, 20, replace=False)] = 0.0
        got, want = _lagged_gram(w, 101, _gram_work(4, 101)), cumsum_lagged_gram(w, 101)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=150)
    @given(m=st.integers(1, 6), p=st.integers(1, 12), k=st.integers(1, 6),
           length=st.sampled_from(["short", "B", "kB-1", "kB", "kB+1"]),
           seed=st.integers(0, 2**32 - 1), draw=st.data())
    def test_window_residuals_match_correlations_and_regression(self, m, p, k, length,
                                                                seed, draw):
        # the phase products against the per-channel correlations and
        # against Y - Z xi^T on the explicit windows, for row counts
        # below, at and around multiples of the phase count B = p + 1
        n_y = draw.draw(st.integers(1, min(3, m)), label="n_y")
        B = p + 1
        rows = {"short": draw.draw(st.integers(1, p), label="rows"), "B": B,
                "kB-1": k * B - 1, "kB": k * B, "kB+1": k * B + 1}[length]
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((rows + p, m))
        xi = rng.standard_normal((n_y, B * m - n_y))
        got = _window_residuals(w, n_y, xi)
        Y = w[p:, m - n_y:]
        Z = sliding_window_view(w, B, axis=0).transpose(0, 2, 1).reshape(rows, B * m)
        tol = 1e-12 * np.abs(Y).max()
        assert got.shape == (rows, n_y)
        assert np.abs(got - correlate_window_residuals(w, n_y, xi)).max() <= tol
        assert np.abs(got - (Y - Z[:, :-n_y] @ xi.T)).max() <= tol

    def test_ill_conditioned_regressor_rejected(self, rng):
        # cond(Z) ~ 1e9: gelsy still calls this full rank, the normal
        # equations would lose every digit; on this record the rounding of
        # the Gram matrix makes the factorization itself fail
        u1 = rng.standard_normal(2000)
        u = np.column_stack([u1, u1 + 1e-9 * rng.standard_normal(2000)])
        data = IOData(u, rng.standard_normal((2000, 2)))
        Y, Z = varx_regression(data, 5, assume_delay=False)
        assert 1e9 < np.linalg.cond(Z) < 1e10
        gelsy_identify_xi(data, 5)
        with pytest.raises(ExcitationError, match="not numerically positive definite"):
            identify_xi(data, p=5)

    @pytest.mark.parametrize("scale", [1e-7, 1e-8, 1e-9])
    def test_rejection_reports_a_condition_figure(self, rng, scale):
        # at 1e-8 and 1e-9 the Cholesky factorization itself fails; at 1e-7
        # it passes and the condition estimate fails, and every message
        # carries a figure far above 1/(ncols eps) ~ 2e14
        u1 = rng.standard_normal(2000)
        u = np.column_stack([u1, u1 + scale * rng.standard_normal(2000)])
        data = IOData(u, rng.standard_normal((2000, 2)))
        with pytest.raises(ExcitationError) as err:
            identify_xi(data, p=5)
        message = str(err.value)
        cholesky = scale in (1e-8, 1e-9)
        assert ("not numerically positive definite" in message) == cholesky
        figure = re.search(r"condition (?:estimate|number) ([^,)]+)", message).group(1)
        assert float(figure) > 1e14
        if cholesky:  # the figure is of the matrix before the factorization
            assert figure == f"{np.linalg.cond(equilibrated_gram(data, 5)):.2e}"


    def test_cholesky_failure_reports_a_condition_figure(self, rng, monkeypatch):
        # the two tests above reach this branch only through rounding;
        # a failing factorization pins it whatever the record
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        # identify_xi imports from scipy.linalg at call time, so patch it there
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
        data, _, _ = varx_data(rng)
        with pytest.raises(ExcitationError, match="not numerically positive definite") as err:
            identify_xi(data, p=3)
        figure = re.search(r"condition number ([^)]+)\)", str(err.value)).group(1)
        assert 1 <= float(figure) < np.inf

    def test_condition_estimate_branch_reports_its_figure(self, rng, monkeypatch):
        # a factorization that succeeds but whose pocon estimate says
        # rcond = 1e-20 pins the condition-estimate branch
        anorms = []

        def fake_lapack(names, arrays):
            assert names == ("pocon",)
            return (lambda c, anorm: (anorms.append(anorm), (1e-20, 0))[1],)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", fake_lapack)
        data, _, _ = varx_data(rng)
        with pytest.raises(ExcitationError, match="condition estimate") as err:
            identify_xi(data, p=3)
        # the 1-norm of the equilibrated matrix, not of its in-place factor
        assert anorms == [np.abs(equilibrated_gram(data, 3)).sum(axis=0).max()]
        figure = re.search(r"condition estimate ([^,]+),", str(err.value)).group(1)
        ncols = 3 * (data.n_inputs + data.n_outputs) + data.n_inputs
        assert float(figure) > 1 / (ncols * np.finfo(float).eps)
        assert float(figure) == pytest.approx(1e20, rel=1e-2)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("lag", [3, 61])
    @pytest.mark.parametrize("name", ["Hu", "Hy"])
    @pytest.mark.parametrize("route", ["constructor", "from_stacked"])
    def test_xi_refuses_non_finite_block(self, rng, route, name, lag, bad):
        # lag 61 lies past the l + m = 40 blocks a default design reads
        p, n_u, n_y = 80, 2, 2
        Hu = rng.standard_normal((p + 1, n_y, n_u))
        Hy = rng.standard_normal((p, n_y, n_y))
        stacked = IdentifiedXi(Hu, Hy, p).stacked()  # deepest lag first
        stacked[0, (p - lag) * (n_u + n_y) + (0 if name == "Hu" else n_u)] = bad
        (Hu[lag] if name == "Hu" else Hy[lag - 1])[0, 0] = bad
        with pytest.raises(ValidationError, match=f"non-finite entry in {name}$"):
            if route == "constructor":
                IdentifiedXi(Hu, Hy, p)
            else:
                IdentifiedXi.from_stacked(stacked, p, n_u, n_y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("route", ["constructor", "from_stacked"])
    def test_xi_refuses_non_finite_residual_variance(self, rng, route, bad):
        xi = xi_from_predictor(to_predictor(random_model(rng, n=3)), p=5)
        cov = np.eye(xi.n_y)
        cov[0, 1] = bad
        with pytest.raises(ValidationError, match="non-finite entry in residual_variance"):
            if route == "constructor":
                IdentifiedXi(xi.Hu, xi.Hy, xi.p, cov)
            else:
                IdentifiedXi.from_stacked(xi.stacked(), xi.p, xi.n_u, xi.n_y, cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_identify_names_first_bad_sample(self, rng, bad):
        data, _, _ = varx_data(rng)
        data.y[37, 1] = bad
        data.u[120, 0] = bad
        with pytest.raises(ValidationError, match="non-finite value in sample k=37"):
            identify_xi(data, p=3)

    def test_residuals_name_first_bad_sample(self, rng):
        data, _, _ = varx_data(rng)
        xi = identify_xi(data, p=3)
        data.u[5, 1] = np.nan
        with pytest.raises(ValidationError, match="sample k=5"):
            xi_residuals(xi, data)

    def test_cli_identify_exit_code(self, rng, tmp_path, capsys):
        data, _, _ = varx_data(rng)
        data.y[12, 0] = np.nan
        path = tmp_path / "nan.csv"
        data.to_csv(path)
        assert main(["identify", "--data", str(path), "--out", str(tmp_path)]) == 2
        assert f"non-finite value in sample k=12 of {path}" in capsys.readouterr().err


# Steady repeated identification must reuse its memory.  identify_xi keeps
# its (p m)^2-sized temporaries in one buffer per call; as separate arrays
# glibc mapped them anew on every call, and the loop below took ~1800-1900
# minor page faults per call against ~0.14 with the one buffer, so 50 per
# call leaves room for host noise and still catches that
FAULTS_PER_CALL = 50
counts_page_faults = pytest.mark.skipif(
    not sys.platform.startswith("linux") or resource is None,
    reason="counts minor page faults through resource on Linux")


@counts_page_faults
def test_repeated_identification_reuses_its_memory():
    run_fresh(f"""
import resource
import numpy as np
from faultfilter import IOData, identify_xi

rng = np.random.default_rng(0)
data = IOData(rng.standard_normal((10_000, 2)), rng.standard_normal((10_000, 2)))
for _ in range(3):  # warm-up: imports, BLAS buffers, the allocator's thresholds
    identify_xi(data, 100, assume_delay=True)
before, calls = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, 20
for _ in range(calls):
    identify_xi(data, 100, assume_delay=True)
faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls
assert faults <= {FAULTS_PER_CALL}, f"{{faults}} minor page faults per call"
""")


@counts_page_faults
def test_repeated_comparison_reuses_its_memory():
    # the whole compare operation, whose identification runs at N = 1000:
    # under 2 faults per call, where p^2-sized temporaries mapped afresh
    # (the Gram pass with separate arrays) took ~1000
    run_fresh(f"""
import resource
from faultfilter import BenchConfig, run_comparison

for seed in range(3):  # warm-up: imports, the kept registry loop, the allocator
    run_comparison(BenchConfig(seed=seed))
before, calls = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, 30
for seed in range(3, 3 + calls):
    run_comparison(BenchConfig(seed=seed))
faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls
assert faults <= {FAULTS_PER_CALL}, f"{{faults}} minor page faults per call"
""")
