"""Identification of predictor Markov parameters from input/output data.

The predictor form makes the plant output a finite regression on past
inputs and outputs once the predictor transient has died out:

    y(k) ~ H_0^u u(k) + sum_{i=1..p} [H_i^u u(k-i) + H_i^y y(k-i)] + e(k)

because Phi = A - K C is stable even when A is not.  Stacking the
coefficient blocks into one wide matrix and solving a single least
squares problem over all usable samples recovers the Markov parameters
directly from data; the truncation bias decays like the p-th power of
the predictor spectral radius, so a past window around p = 100 makes it
negligible for the plants in scope.

The regressor rows are sliding windows of the samples [u(k) y(k)], so
the normal equations come from the block-Hankel structure in
O(N p m^2) work (m = n_u + n_y) without building the regressor; one
Cholesky factorization solves them, and a condition estimate guards
against regressors too close to rank deficient for that route.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import LinAlgError, cho_factor, cho_solve, get_lapack_funcs

from .errors import ExcitationError, ValidationError
from .lti_core import (IOData, MarkovSequence, PredictorModel, _CsvRows, _finite_samples,
                       _write_csv, markov_parameters)

__all__ = ["IdentifiedXi", "xi_from_predictor", "identify_xi", "xi_residuals"]


@dataclass
class IdentifiedXi:
    """Estimated predictor Markov parameters up to lag p.

    ``Hu`` holds H_0^u .. H_p^u (index equals the lag); ``Hy`` holds
    H_1^y .. H_p^y, so ``Hy[i]`` is the lag i+1 block and the implicit
    H_0^y = 0 is not stored.  ``residual_variance`` is the sample
    covariance of the regression residuals, an estimate of the
    innovation covariance.
    """

    Hu: MarkovSequence
    Hy: MarkovSequence
    past_horizon: int
    residual_variance: np.ndarray = None

    def __post_init__(self):
        if not isinstance(self.Hu, MarkovSequence):
            self.Hu = MarkovSequence(np.asarray(self.Hu, dtype=float))
        if not isinstance(self.Hy, MarkovSequence):
            self.Hy = MarkovSequence(np.asarray(self.Hy, dtype=float))
        p = self.past_horizon
        if p < 1:
            raise ValidationError("past horizon must be at least 1")
        if len(self.Hu) != p + 1:
            raise ValidationError(f"expected {p + 1} input blocks, got {len(self.Hu)}")
        if len(self.Hy) != p:
            raise ValidationError(f"expected {p} output blocks, got {len(self.Hy)}")
        ny = self.Hu.block_shape[0]
        if self.Hy.block_shape != (ny, ny):
            raise ValidationError(
                f"output blocks must be {ny} x {ny}, got {self.Hy.block_shape}")
        if self.residual_variance is None:
            self.residual_variance = np.zeros((ny, ny))
        else:
            self.residual_variance = np.atleast_2d(
                np.asarray(self.residual_variance, dtype=float))
            if self.residual_variance.shape != (ny, ny):
                raise ValidationError("residual variance must be n_y x n_y")

    @property
    def p(self) -> int:
        return self.past_horizon

    @property
    def n_u(self) -> int:
        return self.Hu.block_shape[1]

    @property
    def n_y(self) -> int:
        return self.Hu.block_shape[0]

    def markov_u(self, L: int = None) -> MarkovSequence:
        """Input channel blocks H_0^u .. H_(L-1)^u."""
        L = self.p + 1 if L is None else L
        return self.Hu.truncated(L)

    def markov_y(self, L: int = None) -> MarkovSequence:
        """Output channel blocks with the zero H_0^y made explicit."""
        L = self.p + 1 if L is None else L
        if L > self.p + 1:
            raise ValidationError(f"only {self.p + 1} output blocks available")
        ny = self.n_y
        return MarkovSequence(np.concatenate(
            [np.zeros((1, ny, ny)), self.Hy.blocks[:L - 1]]))

    def stacked(self) -> np.ndarray:
        """Coefficient row [H_p^u H_p^y ... H_1^u H_1^y H_0^u].

        This is the matrix the LS regression actually solves for, with
        the deepest lag first and the feedthrough block last.
        """
        lags = np.concatenate([self.Hu.blocks[:0:-1], self.Hy.blocks[::-1]], axis=2)
        return np.hstack([*lags, self.Hu[0]])

    @classmethod
    def from_stacked(cls, xi, p: int, n_u: int, n_y: int,
                     residual_variance=None) -> "IdentifiedXi":
        """Rebuild the block sequences from the stacked coefficient row."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        w = n_u + n_y
        if xi.shape != (n_y, p * w + n_u):
            raise ValidationError(
                f"stacked shape {xi.shape} does not match p={p}, n_u={n_u}, n_y={n_y}")
        lags = xi[:, :p * w].reshape(n_y, p, w).transpose(1, 0, 2)[::-1]  # lag 1 first
        Hu = np.concatenate([xi[None, :, p * w:], lags[:, :, :n_u]])
        return cls(MarkovSequence(Hu), MarkovSequence(lags[:, :, n_u:].copy()), p,
                   residual_variance)

    def to_csv(self, path) -> None:
        """Write the estimate with a small manifest header.

        Layout: manifest line, the stacked coefficient rows, then the
        residual covariance rows.
        """
        _write_csv(path, [["p", "n_u", "n_y"], [self.p, self.n_u, self.n_y]],
                   self.stacked(), self.residual_variance)

    @classmethod
    def from_csv(cls, path) -> "IdentifiedXi":
        rows = _CsvRows(path)
        if len(rows) < 2 or rows[0] != ["p", "n_u", "n_y"] or len(rows[1]) != 3:
            raise rows.error("expected a 'p,n_u,n_y' manifest header and row")
        p, n_u, n_y = rows.sizes(1)
        if len(rows) != 2 + 2 * n_y:
            raise rows.error(f"expected {2 * n_y} data rows, got {len(rows) - 2}")
        xi = rows.floats(2, 2 + n_y, p * (n_u + n_y) + n_u)
        cov = rows.floats(2 + n_y, len(rows), n_y)
        return cls.from_stacked(xi, p, n_u, n_y, residual_variance=cov)


def xi_from_predictor(pred: PredictorModel, p: int) -> IdentifiedXi:
    """Exact Markov parameter blocks of a known predictor.

    The noise free reference point: identification on clean, long data
    converges to this object.
    """
    Hu = markov_parameters(pred, "u", p + 1)
    Hy = markov_parameters(pred, "y", p + 1)
    return IdentifiedXi(Hu, MarkovSequence(Hy.blocks[1:]), p,
                        residual_variance=pred.SigmaE)


def _lagged_gram(w: np.ndarray, B: int) -> np.ndarray:
    """Gram matrix of the B-block sliding windows of the sample rows.

    Window r is [w(r) .. w(r+B-1)] for r = 0 .. N-B, so the result is
    the Gram matrix of the block-Hankel matrix whose block (r, j) is
    w(r+j), computed without building it.  Block (i, j) differs from
    block (i-1, j-1) only by the end terms -w(i-1) w(j-1)^T +
    w(rows+i-1) w(rows+j-1)^T, so the first block row plus a cumulative
    sum of those terms gives every block.
    """
    N, m = w.shape
    rows = N - B + 1
    windows = sliding_window_view(w, B, axis=0)  # [r, :, j] = w(r + j)
    first = np.matmul(w[:rows].T, windows.transpose(2, 0, 1))
    end = np.concatenate([w[rows:], np.zeros((B - 1, m))])
    # ends[t, d] = w(t) w(t+d)^T at the head and tail of the record
    head = np.einsum("ta,tbd->tdab", w[:B - 1],
                     sliding_window_view(w[:2 * B - 2], B, axis=0))
    tail = np.einsum("ta,tbd->tdab", end[:B - 1],
                     sliding_window_view(end, B, axis=0))
    upper = first + np.concatenate(
        [np.zeros((1, B, m, m)), np.cumsum(tail - head, axis=0)])  # [i, d] = block (i, i+d)
    I, J = np.indices((B, B))
    blocks = upper[np.minimum(I, J), np.abs(J - I)]
    blocks = np.where((J < I)[..., None, None], blocks.swapaxes(2, 3), blocks)
    return blocks.transpose(0, 2, 1, 3).reshape(B * m, B * m)


def _window_residuals(w: np.ndarray, n_y: int, xi: np.ndarray) -> np.ndarray:
    """y(k) - xi z(k) for k = p .. N-1, with xi in the stacked layout.

    The coefficients [-xi, I] weigh the (p+1)-block window of w, whose
    last n_y columns are y(k).  Column a of block j weighs w(k-p+j)[a],
    so each residual channel is a sum of m valid-mode correlations of
    one sample column with its p+1 weights.
    """
    m = w.shape[1]
    return np.column_stack([
        sum(np.correlate(w[:, a], c[a::m], "valid") for a in range(m))
        for c in np.hstack([-xi, np.eye(n_y)])])


def identify_xi(data: IOData, p: int, ridge: float = 0.0,
                assume_delay: bool = False) -> IdentifiedXi:
    """Least squares estimate of the predictor Markov parameters.

    The normal equations are formed from the lagged Gram matrix of the
    samples (see :func:`_lagged_gram`), column-equilibrated and solved
    by Cholesky; the regressor matrix itself is never built.  The
    residual covariance comes from the residuals themselves.

    Args:
        data: recorded experiment; inputs must be persistently exciting
            (not checked beyond a conditioning test on the regressors).
        p: past window length; the truncation bias scales with the p-th
            power of the predictor spectral radius.
        ridge: optional Tikhonov weight on the coefficients.
        assume_delay: treat the plant as strictly causal from u, pinning
            H_0^u = 0 and excluding u(k) from the regressors.  Use this
            when data were collected under output feedback, where u(k)
            and e(k) are correlated through y(k).

    Returns:
        IdentifiedXi with all blocks and the residual covariance.

    Raises:
        ValidationError: p < 1, negative ridge, or a non-finite sample
            (the message names the first one).
        ExcitationError: fewer usable rows than coefficients, a
            regressor column that is identically zero, a Gram matrix
            that is not numerically positive definite, or, with
            ridge = 0, a reciprocal condition estimate of the
            equilibrated Gram matrix below ncols * eps (cond(Z) above
            about 3e6 at p = 100 with two inputs and two outputs).
    """
    if p < 1:
        raise ValidationError("past window p must be at least 1")
    if ridge < 0:
        raise ValidationError("ridge weight must be nonnegative")
    if data.n_samples <= p:
        raise ExcitationError(
            f"insufficient excitation: need more than p={p} samples, "
            f"got {data.n_samples}")
    w = _finite_samples(data)
    n_u, n_y = data.n_inputs, data.n_outputs
    rows = data.n_samples - p
    ncols = p * (n_u + n_y) + (0 if assume_delay else n_u)
    if rows < ncols:
        raise ExcitationError(
            f"insufficient excitation: {rows} regression rows cannot determine "
            f"{ncols} coefficient columns; record more samples or lower p")
    # regressor columns are a prefix of the (p+1)-block windows, targets
    # their last n_y columns
    G = _lagged_gram(w, p + 1)
    scale = np.sqrt(np.diag(G)[:ncols] + ridge)
    if not scale.all():
        raise ExcitationError(
            f"insufficient excitation: regressor column {int(np.argmin(scale))} "
            "is identically zero")
    A = (G[:ncols, :ncols] + ridge * np.eye(ncols)) / np.outer(scale, scale)
    try:
        factor = cho_factor(A, check_finite=False)
    except LinAlgError as exc:
        raise ExcitationError(
            "insufficient excitation: the equilibrated regressor Gram matrix is "
            f"not numerically positive definite (condition number "
            f"{np.linalg.cond(A):.2e}) at this window length") from exc
    if ridge == 0:
        pocon, = get_lapack_funcs(("pocon",), (A,))
        rcond, _ = pocon(factor[0], np.abs(A).sum(axis=0).max())
        if rcond < ncols * np.finfo(float).eps:
            cond = 1 / rcond if rcond > 0 else np.inf
            raise ExcitationError(
                f"insufficient excitation: the equilibrated regressor Gram matrix "
                f"has condition estimate {cond:.2e}, above the limit "
                f"{1 / (ncols * np.finfo(float).eps):.2e} at this window length")
    sol = cho_solve(factor, G[:ncols, -n_y:] / scale[:, None],
                    check_finite=False) / scale[:, None]
    xi = sol.T
    if assume_delay:
        xi = np.hstack([xi, np.zeros((n_y, n_u))])
    res = _window_residuals(w, n_y, xi)
    return IdentifiedXi.from_stacked(xi, p, n_u, n_y, residual_variance=res.T @ res / rows)


def xi_residuals(xi: IdentifiedXi, data: IOData) -> np.ndarray:
    """One step prediction errors of an identified model on a record.

    Returns residuals for samples p .. N-1 as an (N - p, n_y) array.  On
    fault free data these approximate the innovations; on faulty data
    they carry the convolution of the fault with its Markov parameters,
    which is what the moving horizon estimator consumes.
    """
    if data.n_inputs != xi.n_u or data.n_outputs != xi.n_y:
        raise ValidationError("data dimensions do not match the identified model")
    if data.n_samples <= xi.p:
        raise ValidationError(f"record shorter than the past window p={xi.p}")
    return _window_residuals(_finite_samples(data), xi.n_y, xi.stacked())
