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
O(N p m^2) work (m = n_u + n_y) without building the regressor, in
passes whose innermost axis is the p + 1 lags, not the m channels; one
Cholesky factorization solves them, and a condition estimate guards
against regressors too close to rank deficient for that route.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ExcitationError, ValidationError
from .lti_core import (IOData, PredictorModel, _CsvRows, _as_int, _finite_samples,
                       _read_only, _write_csv, markov_parameters)

__all__ = ["IdentifiedXi", "xi_from_predictor", "identify_xi"]


@dataclass(eq=False, frozen=True)
class IdentifiedXi:
    """Estimated predictor Markov parameters up to lag p, fixed once built.

    ``Hu`` holds H_0^u .. H_p^u (index equals the lag); ``Hy`` holds
    H_1^y .. H_p^y, so ``Hy[i]`` is the lag i+1 block and the implicit
    H_0^y = 0 is not stored; both are (blocks, rows, cols) arrays.
    ``residual_variance`` is the sample covariance of the regression
    residuals, an estimate of the innovation covariance.  A nan or inf
    entry in any of them raises a ValidationError.  The arrays are kept
    as read-only copies; copies and pickles are rebuilt and checked.
    """

    Hu: np.ndarray
    Hy: np.ndarray
    p: int
    residual_variance: np.ndarray = None

    def __post_init__(self):
        d = self.__dict__  # a frozen instance: fields are set here only
        d["Hu"], d["Hy"] = np.array(self.Hu, dtype=float), np.array(self.Hy, dtype=float)
        if self.Hu.ndim != 3 or self.Hy.ndim != 3:
            raise ValidationError("Hu and Hy must be arrays of shape (blocks, rows, cols)")
        p = d["p"] = _as_int(self.p, "past window p", 1)
        if len(self.Hu) != p + 1:
            raise ValidationError(f"expected {p + 1} input blocks, got {len(self.Hu)}")
        if len(self.Hy) != p:
            raise ValidationError(f"expected {p} output blocks, got {len(self.Hy)}")
        ny = self.Hu.shape[1]
        if self.Hy.shape[1:] != (ny, ny):
            raise ValidationError(
                f"output blocks must be {ny} x {ny}, got {self.Hy.shape[1:]}")
        cov = np.zeros((ny, ny)) if self.residual_variance is None else self.residual_variance
        cov = d["residual_variance"] = np.atleast_2d(np.array(cov, dtype=float))
        if cov.shape != (ny, ny):
            raise ValidationError("residual variance must be n_y x n_y")
        for name in ("Hu", "Hy", "residual_variance"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"non-finite entry in {name}")
        _read_only(self)

    def __reduce__(self):  # copies and pickles are built anew, so checked and fixed
        return type(self), (self.Hu, self.Hy, self.p, self.residual_variance)

    @property
    def n_u(self) -> int:
        return self.Hu.shape[2]

    @property
    def n_y(self) -> int:
        return self.Hu.shape[1]

    def stacked(self) -> np.ndarray:
        """Coefficient row [H_p^u H_p^y ... H_1^u H_1^y H_0^u].

        This is the matrix the LS regression actually solves for, with
        the deepest lag first and the feedthrough block last.
        """
        lags = np.concatenate([self.Hu[:0:-1], self.Hy[::-1]], axis=2)
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
        return cls(Hu, lags[:, :, n_u:], p, residual_variance)

    def to_csv(self, path) -> None:
        """Write the estimate with a small manifest header.

        Layout: manifest line, the stacked coefficient rows, then the
        residual covariance rows.
        """
        _write_csv(path, [["p", "n_u", "n_y"], [self.p, self.n_u, self.n_y]],
                   self.stacked(), self.residual_variance)

    @classmethod
    def from_csv(cls, path) -> "IdentifiedXi":
        """Read a file written by :meth:`to_csv`; a nan or inf entry is an error."""
        rows = _CsvRows(path)
        if len(rows) < 2 or rows[0] != ["p", "n_u", "n_y"] or len(rows[1]) != 3:
            raise rows.error("expected a 'p,n_u,n_y' manifest header and row")
        p, n_u, n_y = rows.sizes(1)
        if len(rows) != 2 + 2 * n_y:
            raise rows.error(f"expected {2 * n_y} data rows, got {len(rows) - 2}")
        xi = rows.floats(2, 2 + n_y, p * (n_u + n_y) + n_u, "the Markov coefficients")
        cov = rows.floats(2 + n_y, len(rows), n_y, "the residual covariance")
        return cls.from_stacked(xi, p, n_u, n_y, residual_variance=cov)


def xi_from_predictor(pred: PredictorModel, p: int) -> IdentifiedXi:
    """Exact Markov parameter blocks of a known predictor.

    The noise free reference point: identification on clean, long data
    converges to this object.
    """
    return IdentifiedXi(markov_parameters(pred, "u", p + 1),
                        markov_parameters(pred, "y", p + 1)[1:], p,
                        residual_variance=pred.SigmaE)


def _lagged_gram(w: np.ndarray, B: int) -> np.ndarray:
    """Gram matrix of the B-block sliding windows of the sample rows.

    Window r is [w(r) .. w(r+B-1)] for r = 0 .. N-B, so the result is
    the Gram matrix of the block-Hankel matrix whose block (r, j) is
    w(r+j), computed without building it.  Block (i, j) differs from
    block (i-1, j-1) only by the end terms -w(i-1) w(j-1)^T +
    w(rows+i-1) w(rows+j-1)^T, so the first block row plus a cumulative
    sum of those terms gives every block.

    The passes run over (t, a, b, d) arrays with the lag d innermost, so
    every numpy inner loop is up to B long, not m; each band of block
    rows takes the lags d < B - i of its first row only.  ``+ first``
    writes blocks (i, i+d) and (i+d, i) through two strided views of a
    buffer 2B-1 blocks square, so entries with i+d >= B fall outside the
    returned view; the upper view goes last, so diagonal blocks keep
    their own sums.
    """
    N, m = w.shape
    rows = N - B + 1
    windows = sliding_window_view(w, B, axis=0)  # [r, :, j] = w(r + j)
    first = np.matmul(w[:rows].T, windows.transpose(2, 0, 1)).transpose(1, 2, 0)
    end = np.concatenate([w[rows:], np.zeros((B - 1, m))])
    heads = sliding_window_view(w[:2 * B - 2], B, axis=0)
    tails = sliding_window_view(end, B, axis=0)
    steps = np.zeros((B, m, m, B))  # [i] = sum of the end terms for t < i
    K = 2 * B - 1
    buf = np.empty((K, m, K, m))  # [i, a, j, b] = block (i, j)[a, b]
    s_i, s_a, s_j, s_b = buf.strides
    shape = (B, m, m, B)  # [i, a, b, d] -> block (i, i+d)[a, b]
    lower = as_strided(buf, shape, (s_i + s_j, s_b, s_a, s_i))  # block (i+d, i)[b, a]
    upper = as_strided(buf, shape, (s_i + s_j, s_a, s_b, s_j))  # block (i, i+d)[a, b]
    height = -(-B // 4)  # four bands of block rows; 3-6 timed alike at B = 101
    for i0 in range(0, B, height):
        i1, n, lo = min(i0 + height, B), B - i0, max(i0, 1)
        # end terms t = lo-1 .. i1-2: [t, a, b, d] = w(t)_a w(t+d)_b
        t = slice(lo - 1, i1 - 1)
        head = np.einsum("ta,tbd->tabd", w[t], heads[t, :, :n])
        tail = np.einsum("ta,tbd->tabd", end[t], tails[t, :, :n])
        np.subtract(tail, head, out=steps[lo:i1, :, :, :n])
        run = steps[max(lo - 1, 1):i1, :, :, :n]  # on from the band before
        np.cumsum(run, axis=0, out=run)
        np.add(first[..., :n], steps[i0:i1, ..., :n], out=lower[i0:i1, ..., :n])
        np.add(first[..., :n], steps[i0:i1, ..., :n], out=upper[i0:i1, ..., :n])
    return buf.reshape(K * m, K * m)[:B * m, :B * m]


def _window_residuals(w: np.ndarray, n_y: int, xi: np.ndarray) -> np.ndarray:
    """y(k) - xi z(k) for k = p .. N-1, with xi in the stacked layout.

    The coefficients [-xi, I] weigh the (p+1)-block window of w, whose
    last n_y columns are y(k).  Windows that start B = p + 1 samples
    apart tile the flattened samples without overlap, so the windows of
    phase f < B (rows f, f + B, ...) form a matrix with row stride B m,
    which BLAS takes as it is.  One stacked product over the B phases
    gives every residual; the flattened samples are zero padded so each
    phase has the same row count, and the rows past the record are
    dropped.
    """
    N, m = w.shape
    coef = np.hstack([-xi, np.eye(n_y)]).T
    B = len(coef) // m
    rows = N - B + 1
    k = -(-rows // B)
    flat = np.concatenate([w.reshape(-1), np.zeros((k * B + B - 1 - N) * m)])
    s = flat.strides[0]
    phases = as_strided(flat, (B, k, B * m), (m * s, B * m * s, s))  # [f, j] = window f + jB
    return (phases @ coef).transpose(1, 0, 2).reshape(-1, n_y)[:rows]


def identify_xi(data: IOData, p: int, assume_delay: bool = False) -> IdentifiedXi:
    """Least squares estimate of the predictor Markov parameters.

    The normal equations are formed from the lagged Gram matrix of the
    samples (see :func:`_lagged_gram`), column-equilibrated and solved
    by a Cholesky factorization made in place; the regressor matrix
    itself is never built.  The residual covariance comes from the
    residuals themselves.

    Args:
        data: recorded experiment; inputs must be persistently exciting
            (not checked beyond a conditioning test on the regressors).
        p: past window length; the truncation bias scales with the p-th
            power of the predictor spectral radius.
        assume_delay: treat the plant as strictly causal from u, pinning
            H_0^u = 0 and excluding u(k) from the regressors.  Use this
            when data were collected under output feedback, where u(k)
            and e(k) are correlated through y(k).

    Returns:
        IdentifiedXi with all blocks and the residual covariance.

    Raises:
        ValidationError: p not an integer, p < 1 or a non-finite sample
            (the message names the first one).
        ExcitationError: fewer usable rows than coefficients, a
            regressor column that is identically zero, a Gram matrix
            that is not numerically positive definite, or a reciprocal
            condition estimate of the equilibrated Gram matrix below
            ncols * eps (cond(Z) above about 3e6 at p = 100 with two
            inputs and two outputs).
    """
    p = _as_int(p, "past window p", 1)
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
    scale = np.sqrt(np.diag(G)[:ncols])
    if not scale.all():
        raise ExcitationError(
            f"insufficient excitation: regressor column {int(np.argmin(scale))} "
            "is identically zero")
    # deferred: a filter run needs no scipy
    from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs
    A = G[:ncols, :ncols] / np.outer(scale, scale)
    anorm = np.abs(A).sum(axis=0).max()
    try:
        # A is exactly symmetric, so A.T is the Fortran-ordered matrix
        # LAPACK wants: factored in place, not copied
        factor = cho_factor(A.T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        A = G[:ncols, :ncols] / np.outer(scale, scale)  # the factorization overwrote it
        raise ExcitationError(
            "insufficient excitation: the equilibrated regressor Gram matrix is "
            f"not numerically positive definite (condition number "
            f"{np.linalg.cond(A):.2e}) at this window length") from exc
    pocon, = get_lapack_funcs(("pocon",), (A,))
    rcond, _ = pocon(factor[0], anorm)
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
