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
O(N p m^2) work (m = n_u + n_y) without building the regressor: the
windows p + 1 samples apart tile the record, so one stacked product
over the p + 1 phases gives the Gram matrix's first block row (another
the residuals), and running sums over the p + 1 lags the other blocks.
One Cholesky factorization solves them, and a condition estimate
guards against regressors too close to rank deficient for that route.
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
    ``residual_variance`` estimates the innovation covariance: the residual
    sum of squares over the fit's rows - ncols degrees of freedom.  A nan or inf
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


def _phase_tiles(w: np.ndarray, B: int) -> np.ndarray:
    """The B-block windows of the sample rows as B phase matrices.

    Windows that start B samples apart tile the flattened samples
    without overlap, so phase f's windows f, f + B, ... form a (k, B m)
    matrix with row stride B m, which BLAS takes as it is: ``[f, j]`` is
    window f + jB, flattened.  k phase rows cover the N - B + 1 windows;
    the samples are zero padded, so windows past the record read zeros.
    """
    N, m = w.shape
    k = -(-(N - B + 1) // B)
    flat = np.concatenate([w.reshape(-1), np.zeros((k * B + B - 1 - N) * m)])
    s = flat.strides[0]
    return as_strided(flat, (B, k, B * m), (m * s, B * m * s, s), writeable=False)


def _gram_work(m: int, B: int) -> np.ndarray:
    """An empty buffer for :func:`_lagged_gram`: two (B m)^2 blocks of
    temporaries, then the Gram buffer, B m rows of (B - 1 + ceil(B/4)) m
    (a band of ceil(B/4) block rows runs up to ceil(B/4) - 1 blocks past
    column B m)."""
    M = B * m
    return np.empty(M * (2 * M + (B - 1 + -(-B // 4)) * m))


def _lagged_gram(w: np.ndarray, B: int, work: np.ndarray) -> np.ndarray:
    """Gram matrix of the B-block sliding windows of the sample rows.

    Window r is [w(r) .. w(r+B-1)] for r = 0 .. N-B, so the result is
    the Gram matrix of the block-Hankel matrix whose block (r, j) is
    w(r+j), computed without building it.  Block (i, j) differs from
    block (i-1, j-1) only by the end terms -w(i-1) w(j-1)^T +
    w(rows+i-1) w(rows+j-1)^T, so the first block row plus a cumulative
    sum of those terms gives every block.

    The first block row, the sum of w(r)^T times window r, is one
    stacked product of the phase matrices of :func:`_phase_tiles` with
    their windows' first samples (zero past the last window), summed in
    phase order; the head end terms read the first B - 1 zero-padded
    windows, so a record with fewer windows needs no special case.

    The band passes run in block-row layout [i, a, d m + b], the lag d
    and column b of block (i, i+d) along one contiguous row: a sample
    window flattened is such a row, so each band's end terms are one
    broadcast product and every numpy inner loop is up to B m long.
    Each band of block rows takes the lags d < B - i of its first row
    only and writes its sums as the rows of block rows i from column
    i m of a buffer wider than B m, so entries with i+d >= B fall
    outside the returned view.  The strictly lower blocks are then
    copied from the upper ones; diagonal blocks keep their own sums.

    The pass runs in ``work``, a buffer from :func:`_gram_work`; its
    temporaries, the first 2 (B m)^2 doubles, are free again on return.
    """
    N, m = w.shape
    rows = N - B + 1
    M = B * m
    scratch = work[:M * M]  # the first-row products, then a band's head terms
    steps = work[M * M:2 * M * M].reshape(B, m, M)  # [i] = end terms for t < i
    gram = work[2 * M * M:].reshape(M, -1)
    tiles = _phase_tiles(w, B)
    k = tiles.shape[1]
    starts = np.zeros((k * B, m))  # [f + jB] = w(f + jB), zero past the last window
    starts[:rows] = w[:rows]
    # [f, d m + b, a] = sum_j w(f + jB + d)_b w(f + jB)_a, then over f: [a, d m + b]
    first = np.matmul(tiles.transpose(0, 2, 1), starts.reshape(k, B, m).transpose(1, 0, 2),
                      out=scratch.reshape(B, M, m)).sum(axis=0).T.copy()
    end = np.concatenate([w[rows:], np.zeros((B - 1, m))])
    heads = tiles[:B - 1, 0]  # [t, d m + b] = w(t + d)_b
    tails = sliding_window_view(end.reshape(-1), M)[::m]  # [t, d m + b] = end(t + d)_b
    steps[0] = 0.0
    s_r, s = gram.strides
    height = -(-B // 4)  # four bands of block rows; 3-6 timed alike at B = 101
    for i0 in range(0, B, height):
        i1, n, lo = min(i0 + height, B), (B - i0) * m, max(i0, 1)
        # end terms t = lo-1 .. i1-2: [t, a, d m + b] = w(t)_a w(t+d)_b
        t = slice(lo - 1, i1 - 1)
        head = scratch[:(i1 - lo) * m * n].reshape(i1 - lo, m, n)
        np.multiply(w[t, :, None], heads[t, None, :n], out=head)
        term = steps[lo:i1, :, :n]
        np.multiply(end[t, :, None], tails[t, None, :n], out=term)
        np.subtract(term, head, out=term)
        run = steps[max(lo - 1, 1):i1, :, :n]  # on from the band before
        # a running sum by whole rows; np.cumsum's inner loop would run along
        # the long row stride, one band's height at a time
        for i in range(1, len(run)):
            np.add(run[i - 1], run[i], out=run[i])
        upper = as_strided(gram[i0 * m:, i0 * m:], (i1 - i0, m, n), (m * s_r + m * s, s_r, s))
        np.add(first[:, :n], steps[i0:i1, :, :n], out=upper)  # block (i, i+d)[a, b]
    G = gram[:, :M]
    for i in range(m, M, m):  # block row i/m left of the diagonal, from block column i/m
        G[i:i + m, :i] = G[:i, i:i + m].T
    return G


def _window_residuals(w: np.ndarray, n_y: int, xi: np.ndarray) -> np.ndarray:
    """y(k) - xi z(k) for k = p .. N-1, with xi in the stacked layout.

    The coefficients [-xi, I] weigh the (p+1)-block window of w, whose
    last n_y columns are y(k).  One stacked product of the B = p + 1
    phase matrices of :func:`_phase_tiles` with them gives every
    residual; the rows past the record are dropped.
    """
    N, m = w.shape
    coef = np.hstack([-xi, np.eye(n_y)]).T
    B = len(coef) // m
    return (_phase_tiles(w, B) @ coef).transpose(1, 0, 2).reshape(-1, n_y)[:N - B + 1]


def identify_xi(data: IOData, p: int, assume_delay: bool = False) -> IdentifiedXi:
    """Least squares estimate of the predictor Markov parameters.

    The normal equations are formed from the lagged Gram matrix of the
    samples (see :func:`_lagged_gram`), column-equilibrated and solved
    by a Cholesky factorization made in place; the regressor matrix
    itself is never built.  The residual covariance divides the residual
    sum of squares by rows - ncols, not rows, which would bias it low.

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
        ExcitationError: no more usable rows than coefficients, a
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
    if rows <= ncols:
        raise ExcitationError(
            f"insufficient excitation: {rows} regression rows must exceed the "
            f"{ncols} coefficient columns; record more samples or lower p")
    # one buffer per call holds every (p m)^2-sized temporary: the Gram
    # pass's, then the equilibrated matrix and its scales where the pass's
    # temporaries were; separate allocations of these sizes left glibc
    # mapping fresh pages on every call
    work = _gram_work(n_u + n_y, p + 1)
    # regressor columns are a prefix of the (p+1)-block windows, targets
    # their last n_y columns
    G = _lagged_gram(w, p + 1, work)
    scale = np.sqrt(np.diag(G)[:ncols])
    if not scale.all():
        raise ExcitationError(
            f"insufficient excitation: regressor column {int(np.argmin(scale))} "
            "is identically zero")
    # deferred: a filter run needs no scipy
    from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs
    outer, A = work[:2 * ncols * ncols].reshape(2, ncols, ncols)
    np.divide(G[:ncols, :ncols], np.outer(scale, scale, out=outer), out=A)
    anorm = np.abs(A, out=outer).sum(axis=0).max()
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
    return IdentifiedXi.from_stacked(xi, p, n_u, n_y,
                                     residual_variance=res.T @ res / (rows - ncols))
