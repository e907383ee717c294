"""Moving horizon least squares fault estimation over residual windows.

Over a window of L residual samples the innovation filter output obeys

    r_window = O x(k0) + Tf f_window + e_window

with O the extended observability matrix of the residual dynamics and
Tf the block Toeplitz matrix of the fault channel Markov parameters.
Estimating (x, f) jointly by ordinary least squares and projecting the
state out (Frisch-Waugh) leaves a least squares problem in f alone:

    f_hat = (Tp' Tp)^-1 Tp' r_window,    Tp = Tf - Q Q' Tf

with Q an orthonormal basis of range(O) from the thin SVD of O.  With
the Householder factor Tp = Qp R, Tp' Tp = R' R, so the newest n_f rows
of that map are E' R^-1 R^-T Tp', E the last n_f columns of the
identity: two triangular solves on n_f right-hand sides.  Only these
rows are formed, since the sliding runner reads nothing else.

The fault window can be told apart from the initial state exactly when
Tp has full column rank.  A smallest singular value of R at most 1e-10
of ||Tf||_F raises WindowRankError.  The scale is the unprojected Tf's:
when range(O) swallows the fault stack, Tp and R are rounding noise,
and a test relative to R alone would pass them.

Unlike the recursive inversion filter this estimator touches the whole
window every step, and its gain rows are dense rather than block
Toeplitz, so its per sample cost grows with L.  It serves as the
accuracy and cost baseline.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, WindowRankError
from .lti_core import (
    PredictorModel,
    block_toeplitz,
    extended_observability,
    markov_parameters,
)

__all__ = ["MheProblem", "build_mhe", "mhe_estimate", "run_mhe"]

# A singular value at most this fraction of its matrix's scale counts as
# zero: in the basis of range(O) and in the rank rule on R.
_RANK_TOL = 1e-10


@dataclass(eq=False)
class MheProblem:
    """Precomputed matrices of the windowed least squares estimator.

    ``gain_rows`` is the (n_f, L n_y) map from a stacked residual window
    to the fault estimate of its newest sample, which is what the
    sliding runner emits.
    """

    O: np.ndarray
    Tf: np.ndarray
    L: int
    gain_rows: np.ndarray = field(repr=False)

    @property
    def n_outputs(self) -> int:
        return self.Tf.shape[0] // self.L

    @property
    def n_faults(self) -> int:
        return self.Tf.shape[1] // self.L

    @property
    def n_states(self) -> int:
        return self.O.shape[1]


def _smallest_singular_value(R: np.ndarray, tol: float) -> float:
    """sigma_min of the upper triangular R (0 if wide), or its lower bound
    1/||R^-1||_F when that exceeds 2 tol, which spares the SVD."""
    if R.shape[0] < R.shape[1]:
        return 0.0
    from scipy.linalg.lapack import dtrtri  # deferred: a filter run needs no scipy
    Rinv, info = dtrtri(R)
    bound = 1.0 / np.linalg.norm(Rinv) if info == 0 else 0.0
    return bound if bound > 2.0 * tol else np.linalg.svd(R, compute_uv=False)[-1]


def build_mhe(pred: PredictorModel, L: int) -> MheProblem:
    """Assemble the window estimator of a predictor with a fault channel.

    Args:
        pred: PredictorModel with a fault channel; O and Tf are
            generated from it.
        L: window length in samples.

    Returns:
        MheProblem with O, Tf and the newest gain rows
        E' R^-1 R^-T Tp', R the Householder factor of Tf projected off
        range(O).

    Raises:
        WindowRankError: the projected fault stack lost column rank, so
            the window cannot tell the faults apart from the initial
            state (always so when n_f >= n_y and n >= 1, or for L = 1
            when n >= n_y).
    """
    if L < 1:
        raise ValidationError("window length must be positive")
    if pred.n_faults == 0:
        raise ValidationError("predictor has no fault channel")
    O = extended_observability(pred.Phi, pred.C, L)
    Tf = block_toeplitz(markov_parameters(pred, "f", L), L)

    U, s, _ = np.linalg.svd(O, full_matrices=False)
    Q = U[:, s > _RANK_TOL * s.max(initial=0.0)]
    Tp = Tf - Q @ (Q.T @ Tf)
    R = np.linalg.qr(Tp, mode="r")
    tol = _RANK_TOL * np.linalg.norm(Tf)
    s_min = _smallest_singular_value(R, tol)
    if not s_min > tol:
        raise WindowRankError(
            f"window inversion rank failure: fault Toeplitz matrix projected "
            f"off the initial state has numerical rank below {Tf.shape[1]} "
            f"(smallest singular value {s_min:.3g})")
    from scipy.linalg import solve_triangular  # deferred: a filter run needs no scipy
    E = np.eye(Tf.shape[1])[:, -pred.n_faults:]
    V = solve_triangular(R, solve_triangular(R, E, trans="T"))
    return MheProblem(O=O, Tf=Tf, L=L, gain_rows=V.T @ Tp.T)


def mhe_estimate(problem: MheProblem, r_window) -> np.ndarray:
    """Stacked fault estimates for one full residual window.

    The window covers samples k0 .. k0+L-1 oldest first, either stacked
    into one vector or as an (L, n_y) array; the returned vector stacks
    the per sample estimates the same way, so the last n_f entries
    estimate the newest sample.  It is the fault part of one joint least
    squares solve of [O Tf], the oracle of the gain rows.
    """
    r = np.asarray(r_window, dtype=float)
    L, ny = problem.L, problem.n_outputs
    if r.shape not in ((L * ny,), (L, ny)):
        raise ValidationError(
            f"window must stack {L * ny} residual entries or be an ({L}, {ny}) "
            f"array, got shape {r.shape}")
    Psi = np.hstack([problem.O, problem.Tf])
    return np.linalg.lstsq(Psi, r.reshape(-1), rcond=None)[0][problem.n_states:]


def run_mhe(problem: MheProblem, residuals) -> np.ndarray:
    """Slide the window over a residual series.

    Returns an (N, n_f) array whose row k is the newest-sample estimate
    from the window ending at k, computed for all windows at once as one
    FIR sweep per fault and residual channel.  The first L-1 rows are
    warm-up and carry NaN, the window not being filled yet.
    """
    R = np.atleast_2d(np.asarray(residuals, dtype=float))
    ny, nf, L = problem.n_outputs, problem.n_faults, problem.L
    if R.shape[1] != ny:
        raise ValidationError(f"residuals must have {ny} columns, got {R.shape[1]}")
    N = R.shape[0]
    out = np.full((N, nf), np.nan)
    if N < L:
        return out
    # Each newest-sample gain row is an L-tap FIR filter on each residual
    # channel: correlate every channel with its taps and sum.
    g = problem.gain_rows
    Rt = np.ascontiguousarray(R.T)
    for f in range(nf):
        out[L - 1:, f] = sum(np.correlate(Rt[a], g[f, a::ny], "valid") for a in range(ny))
    return out
