"""Moving horizon least squares fault estimation over residual windows.

Over a window of L residual samples the innovation filter output obeys

    r_window = O x(k0) + Tf f_window + e_window

with O the extended observability matrix of the residual dynamics and
Tf the block Toeplitz matrix of the fault channel Markov parameters.
Estimating (x, f) jointly by ordinary least squares and eliminating the
state via the Schur complement gives a single linear map from the
residual window to the fault window:

    f_hat = [Gp - Gp O Delta^+ Y] r_window

where Gp = (Tf' Tf)^-1 Tf', Y = O' (I - Tf Gp) and Delta = Y O; the
state correction enters with a minus sign from the back substitution
f = Gp (r - O x), x = Delta^+ Y r.  The pseudo-inverse handles the rank
deficient Delta that occurs whenever state and fault contributions are
not separately identifiable; any minimizer yields the same fitted
residual.

Gp comes from the Householder factor Tf = Q R that certifies full column
rank: Tf' Tf = R' R, so Gp = R^-1 R^-T Tf' from the inverted triangle
the certificate already holds.  When the certificate does not hold, an
SVD rank test runs and Gp solves the normal equations.

Unlike the recursive inversion filter this estimator touches the whole
window every step, and its gain is dense rather than block Toeplitz,
so its per sample cost grows with L.  It serves as the accuracy and cost
baseline.
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


@dataclass
class MheProblem:
    """Precomputed matrices of the windowed least squares estimator.

    ``gain`` is the composite map from a stacked residual window to the
    stacked fault window; its last block row estimates the newest
    sample, which is what the sliding runner emits.
    """

    O: np.ndarray
    Tf: np.ndarray
    L: int
    gain: np.ndarray = field(repr=False)

    @property
    def n_outputs(self) -> int:
        return self.Tf.shape[0] // self.L

    @property
    def n_faults(self) -> int:
        return self.Tf.shape[1] // self.L

    @property
    def n_states(self) -> int:
        return self.O.shape[1]


# Certify full column rank only when cond2(Tf) <= 1e6, four decades inside
# the 1e-10 relative cutoff of the SVD rule in build_mhe.  A backward
# stable SVD moves each singular value by ~m n u sigma_max (u = 1.1e-16),
# so the rule cannot fire on a certified matrix.
_RANK_CERT_COND = 1e6
# c in the constants c m n u and c n u of the two bounds below; the proofs
# give a small integer c, and 100 leaves room for blocked LAPACK
# variants at no cost in certificates.
_RANK_CERT_C = 100.0


def _certified_inverse_factor(Tf: np.ndarray):
    """R^-1 of a Householder QR that proves cond2(Tf) <= ``_RANK_CERT_COND``.

    Householder QR is backward stable: Tf + dA = Q R exactly, with Q
    orthogonal and ||dA||_2 <= ||dA||_F <= g ||Tf||_F, g = c m n u
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    thm 19.4).  So sigma_min(Tf) >= sigma_min(R) - g ||Tf||_F.  The
    computed inverse X of the triangle R obeys
    ||X - R^-1||_F <= t ||R^-1||_F with t = c n u ||R||_F ||X||_F (ch. 14),
    so sigma_min(R) >= 1 / ||R^-1||_F >= (1 - t) / ||X||_F.  With
    sigma_max(Tf) <= ||Tf||_F this bounds cond2(Tf).  Certifying needs
    ||Tf||_F ||X||_F <~ 1e6, which keeps t below ~1e-8 n (1e-6 at
    n = 100): in that region X is accurate.  Rounding of these few scalars is relative
    O(n u), far inside the slack.  None means no certificate, not rank
    loss; a wide Tf, a singular or non-finite X never certifies.
    """
    m, n = Tf.shape
    if m < n:
        return None
    from scipy.linalg.lapack import dtrtri  # deferred: a filter run needs no scipy
    R = np.linalg.qr(Tf, mode="r")
    X, info = dtrtri(R)
    if info != 0:
        return None
    u = np.finfo(float).eps / 2
    hi = np.linalg.norm(Tf)
    x = np.linalg.norm(X)
    t = _RANK_CERT_C * n * u * np.linalg.norm(R) * x
    lo = (1.0 - t) / x - _RANK_CERT_C * m * n * u * hi
    return X if hi <= _RANK_CERT_COND * lo else None


def _full_rank_certified(Tf: np.ndarray) -> bool:
    """Whether the QR certificate of ``_certified_inverse_factor`` holds."""
    return _certified_inverse_factor(Tf) is not None


def build_mhe(pred: PredictorModel, L: int) -> MheProblem:
    """Assemble the window estimator of a predictor with a fault channel.

    Args:
        pred: PredictorModel with a fault channel; O and Tf are
            generated from it.
        L: window length in samples.

    Returns:
        MheProblem with O, Tf and the composite residual-to-fault gain.
        Its left inverse Gp = R^-1 R^-T Tf' reuses the Householder factor
        of the rank certificate; without a certificate Gp solves the
        normal equations (Tf' Tf) Gp = Tf'.

    Raises:
        WindowRankError: the fault Toeplitz matrix lost column rank, so
            no left inverse of the fault stack exists.
    """
    if L < 1:
        raise ValidationError("window length must be positive")
    if pred.n_faults == 0:
        raise ValidationError("predictor has no fault channel")
    O = extended_observability(pred.Phi, pred.C, L)
    Tf = block_toeplitz(markov_parameters(pred, "f", L), L)

    X = _certified_inverse_factor(Tf)
    if X is not None:
        Gp = X @ (X.T @ Tf.T)
    else:
        # a wide Tf has fewer singular values than columns: the missing
        # ones are zero
        s = np.linalg.svd(Tf, compute_uv=False)
        s_min = s[-1] if len(s) == Tf.shape[1] else 0.0
        if s_min <= 1e-10 * s[0]:
            raise WindowRankError(
                f"window inversion rank failure: fault Toeplitz matrix has "
                f"numerical rank below {Tf.shape[1]} (smallest singular value "
                f"{s_min:.3g})")
        Gp = np.linalg.solve(Tf.T @ Tf, Tf.T)
    # The state correction has rank <= n, so it stays factored:
    # Y = O' (I - Tf Gp) is n x L n_y, Delta = Y O, and no L n_y square
    # matrix is formed.
    Y = O.T - (O.T @ Tf) @ Gp
    Delta = Y @ O
    # Delta = O' (I - P) O with P an orthogonal projector, so it is PSD
    # and bounded by O' O.  Cut its spectrum relative to that bound: a
    # direction the window cannot identify produces Delta = 0 up to
    # rounding, and a cutoff relative to Delta's own noise floor (what a
    # plain pinv uses) would amplify that rounding into the gain.
    w, V = np.linalg.eigh(0.5 * (Delta + Delta.T))
    scale = max(np.linalg.norm(O.T @ O, 2), np.finfo(float).tiny)
    inv_w = np.where(w > 1e-12 * scale, 1.0 / np.maximum(w, scale * 1e-300), 0.0)
    # Minus sign from back substitution: f = Gp (r - O x) once the state
    # estimate x = Delta^+ Y r is plugged in.
    gain = Gp - ((Gp @ O) @ ((V * inv_w) @ V.T)) @ Y
    return MheProblem(O=O, Tf=Tf, L=L, gain=gain)


def mhe_estimate(problem: MheProblem, r_window) -> np.ndarray:
    """Stacked fault estimates for one full residual window.

    The window covers samples k0 .. k0+L-1 oldest first; the returned
    vector stacks the per sample estimates the same way, so the last
    n_f entries estimate the newest sample.
    """
    r = np.asarray(r_window, dtype=float).reshape(-1)
    if r.shape[0] != problem.Tf.shape[0]:
        raise ValidationError(
            f"window must stack {problem.Tf.shape[0]} residual entries, "
            f"got {r.shape[0]}")
    return problem.gain @ r


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
    # The newest-sample row of the gain is an L-tap FIR filter on each
    # residual channel: correlate every channel with its taps and sum.
    g = problem.gain[-nf:]
    Rt = np.ascontiguousarray(R.T)
    for f in range(nf):
        out[L - 1:, f] = sum(np.correlate(Rt[a], g[f, a::ny], "valid") for a in range(ny))
    return out
