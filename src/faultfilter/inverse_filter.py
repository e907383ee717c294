"""Fault estimation by stabilized inversion of the fault channel.

Starting from the predictor form of a plant with fault directions
(Et, G), the open loop inverse feeds the measured output back into the
predictor and solves the output equation for the fault:

    x(k+1) = Phi1 x(k) + B1 y*(k)        Phi1 = Phi - Et Gp C
    f(k)   = C1 x(k) + D1 y*(k)          Gp   = (G^T G)^-1 G^T

where y* is the output deviation the inverse consumes.  Phi1 inherits
the invariant zeros of the fault channel as eigenvalues, so the plain
inverse diverges whenever a zero sits on or outside the unit circle.
The fix is an output injection: the part of the output equation the
fault cannot explain, C2 x + D2 y*, is white under correct inversion
and can be fed back through a gain Kr chosen to make
Phi2 = Phi1 - Kr C2 stable.  Only invariant zeros are immune to this
reshaping, which is exactly what :func:`invariant_zeros_stable` checks
before a design is attempted.

The end product is a compact filter that runs on raw (u, y) samples and
emits fault estimates; an equivalent double order cascade realization is
kept purely to validate the algebra.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import place_poles

from .errors import (
    FaultDirectionError,
    StabilizationError,
    ValidationError,
)
from .lti_core import (
    IOData,
    LinearSystem,
    PredictorModel,
    _CsvRows,
    _FMT,
    _as_matrix,
    dare_fixed_point,
    lti_recursion,
    spectral_radius,
)

__all__ = [
    "left_inverse",
    "residual_generator",
    "InverseMatrices",
    "open_loop_inverse",
    "invariant_zeros_stable",
    "stabilizing_gain",
    "closed_loop_inverse",
    "FaultEstimationFilter",
    "reduced_filter",
    "cascade_filter",
    "run_filter",
]


def left_inverse(G) -> np.ndarray:
    """Left inverse (G^T G)^-1 G^T of a full column rank matrix.

    Raises:
        FaultDirectionError: G has linearly dependent columns, so the
            faults are not separable at the outputs.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if G.shape[1] == 0:
        raise FaultDirectionError("fault direction matrix has no columns")
    s = np.linalg.svd(G, compute_uv=False)
    if s[-1] <= 1e-12 * s[0] or s[-1] == 0.0:
        raise FaultDirectionError(
            "fault direction rank deficient: columns of G are linearly "
            "dependent, faults cannot be separated at the outputs")
    return np.linalg.solve(G.T @ G, G.T)


def residual_generator(pred: PredictorModel) -> LinearSystem:
    """Innovation filter of a predictor, mapping stacked [u; y] to e(k).

    The output is the one step prediction error y(k) - C xh(k) - D u(k),
    white in the fault free case and carrying the filtered fault
    signature otherwise.
    """
    ny = pred.n_outputs
    return LinearSystem(
        A=pred.Phi,
        B=np.hstack([pred.Bt, pred.K]),
        C=-pred.C,
        D=np.hstack([-pred.D, np.eye(ny)]),
    )


@dataclass
class InverseMatrices:
    """Matrices of the open loop inverse and its unused output rows.

    (Phi1, B1, C1, D1) realize the inverse fault map; (C2, D2) pick out
    the part of the output equation orthogonal to the fault directions,
    which is what the stabilizing injection feeds on.  Gp is the left
    inverse of the fault direction matrix.
    """

    Phi1: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    D1: np.ndarray
    C2: np.ndarray
    D2: np.ndarray
    Gp: np.ndarray


def open_loop_inverse(pred: PredictorModel) -> InverseMatrices:
    """Direct inversion of the predictor's fault channel."""
    if pred.n_faults == 0:
        raise ValidationError("predictor has no fault channel to invert")
    G = pred.G
    Gp = left_inverse(G)
    C, Et = pred.C, pred.Et
    proj = np.eye(pred.n_outputs) - G @ Gp
    return InverseMatrices(
        Phi1=pred.Phi - Et @ Gp @ C,
        B1=Et @ Gp,
        C1=-Gp @ C,
        D1=Gp,
        C2=proj @ C,
        D2=G @ Gp,
        Gp=Gp,
    )


def _pbh_unobservable(Phi1, C2, lam, rtol=1e-8) -> bool:
    """True when ``lam`` is an unobservable mode of (Phi1, C2)."""
    n = Phi1.shape[0]
    stack = np.vstack([Phi1 - lam * np.eye(n), C2])
    s = np.linalg.svd(stack, compute_uv=False)
    return s[-1] <= rtol * max(1.0, s[0])


def _inverse_pair(Phi, Etilde, C, G):
    """(Phi1, C2) of the open loop inverse built from raw matrices."""
    Phi = _as_matrix(Phi, name="Phi")
    n = Phi.shape[0]
    C = _as_matrix(C, cols=n, name="C")
    G = _as_matrix(G, rows=C.shape[0], name="G")
    Etilde = _as_matrix(Etilde, rows=n, cols=G.shape[1], name="Etilde")
    Gp = left_inverse(G)
    Phi1 = Phi - Etilde @ Gp @ C
    C2 = (np.eye(C.shape[0]) - G @ Gp) @ C
    return Phi1, C2


def invariant_zeros_stable(Phi, Etilde, C, G, margin: float = 1e-6,
                           rtol: float = 1e-8):
    """Locate the fault channel's invariant zeros and test their stability.

    The zeros are the values where the pencil [[Phi - z I, Etilde],
    [C, G]] drops rank.  They coincide with the unobservable modes of
    the open loop inverse pair (Phi1, C2), so each eigenvalue of Phi1 is
    screened with a rank test on the stacked observability pencil; with
    as many faults as outputs C2 vanishes and every eigenvalue of Phi1
    is a zero.  Zeros this close to or outside the unit circle block any
    stable inversion, because output injection cannot move them.

    Args:
        Phi, Etilde, C, G: predictor fault channel matrices.
        margin: zeros of magnitude >= 1 - margin count as unstable; the
            guard band treats circle-touching zeros as failures.

    Returns:
        Tuple (ok, zeros): ``ok`` is True when every zero has magnitude
        below 1 - margin; ``zeros`` is a complex array sorted by
        magnitude (possibly empty).
    """
    Phi1, C2 = _inverse_pair(Phi, Etilde, C, G)
    lams, vecs = np.linalg.eig(Phi1)
    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond > 1e8:
        warnings.warn(
            f"zero computation ill conditioned (eigenvector condition {cond:.3g}); "
            "zero locations may be inaccurate", stacklevel=2)
    zeros = np.array([lam for lam in lams
                      if _pbh_unobservable(Phi1, C2, lam, rtol)], dtype=complex)
    if zeros.size:
        zeros = zeros[np.argsort(np.abs(zeros))]
    ok = bool(zeros.size == 0 or np.max(np.abs(zeros)) < 1.0 - margin)
    return ok, zeros


def stabilizing_gain(Phi1, C2, strategy: str = "riccati", poles=None,
                     rank_rtol: float = 1e-9) -> np.ndarray:
    """Output injection gain Kr making Phi1 - Kr C2 stable.

    Two strategies are offered.  ``riccati`` solves the filter Riccati
    equation of the pair (Phi1, C2) with identity weights; it succeeds
    for every detectable pair but the gain depends on the state basis.
    ``pole_placement`` assigns the closed loop spectrum directly, is
    insensitive to output scalings of C2 and needs a ``poles`` list of
    length n; rank deficient C2 is handled by placing on a row
    compressed copy.

    Raises:
        StabilizationError: an unstable mode of Phi1 is unobservable
            through C2 (an unstable invariant zero), pole placement
            failed on the pair, or the computed gain fails the closed
            loop stability check.
    """
    Phi1 = _as_matrix(Phi1, name="Phi1")
    n = Phi1.shape[0]
    C2 = _as_matrix(C2, cols=n, name="C2")

    blocked = [lam for lam in np.linalg.eigvals(Phi1)
               if abs(lam) >= 1.0 - 1e-9 and _pbh_unobservable(Phi1, C2, lam)]
    if blocked:
        listing = ", ".join(f"{lam:.6g}" for lam in blocked)
        raise StabilizationError(
            f"unstabilizable pair: modes [{listing}] are not strictly stable "
            "and unobservable through the healthy outputs (unstable invariant "
            "zeros); no injection gain exists")

    if strategy == "riccati":
        _, Kr, _ = dare_fixed_point(Phi1, C2, np.eye(n), np.eye(C2.shape[0]))
    elif strategy == "pole_placement":
        if poles is None:
            raise ValidationError("pole_placement needs an explicit pole list")
        poles = np.asarray(poles, dtype=float)
        if poles.shape != (n,):
            raise ValidationError(f"need exactly {n} poles, got shape {poles.shape}")
        if np.max(np.abs(poles)) >= 1.0:
            raise ValidationError("requested poles must lie inside the unit circle")
        U, s, Vt = np.linalg.svd(C2)
        r = int(np.sum(s > rank_rtol * max(1.0, s[0] if s.size else 0.0)))
        if r == 0:
            raise StabilizationError(
                "C2 is numerically zero; the inverse spectrum cannot be moved")
        W = U[:, :r] * s[:r]
        C2c = Vt[:r]
        try:
            placed = place_poles(Phi1.T, C2c.T, poles)
        except ValueError as exc:
            raise StabilizationError(
                f"pole placement failed on this pair ({exc}); the riccati "
                "strategy handles any detectable pair") from exc
        Kr = placed.gain_matrix.T @ np.linalg.pinv(W)
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")

    rho = spectral_radius(Phi1 - Kr @ C2)
    if rho >= 1.0:
        raise StabilizationError(
            f"computed gain leaves spectral radius {rho:.6g} >= 1")
    return Kr


def closed_loop_inverse(inv: InverseMatrices, Kr):
    """Stabilized inverse (Phi2, B2, C1, D1) after output injection.

    Only the state recursion changes: Phi2 = Phi1 - Kr C2 and
    B2 = B1 + Kr (I - D2); the fault readout (C1, D1) is untouched.
    """
    Kr = _as_matrix(Kr, rows=inv.Phi1.shape[0], cols=inv.C2.shape[0], name="Kr")
    Phi2 = inv.Phi1 - Kr @ inv.C2
    B2 = inv.B1 + Kr @ (np.eye(inv.D2.shape[0]) - inv.D2)
    return Phi2, B2, inv.C1, inv.D1


@dataclass
class FaultEstimationFilter:
    """Recursive fault estimator driven by raw plant inputs and outputs.

    One filter step is

        x(k+1) = Af x(k) + Bu u(k) + By y(k)
        fh(k)  = Cf x(k) + Du u(k) + Dy y(k)

    ``state`` is the internal x, advanced by :meth:`step` (the streaming
    path); :meth:`run` resets it first and leaves it where step would at
    the end of the record, so an instance serves one stream at a time.
    ``strategy`` records how the injection gain was chosen and travels
    with saved filter files.
    """

    Af: np.ndarray
    Bu: np.ndarray
    By: np.ndarray
    Cf: np.ndarray
    Du: np.ndarray
    Dy: np.ndarray
    strategy: str = "riccati"
    state: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.Af = _as_matrix(self.Af, name="Af")
        n = self.Af.shape[0]
        self.Bu = _as_matrix(self.Bu, rows=n, name="Bu")
        self.By = _as_matrix(self.By, rows=n, name="By")
        self.Cf = _as_matrix(self.Cf, cols=n, name="Cf")
        nf = self.Cf.shape[0]
        self.Du = _as_matrix(self.Du, rows=nf, cols=self.Bu.shape[1], name="Du")
        self.Dy = _as_matrix(self.Dy, rows=nf, cols=self.By.shape[1], name="Dy")
        self.reset(self.state)

    @property
    def n_states(self) -> int:
        return self.Af.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.Bu.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.By.shape[1]

    @property
    def n_faults(self) -> int:
        return self.Cf.shape[0]

    def reset(self, x0=None) -> None:
        """Set the internal state (zero when omitted)."""
        if x0 is None:
            self.state = np.zeros(self.n_states)
        else:
            self.state = np.asarray(x0, dtype=float).reshape(self.n_states).copy()

    def step(self, u, y) -> np.ndarray:
        """Advance one sample and return the fault estimate at it."""
        u = np.asarray(u, dtype=float).reshape(self.n_inputs)
        y = np.asarray(y, dtype=float).reshape(self.n_outputs)
        fh = self.Cf @ self.state + self.Du @ u + self.Dy @ y
        self.state = self.Af @ self.state + self.Bu @ u + self.By @ y
        return fh

    def step_matrix(self) -> np.ndarray:
        """Combined update [[Af Bu By], [Cf Du Dy]] for one matvec per step."""
        return np.block([[self.Af, self.Bu, self.By],
                         [self.Cf, self.Du, self.Dy]])

    def as_system(self) -> LinearSystem:
        """Stateless state space view with stacked input [u; y]."""
        return LinearSystem(self.Af, np.hstack([self.Bu, self.By]),
                            self.Cf, np.hstack([self.Du, self.Dy]))

    def run(self, u, y, x0=None) -> np.ndarray:
        """Fault estimates over aligned input and output records."""
        U = np.atleast_2d(np.asarray(u, dtype=float))
        Y = np.atleast_2d(np.asarray(y, dtype=float))
        if U.shape[0] != Y.shape[0]:
            raise ValidationError("u and y must have equal length")
        if U.shape[1] != self.n_inputs or Y.shape[1] != self.n_outputs:
            raise ValidationError(
                f"expected widths ({self.n_inputs}, {self.n_outputs}), "
                f"got ({U.shape[1]}, {Y.shape[1]})")
        self.reset(x0)
        out, self.state = lti_recursion(
            self.Af, np.hstack([self.Bu, self.By]), self.Cf,
            np.hstack([self.Du, self.Dy]), np.hstack([U, Y]), self.state)
        return out

    def to_csv(self, path) -> None:
        """Save the filter as a labeled matrix bundle."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "n_u", "n_y", "n_f", "strategy"])
            w.writerow([self.n_states, self.n_inputs, self.n_outputs,
                        self.n_faults, self.strategy])
            for name in ("Af", "Bu", "By", "Cf", "Du", "Dy"):
                M = getattr(self, name)
                w.writerow(["matrix", name, M.shape[0], M.shape[1]])
                for row in M:
                    w.writerow([_FMT % v for v in row])

    @classmethod
    def from_csv(cls, path) -> "FaultEstimationFilter":
        rows = _CsvRows(path)
        if (len(rows) < 2 or rows[0] != ["n", "n_u", "n_y", "n_f", "strategy"]
                or len(rows[1]) != 5):
            raise rows.error("not a filter bundle (bad manifest)")
        strategy = rows[1][4]
        mats = {}
        i = 2
        while i < len(rows):
            tag = rows[i]
            if len(tag) != 4 or tag[0] != "matrix":
                raise rows.error(f"expected a matrix header at row {i + 1}")
            name, (nr, nc) = tag[1], rows.sizes(i, slice(2, 4))
            if i + 1 + nr > len(rows):
                raise rows.error(f"truncated matrix {name}")
            mats[name] = rows.floats(i + 1, i + 1 + nr, nc)
            i += 1 + nr
        missing = {"Af", "Bu", "By", "Cf", "Du", "Dy"} - set(mats)
        if missing:
            raise rows.error(f"missing matrices {sorted(missing)}")
        return cls(strategy=strategy, **mats)


def reduced_filter(pred: PredictorModel, Kr,
                   strategy: str = "riccati") -> FaultEstimationFilter:
    """Assemble the n-state fault estimation filter from a predictor.

    Folds the predictor and the stabilized inverse into one recursion on
    raw (u, y) samples; the state transition is exactly Phi1 - Kr C2.
    ``strategy`` only records how the gain was produced; Kr itself must
    already be stabilizing (see :func:`stabilizing_gain`).
    """
    inv = open_loop_inverse(pred)
    Kr = _as_matrix(Kr, rows=inv.Phi1.shape[0], cols=pred.n_outputs, name="Kr")
    G, Gp = pred.G, inv.Gp
    proj = np.eye(pred.n_outputs) - G @ Gp
    Bf = pred.Bt - pred.Et @ Gp @ pred.D
    Df2 = proj @ pred.D
    Kf = pred.K + pred.Et @ Gp
    return FaultEstimationFilter(
        Af=inv.Phi1 - Kr @ inv.C2,
        Bu=Bf - Kr @ Df2,
        By=Kf + Kr @ proj,
        Cf=inv.C1,
        Du=-Gp @ pred.D,
        Dy=inv.D1,
        strategy=strategy,
    )


def cascade_filter(pred: PredictorModel, Kr) -> LinearSystem:
    """Two stage realization: residual generator into the stabilized inverse.

    State is the stacked pair (inverse state, predictor state) with
    input [u; y].  Algebraically equivalent to :func:`reduced_filter`
    whenever the reduced filter starts at the sum of the two partial
    states; the doubled order makes it a cross check, not a production
    filter.
    """
    inv = open_loop_inverse(pred)
    Phi2, B2, C1, D1 = closed_loop_inverse(inv, Kr)
    n = pred.n_states
    C, D = pred.C, pred.D
    A = np.block([[Phi2, -B2 @ C], [np.zeros((n, n)), pred.Phi]])
    B = np.block([[-B2 @ D, B2], [pred.Bt, pred.K]])
    Cc = np.hstack([C1, -D1 @ C])
    Dc = np.hstack([-D1 @ D, D1])
    return LinearSystem(A, B, Cc, Dc)


def run_filter(filt: FaultEstimationFilter, data: IOData, x_f0=None) -> np.ndarray:
    """Run a filter over a recorded experiment.

    Returns the (N, n_f) fault estimate series; the filter's internal
    state is left at its end-of-record value.
    """
    return filt.run(data.u, data.y, x0=x_f0)
