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
emits fault estimates; the tests check it against an equivalent double
order cascade realization.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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
    _as_matrix,
    _write_csv,
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
    "FaultEstimationFilter",
    "reduced_filter",
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
    which is what the stabilizing injection feeds on.  D1 is the left
    inverse Gp of the fault direction matrix.
    """

    Phi1: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    D1: np.ndarray
    C2: np.ndarray
    D2: np.ndarray


def _inverse_matrices(Phi, Et, C, G) -> InverseMatrices:
    """The open loop inverse of the fault channel (Phi, Et, C, G)."""
    Gp = left_inverse(G)
    D2 = G @ Gp
    return InverseMatrices(
        Phi1=Phi - Et @ Gp @ C,
        B1=Et @ Gp,
        C1=-Gp @ C,
        D1=Gp,
        C2=(np.eye(C.shape[0]) - D2) @ C,
        D2=D2,
    )


def open_loop_inverse(pred: PredictorModel) -> InverseMatrices:
    """Direct inversion of the predictor's fault channel."""
    return _inverse_matrices(pred.Phi, pred.Et, pred.C, pred.G)


_PBH_RANK = 1e-8  # PBH ratio at or below which a mode counts as unobservable
# too near _PBH_RANK to trust: true defective zeros gave <= 1.1e-15, and
# observable modes 1e-11 to 1e-9 when miscounted, >= 9.2e-7 otherwise
_PBH_AMBIGUOUS = (1e-12, 1e-7)


def _pbh_ratio(Phi1, C2, lam) -> float:
    """s_min / max(1, s_max) of [Phi1 - lam I; C2], small at an unobservable mode."""
    n = Phi1.shape[0]
    stack = np.vstack([Phi1 - lam * np.eye(n), C2])
    s = np.linalg.svd(stack, compute_uv=False)
    return s[-1] / max(1.0, s[0])


def invariant_zeros_stable(Phi, Etilde, C, G):
    """Locate the fault channel's invariant zeros and test their stability.

    The zeros are the values where the pencil [[Phi - z I, Etilde],
    [C, G]] drops rank.  They coincide with the unobservable modes of
    the open loop inverse pair (Phi1, C2), so each eigenvalue of Phi1 is
    screened with a rank test on the stacked observability pencil; with
    as many faults as outputs C2 vanishes and every eigenvalue of Phi1
    is a zero.  Zeros this close to or outside the unit circle block any
    stable inversion, because output injection cannot move them.  A
    warning names each eigenvalue whose PBH ratio s_min / max(1, s_max)
    lies in (1e-12, 1e-7], too near the 1e-8 rank threshold to trust.

    Args:
        Phi, Etilde, C, G: predictor fault channel matrices.

    Returns:
        Tuple (ok, zeros): ``ok`` is True when every zero has magnitude
        below 1 - 1e-6, a guard band that treats circle-touching zeros
        as failures; ``zeros`` is a complex array sorted by magnitude
        (possibly empty).
    """
    Phi = _as_matrix(Phi, name="Phi")
    n = Phi.shape[0]
    _as_matrix(Phi, cols=n, name="Phi")
    C = _as_matrix(C, cols=n, name="C")
    G = _as_matrix(G, rows=C.shape[0], name="G")
    Etilde = _as_matrix(Etilde, rows=n, cols=G.shape[1], name="Etilde")
    inv = _inverse_matrices(Phi, Etilde, C, G)
    lams = np.linalg.eig(inv.Phi1)[0]
    ratios = np.array([_pbh_ratio(inv.Phi1, inv.C2, lam) for lam in lams])
    low, high = _PBH_AMBIGUOUS
    unsure = (ratios > low) & (ratios <= high)
    if unsure.any():
        listing = ", ".join(f"{lam:.6g} ({r:.3g})"
                            for lam, r in zip(lams[unsure], ratios[unsure]))
        warnings.warn(
            f"zero computation ill conditioned: modes [{listing}] have PBH "
            f"ratios near the rank threshold {_PBH_RANK:g}; the zero count "
            "may be wrong", stacklevel=2)
    zeros = np.asarray(lams[ratios <= _PBH_RANK], dtype=complex)
    if zeros.size:
        zeros = zeros[np.argsort(np.abs(zeros))]
    ok = bool(zeros.size == 0 or np.max(np.abs(zeros)) < 1.0 - 1e-6)
    return ok, zeros


def _real_stable_poles(poles) -> np.ndarray:
    """Requested closed loop poles as a 1-D float array.

    Raises:
        ValidationError: the list is not one-dimensional, or a pole is
            not a real number, not finite or not inside the unit circle;
            the message names the first such pole.
    """
    poles = np.asarray(poles, dtype=complex)
    if poles.ndim != 1:
        raise ValidationError(f"poles must be a flat list, got shape {poles.shape}")
    bad = poles[(poles.imag != 0) | ~(np.abs(poles) < 1.0)]
    if bad.size:
        p = bad[0].real if bad[0].imag == 0 else bad[0]
        raise ValidationError(f"requested pole {p:g} is not a real number "
                              "inside the unit circle")
    return poles.real


def _place_rank1(A, b, poles) -> np.ndarray:
    """Gain g with eig(A - b g) = poles for one input column b (KNV 1985).

    A single input leaves no freedom: the closed loop eigenvector for
    pole p spans the null space of u1^T (A - p I), where [u0 u1] is the
    full QR basis of b.  X holds these eigenvectors, one per pole, from
    one batched SVD; M = X diag(poles) X^-1 is the closed loop matrix
    and g solves u0^T (A - M) = z00 g.

    Raises:
        ValueError: X is singular by numpy's matrix_rank rule, so no
            gain places the poles (a mode of A that b cannot move).
    """
    q, z = np.linalg.qr(b, "complete")
    u0, u1 = q[:, :1], q[:, 1:]
    X = np.linalg.svd((u1.T @ A)[None] - poles[:, None, None] * u1.T)[2][:, -1].T
    s = np.linalg.svd(X, compute_uv=False)
    if s[-1] <= len(s) * np.finfo(float).eps * s[0]:
        raise ValueError("singular eigenvector matrix: a mode the healthy "
                         "outputs do not see cannot be moved")
    M = np.linalg.solve(X.T, poles[:, None] * X.T).T
    return (u0.T @ (A - M)) / z[0, 0]


def stabilizing_gain(Phi1, C2, strategy: str = "riccati", poles=None) -> np.ndarray:
    """Output injection gain Kr making Phi1 - Kr C2 stable.

    Two strategies are offered.  ``riccati`` solves the filter Riccati
    equation of the pair (Phi1, C2) with identity weights; it succeeds
    for every detectable pair but the gain depends on the state basis.
    ``pole_placement`` assigns the closed loop spectrum directly, is
    insensitive to output scalings of C2 and needs a ``poles`` list of
    n real values inside the unit circle.  It places on a row
    compressed copy C2c of C2, of rank r.  With r = 1 the gain is unique
    and has a closed form, computed here with numpy; r >= 2 leaves
    freedom that ``scipy.signal.place_poles`` spends on a well
    conditioned eigenvector basis (Yang-Tits), so only that case
    imports ``scipy.signal``.  A pole may be repeated at most r times.

    Raises:
        ValidationError: a bad strategy or pole list.
        StabilizationError: an unstable mode of Phi1 is unobservable
            through C2 (an unstable invariant zero), pole placement
            failed on the pair (a pole repeated more than r times, or
            no gain reaches the poles), or the computed gain fails the
            closed loop stability check.
    """
    Phi1 = _as_matrix(Phi1, name="Phi1")
    n = Phi1.shape[0]
    _as_matrix(Phi1, cols=n, name="Phi1")
    C2 = _as_matrix(C2, cols=n, name="C2")

    blocked = [lam for lam in np.linalg.eigvals(Phi1)
               if abs(lam) >= 1.0 - 1e-9 and _pbh_ratio(Phi1, C2, lam) <= _PBH_RANK]
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
        poles = _real_stable_poles(poles)
        if poles.shape != (n,):
            raise ValidationError(f"need exactly {n} poles, got shape {poles.shape}")
        U, s, Vt = np.linalg.svd(C2)
        r = int(np.sum(s > 1e-9 * max(1.0, s[0] if s.size else 0.0)))
        if r == 0:
            raise StabilizationError(
                "C2 is numerically zero; the inverse spectrum cannot be moved")
        C2c = Vt[:r]
        values, counts = np.unique(poles, return_counts=True)
        try:
            if counts.max() > r:
                raise ValueError(f"pole {values[counts.argmax()]:g} is requested "
                                 f"{counts.max()} times, more than rank(C2) = {r}")
            if r == 1:
                gain = _place_rank1(Phi1.T, C2c.T, poles)
            else:
                from scipy.signal import place_poles  # ~0.5 s to import
                gain = place_poles(Phi1.T, C2c.T, poles).gain_matrix
        except ValueError as exc:
            raise StabilizationError(
                f"pole placement failed on this pair ({exc}); the riccati "
                "strategy handles any detectable pair") from exc
        # C2 = W C2c with W = U_r diag(s_r); W's columns are orthogonal, so
        # diag(1 / s_r) U_r^T is its exact pseudo-inverse
        Kr = gain.T @ (U[:, :r] / s[:r]).T
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")

    rho = spectral_radius(Phi1 - Kr @ C2)
    if rho >= 1.0:
        raise StabilizationError(
            f"computed gain leaves spectral radius {rho:.6g} >= 1")
    return Kr


_MATRICES = ("Af", "Bu", "By", "Cf", "Du", "Dy")
_FIXED = (*_MATRICES, "state")  # set only at construction (state: by reset)


@dataclass
class FaultEstimationFilter:
    """Recursive fault estimator driven by raw plant inputs and outputs.

    One filter step is

        x(k+1) = Af x(k) + Bu u(k) + By y(k)
        fh(k)  = Cf x(k) + Du u(k) + Dy y(k)

    which :meth:`step` computes as one matvec of the step matrix
    M = [[Af Bu By], [Cf Du Dy]], built once, with a work vector
    [x; u; y].  The six matrices are read-only views of M: assigning one
    raises AttributeError, editing one in place raises ValueError.
    ``state`` is the live x, a view of the work vector (copy it to keep
    a value) that only :meth:`reset` sets.  :meth:`run` resets the
    state and leaves it where step would at the end of the record, so
    an instance serves one stream at a time; copies and pickles get
    their own work vector and continue the stream.  ``strategy`` records
    how the injection gain was chosen and travels with saved files.
    """

    Af: np.ndarray
    Bu: np.ndarray
    By: np.ndarray
    Cf: np.ndarray
    Du: np.ndarray
    Dy: np.ndarray
    strategy: str = "riccati"

    def __post_init__(self):
        mats = [_as_matrix(getattr(self, k), name=k) for k in _MATRICES]
        Af, Bu, By, Cf, Du, Dy = mats
        n, nu, ny, nf = Af.shape[0], Bu.shape[1], By.shape[1], Cf.shape[0]
        shapes = [(n, n), (n, nu), (n, ny), (nf, n), (nf, nu), (nf, ny)]
        for k, A, shape in zip(_MATRICES, mats, shapes):
            _as_matrix(A, *shape, name=k)
        M = np.block([[Af, Bu, By], [Cf, Du, Dy]])
        M.flags.writeable = False
        ku, ky = slice(n, n + nu), slice(n + nu, None)
        d = self.__dict__
        d["Af"], d["Bu"], d["By"] = M[:n, :n], M[:n, ku], M[:n, ky]
        d["Cf"], d["Du"], d["Dy"] = M[n:, :n], M[n:, ku], M[n:, ky]
        v = np.zeros(n + nu + ny)
        d["state"] = v[:n]
        d["_work"] = (M, v, v[:n], n, ku, ky, (nu,), (ny,))  # what step() unpacks

    def __setattr__(self, name, value):
        if name in _FIXED and "_work" in self.__dict__:
            raise AttributeError(f"cannot assign {name}: a built filter is fixed; "
                                 "build a new one, or reset(x0) to set the state")
        object.__setattr__(self, name, value)

    def __reduce__(self):  # copies and pickles are built anew and continue the stream
        return (type(self), (*(getattr(self, k) for k in _MATRICES), self.strategy),
                self.state.copy())

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
        x = self.state
        x[:] = 0.0 if x0 is None else np.asarray(x0, dtype=float).reshape(x.shape)

    __setstate__ = reset

    def step(self, u, y) -> np.ndarray:
        """Advance one sample and return the fault estimate at it."""
        M, v, x, n, ku, ky, su, sy = self._work
        if not (type(u) is type(y) is np.ndarray and u.shape == su and y.shape == sy):
            u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
            if u.size != su[0] or y.size != sy[0]:
                raise ValidationError(f"expected widths ({su[0]}, {sy[0]}), "
                                      f"got ({u.size}, {y.size})")
            u, y = u.reshape(su), y.reshape(sy)
        v[ku] = u
        v[ky] = y
        out = M.dot(v)
        x[:] = out[:n]
        return out[n:]

    def step_matrix(self) -> np.ndarray:
        """A fresh copy of the combined update [[Af Bu By], [Cf Du Dy]]."""
        return self._work[0].copy()

    def as_system(self) -> LinearSystem:
        """Stateless state space view with stacked input [u; y]."""
        M, n = self._work[0], self.n_states
        return LinearSystem(self.Af, M[:n, n:], self.Cf, M[n:, n:])

    def run(self, u, y, x0=None) -> np.ndarray:
        """Fault estimates over aligned records, read as :class:`IOData` reads them."""
        data = IOData(u, y)
        if (data.n_inputs, data.n_outputs) != (self.n_inputs, self.n_outputs):
            raise ValidationError(
                f"expected widths ({self.n_inputs}, {self.n_outputs}), "
                f"got ({data.n_inputs}, {data.n_outputs})")
        self.reset(x0)
        M, n = self._work[0], self.n_states
        out, x_end = lti_recursion(self.Af, M[:n, n:], self.Cf, M[n:, n:],
                                   np.hstack([data.u, data.y]), self.state)
        self.state[:] = x_end
        return out

    def to_csv(self, path) -> None:
        """Save the filter as a labeled matrix bundle."""
        parts = [[["n", "n_u", "n_y", "n_f", "strategy"],
                  [self.n_states, self.n_inputs, self.n_outputs, self.n_faults,
                   self.strategy]]]
        for name in _MATRICES:
            M = getattr(self, name)
            parts += [[["matrix", name, *M.shape]], M]
        _write_csv(path, *parts)

    @classmethod
    def from_csv(cls, path) -> "FaultEstimationFilter":
        """Read a bundle written by :meth:`to_csv`.

        A nan or inf entry, a missing, repeated or unknown matrix, or a
        matrix shape the manifest sizes do not give is a ValidationError
        naming the file.
        """
        rows = _CsvRows(path)
        if (len(rows) < 2 or rows[0] != ["n", "n_u", "n_y", "n_f", "strategy"]
                or len(rows[1]) != 5):
            raise rows.error("not a filter bundle (bad manifest)")
        n, nu, ny, nf = rows.sizes(1, slice(0, 4))
        shapes = dict(zip(_MATRICES, [(n, n), (n, nu), (n, ny), (nf, n), (nf, nu), (nf, ny)]))
        mats = {}
        i = 2
        while i < len(rows):
            tag = rows[i]
            if len(tag) != 4 or tag[0] != "matrix":
                raise rows.error(f"expected a matrix header at row {i + 1}")
            name, (nr, nc) = tag[1], rows.sizes(i, slice(2, 4))
            if name not in shapes or name in mats:
                raise rows.error(f"row {i + 1}: unexpected or repeated matrix {name!r}")
            if (nr, nc) != shapes[name]:
                raise rows.error(f"row {i + 1}: matrix {name} is {nr} x {nc}, the "
                                 "manifest sizes give {} x {}".format(*shapes[name]))
            if i + 1 + nr > len(rows):
                raise rows.error(f"truncated matrix {name}")
            mats[name] = rows.floats(i + 1, i + 1 + nr, nc, f"matrix {name}")
            i += 1 + nr
        if len(mats) < len(_MATRICES):
            raise rows.error(f"missing matrices {sorted(set(_MATRICES) - set(mats))}")
        return cls(strategy=rows[1][4], **mats)


def _inverse_system(pred: PredictorModel) -> LinearSystem:
    """The open loop inverse folded onto raw samples z = [u; y].

    Its outputs are the fault estimate and the healthy-output residual
    q = (I - G Gp)(y - C x - D u), the part of the output equation the
    fault cannot explain.  The Markov parameters of this system are the
    window blocks W_i = [R_i; Q_i] of the data-driven design.
    """
    inv = open_loop_inverse(pred)
    D, Gp = pred.D, inv.D1
    proj = np.eye(pred.n_outputs) - inv.D2
    return LinearSystem(
        A=inv.Phi1,
        B=np.hstack([pred.Bt - inv.B1 @ D, pred.K + inv.B1]),
        C=np.vstack([inv.C1, -inv.C2]),
        D=np.block([[-Gp @ D, Gp], [-(proj @ D), proj]]),
    )


def _injected_filter(inv: LinearSystem, n_f: int, Kr,
                     strategy: str) -> FaultEstimationFilter:
    """The filter x(k+1) = A x + B z + Kr q, fh = C_f x + D_f z.

    ``inv`` is a folded inverse on z = [u; y] whose first ``n_f`` output
    rows are the fault estimate fh and whose remaining n_y rows are the
    healthy-output residual q.  Both design routes end here.
    """
    n_y = inv.C.shape[0] - n_f
    n_u = inv.B.shape[1] - n_y
    Kr = _as_matrix(Kr, rows=inv.A.shape[0], cols=n_y, name="Kr")
    Bz = inv.B + Kr @ inv.D[n_f:]
    return FaultEstimationFilter(
        Af=inv.A + Kr @ inv.C[n_f:],
        Bu=Bz[:, :n_u],
        By=Bz[:, n_u:],
        Cf=inv.C[:n_f],
        Du=inv.D[:n_f, :n_u],
        Dy=inv.D[:n_f, n_u:],
        strategy=strategy,
    )


def reduced_filter(pred: PredictorModel, Kr,
                   strategy: str = "riccati") -> FaultEstimationFilter:
    """Assemble the n-state fault estimation filter from a predictor.

    Folds the predictor and the stabilized inverse into one recursion on
    raw (u, y) samples; the state transition is exactly Phi1 - Kr C2.
    ``strategy`` only records how the gain was produced; Kr itself must
    already be stabilizing (see :func:`stabilizing_gain`).
    """
    return _injected_filter(_inverse_system(pred), pred.n_faults, Kr, strategy)


def run_filter(filt: FaultEstimationFilter, data: IOData) -> np.ndarray:
    """Run a filter over a recorded experiment.

    Returns the (N, n_f) fault estimate series from the zero filter
    state; the filter's internal state is left at its end-of-record
    value.
    """
    return filt.run(data.u, data.y)
