"""Direct data-driven synthesis of the fault estimation filter.

Everything the model-based inversion needs can be rebuilt from the
identified predictor Markov parameters without ever forming a plant
model.  The pipeline is:

  1. expand the identified input/output blocks into fault channel
     blocks H_i^f and innovation-from-data blocks H_i^z,
  2. solve T(N) X = stack(H^z) once, T(N) the unit lower block Toeplitz
     matrix of {I, H_1^f G_0, H_2^f G_0, ...} with G_0 = (H_0^f)^-,
  3. read off the window weights R_i = G_0 X_i (the left inverse {G_i}
     convolved with {H_i^z}) and complements Q_i = (I - H_0^f G_0) X_i;
     the stacked {W_i} are the Markov parameters of the open loop inverse
     plus the unused output rows, driven by [u; y],
  4. compress the {W_i} Hankel matrix by SVD into a minimal state space
     realization, then stabilize and assemble exactly as in the model
     based path.

The Ho-Kalman core is shared with the plant realization used by the
identified-model baseline.
"""
from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import FaultDirectionError, FaultFilterError, ValidationError, rewrap
from .inverse_filter import (
    FaultEstimationFilter,
    _real_stable_poles,
    assemble_filter,
    left_inverse,
)
from .lti_core import (
    LinearSystem,
    PredictorModel,
    _as_int,
    _read_only,
    _sensor_list,
    block_hankel,
    block_toeplitz,
)
from .sysid_markov import IdentifiedXi

__all__ = [
    "fault_markov",
    "z_markov",
    "inverse_markov",
    "convolve_R",
    "convolve_Q",
    "DesignConfig",
    "ho_kalman",
    "realize",
    "assemble_filter",
    "predictor_from_xi",
    "design_filter_from_xi",
]

# {xi: {design key: realized inverse}}, weakly keyed; a xi is fixed once built
_REALIZED = weakref.WeakKeyDictionary()


def fault_markov(Hy: np.ndarray, sensor, L: int = None) -> np.ndarray:
    """Fault channel Markov parameters of the given sensors.

    A fault on sensor j feeds through with the j-th identity column and
    afterwards propagates exactly like the (negated) output channel:
    H_0^f = I[:, j], H_i^f = -H_i^y[:, j].

    Args:
        Hy: output channel blocks starting at lag 1 (H_1^y first), as
            stored on :class:`~faultfilter.sysid_markov.IdentifiedXi`.
        sensor: zero based sensor index or collection of indices.
        L: number of fault blocks; defaults to len(Hy) + 1.
    """
    n_y = Hy.shape[1]
    if Hy.shape[2] != n_y:
        raise ValidationError("Hy must hold square output blocks")
    J = _sensor_list(sensor, n_y)
    L = len(Hy) + 1 if L is None else L
    if L < 1 or L - 1 > len(Hy):
        raise ValidationError(
            f"need {L - 1} output blocks for L={L} fault blocks, have {len(Hy)}")
    blocks = np.empty((L, n_y, len(J)))
    blocks[0] = np.eye(n_y)[:, J]
    blocks[1:] = -Hy[:L - 1][:, :, J]
    return blocks


def z_markov(Hu: np.ndarray, Hy: np.ndarray, L: int = None) -> np.ndarray:
    """Markov parameters from stacked [u; y] to the innovation.

    These encode the prediction error as a convolution over the raw
    data: H_0^z = [-H_0^u, I] and H_i^z = [-H_i^u, -H_i^y] for i >= 1.
    ``Hu`` starts at lag 0, ``Hy`` at lag 1.
    """
    n_y, n_u = Hu.shape[1:]
    if Hy.shape[1:] != (n_y, n_y):
        raise ValidationError("Hu and Hy block shapes are inconsistent")
    L = min(len(Hu), len(Hy) + 1) if L is None else L
    if L < 1 or L > len(Hu) or L - 1 > len(Hy):
        raise ValidationError(
            f"L={L} exceeds the available blocks ({len(Hu)} input, {len(Hy)} output)")
    blocks = np.empty((L, n_y, n_u + n_y))
    blocks[0] = np.hstack([-Hu[0], np.eye(n_y)])
    blocks[1:] = -np.concatenate([Hu[1:L], Hy[:L - 1]], axis=2)
    return blocks


def _window_blocks(Hf: np.ndarray, rhs: np.ndarray, L: int) -> np.ndarray:
    """Blocks [G_0; I - H_0^f G_0] X_i of one unit lower triangular solve
    T(N) X = stack(rhs[:L]), N = {I, H_1^f G_0, H_2^f G_0, ...}.

    As T(G) = G_0 T(N)^-1, the impulse gives the G_i of inverse_markov
    on top.  rhs = H^z gives the window blocks W_i = [R_i; Q_i] of
    convolve_R and convolve_Q, since H^f(z) G_0 = N(z) - I + H_0^f G_0.
    """
    if L < 1 or L > len(Hf):
        raise ValidationError(f"L={L} exceeds the {len(Hf)} available fault blocks")
    try:
        G0 = left_inverse(Hf[0])
    except FaultDirectionError as exc:
        raise FaultDirectionError(
            f"fault feedthrough rank deficient: {exc}") from exc
    n_y = G0.shape[1]
    from scipy.linalg import solve_triangular  # deferred: a filter run needs no scipy
    N = Hf[:L] @ G0
    N[0] = np.eye(n_y)
    X = solve_triangular(block_toeplitz(N),
                         rhs[:L].reshape(L * n_y, -1), lower=True, unit_diagonal=True)
    return np.concatenate([G0, np.eye(n_y) - Hf[0] @ G0]) @ X.reshape(L, n_y, -1)


def inverse_markov(Hf: np.ndarray, L: int = None) -> np.ndarray:
    """Markov parameters {G_i} of a left inverse of the fault channel.

    Defined so that the lower block Toeplitz matrix of {G_i} is an exact
    left inverse of the one built from {H_i^f}:

        G_0 = (H_0^f)^-,   G_i = -(sum_{j=1..i} G_{i-j} H_j^f) G_0.

    In transfer function form the recursion reads
    G(z) = G_0 (I + sum_{j>=1} H_j^f G_0 z^-j)^-1, so the blocks come
    from one unit lower triangular solve (see :func:`_window_blocks`).
    These are simultaneously the Markov parameters of the open loop
    inverse, which is why a state space realization can be squeezed out
    of them later.

    Raises:
        FaultDirectionError: the feedthrough block H_0^f is rank
            deficient (cannot happen for sensor faults).
    """
    L = len(Hf) if L is None else L
    n_y, n_f = Hf.shape[1:]
    impulse = np.eye(len(Hf) * n_y, n_y).reshape(-1, n_y, n_y)
    return _window_blocks(Hf, impulse, L)[:, :n_f]


def convolve_R(Gi: np.ndarray, Hz: np.ndarray, L: int = None) -> np.ndarray:
    """Window weights R_i = sum_{j=0..i} G_{i-j} H_j^z.

    One product T(G) stack(H^z) of the Toeplitz matrix of {G_i} with the
    stacked z blocks.  On exact data these equal the Markov parameters
    of the open loop inverse driven by [u; y] through the fault readout.
    """
    L = min(len(Gi), len(Hz)) if L is None else L
    cols = Hz.shape[2]
    return (block_toeplitz(Gi, L) @ Hz[:L].reshape(-1, cols)).reshape(L, -1, cols)


def convolve_Q(Hz: np.ndarray, Hf: np.ndarray, Ri: np.ndarray,
               L: int = None) -> np.ndarray:
    """Complement blocks Q_i = H_i^z - sum_{j=0..i} H_{i-j}^f R_j.

    One product: stack(Q) = stack(H^z) - T(H^f) stack(R).  On exact
    data these are the Markov parameters of the same inverse seen
    through the fault-orthogonal output rows, the part the stabilizing
    injection feeds on.
    """
    L = min(len(Hz), len(Hf), len(Ri)) if L is None else L
    conv = block_toeplitz(Hf, L) @ Ri[:L].reshape(-1, Ri.shape[2])
    return Hz[:L] - conv.reshape(Hz[:L].shape)


@dataclass(frozen=True)
class DesignConfig:
    """Knobs of the data-driven design, fixed once built and checked.

    ``sensor`` uses zero based indexing (an int or a nonempty collection),
    kept as a sorted tuple.  ``order`` is either an integer or "auto", in
    which case the largest singular value ratio gap picks the order (ties to
    the smaller one).  The design reads the first l + m window blocks, l =
    ``hankel_rows`` and m = ``hankel_cols``, of which the identified xi has
    p + 1.  ``markov_length`` (at least 1) is only the MHE window of the
    ``compare`` benchmark; the design does not read it.  A sensor, count or
    ``order`` that is not an integer, or a string of one, is a
    ValidationError naming it, as is a negative or repeated sensor.  Pole
    placement needs ``poles``, one per state when ``order`` is an integer; a
    pole that is not real, not finite or not inside the unit circle is a
    ValidationError naming it.  ``dataclasses.replace`` checks again.
    """

    sensor: object = 0
    markov_length: int = 100
    hankel_rows: int = 20
    hankel_cols: int = 20
    order: object = "auto"
    strategy: str = "riccati"
    poles: object = None

    def __post_init__(self):
        d = self.__dict__  # a frozen instance: fields are set here only
        d["sensor"] = tuple(_sensor_list(self.sensor))
        if not self.sensor:
            raise ValidationError("sensor must name at least one sensor, got none")
        d["markov_length"] = _as_int(self.markov_length, "markov_length", 1)
        for name in ("hankel_rows", "hankel_cols"):
            d[name] = _as_int(getattr(self, name), name)
        if self.hankel_rows < 2 or self.hankel_cols < 2:
            raise ValidationError("hankel_rows and hankel_cols must be at least 2")
        if self.order != "auto":
            d["order"] = _as_int(self.order, "order")
            if self.order < 1:
                raise ValidationError("order must be positive or 'auto'")
        if self.strategy not in ("riccati", "pole_placement"):
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.poles is not None:
            d["poles"] = tuple(_real_stable_poles(self.poles).tolist())
        if self.strategy == "pole_placement" and self.poles is None:
            raise ValidationError("pole_placement needs poles")
        if self.strategy == "pole_placement" and self.order not in ("auto", len(self.poles)):
            raise ValidationError(f"pole_placement at order {self.order} needs "
                                  f"{self.order} poles, got {len(self.poles)}")


def _pick_order(s: np.ndarray, max_order: int) -> int:
    """Order with the largest singular value ratio gap, first maximum."""
    max_order = min(max_order, len(s) - 1)
    if max_order < 1:
        raise ValidationError("not enough singular values to pick an order")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = s[:max_order] / s[1:max_order + 1]
    ratios = np.where(np.isfinite(ratios), ratios, np.inf)
    return int(np.argmax(ratios)) + 1


def ho_kalman(seq: np.ndarray, l: int, m: int, order="auto",
              shift: str = "controllability"):
    """Minimal state space realization of a Markov parameter sequence.

    Builds the l x m block Hankel matrix from blocks 1.., splits its
    truncated SVD into observability and controllability factors and
    recovers the state map from the block shift: by one block column of
    the controllability factor (width = input count) or one block row of
    the observability factor.  Block 0 becomes the feedthrough.  Each
    kept singular pair is signed so that the largest-magnitude entry of its
    left vector is positive, which pins the realized state basis against
    LAPACK's arbitrary sign choice.

    Args:
        seq: blocks H_0 .. H_{l+m-1} at least (H_0 used as D only);
            later blocks are not read.  A row that is zero in every
            block only adds l singular values at rounding level, which
            the "auto" rule would take for a gap; :func:`realize` drops
            such rows first.
        order: state dimension, or "auto" for the largest gap rule.
        shift: which factor carries the shift equation.

    Returns:
        (LinearSystem, singular_values) with the full singular value
        list of the Hankel matrix.
    """
    if len(seq) < l + m:
        raise ValidationError(
            f"need {l + m} blocks for l={l}, m={m} (feedthrough plus Hankel), "
            f"have {len(seq)}")
    p, q = seq.shape[1:]
    H = block_hankel(seq[1:], l, m)
    U, s, Vt = np.linalg.svd(H, full_matrices=False)
    if s[0] == 0.0:
        raise ValidationError("all Markov blocks are zero, nothing to realize")
    if order == "auto":
        n = _pick_order(s, min(l * p, m * q) - 1)
    else:
        n = int(order)
        if not 1 <= n <= min(l * p, m * q):
            raise ValidationError(
                f"order {n} outside [1, {min(l * p, m * q)}] for this Hankel matrix")
        rank = int(np.sum(s > 1e-12 * s[0]))
        if n > rank:
            warnings.warn(
                f"requested order {n} exceeds the numerical rank {rank}; "
                f"singular values: {np.array2string(s[:min(len(s), 12)], precision=3)}",
                stacklevel=2)
    from scipy.linalg import lstsq  # deferred: a filter run needs no scipy
    sign = np.sign(U[np.argmax(np.abs(U[:, :n]), axis=0), np.arange(n)])  # kept pairs only
    root = np.sqrt(s[:n])
    Ow = U[:, :n] * sign * root
    Cw = root[:, None] * (Vt[:n] * sign[:, None])
    if shift == "controllability":
        A = lstsq(Cw[:, :q * (m - 1)].T, Cw[:, q:].T, lapack_driver="gelsy")[0].T
    elif shift == "observability":
        A = lstsq(Ow[:p * (l - 1)], Ow[p:], lapack_driver="gelsy")[0]
    else:
        raise ValidationError(f"unknown shift {shift!r}")
    return LinearSystem(A, Cw[:, :q], Ow[:p], seq[0]), s


def realize(Wi: np.ndarray, cfg: DesignConfig):
    """Realize the folded inverse system from the window blocks.

    W_0 supplies the feedthrough directly; the Hankel matrix of
    W_1 .. W_{l+m-1} supplies the dynamic part, with the state map from
    the controllability shift of block width n_u + n_y.  The system maps
    z = [u; y] to the fault estimate (first n_f rows) and the healthy
    output residual q (the rest), like the model-based inverse.

    The q rows of the faulty sensors are exactly zero in every block
    (I - H_0^f G_0 has zero rows there), so the Hankel matrix is built
    from the live rows only, l n_y rows instead of l (n_f + n_y), and the
    realized C gets exact zero rows back in their place.

    Returns:
        (LinearSystem, singular_values) as from :func:`ho_kalman` on the
        live rows, which raises on too few blocks or an integer order
        above min(l n_y, m (n_u + n_y)).
    """
    n_f = len(cfg.sensor)
    n_y = Wi.shape[1] - n_f  # blocks are (n_f + n_y) x (n_u + n_y)
    if n_y < 1 or Wi.shape[2] < n_y or cfg.sensor[-1] >= n_y:
        raise ValidationError(
            f"window block shape {Wi.shape[1:]} inconsistent with sensors {cfg.sensor}")
    live = np.delete(np.arange(n_f + n_y), np.add(cfg.sensor, n_f))
    sys, s = ho_kalman(Wi[:, live], cfg.hankel_rows, cfg.hankel_cols, order=cfg.order,
                       shift="controllability")
    C = np.zeros((n_f + n_y, sys.A.shape[0]))
    C[live] = sys.C
    return LinearSystem(sys.A, sys.B, C, Wi[0]), s


def predictor_from_xi(xi: IdentifiedXi, l: int, m: int, order="auto"):
    """Plant predictor realized from identified Markov parameters.

    This is the identified-model route: realize (Phi, [Bt K], C) from
    the combined [H_i^u H_i^y] blocks by Ho-Kalman with the block row
    shift, keep the identified H_0^u as the feedthrough, and attach the
    innovation covariance estimate.

    Returns:
        (PredictorModel, singular_values); the predictor has no fault
        channel yet, attach one with
        :func:`~faultfilter.lti_core.sensor_fault_channel`.
    """
    n_u, n_y = xi.n_u, xi.n_y
    Hy = np.concatenate([np.zeros((1, n_y, n_y)), xi.Hy])  # with the zero H_0^y
    sys, s = ho_kalman(np.concatenate([xi.Hu, Hy], axis=2), l, m, order=order,
                       shift="observability")
    pred = PredictorModel(
        Phi=sys.A,
        Bt=sys.B[:, :n_u],
        K=sys.B[:, n_u:],
        C=sys.C,
        D=xi.Hu[0],
        SigmaE=0.5 * (xi.residual_variance + xi.residual_variance.T),
    )
    return pred, s


def design_filter_from_xi(xi: IdentifiedXi, cfg: DesignConfig) -> FaultEstimationFilter:
    """Filter from identified Markov parameters.

    Runs Markov parameter expansion, realization and stabilization in
    sequence.  Only the l + m window blocks the Hankel matrix reads are
    solved for: T(N) is unit lower block triangular, so its leading
    blocks depend only on the leading blocks of the right-hand side.  So
    l + m may not exceed the p + 1 blocks of xi, the one length rule (not
    ``markov_length``).  Any failure is re-raised with a stage tag
    (markov, realize, stabilize) so callers can tell which step broke.

    A xi keeps one realization per key (sensors, hankel_rows, hankel_cols,
    order) while it lives: a design differing only in ``strategy`` or
    ``poles`` only stabilizes, and ho_kalman's rank warning shows once per
    key.  A xi and a cfg are fixed once built; failures are not kept.
    """
    realized = _REALIZED.setdefault(xi, {})
    key = (cfg.sensor, cfg.hankel_rows, cfg.hankel_cols, cfg.order)
    stage = "markov"
    try:
        L = cfg.hankel_rows + cfg.hankel_cols  # the blocks realize reads
        if L > xi.p + 1:
            raise ValidationError(
                f"hankel_rows {cfg.hankel_rows} + hankel_cols {cfg.hankel_cols} "
                f"exceed the {xi.p + 1} blocks identified at p = {xi.p}")
        inv = realized.get(key)
        if inv is None:
            Hf = fault_markov(xi.Hy, cfg.sensor, L)
            Hz = z_markov(xi.Hu, xi.Hy, L)
            Wi = _window_blocks(Hf, Hz, L)
            stage = "realize"
            inv, _ = realize(Wi, cfg)
            _read_only(inv)
            realized[key] = inv
        stage = "stabilize"
        return assemble_filter(inv, cfg.sensor, strategy=cfg.strategy,
                               poles=cfg.poles)
    except FaultFilterError as err:
        raise rewrap(err, stage) from err
