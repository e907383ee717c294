"""Direct data-driven synthesis of the fault estimation filter.

Everything the model-based inversion needs can be rebuilt from the
identified predictor Markov parameters without ever forming a plant
model.  The pipeline is:

  1. expand the identified input/output blocks into fault channel
     blocks H_i^f and innovation-from-data blocks H_i^z,
  2. run the inverse recursion that makes the block Toeplitz matrix of
     {G_i} a left inverse of the fault Toeplitz matrix,
  3. convolve {G_i} with {H_i^z} to get the window weights {R_i} and
     their complements {Q_i}, whose stacked blocks {W_i} are the Markov
     parameters of the combined system (open loop inverse + unused
     output rows) driven by [u; y],
  4. compress the {W_i} Hankel matrix by SVD into a minimal state space
     realization, then stabilize and assemble exactly as in the model
     based path.

The Ho-Kalman core is shared with the plant realization used by the
identified-model baseline.
"""
from __future__ import annotations

import configparser
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lstsq, solve_triangular

from .errors import FaultDirectionError, FaultFilterError, ValidationError, rewrap
from .inverse_filter import (
    FaultEstimationFilter,
    _injected_filter,
    left_inverse,
    stabilizing_gain,
)
from .lti_core import (
    IOData,
    LinearSystem,
    MarkovSequence,
    PredictorModel,
    _sensor_list,
    block_hankel,
    block_toeplitz,
)
from .sysid_markov import IdentifiedXi, identify_xi

__all__ = [
    "fault_markov",
    "z_markov",
    "inverse_markov",
    "convolve_R",
    "convolve_Q",
    "stack_windows",
    "DesignConfig",
    "ho_kalman",
    "realize",
    "assemble_filter",
    "predictor_from_xi",
    "design_filter_from_data",
    "design_filter_from_xi",
]


def fault_markov(Hy: MarkovSequence, sensor, L: int = None) -> MarkovSequence:
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
    n_y = Hy.block_shape[0]
    if Hy.block_shape != (n_y, n_y):
        raise ValidationError("Hy must hold square output blocks")
    J = _sensor_list(sensor, n_y)
    L = len(Hy) + 1 if L is None else L
    if L < 1 or L - 1 > len(Hy):
        raise ValidationError(
            f"need {L - 1} output blocks for L={L} fault blocks, have {len(Hy)}")
    blocks = np.empty((L, n_y, len(J)))
    blocks[0] = np.eye(n_y)[:, J]
    blocks[1:] = -Hy.blocks[:L - 1][:, :, J]
    return MarkovSequence(blocks)


def z_markov(Hu: MarkovSequence, Hy: MarkovSequence, L: int = None) -> MarkovSequence:
    """Markov parameters from stacked [u; y] to the innovation.

    These encode the prediction error as a convolution over the raw
    data: H_0^z = [-H_0^u, I] and H_i^z = [-H_i^u, -H_i^y] for i >= 1.
    ``Hu`` starts at lag 0, ``Hy`` at lag 1.
    """
    n_y, n_u = Hu.block_shape
    if Hy.block_shape != (n_y, n_y):
        raise ValidationError("Hu and Hy block shapes are inconsistent")
    L = min(len(Hu), len(Hy) + 1) if L is None else L
    if L < 1 or L > len(Hu) or L - 1 > len(Hy):
        raise ValidationError(
            f"L={L} exceeds the available blocks ({len(Hu)} input, {len(Hy)} output)")
    blocks = np.empty((L, n_y, n_u + n_y))
    blocks[0] = np.hstack([-Hu[0], np.eye(n_y)])
    blocks[1:] = -np.concatenate([Hu.blocks[1:L], Hy.blocks[:L - 1]], axis=2)
    return MarkovSequence(blocks)


def inverse_markov(Hf: MarkovSequence, L: int = None) -> MarkovSequence:
    """Markov parameters {G_i} of a left inverse of the fault channel.

    Defined so that the lower block Toeplitz matrix of {G_i} is an exact
    left inverse of the one built from {H_i^f}:

        G_0 = (H_0^f)^-,   G_i = -(sum_{j=1..i} G_{i-j} H_j^f) G_0.

    In transfer function form the recursion reads
    G(z) = G_0 (I + sum_{j>=1} H_j^f G_0 z^-j)^-1, so the blocks come
    from one unit lower triangular solve with the Toeplitz matrix of
    {I, H_1^f G_0, H_2^f G_0, ...}.  These are simultaneously the
    Markov parameters of the open loop inverse, which is why a state
    space realization can be squeezed out of them later.

    Raises:
        FaultDirectionError: the feedthrough block H_0^f is rank
            deficient (cannot happen for sensor faults).
    """
    L = len(Hf) if L is None else L
    if L < 1 or L > len(Hf):
        raise ValidationError(f"L={L} exceeds the {len(Hf)} available fault blocks")
    try:
        G0 = left_inverse(Hf[0])
    except FaultDirectionError as exc:
        raise FaultDirectionError(
            f"fault feedthrough rank deficient: {exc}") from exc
    n_y = G0.shape[1]
    N = Hf.blocks[:L] @ G0
    N[0] = np.eye(n_y)
    Ninv = solve_triangular(block_toeplitz(MarkovSequence(N)), np.eye(L * n_y, n_y),
                            lower=True, unit_diagonal=True)
    return MarkovSequence(G0 @ Ninv.reshape(L, n_y, n_y))


def convolve_R(Gi: MarkovSequence, Hz: MarkovSequence, L: int = None) -> MarkovSequence:
    """Window weights R_i = sum_{j=0..i} G_{i-j} H_j^z.

    One product T(G) stack(H^z) of the Toeplitz matrix of {G_i} with the
    stacked z blocks.  On exact data these equal the Markov parameters
    of the open loop inverse driven by [u; y] through the fault readout.
    """
    L = min(len(Gi), len(Hz)) if L is None else L
    cols = Hz.block_shape[1]
    R = block_toeplitz(Gi, L) @ Hz.truncated(L).blocks.reshape(-1, cols)
    return MarkovSequence(R.reshape(L, Gi.block_shape[0], cols))


def convolve_Q(Hz: MarkovSequence, Hf: MarkovSequence, Ri: MarkovSequence,
               L: int = None) -> MarkovSequence:
    """Complement blocks Q_i = H_i^z - sum_{j=0..i} H_{i-j}^f R_j.

    One product: stack(Q) = stack(H^z) - T(H^f) stack(R).  On exact
    data these are the Markov parameters of the same inverse seen
    through the fault-orthogonal output rows, the part the stabilizing
    injection feeds on.
    """
    L = min(len(Hz), len(Hf), len(Ri)) if L is None else L
    Z, R = Hz.truncated(L).blocks, Ri.truncated(L).blocks
    conv = block_toeplitz(Hf, L) @ R.reshape(-1, R.shape[2])
    return MarkovSequence(Z - conv.reshape(Z.shape))


def stack_windows(Ri: MarkovSequence, Qi: MarkovSequence) -> MarkovSequence:
    """Stack W_i = [R_i; Q_i], the sequence handed to the realization."""
    if len(Ri) != len(Qi) or Ri.block_shape[1] != Qi.block_shape[1]:
        raise ValidationError("R and Q sequences are inconsistent")
    return MarkovSequence(np.concatenate([Ri.blocks, Qi.blocks], axis=1))


def _read_ini(path, case_sensitive: bool = False, missing: str = None):
    """ConfigParser loaded from one INI file, without interpolation.

    An unreadable file raises ValidationError with ``missing`` (default:
    "cannot read config file <path>"); a malformed one raises
    ValidationError naming the file and the parse error.
    """
    parser = configparser.ConfigParser(interpolation=None)
    if case_sensitive:
        parser.optionxform = str
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValidationError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ValidationError(missing or f"cannot read config file {path}")
    return parser


def _ini_values(sec, parsers: dict) -> dict:
    """Parsed values of the keys of ``parsers`` present in an INI section.

    A key the section does not accept, or a value that fails to parse,
    raises ValidationError naming the section and key.
    """
    defaults = sec.parser.defaults()
    unknown = [key for key in sec if key not in parsers and key not in defaults]
    if unknown:
        raise ValidationError(
            f"[{sec.name}] {unknown[0]}: unknown key; accepted keys are "
            f"{', '.join(parsers)}")
    out = {}
    for key, parse in parsers.items():
        if key in sec:
            try:
                out[key] = parse(sec[key].strip())
            except ValueError as exc:
                raise ValidationError(
                    f"[{sec.name}] {key} = {sec[key]!r}: {exc}") from exc
    return out


def _one_based(raw: str) -> list:
    """Zero based indices of a one based 'i j, k' index list."""
    vals = [int(v) for v in raw.replace(",", " ").split()]
    if any(v < 1 for v in vals):
        raise ValueError("config sensor indices are one based")
    return [v - 1 for v in vals]


def _design_section(sec, **extra) -> dict:
    """DesignConfig keyword arguments from a [design] INI section.

    ``poles`` is a whitespace or comma separated list, or ``none``.
    ``extra`` maps further accepted keys to their parsers.
    """
    return _ini_values(sec, {
        **extra,
        "markov_length": int,
        "hankel_rows": int,
        "hankel_cols": int,
        "order": lambda raw: raw if raw == "auto" else int(raw),
        "strategy": str,
        "poles": lambda raw: (None if raw == "none" else
                              [float(v) for v in raw.replace(",", " ").split()]),
    })


@dataclass
class DesignConfig:
    """Knobs of the data-driven design.

    ``sensor`` uses zero based indexing (an int or a collection).
    ``order`` is either an integer or "auto", in which case the largest
    singular value ratio gap picks the order (ties to the smaller one).
    ``markov_length`` must cover the Hankel matrix: l + m blocks.
    """

    sensor: object = 0
    markov_length: int = 100
    hankel_rows: int = 20
    hankel_cols: int = 20
    order: object = "auto"
    strategy: str = "riccati"
    poles: object = None

    def __post_init__(self):
        L, l, m = self.markov_length, self.hankel_rows, self.hankel_cols
        if l < 2 or m < 2:
            raise ValidationError("hankel_rows and hankel_cols must be at least 2")
        if L < l + m:
            raise ValidationError(
                f"markov_length {L} too short for a {l} x {m} block Hankel "
                f"matrix; need at least {l + m}")
        if self.order != "auto":
            self.order = int(self.order)
            if self.order < 1:
                raise ValidationError("order must be positive or 'auto'")
        if self.strategy not in ("riccati", "pole_placement"):
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.poles is not None:
            self.poles = [float(p) for p in self.poles]

    @classmethod
    def from_ini(cls, source, section: str = "design") -> "DesignConfig":
        """Read a config from a key = value section of an INI style file.

        Sensor indices are one based in files (sensor = 1 is the first
        output); ``poles`` is a whitespace or comma separated list or
        ``none``.
        """
        parser = (source if isinstance(source, configparser.ConfigParser)
                  else _read_ini(source))
        if section not in parser:
            raise ValidationError(f"config has no [{section}] section")
        return cls(**_design_section(parser[section], sensor=_one_based))


def _pick_order(s: np.ndarray, max_order: int) -> int:
    """Order with the largest singular value ratio gap, first maximum."""
    max_order = min(max_order, len(s) - 1)
    if max_order < 1:
        raise ValidationError("not enough singular values to pick an order")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = s[:max_order] / s[1:max_order + 1]
    ratios = np.where(np.isfinite(ratios), ratios, np.inf)
    return int(np.argmax(ratios)) + 1


def ho_kalman(seq: MarkovSequence, l: int, m: int, order="auto",
              shift: str = "controllability"):
    """Minimal state space realization of a Markov parameter sequence.

    Builds the l x m block Hankel matrix from blocks 1.., splits its
    truncated SVD into observability and controllability factors and
    recovers the state map from the block shift: by one block column of
    the controllability factor (width = input count) or one block row of
    the observability factor.  Block 0 becomes the feedthrough.  Each
    singular pair is signed so that the largest-magnitude entry of its
    left vector is positive, which pins the realized state basis against
    LAPACK's arbitrary sign choice.

    Args:
        seq: blocks H_0 .. H_{l+m} at least (H_0 used as D only).
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
    p, q = seq.block_shape
    H = block_hankel(MarkovSequence(seq.blocks[1:]), l, m)
    U, s, Vt = np.linalg.svd(H, full_matrices=False)
    sign = np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])])
    U, Vt = U * sign, Vt * sign[:, None]
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
    root = np.sqrt(s[:n])
    Ow = U[:, :n] * root
    Cw = root[:, None] * Vt[:n]
    if shift == "controllability":
        A = lstsq(Cw[:, :q * (m - 1)].T, Cw[:, q:].T, lapack_driver="gelsy")[0].T
    elif shift == "observability":
        A = lstsq(Ow[:p * (l - 1)], Ow[p:], lapack_driver="gelsy")[0]
    else:
        raise ValidationError(f"unknown shift {shift!r}")
    return LinearSystem(A, Cw[:, :q], Ow[:p], seq[0]), s


def realize(Wi: MarkovSequence, cfg: DesignConfig):
    """Realize the folded inverse system from the window blocks.

    W_0 supplies the feedthrough directly; the Hankel matrix of
    W_1 .. W_{l+m-1} supplies the dynamic part, with the state map from
    the controllability shift of block width n_u + n_y.  The system maps
    z = [u; y] to the fault estimate (first n_f rows) and the healthy
    output residual q (the rest), like the model-based inverse.

    Returns:
        (LinearSystem, singular_values) as from :func:`ho_kalman`.
    """
    n_f = 1 if np.isscalar(cfg.sensor) else len(set(int(j) for j in cfg.sensor))
    rows, cols = Wi.block_shape
    n_y = rows - n_f
    n_u = cols - n_y
    if n_y < 1 or n_u < 0:
        raise ValidationError(
            f"window block shape {Wi.block_shape} inconsistent with {n_f} sensors")
    L = min(len(Wi), cfg.markov_length)
    if L < cfg.hankel_rows + cfg.hankel_cols:
        raise ValidationError(
            f"{L} window blocks cannot fill a {cfg.hankel_rows} x "
            f"{cfg.hankel_cols} block Hankel matrix")
    return ho_kalman(MarkovSequence(Wi.blocks[:L]), cfg.hankel_rows,
                     cfg.hankel_cols, order=cfg.order, shift="controllability")


def assemble_filter(inv: LinearSystem, sensor, Kr=None, strategy: str = "riccati",
                    poles=None) -> FaultEstimationFilter:
    """Stabilize a realized inverse and pack it into a runnable filter.

    ``inv`` maps z = [u; y] to the fault estimate of the ``sensor`` list
    and the healthy-output residual q = -C2 x + ..., as :func:`realize`
    returns it.  The rows of C2 that belong to the faulty sensors are
    zeroed first: for sensor faults those rows are structurally zero,
    and scrubbing the realization noise off them keeps the injection
    gain from feeding the faulty measurement back into the state.  The
    gain stabilizes (A, C2) unless ``Kr`` is given.
    """
    n_f = 1 if np.isscalar(sensor) else len(sensor)
    C2 = -inv.C[n_f:]
    C2[_sensor_list(sensor, C2.shape[0])] = 0.0
    if Kr is None:
        Kr = stabilizing_gain(inv.A, C2, strategy=strategy, poles=poles)
    inv = LinearSystem(inv.A, inv.B, np.vstack([inv.C[:n_f], -C2]), inv.D)
    return _injected_filter(inv, n_f, Kr, strategy)


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
    Hu = xi.markov_u()
    Hy = xi.markov_y()
    combined = MarkovSequence(np.concatenate([Hu.blocks, Hy.blocks], axis=2))
    sys, s = ho_kalman(combined, l, m, order=order, shift="observability")
    pred = PredictorModel(
        Phi=sys.A,
        Bt=sys.B[:, :n_u],
        K=sys.B[:, n_u:],
        C=sys.C,
        D=xi.Hu[0],
        SigmaE=0.5 * (xi.residual_variance + xi.residual_variance.T),
    )
    return pred, s


def design_filter_from_data(data: IOData, p: int, cfg: DesignConfig,
                            ridge: float = 0.0,
                            assume_delay: bool = False) -> FaultEstimationFilter:
    """Full pipeline from raw fault-free records to a runnable filter.

    Runs identification, Markov parameter expansion, realization and
    stabilization in sequence; any failure is re-raised with a stage tag
    (identify, markov, realize, stabilize) so callers can tell which
    step broke.
    """
    try:
        xi = identify_xi(data, p, ridge=ridge, assume_delay=assume_delay)
    except FaultFilterError as err:
        raise rewrap(err, "identify") from err
    return design_filter_from_xi(xi, cfg)


def design_filter_from_xi(xi: IdentifiedXi, cfg: DesignConfig) -> FaultEstimationFilter:
    """Design stages downstream of identification (see above)."""
    L = cfg.markov_length
    if L > xi.p + 1:
        raise ValidationError(
            f"markov_length {L} exceeds the {xi.p + 1} identified blocks")
    try:
        Hf = fault_markov(xi.Hy, cfg.sensor, L)
        Hz = z_markov(xi.Hu, xi.Hy, L)
        Gi = inverse_markov(Hf, L)
        Ri = convolve_R(Gi, Hz, L)
        Qi = convolve_Q(Hz, Hf, Ri, L)
        Wi = stack_windows(Ri, Qi)
    except FaultFilterError as err:
        raise rewrap(err, "markov") from err
    try:
        inv, _ = realize(Wi, cfg)
    except FaultFilterError as err:
        raise rewrap(err, "realize") from err
    try:
        return assemble_filter(inv, cfg.sensor, strategy=cfg.strategy,
                               poles=cfg.poles)
    except FaultFilterError as err:
        raise rewrap(err, "stabilize") from err
