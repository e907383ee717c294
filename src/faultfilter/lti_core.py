"""Core LTI types and constructions.

Plant model with process/measurement noise and additive faults:

    x(k+1) = A x(k) + B u(k) + E f(k) + F w(k)
    y(k)   = C x(k) + D u(k) + G f(k) + v(k)

with w ~ N(0, Q) and v ~ N(0, R) white and mutually independent.
The one step ahead (predictor) form replaces the state recursion by

    xh(k+1) = Phi xh(k) + Bt u(k) + K y(k),   Phi = A - K C,  Bt = B - K D

where K is the steady state Kalman gain, so that y(k) = C xh(k) + D u(k)
+ e(k) with white innovation e.  Everything downstream (identification,
inversion, window estimators) is phrased in terms of the predictor
Markov parameters, which this module computes and stacks into block
Toeplitz / Hankel / observability matrices.  A sequence of Markov
blocks H_0, H_1, ... is a plain array of shape (L, rows, cols) whose
first index is the lag.
"""
from __future__ import annotations

import csv
import operator
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import RiccatiError, ValidationError

__all__ = [
    "StateSpaceModel",
    "PredictorModel",
    "LinearSystem",
    "IOData",
    "lti_recursion",
    "dare_fixed_point",
    "to_predictor",
    "sensor_fault_plant",
    "sensor_fault_channel",
    "markov_parameters",
    "markov_from_ss",
    "block_toeplitz",
    "block_hankel",
    "extended_observability",
    "spectral_radius",
    "psd_factor",
]

_FMT = "%.17g"
# Samples per chunk of lti_recursion's block Toeplitz path.  Of 8, 16, 32
# and 64, 16 was fastest or within noise of it on 1000-10^4-sample
# records of the package's closed loop, filters and residual generators
# (the fixed cost per call shrinks with T, the work per sample grows).
_CHUNK = 16
# Widest min(p m, n^2) the chunked path takes: it costs about
# _CHUNK min(p m, n^2) flops per sample.  At T = 16 it beat the
# per-sample loop 1.1-4.6x up to a width of ~800 and was about even at
# 1024 (1300 and 10^4 samples, 1 BLAS thread); 512 keeps a margin.
_CHUNK_WIDTH = 512


def _as_matrix(M, rows=None, cols=None, name="matrix", square=False):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    cols = M.shape[0] if square else cols
    if rows is not None and M.shape[0] != rows:
        raise ValidationError(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise ValidationError(f"{name} must have {cols} columns, got {M.shape[1]}")
    return M


def _as_int(value, name, least=None) -> int:
    """An integer, or a string of one, as an int; not one, or below ``least``, raises."""
    try:
        value = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValidationError(f"{name} must be at least {least}, got {value}")
    return value


def _read_only(*objs) -> None:
    """Mark the array fields of cached objects read-only; None is skipped."""
    for obj in filter(None, objs):
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def _as_series(a, name) -> np.ndarray:
    """(N, channels) float array; a 1-D series is N samples of one channel."""
    a = np.asarray(a, dtype=float)
    if a.ndim > 2:
        raise ValidationError(f"{name} must be 1-D or 2-D, got shape {a.shape}")
    return a[:, None] if a.ndim == 1 else np.atleast_2d(a)


def _state_vector(x0, n) -> np.ndarray:
    """x0 as a float vector of n entries; another entry count is a ValidationError."""
    x = np.asarray(x0, dtype=float)
    if x.size != n:
        raise ValidationError(f"x0 must have {n} entries, one per state, got {x.size}")
    return x.reshape(n)


def _check_symmetric_psd(M, name):
    if not np.allclose(M, M.T, atol=1e-10 * max(1.0, np.abs(M).max(initial=0.0))):
        raise ValidationError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    if w.min(initial=0.0) < -1e-10 * max(1.0, w.max(initial=0.0)):
        raise ValidationError(f"{name} must be positive semidefinite")


def spectral_radius(A) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def psd_factor(M) -> np.ndarray:
    """Square root factor S of a PSD matrix, M = S S^T.

    Uses the eigendecomposition so that exactly singular covariances
    (including the zero matrix) are handled without a Cholesky failure.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    _check_symmetric_psd(M, "covariance")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    w = np.clip(w, 0.0, None)
    return V * np.sqrt(w)


@dataclass(eq=False)
class StateSpaceModel:
    """Discrete time plant with noise channels and fault directions."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray = None
    E: np.ndarray = None
    G: np.ndarray = None
    F: np.ndarray = None
    Q: np.ndarray = None
    R: np.ndarray = None

    def __post_init__(self):
        self.A = _as_matrix(self.A, name="A", square=True)
        n = self.A.shape[0]
        self.B = _as_matrix(self.B, rows=n, name="B")
        self.C = _as_matrix(self.C, cols=n, name="C")
        ny = self.C.shape[0]
        nu = self.B.shape[1]
        self.D = (np.zeros((ny, nu)) if self.D is None
                  else _as_matrix(self.D, rows=ny, cols=nu, name="D"))
        if self.E is None and self.G is None:
            self.E = np.zeros((n, 0))
            self.G = np.zeros((ny, 0))
        else:
            if self.G is None:
                raise ValidationError("E given without G")
            self.G = _as_matrix(self.G, rows=ny, name="G")
            nf = self.G.shape[1]
            self.E = (np.zeros((n, nf)) if self.E is None
                      else _as_matrix(self.E, rows=n, cols=nf, name="E"))
        self.F = np.eye(n) if self.F is None else _as_matrix(self.F, rows=n, name="F")
        nw = self.F.shape[1]
        self.Q = np.zeros((nw, nw)) if self.Q is None else _as_matrix(self.Q, rows=nw, cols=nw, name="Q")
        self.R = np.zeros((ny, ny)) if self.R is None else _as_matrix(self.R, rows=ny, cols=ny, name="R")
        _check_symmetric_psd(self.Q, "Q")
        _check_symmetric_psd(self.R, "R")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    @property
    def n_faults(self) -> int:
        return self.G.shape[1]


@dataclass(eq=False)
class PredictorModel:
    """Steady state one step ahead predictor of a plant.

    Fields follow the innovation form: Phi = A - K C, Bt = B - K D and,
    for the fault channel, Et = E - K G.  SigmaE is the innovation
    covariance C P C^T + R.
    """

    Phi: np.ndarray
    Bt: np.ndarray
    K: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Et: np.ndarray = None
    G: np.ndarray = None
    SigmaE: np.ndarray = None

    def __post_init__(self):
        self.Phi = _as_matrix(self.Phi, name="Phi", square=True)
        n = self.Phi.shape[0]
        self.C = _as_matrix(self.C, cols=n, name="C")
        ny = self.C.shape[0]
        self.Bt = _as_matrix(self.Bt, rows=n, name="Bt")
        self.K = _as_matrix(self.K, rows=n, cols=ny, name="K")
        self.D = _as_matrix(self.D, rows=ny, cols=self.Bt.shape[1], name="D")
        if self.G is None:
            self.G = np.zeros((ny, 0))
            self.Et = np.zeros((n, 0))
        else:
            self.G = _as_matrix(self.G, rows=ny, name="G")
            self.Et = _as_matrix(self.Et, rows=n, cols=self.G.shape[1], name="Et")
        self.SigmaE = (np.eye(ny) if self.SigmaE is None
                       else _as_matrix(self.SigmaE, rows=ny, cols=ny, name="SigmaE"))

    @property
    def n_states(self) -> int:
        return self.Phi.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    @property
    def n_faults(self) -> int:
        return self.G.shape[1]


@dataclass(eq=False)
class LinearSystem:
    """Plain deterministic state space quadruple (A, B, C, D)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self.A = _as_matrix(self.A, name="A", square=True)
        n = self.A.shape[0]
        self.B = _as_matrix(self.B, rows=n, name="B")
        self.C = _as_matrix(self.C, cols=n, name="C")
        self.D = _as_matrix(self.D, rows=self.C.shape[0], cols=self.B.shape[1], name="D")

    def run(self, inputs, x0=None) -> np.ndarray:
        """Simulate the system over an (N, n_in) input array (1-D: n_in = 1)."""
        U = _as_series(inputs, "inputs")
        if U.shape[1] != self.B.shape[1]:
            raise ValidationError(
                f"input width {U.shape[1]} does not match B ({self.B.shape[1]} columns)")
        return lti_recursion(self.A, self.B, self.C, self.D, U, x0)[0]

    def markov(self, L: int) -> np.ndarray:
        return markov_from_ss(self.A, self.B, self.C, self.D, L)


@contextmanager
def _rewrite(path):
    """``path`` opened for text writing over its old bytes; every writer's way out.

    It opens without ``O_TRUNC``: ext4 (default ``auto_da_alloc``) writes
    a truncated and rewritten file out on close.  A regular file, not a
    device or a pipe, is cut at the last byte written when the block
    ends, also on an error.
    """
    with open(path, "w", newline="",
              opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _write_csv(path, *parts) -> None:
    """Write each part in turn: a list of rows as given, or a table.

    A table is an array, or a tuple of arrays side by side (a 1-D array
    is one column).  Integer columns are written with ``%d``, the rest at
    full precision.  A table's rows are one ``%`` over a row template,
    byte for byte what ``csv.writer`` gives for the formatted cells.
    Cells are filled a column at a time, so an integer column reaches
    ``%d`` as Python ints.
    """
    with _rewrite(path) as fh:
        for part in parts:
            if isinstance(part, (np.ndarray, tuple)):
                cols = [c[:, None] if c.ndim == 1 else c
                        for c in (part if isinstance(part, tuple) else (part,))]
                row = ",".join("%d" if c.dtype.kind in "iu" else _FMT
                               for c in cols for _ in range(c.shape[1]))
                row += "\r\n"
                n, w = len(cols[0]), sum(c.shape[1] for c in cols)
                vals = [None] * (n * w)
                for j, col in enumerate(x for c in cols for x in c.T):
                    vals[j::w] = col.tolist()
                fh.write(row * n % tuple(vals))
            else:
                csv.writer(fh).writerows(part)


class _CsvRows(list):
    """The rows of a CSV file, read for every ``from_csv`` of the package.

    An unreadable file, a non-numeric cell and a row of the wrong width
    raise a ValidationError that names the file.
    """

    def __init__(self, path):
        self.path = path
        try:
            with open(path, newline="") as fh:
                super().__init__(csv.reader(fh))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise self.error(f"cannot read: {exc}") from exc

    def error(self, message: str) -> ValidationError:
        return ValidationError(f"{self.path}: {message}")

    def sizes(self, i: int, fields: slice = slice(None)) -> list:
        """Nonnegative integers in the given fields of row i."""
        cells = self[i][fields]
        if not all(v.isdecimal() for v in cells):
            raise self.error(f"row {i + 1}: expected sizes, got {cells}")
        return [int(v) for v in cells]

    def floats(self, start: int, stop: int, width: int, what: str = None) -> np.ndarray:
        """Rows start .. stop-1 as a float array with ``width`` columns.

        With ``what`` given, a nan or infinite cell is an error naming
        ``what`` and the cell's row.
        """
        block = self[start:stop]
        for i, r in enumerate(block, start + 1):
            if len(r) != width:
                raise self.error(f"row {i} has {len(r)} fields, expected {width}")
        try:
            block = np.array(block, dtype=float).reshape(len(block), width)
        except ValueError as exc:
            raise self.error(f"non-numeric cell: {exc}") from exc
        if what is not None:
            bad = ~np.isfinite(block).all(axis=1)
            if bad.any():
                raise self.error(f"row {start + 1 + int(np.argmax(bad))}: "
                                 f"non-finite value in {what}")
        return block


@dataclass(eq=False)
class IOData:
    """Sampled input/output record of one experiment.

    ``u`` is (N, n_u) and ``y`` is (N, n_y); a 1-D series is N samples
    of one channel.  An array of more than two dimensions is a
    ValidationError naming it and its shape.
    """

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.u, self.y = _as_series(self.u, "u"), _as_series(self.y, "y")
        if self.u.shape[0] != self.y.shape[0]:
            raise ValidationError("u and y must have the same number of samples")

    @property
    def n_samples(self) -> int:
        return self.u.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.u.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.y.shape[1]

    def to_csv(self, path) -> None:
        """Write samples as rows k,u1..u_nu,y1..y_ny with full precision."""
        _write_csv(path, [["k"] + [f"u{i+1}" for i in range(self.n_inputs)]
                          + [f"y{i+1}" for i in range(self.n_outputs)]],
                   (np.arange(self.n_samples), self.u, self.y))

    @classmethod
    def from_csv(cls, path) -> "IOData":
        """Read a record written by :meth:`to_csv`.

        A file ``_loadtxt_table`` declines, or one with a bad header, is
        read by the row reader, which gives the same arrays or the error.
        The k column must count 0, 1, ..., N-1: a gap, a repeat or a
        non-integer k raises a ValidationError naming the file and row.
        """
        header, data = _loadtxt_table(path) or ([], None)
        nu = _u_columns(header)
        if nu is None:
            rows = _CsvRows(path)
            header = rows[0] if rows else []
            if header[:1] != ["k"]:
                raise rows.error("expected header starting with 'k'")
            nu = _u_columns(header)
            if nu is None:
                raise rows.error(f"malformed header {header}")
            data = rows.floats(1, len(rows), len(header))
        bad = np.flatnonzero(data[:, 0] != np.arange(len(data)))
        if bad.size:
            raise ValidationError(
                f"{path}: row {bad[0] + 2}: k = {data[bad[0], 0]:g}, expected {bad[0]}")
        return cls(data[:, 1:1 + nu], data[:, 1 + nu:])


def _u_columns(header: list):
    """Number of u columns of a 'k,u1..u_nu,y1..y_ny' header, None for another header."""
    nu = sum(1 for h in header if h.startswith("u"))
    ny = len(header) - 1 - nu
    want = ["k"] + [f"u{i+1}" for i in range(nu)] + [f"y{i+1}" for i in range(ny)]
    return nu if header == want else None


def _loadtxt_table(path):
    """(header, data) of a comma-separated table as ``_CsvRows`` reads it, or None.

    One ``np.loadtxt`` parses the lines after the header; a line it skips
    or cannot parse gives None.  What the row reader would read
    differently fails there too: no float holds a quote or a bare CR,
    and a header field starting with a quote fails ``_u_columns``.
    """
    try:
        with open(path, newline="") as fh:  # decoded as the row reader decodes
            text = fh.buffer.read().decode(fh.encoding)
    except (OSError, UnicodeDecodeError):
        return None
    first, _, body = text.partition("\n")
    first = first.removesuffix("\r")
    # a CR ends the row reader's header line; loadtxt would warn of an empty body
    if "\r" in first or not body or body.isspace():
        return None
    header = first.split(",")
    # split at \n only, as a text stream is, so a bare CR stays in its line
    lines = body.split("\n")
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    rows = len(lines) - (not lines[-1])  # a final newline leaves one empty string
    # loadtxt skips blank lines, which the row reader rejects
    return (header, data) if data.shape == (rows, len(header)) else None


def _finite_samples(data: IOData, source: str = "the record") -> np.ndarray:
    """Sample rows w(k) = [u(k) y(k)] of a record, checked finite.

    A non-finite value raises a ValidationError naming its sample k and
    ``source``.
    """
    w = np.hstack([data.u, data.y])
    if not np.isfinite(w).all():
        bad = ~np.isfinite(w).all(axis=1)
        raise ValidationError(
            f"non-finite value in sample k={int(np.argmax(bad))} of {source}")
    return w


def lti_recursion(A, B, C, D, inputs, x0=None):
    """x(k+1) = A x(k) + B z(k), out(k) = C x(k) + D z(k) over an (N, n_in) record.

    The package's one record-length state recursion, taken in chunks of
    T = ``_CHUNK`` samples, the last one padded with zero inputs.  A
    chunk's outputs are its start state s through C, CA, ..., CA^(T-1)
    plus the lower block Toeplitz matrix of the Markov blocks D, CB, ...,
    CA^(T-2)B (the first T-1 blocks of that stack times B) times its
    inputs: two matrix products for all chunks at once.  The start states obey s <- A^T s + the
    chunk's zero-state end state, a linear recurrence solved by a
    doubling scan: after the step with stride d = 1, 2, 4, ... each row
    holds the sum over the 2d rows up to it, so ceil(log2 chunks)
    products replace the carry loop.  x(N) is the last chunk's start
    state advanced over its r real samples.  The Toeplitz product costs
    T p m flops per sample for p outputs and m inputs; when n^2 is
    smaller, the scheme runs on the map from B z to the state x, and C
    and D are applied after.

    The whole record runs sample by sample instead when rho(A) >= 1
    (the chunk maps grow with A^T), N < 2T, there are no states,
    min(p m, n^2) exceeds ``_CHUNK_WIDTH`` (the products would cost more
    than the loop), or a matrix entry, input or x0 is non-finite (a
    product over the chunk would carry a nan to the samples before it).
    That loop only applies A; the input and readout terms are one matrix
    product each.  Returns (out, x(N)); callers validate shapes.

    The work splits in two: :func:`_recursion_plan` builds what depends
    on the matrices alone, and :meth:`_RecursionPlan.apply` runs a
    record through it with the per-call checks.  A caller that runs many
    records through one quadruple can keep the plan.
    """
    return _recursion_plan(A, B, C, D).apply(inputs, x0)


@dataclass(eq=False)
class _RecursionPlan:
    """The matrix-only half of :func:`lti_recursion` for one (A, B, C, D).

    ``state`` is the plan on (A, I, I, 0) when the scheme runs on the
    state map, else None.  ``O``, ``ctrl``, ``power`` (A^T transposed)
    and ``toeplitz`` are the chunk factors, None when the matrices rule
    the chunks out.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    state: "_RecursionPlan" = None
    O: np.ndarray = None
    ctrl: np.ndarray = None
    power: np.ndarray = None
    toeplitz: np.ndarray = None

    def apply(self, inputs, x0=None):
        """(out, x(N)) of :func:`lti_recursion` for this plan's matrices."""
        A, B, C, D = self.A, self.B, self.C, self.D
        T, (n, m), N = _CHUNK, B.shape, inputs.shape[0]
        x = np.zeros(n) if x0 is None else _state_vector(x0, n)
        if self.state is not None:
            X, x_end = self.state.apply(inputs @ B.T, x)
            return X @ C.T + inputs @ D.T, x_end
        if not (self.O is not None and N >= 2 * T
                and np.isfinite(inputs).all() and np.isfinite(x).all()):
            X = np.vstack([x, inputs @ B.T])
            rows = list(X)  # row views: each step adds A x(k) into x(k+1) in place
            for k in range(N):
                rows[k + 1] += A.dot(rows[k])
            return X[:-1] @ C.T + inputs @ D.T, X[-1].copy()
        nc, r = -(-N // T), (N - 1) % T + 1  # chunks, and real samples in the last one
        Z = np.concatenate([inputs, np.zeros((nc * T - N, m))]).reshape(nc, T * m)
        S = np.vstack([x, Z[:-1] @ self.ctrl])
        P, d = self.power, 1
        while d < nc:
            S[d:] += S[:-d] @ P
            d *= 2
            if d < nc:
                P = P @ P
        out = (Z @ self.toeplitz + S @ self.O.T).reshape(nc * T, C.shape[0])[:N]
        x_end = (S[-1] @ np.linalg.matrix_power(A, r).T
                 + Z[-1, :r * m] @ self.ctrl[(T - r) * m:])
        return out, x_end


def _recursion_plan(A, B, C, D) -> _RecursionPlan:
    """What :func:`lti_recursion` builds from the matrices alone."""
    T, (n, m), p = _CHUNK, B.shape, C.shape[0]
    if n * n < p * m and n * n <= _CHUNK_WIDTH:
        return _RecursionPlan(A, B, C, D, state=_recursion_plan(
            A, np.eye(n), np.eye(n), np.zeros((n, n))))
    if not (n > 0 and p * m <= _CHUNK_WIDTH
            and all(np.isfinite(a).all() for a in (A, B, C, D))
            and spectral_radius(A) < 1.0):
        return _RecursionPlan(A, B, C, D)
    O = extended_observability(A, C, T)
    # row block j maps z(j) to the chunk's zero-state end state: A^(T-1-j) B
    ctrl = extended_observability(A.T, B.T, T).reshape(T, m, n)[::-1].reshape(T * m, n)
    H = np.concatenate([D[None], (O[:(T - 1) * p] @ B).reshape(T - 1, p, m)])
    return _RecursionPlan(A, B, C, D, O=O, ctrl=ctrl,
                          power=np.linalg.matrix_power(A, T).T,
                          toeplitz=block_toeplitz(H).T)


def dare_fixed_point(A, C, Q, R, F=None):
    """Steady state filter Riccati equation, stabilizing solution.

    Solves P = A P A^T - A P C^T (C P C^T + R)^-1 C P A^T + F Q F^T by
    the generalized eigenvalue method on the dual (control) pair, as
    :func:`scipy.linalg.solve_discrete_are` runs it (see
    :func:`_dare_qz`).

    Args:
        A, C: system and output matrices of the pair to filter.
        Q: process noise covariance (in the F channel).
        R: measurement noise covariance, symmetric positive definite.
        F: process noise input matrix, identity when omitted.

    Returns:
        Tuple (P, K, SigmaE) with the stabilizing solution P, the Kalman
        gain K = A P C^T (C P C^T + R)^-1 and SigmaE = C P C^T + R.

    Raises:
        RiccatiError: no stabilizing solution was found (typically a non
            detectable pair).
    """
    A = _as_matrix(A, name="A", square=True)
    n = A.shape[0]
    C = _as_matrix(C, cols=n, name="C")
    F = np.eye(n) if F is None else _as_matrix(F, rows=n, name="F")
    Q = _as_matrix(Q, rows=F.shape[1], cols=F.shape[1], name="Q")
    R = _as_matrix(R, rows=C.shape[0], cols=C.shape[0], name="R")
    _check_symmetric_psd(Q, "Q")
    _check_symmetric_psd(R, "R")
    w = np.linalg.eigvalsh(0.5 * (R + R.T))
    if w.size == 0 or w.min() <= 0:
        raise ValidationError("R must be positive definite")
    Qt = F @ Q @ F.T
    return _dare(A, C, Qt, R, max(np.abs(Qt).max(initial=0.0), w.max()))


def _dare(A, C, Qt, R, scale):
    """:func:`dare_fixed_point` past its checks, with Qt = F Q F^T and
    ``scale`` the larger of max |Qt| and the largest eigenvalue of R."""
    # homogeneous in (Q, R, P): solved at unit scale, as R = 1e-30 I fails otherwise
    try:
        P = scale * _dare_qz(A, C, Qt / scale, R / scale)
        S = C @ P @ C.T + R
        K = np.linalg.solve(S.T, (A @ P @ C.T).T).T  # S singular: R tiny, rows > states
    except np.linalg.LinAlgError as exc:
        raise RiccatiError(f"no stabilizing Riccati solution: {exc}") from exc
    rho = spectral_radius(A - K @ C)
    if not rho < 1.0:
        raise RiccatiError(f"Riccati solution is not stabilizing (spectral radius {rho:.6g})")
    return P, K, S


def _dare_qz(A, C, Q, R):
    """Stabilizing P of the filter Riccati equation by ordered QZ.

    The method of Pappas, Laub & Sandell (IEEE TAC 25(4), 1980) with
    Van Dooren's deflation (SIAM J. Sci. Stat. Comput. 2(2), 1981), step
    for step as :func:`scipy.linalg.solve_discrete_are` takes it on the
    dual pair (A^T, C^T), without its argument checks and wrappers:

    - the (2n + m) pencil H - z J of the pair, scaled by the symplectic
      balancing diag(D, D^-1, E) from ``gebal`` (Benner); its entries
      are powers of two, so a unit scaling changes no bit;
    - the m R columns deflated by the orthogonal complement of their QR
      factor, leaving a 2n pencil;
    - QZ ordered with the eigenvalues inside the unit circle first, whose
      n Schur vectors [u00; u10] span the stable subspace;
    - P = u10 u00^-1 through u00's LU factors, unscaled and symmetrized.

    Raises:
        LinAlgError: a non-finite pencil; a reordering that ``tgsen``
            refuses (scipy's ValueError); u00 numerically singular (no
            finite solution); or u00^T u10 far from symmetric, which
            means eigenvalues too close to the unit circle to split.
    """
    from scipy.linalg import ordqz  # deferred: a filter run needs no scipy
    from scipy.linalg.lapack import dgebal, dgeqrf, dgetrf, dgetrs, dorgqr
    m, n = C.shape
    H, J = np.zeros((2, 2 * n + m, 2 * n + m))
    H[:n, :n], H[:n, 2 * n:] = A.T, C.T
    H[n:2 * n, :n], H[n:2 * n, n:2 * n] = -Q, np.eye(n)
    H[2 * n:, 2 * n:] = R
    J[:n, :n], J[n:2 * n, n:2 * n], J[2 * n:, n:2 * n] = np.eye(n), A, -C
    M = np.abs(H) + np.abs(J)
    if not np.isfinite(M).all():
        raise np.linalg.LinAlgError("the Riccati pencil has non-finite entries")
    np.fill_diagonal(M, 0.0)  # gebal does not skip the diagonal
    sca = np.log2(dgebal(M, scale=1, permute=0)[3])
    s = np.round((sca[n:2 * n] - sca[:n]) / 2)
    sca = 2 ** np.r_[s, -s, sca[2 * n:]]
    scaling = sca[:, None] * np.reciprocal(sca)
    H *= scaling
    J *= scaling
    qr, tau = dgeqrf(H[:, 2 * n:])[:2]
    Z = np.zeros((2 * n + m, 2 * n + m), order="F")
    Z[:, :m] = qr
    Z = dorgqr(Z, tau, lwork=2 * n + m, overwrite_a=1)[0][:, m:].T
    try:
        u = ordqz(Z @ H[:, :2 * n], Z @ J[:, :2 * n], sort="iuc",
                  overwrite_a=True, overwrite_b=True, check_finite=False)[5]
    except ValueError as exc:  # tgsen could not reorder an ill-conditioned pencil
        raise np.linalg.LinAlgError(str(exc)) from exc
    u00, u10 = u[:n, :n], u[n:, :n]
    lu, piv = dgetrf(u00)[:2]
    sv = np.linalg.svd(np.triu(lu), compute_uv=False)
    if sv[-1] <= np.spacing(1.0) * sv[0]:
        raise np.linalg.LinAlgError("Failed to find a finite solution.")
    X = dgetrs(lu, piv, u10.T, trans=1)[0].T
    X *= sca[:n, None] * sca[:n]
    sym = u00.T @ u10
    if (np.abs(sym - sym.T).sum(axis=0).max()
            > max(np.spacing(1000.0), 0.1 * np.abs(sym).sum(axis=0).max())):
        raise np.linalg.LinAlgError("The associated symplectic pencil has "
                                    "eigenvalues too close to the unit circle")
    return (X + X.T) / 2


def to_predictor(model: StateSpaceModel) -> PredictorModel:
    """Kalman predictor form of a plant model.

    Solves the plant's filter Riccati equation and assembles Phi, Bt and
    the fault channel Et = E - K G.  A plant whose (A, C) pair is not
    detectable raises RiccatiError.
    """
    _, K, SigmaE = dare_fixed_point(model.A, model.C, model.Q, model.R, model.F)
    return PredictorModel(
        Phi=model.A - K @ model.C,
        Bt=model.B - K @ model.D,
        K=K,
        C=model.C,
        D=model.D,
        Et=model.E - K @ model.G,
        G=model.G,
        SigmaE=SigmaE,
    )


def _sensor_list(sensors, n_y=np.inf):
    """Normalize a sensor index or index collection to a sorted list."""
    if np.isscalar(sensors) or sensors is None:
        sensors = [sensors]
    out = []
    for j in sensors:
        j = _as_int(j, "sensor index")
        if not 0 <= j < n_y:
            raise ValidationError(f"sensor index {j} outside [0, {n_y})")
        out.append(j)
    if len(set(out)) != len(out):
        raise ValidationError(f"duplicate sensor indices in {out}")
    return sorted(out)


def sensor_fault_plant(model: StateSpaceModel, sensors) -> StateSpaceModel:
    """Copy of a plant with additive faults on the given sensors.

    Sensor faults act on the output only: E = 0 and G collects the
    corresponding identity columns.  Indices are zero based.
    """
    J = _sensor_list(sensors, model.n_outputs)
    return StateSpaceModel(
        A=model.A, B=model.B, C=model.C, D=model.D,
        E=np.zeros((model.n_states, len(J))),
        G=np.eye(model.n_outputs)[:, J],
        F=model.F, Q=model.Q, R=model.R,
    )


def sensor_fault_channel(pred: PredictorModel, sensors) -> PredictorModel:
    """Attach a sensor fault channel to a predictor without one.

    In predictor coordinates a fault on sensor j enters with G = I[:, j]
    and Et = -K[:, j], which is all the later inversion steps need.  This
    is how a predictor realized from identified Markov parameters gets
    its fault directions.
    """
    J = _sensor_list(sensors, pred.n_outputs)
    return PredictorModel(
        Phi=pred.Phi, Bt=pred.Bt, K=pred.K, C=pred.C, D=pred.D,
        Et=-pred.K[:, J],
        G=np.eye(pred.n_outputs)[:, J],
        SigmaE=pred.SigmaE,
    )


def markov_from_ss(A, B, C, D, L: int) -> np.ndarray:
    """Markov parameters D, CB, CAB, ..., CA^(L-2)B of a quadruple."""
    if L < 1:
        raise ValidationError("need at least one Markov block")
    B, D = _as_matrix(B), _as_matrix(D)
    blocks = np.empty((L,) + D.shape)
    blocks[0] = D
    if L > 1:
        blocks[1:] = (extended_observability(A, C, L - 1) @ B).reshape(L - 1, *D.shape)
    return blocks


def markov_parameters(pred: PredictorModel, channel: str, L: int) -> np.ndarray:
    """Predictor Markov parameters of one input channel.

    Channel 'u' gives D, C Phi^(i-1) Bt; channel 'y' gives 0, C Phi^(i-1) K;
    channel 'f' gives G, C Phi^(i-1) Et.
    """
    if channel == "u":
        return markov_from_ss(pred.Phi, pred.Bt, pred.C, pred.D, L)
    if channel == "y":
        return markov_from_ss(pred.Phi, pred.K, pred.C,
                              np.zeros((pred.n_outputs, pred.n_outputs)), L)
    if channel == "f":
        if pred.n_faults == 0:
            raise ValidationError("predictor has no fault channel")
        return markov_from_ss(pred.Phi, pred.Et, pred.C, pred.G, L)
    raise ValidationError(f"unknown channel {channel!r}, expected 'u', 'y' or 'f'")


def block_toeplitz(seq: np.ndarray, L: int = None) -> np.ndarray:
    """Lower block triangular Toeplitz matrix of the first L blocks.

    Block (i, j) equals H_(i-j) for i >= j and zero above the diagonal.
    Block row i is the L-block window ending at H_i of the sequence
    after L-1 zero blocks, read backwards: one strided copy.  The product
    of two such matrices is the Toeplitz matrix of the causal block
    convolution of their sequences.
    """
    L = len(seq) if L is None else L
    if L > len(seq):
        raise ValidationError(f"need {L} blocks, sequence has {len(seq)}")
    p, q = seq.shape[1:]
    padded = np.concatenate([np.zeros((max(L - 1, 0), p, q)), seq[:L]])
    lags = sliding_window_view(padded, L, axis=0)[..., ::-1]
    return lags.transpose(0, 1, 3, 2).reshape(L * p, L * q)


def block_hankel(seq: np.ndarray, l: int, m: int) -> np.ndarray:
    """Block Hankel matrix with block (i, j) = seq[i + j].

    The first supplied block lands in the top left corner; callers that
    realize a system from Markov parameters pass the sequence starting
    at the first block after the feedthrough.
    """
    if l < 1 or m < 1:
        raise ValidationError("Hankel block counts must be positive")
    if len(seq) < l + m - 1:
        raise ValidationError(
            f"need {l + m - 1} blocks for a {l} x {m} block Hankel matrix, have {len(seq)}")
    p, q = seq.shape[1:]
    return seq[np.add.outer(np.arange(l), np.arange(m))].transpose(
        0, 2, 1, 3).reshape(l * p, m * q)


def extended_observability(A, C, L: int) -> np.ndarray:
    """Stacked maps C, CA, ..., CA^(L-1).

    Filled by block doubling: with the first j blocks in place and
    P = A^j, blocks j .. 2j-1 are the first j blocks times P, and P is
    squared.  That is ceil(log2 L) products instead of L - 1.
    """
    if L < 1:
        raise ValidationError("need at least one block row")
    A, C = _as_matrix(A), _as_matrix(C)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or C.ndim != 2 or C.shape[1] != A.shape[0]:
        raise ValidationError(
            f"extended observability needs a square A with as many columns as C, "
            f"got A {A.shape} and C {C.shape}")
    ny = C.shape[0]
    O = np.empty((L * ny, A.shape[0]))
    O[:ny] = C
    P, j = A, 1
    while j < L:
        k = min(j, L - j)
        O[j * ny:(j + k) * ny] = O[:k * ny] @ P
        j += k
        if j < L:
            P = P @ P
    return O
