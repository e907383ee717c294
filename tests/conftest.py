"""Shared generators for randomized tests.

Everything is seeded through numpy Generators passed in by the tests,
so failures reproduce from the printed seed.  Property tests share one
``hypothesis`` profile: no deadline (the first example pays for imports
and LAPACK warm-up) and derandomized draws, so every run replays the
same examples.
"""
import numpy as np
import pytest
from hypothesis import settings
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy.linalg import lstsq, solve_discrete_are

from faultfilter import (
    ExcitationError,
    IdentifiedXi,
    LinearSystem,
    PredictorModel,
    StateSpaceModel,
    ValidationError,
    block_hankel,
    closed_loop_sim,
    ho_kalman,
    open_loop_inverse,
    spectral_radius,
)
from faultfilter.lti_core import _finite_samples
from faultfilter.markov_design import _pick_order
from faultfilter.sysid_markov import _window_residuals

settings.register_profile("faultfilter", deadline=None, derandomize=True)
settings.load_profile("faultfilter")

# The registry plant unstable4 with C[1, 0] = 0: sensor 2 cannot see the
# 1.05 mode, so a fault on sensor 1 leaves that mode an unstable invariant
# zero, and no stable inversion exists.  Noise and gain as in the registry.
HIDDEN_MODE_INI = """
[plant]
A = 1.05 0 0 0; 0 0.3 0.35 0; 0 0 0.5 -0.3; 0 0.2 0 0.3
B = 0.2 0; 0 0; 0 0.5; -1 -0.8
C = 0.6 0 0 1; 0 0.8 0 0
q = 1e-4
r = 1e-2

[controller]
gain = 0.6 1.3; -0.5 0.7

[scenario]
sensors = 1
"""


def varx_regression(data, p, assume_delay):
    """Target Y and regressor Z of the VARX problem, built explicitly.

    Rows are samples k = p .. N-1; regressor columns follow the stacked
    block layout (deepest lag first), with the lag 0 input columns last
    unless ``assume_delay``.
    """
    N = data.n_samples
    u, y = data.u, data.y
    cols = [np.hstack([u[p - lag:N - lag], y[p - lag:N - lag]])
            for lag in range(p, 0, -1)]
    if not assume_delay:
        cols.append(u[p:N])
    return y[p:N], np.hstack(cols)


def gelsy_identify_xi(data, p, assume_delay=False):
    """VARX fit by pivoted QR on the explicit regressor.

    The oracle for ``identify_xi``: the same estimate without the Gram
    matrix, with a rank test in place of the conditioning test.
    """
    Y, Z = varx_regression(data, p, assume_delay)
    ncols = Z.shape[1]
    sol, _, rank, _ = lstsq(Z, Y, lapack_driver="gelsy")
    if rank < ncols:
        raise ExcitationError(f"regressor matrix rank {rank} < {ncols}")
    res = Y - Z @ sol
    xi = sol.T
    if assume_delay:
        xi = np.hstack([xi, np.zeros((data.n_outputs, data.n_inputs))])
    return IdentifiedXi.from_stacked(xi, p, data.n_inputs, data.n_outputs,
                                     residual_variance=res.T @ res / (len(Y) - ncols))


def xi_residuals(xi, data):
    """One step prediction errors y(k) - xi z(k) of an identified model.

    Returns residuals for samples p .. N-1 as an (N - p, n_y) array.  On
    fault free data these approximate the innovations; on faulty data
    they carry the convolution of the fault with its Markov parameters.
    """
    if data.n_inputs != xi.n_u or data.n_outputs != xi.n_y:
        raise ValidationError("data dimensions do not match the identified model")
    if data.n_samples <= xi.p:
        raise ValidationError(f"record shorter than the past window p={xi.p}")
    return _window_residuals(_finite_samples(data), xi.n_y, xi.stacked())


def correlate_window_residuals(w, n_y, xi):
    """y(k) - xi z(k) for k = p .. N-1, one valid-mode correlation per weight column.

    The oracle for ``sysid_markov._window_residuals``: the coefficients
    [-xi, I] weigh the (p+1)-block window of w, column a of block j
    weighs w(k-p+j)[a], so each residual channel is a sum of m
    correlations of one sample column with its p + 1 weights.
    """
    m = w.shape[1]
    return np.column_stack([
        sum(np.correlate(w[:, a], c[a::m], "valid") for a in range(m))
        for c in np.hstack([-xi, np.eye(n_y)])])


def tiled_first_row(w: np.ndarray, B: int) -> np.ndarray:
    """First block row of the lagged Gram matrix, [a, b, d] = sum_r
    w(r)_a w(r+d)_b over the windows r = 0 .. N-B, summed the way
    ``sysid_markov._lagged_gram`` sums it.

    Row r of the explicit window matrix over the zero-padded samples is
    window r, flattened.  Phase f's windows are its rows f, f + B, ...,
    k of them for every phase, and X_f their first samples, zero past
    the last window.  The products W_f^T X_f are added one by one in
    phase order.
    """
    N, m = w.shape
    rows = N - B + 1
    k = -(-rows // B)
    padded = np.vstack([w, np.zeros((k * B + B - 1 - N, m))])
    windows = sliding_window_view(padded, B, axis=0).transpose(0, 2, 1).reshape(k * B, B * m)
    starts = np.where(np.arange(k * B)[:, None] < rows, windows[:, :m], 0.0)
    acc = windows[0::B].T @ starts[0::B]
    for f in range(1, B):
        acc = acc + windows[f::B].T @ starts[f::B]
    return acc.reshape(B, m, m).transpose(2, 1, 0)


def blockwise_lagged_gram(w: np.ndarray, B: int) -> np.ndarray:
    """Gram matrix of the B-block sliding windows of the sample rows.

    Window r is [w(r) .. w(r+B-1)] for r = 0 .. N-B, so the result is
    the Gram matrix of the block-Hankel matrix whose block (r, j) is
    w(r+j), computed without building it.  Block (i, j) differs from
    block (i-1, j-1) only by the end terms -w(i-1) w(j-1)^T +
    w(rows+i-1) w(rows+j-1)^T, so the first block row plus a cumulative
    sum of those terms gives every block.

    The oracle for ``sysid_markov._lagged_gram``: the same floating
    point operations on (t, d, a, b) arrays, gathered block by block,
    so the two must agree bit for bit.
    """
    N, m = w.shape
    rows = N - B + 1
    first = tiled_first_row(w, B).transpose(2, 0, 1)  # [d, a, b]
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


def cumsum_lagged_gram(w: np.ndarray, B: int) -> np.ndarray:
    """``sysid_markov._lagged_gram`` with each band's running sum taken
    by ``np.cumsum``.

    cumsum adds row i to the running sum of rows < i, in that order, as
    the row additions do, so the two must agree bit for bit.
    """
    N, m = w.shape
    rows = N - B + 1
    first = tiled_first_row(w, B)
    end = np.concatenate([w[rows:], np.zeros((B - 1, m))])
    heads = sliding_window_view(w[:2 * B - 2], B, axis=0)
    tails = sliding_window_view(end, B, axis=0)
    steps = np.zeros((B, m, m, B))
    K = 2 * B - 1
    buf = np.empty((K, m, K, m))
    s_i, s_a, s_j, s_b = buf.strides
    shape = (B, m, m, B)
    lower = as_strided(buf, shape, (s_i + s_j, s_b, s_a, s_i))
    upper = as_strided(buf, shape, (s_i + s_j, s_a, s_b, s_j))
    height = -(-B // 4)
    for i0 in range(0, B, height):
        i1, n, lo = min(i0 + height, B), B - i0, max(i0, 1)
        t = slice(lo - 1, i1 - 1)
        head = np.einsum("ta,tbd->tabd", w[t], heads[t, :, :n])
        tail = np.einsum("ta,tbd->tabd", end[t], tails[t, :, :n])
        np.subtract(tail, head, out=steps[lo:i1, :, :, :n])
        run = steps[max(lo - 1, 1):i1, :, :, :n]
        np.cumsum(run, axis=0, out=run)
        np.add(first[..., :n], steps[i0:i1, ..., :n], out=lower[i0:i1, ..., :n])
        np.add(first[..., :n], steps[i0:i1, ..., :n], out=upper[i0:i1, ..., :n])
    return buf.reshape(K * m, K * m)[:B * m, :B * m]


def full_row_realize(Wi, cfg):
    """``markov_design.realize`` on every row of the window blocks.

    The oracle of the live-row realization: the Hankel matrix keeps the
    faulty sensors' q rows, which are exactly zero, so it has l n_f rows
    more and as many more singular values at rounding level.
    """
    return ho_kalman(Wi, cfg.hankel_rows, cfg.hankel_cols, order=cfg.order,
                     shift="controllability")


def sign_all_ho_kalman(seq, l, m, order):
    """``markov_design.ho_kalman`` (controllability shift) with every
    singular pair signed, not only the ``order`` pairs it keeps.

    Signing a pair only flips the signs of its entries, so the kept
    pairs, and with them the realization, must agree bit for bit.
    Returns (A, B, C, D, singular_values).
    """
    p, q = seq.shape[1:]
    U, s, Vt = np.linalg.svd(block_hankel(seq[1:], l, m), full_matrices=False)
    sign = np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])])
    U, Vt = U * sign, Vt * sign[:, None]
    n = _pick_order(s, min(l * p, m * q) - 1) if order == "auto" else order
    root = np.sqrt(s[:n])
    Ow, Cw = U[:, :n] * root, root[:, None] * Vt[:n]
    A = lstsq(Cw[:, :q * (m - 1)].T, Cw[:, q:].T, lapack_driver="gelsy")[0].T
    return A, Cw[:, :q], Ow[:p], seq[0], s


def per_sample_run(A, B, C, D, Z, x0):
    """Reference loop of ``lti_recursion``: out(k) = C x + D z(k), then x = A x + B z(k)."""
    x = np.array(x0, dtype=float)
    out = np.empty((Z.shape[0], C.shape[0]))
    for k in range(Z.shape[0]):
        out[k] = C @ x + D @ Z[k]
        x = A @ x + B @ Z[k]
    return out, x


def sequential_observability(A, C, L):
    """Reference loop of ``extended_observability``: C, CA, ..., CA^(L-1)
    one product at a time."""
    ny, n = C.shape
    O = np.empty((L * ny, n))
    cur = np.array(C, dtype=float)
    for i in range(L):
        O[i * ny:(i + 1) * ny] = cur
        cur = cur @ A
    return O


def dense_mhe_gain(O, Tf):
    """Full window gain of the MHE estimate, with the dense projector.

    Gp + Mp (I - Tf Gp) with Mp = -Gp O Delta^+ O' and
    Delta = O' O - O' Tf Gp O, Delta's spectrum cut at 1e-12 ||O' O||.
    On an identifiable window its last n_f rows are ``build_mhe``'s
    ``gain_rows``.
    """
    Gp = np.linalg.solve(Tf.T @ Tf, Tf.T)
    Delta = O.T @ O - O.T @ Tf @ Gp @ O
    w, V = np.linalg.eigh(0.5 * (Delta + Delta.T))
    scale = max(np.linalg.norm(O.T @ O, 2), np.finfo(float).tiny)
    inv_w = np.where(w > 1e-12 * scale, 1.0 / np.maximum(w, scale * 1e-300), 0.0)
    Mp = -Gp @ O @ ((V * inv_w) @ V.T) @ O.T
    return Gp + Mp @ (np.eye(Tf.shape[0]) - Tf @ Gp)


def _window_map(gain_rows: np.ndarray, Hz: np.ndarray, L: int) -> np.ndarray:
    """``gain_rows @ block_toeplitz(Hz, L)`` as a block correlation.

    The window map from a stacked [u; y] window to the newest-sample
    MHE estimate.  With g_i the n_y-wide blocks of the gain rows, zero
    past i = L-1, block j of the product is sum_k g_(j+k) H_k: one
    product of a sliding view of the zero-padded rows with the stacked
    H_k, and no Toeplitz matrix is formed.
    """
    nf, width = gain_rows.shape
    ny = Hz.shape[1]
    padded = np.concatenate([gain_rows, np.zeros((nf, width - ny))], axis=1)
    windows = sliding_window_view(padded, width, axis=1)[:, ::ny]
    return (windows @ Hz[:L].reshape(width, -1)).reshape(nf, -1)


def family_matrix(rng, n, kind):
    """Random n x n state matrix of one family.

    "dense": spectral radius uniform in [0, 0.999); "unstable": in
    [1, 1.05); "non-normal": stable diagonal plus a strong strictly
    upper triangle.
    """
    if kind == "non-normal":
        return (np.diag(rng.uniform(-0.95, 0.95, n))
                + rng.uniform(1.0, 3.0) * np.triu(rng.standard_normal((n, n)), 1))
    A = rng.standard_normal((n, n))
    rho = rng.uniform(1.0, 1.05) if kind == "unstable" else rng.uniform(0.0, 0.999)
    return A * (rho / max(spectral_radius(A), 1e-12))


def scipy_dare(A, C, Qt, R):
    """The Riccati core as it ran through ``scipy.linalg.solve_discrete_are``.

    Solved at the unit scale dare_fixed_point uses; the stabilizing P,
    or None where scipy raised, C P C^T + R is singular or P leaves
    rho(A - K C) >= 1.
    """
    scale = max(np.abs(Qt).max(initial=0.0), np.linalg.eigvalsh(R).max())
    try:
        # matrix_balance casts the scalings to int for a permutation it does
        # not use here; a scaling past the int range (tiny Q) warns there
        with np.errstate(invalid="ignore"):
            P = scale * solve_discrete_are(A.T, C.T, Qt / scale, R / scale)
        K = np.linalg.solve((C @ P @ C.T + R).T, (A @ P @ C.T).T).T  # as dare_fixed_point
    except (np.linalg.LinAlgError, ValueError):
        return None
    return P if spectral_radius(A - K @ C) < 1.0 else None


def riccati_residual(P, A, C, Qt, R):
    """Relative residual of the filter Riccati equation at P."""
    APC = A @ P @ C.T
    rhs = A @ P @ A.T - APC @ np.linalg.solve(C @ P @ C.T + R, APC.T) + Qt
    size = max(np.linalg.norm(P), np.linalg.norm(A @ P @ A.T), np.linalg.norm(Qt))
    return np.linalg.norm(rhs - P) / size if size > 0 else 0.0


def random_stable(rng, n, rho=0.8):
    """Random n x n matrix scaled to spectral radius rho."""
    A = rng.standard_normal((n, n))
    r = spectral_radius(A)
    return A * (rho / max(r, 1e-12))


def random_model(rng, n=4, n_u=2, n_y=2, rho=0.8, q=1e-3, r=1e-2,
                 unstable=False):
    """Random plant with full-rank C and noise intensities q, r.

    With ``unstable`` one eigenvalue is pushed outside the unit circle
    while (A, C) stays observable with probability one.
    """
    A = random_stable(rng, n, rho)
    if unstable:
        w, V = np.linalg.eig(A)
        w = np.where(np.abs(w) == np.abs(w).max(), 1.1 * w / np.abs(w), w)
        A = np.real(V @ np.diag(w) @ np.linalg.inv(V))
    B = rng.standard_normal((n, n_u))
    C = rng.standard_normal((n_y, n))
    return StateSpaceModel(A, B, C, Q=q * np.eye(n), R=r * np.eye(n_y))


def open_loop_sim(model, u, seed=0, scenario=None):
    """Record of a stable plant driven by the inputs u, without feedback.

    closed_loop_sim with a zero gain and u as the excitation; the noise
    comes from default_rng(seed), process noise drawn first.
    """
    gain = np.zeros((model.n_inputs, model.n_outputs))
    data, _ = closed_loop_sim(model, gain, len(u), np.random.default_rng(seed),
                              scenario=scenario, eta=u)
    return data


def random_predictor(rng, n=4, n_u=2, n_y=2, sensors=(0,), rho=0.75,
                     k_scale=0.3, with_d=False):
    """Random sensor-fault predictor with a stable Phi.

    Builds the predictor directly (Phi stable by scaling, K random) so
    tests control the fault channel without running a Riccati solve.
    """
    J = list(sensors)
    Phi = random_stable(rng, n, rho)
    K = k_scale * rng.standard_normal((n, n_y))
    C = rng.standard_normal((n_y, n))
    D = rng.standard_normal((n_y, n_u)) if with_d else np.zeros((n_y, n_u))
    Bt = rng.standard_normal((n, n_u))
    G = np.eye(n_y)[:, J]
    return PredictorModel(Phi=Phi, Bt=Bt, K=K, C=C, D=D,
                          Et=-K[:, J], G=G)


def stable_invertible_predictor(rng, n=4, n_u=2, n_y=2, sensors=(0,),
                                max_tries=200):
    """Random predictor whose open-loop inverse is already stable.

    Rejection-samples until rho(Phi1) < 0.98, which also guarantees a
    stabilizing gain exists and keeps matched-init inversion tests well
    conditioned.
    """
    for _ in range(max_tries):
        pred = random_predictor(rng, n, n_u, n_y, sensors, rho=0.6,
                                k_scale=0.15)
        if spectral_radius(open_loop_inverse(pred).Phi1) < 0.98:
            return pred
    raise AssertionError("no stably invertible predictor found")


def closed_loop_inverse(inv, Kr):
    """Stabilized inverse (Phi2, B2, C1, D1) after output injection.

    Only the state recursion changes: Phi2 = Phi1 - Kr C2 and
    B2 = B1 + Kr (I - D2); the fault readout (C1, D1) is untouched.
    """
    Phi2 = inv.Phi1 - Kr @ inv.C2
    B2 = inv.B1 + Kr @ (np.eye(inv.D2.shape[0]) - inv.D2)
    return Phi2, B2, inv.C1, inv.D1


def cascade_filter(pred, Kr):
    """Two stage realization: residual generator into the stabilized inverse.

    State is the stacked pair (inverse state, predictor state) with
    input [u; y].  Algebraically equivalent to ``reduced_filter``
    whenever the reduced filter starts at the sum of the two partial
    states; the doubled order makes it a cross check, not a production
    filter.
    """
    Phi2, B2, C1, D1 = closed_loop_inverse(open_loop_inverse(pred), Kr)
    n = pred.n_states
    C, D = pred.C, pred.D
    A = np.block([[Phi2, -B2 @ C], [np.zeros((n, n)), pred.Phi]])
    B = np.block([[-B2 @ D, B2], [pred.Bt, pred.K]])
    return LinearSystem(A, B, np.hstack([C1, -D1 @ C]), np.hstack([-D1 @ D, D1]))


def planted_zero_predictor(rng, lam, n=4, n_u=2, n_y=2):
    """Sensor-fault predictor whose fault subsystem has a zero at lam.

    Construction for the single-fault channel J = [0]: make e_1 an
    eigenvector of Phi1 at lam and blind the healthy outputs to it
    (C[1:, 0] = 0), so (Phi1, C2) has an unobservable mode at lam,
    which is an invariant zero of the fault subsystem.  Phi is
    recovered from Phi = Phi1 + Etilde Gminus C and kept stable by
    rescaling the remaining dynamics.
    """
    J = [0]
    for _ in range(200):
        Phi1 = random_stable(rng, n, 0.6)
        Phi1[:, 0] = 0.0
        Phi1[0, 0] = lam
        C = rng.standard_normal((n_y, n))
        C[1:, 0] = 0.0
        K = 0.3 * rng.standard_normal((n, n_y))
        Et = -K[:, J]
        G = np.eye(n_y)[:, J]
        Gm = np.linalg.pinv(G)
        Phi = Phi1 + Et @ Gm @ C
        if spectral_radius(Phi) < 1.0:
            Bt = rng.standard_normal((n, n_u))
            return PredictorModel(Phi=Phi, Bt=Bt, K=K, C=C,
                                  D=np.zeros((n_y, n_u)), Et=Et, G=G)
    raise AssertionError(f"no stable predictor with planted zero {lam}")


def pencil_zeros(Phi, Et, C, G):
    """Invariant zeros of the fault subsystem, independent oracle.

    Square channel (n_y == n_f): finite generalized eigenvalues of the
    Rosenbrock pencil ([[Phi, Et], [C, G]], blockdiag(I, 0)).  Tall
    channel: rank sweep of the same pencil over the candidate set
    eig(Phi - Et pinv(G) C); a value is a zero when the pencil loses
    column rank there.  Neither branch shares code with the library's
    PBH test.
    """
    import scipy.linalg as sla
    n = Phi.shape[0]
    ny, nf = G.shape
    if ny == nf:
        M = np.block([[Phi, Et], [C, G]])
        N = np.zeros_like(M)
        N[:n, :n] = np.eye(n)
        a, b = sla.eig(M, N, right=False, homogeneous_eigvals=True)
        finite = np.abs(b) > 1e-9 * max(np.abs(b).max(), 1e-300)
        return np.sort_complex(a[finite] / b[finite])
    cands = np.linalg.eigvals(Phi - Et @ np.linalg.pinv(G) @ C)
    zeros = []
    for lam in cands:
        P = np.block([[Phi - lam * np.eye(n), Et], [C, G]])
        if np.linalg.matrix_rank(P, tol=1e-8 * max(1.0, np.abs(lam))) < n + nf:
            zeros.append(lam)
    return np.sort_complex(np.array(zeros))


def assert_same_zeros(got, want, tol=1e-6):
    """Multiset comparison of complex zero lists (sort order of
    conjugate pairs is roundoff dependent)."""
    got = list(np.asarray(got, dtype=complex))
    want = list(np.asarray(want, dtype=complex))
    assert len(got) == len(want), f"{len(got)} zeros vs {len(want)}"
    for z in got:
        dists = [abs(z - w) for w in want]
        j = int(np.argmin(dists))
        assert dists[j] < tol, f"zero {z} unmatched (closest {want[j]})"
        want.pop(j)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
