"""Markov algebra against its block-loop definitions.

The package builds Toeplitz matrices by one strided copy and Hankel
matrices by one gather, the window convolutions as Toeplitz products,
the inverse blocks by one triangular solve and the design's window
blocks by one more.  The oracles below are the plain block loops those
replace: the stacking must agree bit for bit, everything that sums
products to 1e-12 relative to the largest magnitude.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from faultfilter import (
    block_hankel,
    block_toeplitz,
    convolve_Q,
    convolve_R,
    inverse_markov,
    left_inverse,
    markov_from_ss,
    spectral_radius,
)
from faultfilter.markov_design import _window_blocks

PROPERTY = settings(max_examples=60)
RTOL = 1e-12


def toeplitz_oracle(seq, L):
    p, q = seq.shape[1:]
    T = np.zeros((L * p, L * q))
    for d in range(L):
        for i in range(d, L):
            T[i * p:(i + 1) * p, (i - d) * q:(i - d + 1) * q] = seq[d]
    return T


def hankel_oracle(seq, l, m):
    p, q = seq.shape[1:]
    H = np.empty((l * p, m * q))
    for i in range(l):
        for j in range(m):
            H[i * p:(i + 1) * p, j * q:(j + 1) * q] = seq[i + j]
    return H


def causal_convolve_oracle(A, B, L):
    """C_i = sum_{j=0..i} A_{i-j} B_j."""
    out = np.zeros((L, A.shape[1], B.shape[2]))
    for i in range(L):
        for j in range(i + 1):
            out[i] += A[i - j] @ B[j]
    return out


def inverse_markov_oracle(Hf, L):
    """G_0 = (H_0^f)^-, G_i = -(sum_{j=1..i} G_{i-j} H_j^f) G_0."""
    G0 = left_inverse(Hf[0])
    n_f, n_y = G0.shape
    blocks = np.empty((L, n_f, n_y))
    blocks[0] = G0
    for i in range(1, L):
        acc = np.zeros((n_f, n_f))
        for j in range(1, i + 1):
            acc += blocks[i - j] @ Hf[j]
        blocks[i] = -acc @ G0
    return blocks


def markov_from_ss_oracle(A, B, C, D, L):
    blocks = np.empty((L, C.shape[0], B.shape[1]))
    blocks[0] = D
    cur = C.copy()
    for i in range(1, L):
        blocks[i] = cur @ B
        cur = cur @ A
    return blocks


def assert_close(got, want):
    scale = np.abs(want).max(initial=0.0)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= RTOL * scale


def random_seq(rng, L, p, q):
    return rng.standard_normal((L, p, q))


def fault_blocks(rng, L, n_y, n_f):
    """Fault sequence with a full column rank H_0^f (condition <= 4)."""
    blocks = 0.5 * rng.standard_normal((L, n_y, n_f))
    basis = np.linalg.qr(rng.standard_normal((n_y, n_y)))[0]
    blocks[0] = basis[:, :n_f] * rng.uniform(0.5, 2.0, n_f)
    return blocks


seeds = st.integers(0, 2**32 - 1)


def laid_out(blocks, layout):
    """The same blocks as a contiguous, reversed, strided or transposed view."""
    if layout == "reversed":
        return np.ascontiguousarray(blocks[::-1])[::-1]
    if layout == "strided":
        spread = np.zeros((2 * len(blocks),) + blocks.shape[1:])
        spread[::2] = blocks
        return spread[::2]
    if layout == "transposed":
        return np.ascontiguousarray(blocks.transpose(0, 2, 1)).transpose(0, 2, 1)
    return blocks


@PROPERTY
@given(seed=seeds, L=st.integers(0, 12) | st.integers(64, 80), p=st.integers(1, 4),
       q=st.integers(1, 4), extra=st.integers(0, 3),
       layout=st.sampled_from(["contiguous", "reversed", "strided", "transposed"]))
def test_block_toeplitz_equals_oracle(seed, L, p, q, extra, layout):
    blocks = np.random.default_rng(seed).standard_normal((L + extra, p, q))
    seq = laid_out(blocks, layout)
    assert np.array_equal(seq, blocks)
    assert np.array_equal(block_toeplitz(seq, L), toeplitz_oracle(seq, L))


@PROPERTY
@given(seed=seeds, l=st.integers(1, 7), m=st.integers(1, 7), p=st.integers(1, 4),
       q=st.integers(1, 4), extra=st.integers(0, 3))
def test_block_hankel_equals_oracle(seed, l, m, p, q, extra):
    seq = random_seq(np.random.default_rng(seed), l + m - 1 + extra, p, q)
    assert np.array_equal(block_hankel(seq, l, m), hankel_oracle(seq, l, m))


@PROPERTY
@given(seed=seeds, L=st.integers(1, 25), n_y=st.integers(1, 4), n_f=st.integers(1, 4),
       n_z=st.integers(1, 5))
def test_convolutions_equal_oracle(seed, L, n_y, n_f, n_z):
    rng = np.random.default_rng(seed)
    Gi = random_seq(rng, L, n_f, n_y)
    Hz = random_seq(rng, L, n_y, n_z)
    Hf = random_seq(rng, L, n_y, n_f)
    Ri = convolve_R(Gi, Hz, L)
    assert_close(Ri, causal_convolve_oracle(Gi, Hz, L))
    Qi = convolve_Q(Hz, Hf, Ri, L)
    assert_close(Qi, Hz - causal_convolve_oracle(Hf, Ri, L))


@PROPERTY
@given(seed=seeds, L=st.integers(1, 30), n_y=st.integers(1, 4), n_u=st.integers(0, 3),
       sensor_faults=st.booleans(), data=st.data())
def test_window_blocks_equal_convolution_chain(seed, L, n_y, n_u, sensor_faults, data):
    # the design's single solve against inverse_markov -> convolve_R ->
    # convolve_Q; H_0^f is a selection matrix for sensor faults and a
    # general full column rank block otherwise
    n_f = data.draw(st.integers(1, n_y), label="n_f")
    rng = np.random.default_rng(seed)
    Hf = fault_blocks(rng, L, n_y, n_f)
    J = sorted(rng.choice(n_y, n_f, replace=False))
    if sensor_faults:
        Hf[0] = np.eye(n_y)[:, J]
    Hz = random_seq(rng, L, n_y, n_u + n_y)
    Ri = convolve_R(inverse_markov(Hf, L), Hz, L)
    Qi = convolve_Q(Hz, Hf, Ri, L)
    W = _window_blocks(Hf, Hz, L)
    assert W.shape == (L, n_f + n_y, n_u + n_y)
    chain = np.concatenate([Ri, Qi], axis=1)
    assert np.abs(W - chain).max() <= RTOL * (1.0 + np.abs(W).max())
    if sensor_faults:
        # the faulty rows of Q are structurally zero
        assert np.all(W[:, [n_f + j for j in J]] == 0.0)


@PROPERTY
@given(seed=seeds, L=st.integers(1, 60), n_y=st.integers(1, 4), n_u=st.integers(0, 3),
       data=st.data())
def test_window_blocks_leading_solve_is_prefix(seed, L, n_y, n_u, data):
    # T(N) is unit lower block triangular, so solving for the first K
    # blocks gives the first K blocks of the full solve; the design
    # relies on it to solve only the blocks its Hankel matrix reads
    n_f = data.draw(st.integers(1, n_y), label="n_f")
    K = data.draw(st.integers(1, L), label="K")
    rng = np.random.default_rng(seed)
    Hf = fault_blocks(rng, L, n_y, n_f)
    Hz = random_seq(rng, L, n_y, n_u + n_y)
    full = _window_blocks(Hf, Hz, L)
    assert_close(_window_blocks(Hf, Hz, K), full[:K])


@PROPERTY
@given(seed=seeds, L=st.integers(1, 30), n_y=st.integers(1, 4), data=st.data())
def test_inverse_markov_equals_oracle_and_left_inverts(seed, L, n_y, data):
    n_f = data.draw(st.integers(1, n_y), label="n_f")
    rng = np.random.default_rng(seed)
    Hf = fault_blocks(rng, L, n_y, n_f)
    Gi = inverse_markov(Hf, L)
    assert_close(Gi, inverse_markov_oracle(Hf, L))
    # the Toeplitz matrix of {G_i} is a left inverse of that of {H_i^f}
    prod = block_toeplitz(Gi) @ block_toeplitz(Hf)
    scale = np.abs(Gi).max() * np.abs(Hf).max() * L * n_y
    assert np.abs(prod - np.eye(L * n_f)).max() <= RTOL * max(1.0, scale)


@PROPERTY
@given(seed=seeds, L=st.integers(1, 30), n=st.integers(1, 6), n_in=st.integers(1, 3),
       n_out=st.integers(1, 3), rho=st.floats(0.0, 1.2))
def test_markov_from_ss_equals_oracle(seed, L, n, n_in, n_out, rho):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= rho / max(spectral_radius(A), 1e-12)
    B = rng.standard_normal((n, n_in))
    C = rng.standard_normal((n_out, n))
    D = rng.standard_normal((n_out, n_in))
    assert_close(markov_from_ss(A, B, C, D, L),
                 markov_from_ss_oracle(A, B, C, D, L))
