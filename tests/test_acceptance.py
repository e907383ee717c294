"""Acceptance suite: ten measurable claims about the package.

Each test prints a single PASS/FAIL line with the measured quantity,
then asserts it.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines as they appear.
"""
import time

import numpy as np
import pytest

import faultfilter as ff
from faultfilter import (
    BenchConfig,
    DesignConfig,
    IOData,
    block_toeplitz,
    build_mhe,
    design_filter_from_xi,
    ho_kalman,
    identify_xi,
    invariant_zeros_stable,
    inverse_markov,
    markov_from_ss,
    markov_parameters,
    open_loop_inverse,
    reduced_filter,
    residual_generator,
    run_comparison,
    run_filter,
    sensor_fault_plant,
    spectral_radius,
    stabilizing_gain,
    to_predictor,
)
from faultfilter import bench_cli
from faultfilter.bench_cli import (
    BENCH_POLES,
    closed_loop_sim,
    collect_identification_data,
)

from conftest import (
    cascade_filter,
    closed_loop_inverse,
    planted_zero_predictor,
    random_predictor,
    stable_invertible_predictor,
)


def verdict(num, label, ok, detail):
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line, flush=True)
    assert ok, line


def simulate_predictor(pred, u, f, x0):
    """Innovation-form run of a faulty predictor with zero innovations."""
    N = len(u)
    x = np.array(x0, dtype=float)
    Y = np.empty((N, pred.C.shape[0]))
    for k in range(N):
        Y[k] = pred.C @ x + pred.D @ u[k] + pred.G @ f[k]
        x = pred.Phi @ x + pred.Bt @ u[k] + pred.Et @ f[k] + pred.K @ Y[k]
    return Y


def bench_model_filter(faulty, strategy="pole_placement", poles=BENCH_POLES):
    pred = to_predictor(faulty)
    inv = open_loop_inverse(pred)
    Kr = stabilizing_gain(inv.Phi1, inv.C2, strategy=strategy,
                          poles=None if poles is None else list(poles))
    return reduced_filter(pred, Kr, strategy=strategy)


def filter_markov_stack(filt, L=20):
    return np.vstack(list(filt.as_system().markov(L)))


def test_01_toeplitz_inverse_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 7))
        n_y = int(rng.integers(2, 4))
        n_f = int(rng.integers(1, n_y))
        L = int(rng.choice([10, 30, 50]))
        # a contractive inverse keeps the G blocks bounded, so the
        # identity is testable at full floating point accuracy
        pred = stable_invertible_predictor(rng, n=n, n_y=n_y,
                                           sensors=tuple(range(n_f)))
        Hf = markov_parameters(pred, "f", L)
        Gi = inverse_markov(Hf, L)
        prod = block_toeplitz(Gi) @ block_toeplitz(Hf)
        dev = np.max(np.abs(prod - np.eye(prod.shape[0])))
        worst = max(worst, dev)
    dt = time.perf_counter() - t0
    verdict(1, "toeplitz-inverse-identity", worst <= 1e-10 and dt < 10.0,
            f"50 models, max deviation {worst:.2e}, {dt:.1f}s")


def test_02_window_map_decomposition():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    L = 40
    for case in range(20):
        pred = stable_invertible_predictor(rng)
        inv = open_loop_inverse(pred)
        Kr = stabilizing_gain(inv.Phi1, inv.C2)
        Phi2, B2, C1, D1 = closed_loop_inverse(inv, Kr)
        K_L = block_toeplitz(markov_from_ss(Phi2, B2, C1, D1, L))
        G_L = block_toeplitz(markov_from_ss(inv.Phi1, inv.B1, inv.C1,
                                            inv.D1, L))
        M_L = block_toeplitz(markov_from_ss(Phi2, Kr, C1,
                                            np.zeros((1, 2)), L))
        T_f = block_toeplitz(markov_parameters(pred, "f", L))
        dev = np.max(np.abs(K_L - (G_L + M_L @ (np.eye(2 * L) - T_f @ G_L))))
        worst = max(worst, dev)
    dt = time.perf_counter() - t0
    verdict(2, "window-map-decomposition", worst <= 1e-9 and dt < 10.0,
            f"20 models at L={L}, max deviation {worst:.2e}, {dt:.1f}s")


def test_03_reduced_equals_cascade():
    rng = np.random.default_rng(103)
    worst = 0.0
    for case in range(20):
        pred = stable_invertible_predictor(rng)
        inv = open_loop_inverse(pred)
        Kr = stabilizing_gain(inv.Phi1, inv.C2)
        filt = reduced_filter(pred, Kr)
        casc = cascade_filter(pred, Kr)
        z = rng.standard_normal((200, 4))
        dev = np.max(np.abs(filt.as_system().run(z) - casc.run(z)))
        worst = max(worst, dev)
    verdict(3, "reduced-equals-cascade", worst <= 1e-9,
            f"20 models, 200 steps, max deviation {worst:.2e}")


def test_04_exact_recovery_and_decay():
    rng = np.random.default_rng(12345)
    worst_exact = 0.0
    worst_margin = -np.inf
    for case in range(10):
        pred = stable_invertible_predictor(rng)
        inv = open_loop_inverse(pred)
        Kr = stabilizing_gain(inv.Phi1, inv.C2)
        filt = reduced_filter(pred, Kr)
        rho2 = spectral_radius(filt.Af)
        N = 101
        u = rng.standard_normal((N, 2))
        f = rng.standard_normal((N, 1))
        x0 = rng.standard_normal(4)

        # matched initialization: estimates reproduce the fault pointwise
        y0 = simulate_predictor(pred, u, f, np.zeros(4))
        dev = np.max(np.abs(run_filter(filt, IOData(u, y0)) - f))
        worst_exact = max(worst_exact, dev)

        # arbitrary initialization: geometric decay at the closed-loop
        # spectral radius, slope fitted on the segment above the
        # round-off floor
        y = simulate_predictor(pred, u, f, x0)
        err = np.linalg.norm(run_filter(filt, IOData(u, y)) - f, axis=1)
        above = np.nonzero(err > 1e-11 * err.max())[0]
        ks = int(above.max())
        k0 = min(10, ks // 2)
        kk = np.arange(k0, ks + 1)
        rate = float(np.exp(np.polyfit(kk, np.log(err[kk]), 1)[0]))
        worst_margin = max(worst_margin, rate - rho2)
    ok = worst_exact <= 1e-10 and worst_margin <= 0.02
    verdict(4, "exactness-and-decay", ok,
            f"10 models; matched-init deviation {worst_exact:.2e}, "
            f"worst rate excess over spectral radius {worst_margin:+.4f}")


def test_05_stabilization_suite():
    rng = np.random.default_rng(105)
    stabilized = 0
    tried = 0
    while tried < 100:
        pred = stable_invertible_predictor(rng)
        ok_zeros, zeros = invariant_zeros_stable(pred.Phi, pred.Et,
                                                 pred.C, pred.G)
        if zeros.size and np.max(np.abs(zeros)) >= 0.95:
            continue
        tried += 1
        inv = open_loop_inverse(pred)
        try:
            Kr = stabilizing_gain(inv.Phi1, inv.C2)
        except ff.FaultFilterError:
            continue
        if spectral_radius(inv.Phi1 - Kr @ inv.C2) < 1.0:
            stabilized += 1
    flagged = 0
    for case in range(20):
        pred = planted_zero_predictor(rng, 1.2)
        ok_zeros, _ = invariant_zeros_stable(pred.Phi, pred.Et,
                                             pred.C, pred.G)
        if not ok_zeros:
            flagged += 1
    ok = stabilized == 100 and flagged == 20
    verdict(5, "stabilization-suite", ok,
            f"{stabilized}/100 well-placed-zero systems stabilized, "
            f"{flagged}/20 planted unit-exterior zeros flagged")


def test_06_realization_fidelity():
    rng = np.random.default_rng(106)
    lam = np.array([0.85, -0.6, 0.4, 0.1])
    T = rng.standard_normal((4, 4))
    A = T @ np.diag(lam) @ np.linalg.inv(T)
    B = rng.standard_normal((4, 2))
    C = rng.standard_normal((2, 4))
    D = rng.standard_normal((2, 2))
    seq = markov_from_ss(A, B, C, D, 41)
    sys, s = ho_kalman(seq, 20, 20, order=4)
    dev = np.max(np.abs(sys.markov(41) - seq))
    tail = s[4] / s[0]
    ok = dev <= 1e-8 and tail <= 1e-8
    verdict(6, "realization-fidelity", ok,
            f"round-trip deviation {dev:.2e}, fifth singular value ratio "
            f"{tail:.2e}")


def test_07_window_estimator_oracle():
    rng = np.random.default_rng(107)
    worst = 0.0
    accepted = 0
    while accepted < 30:
        n = int(rng.integers(2, 5))
        L = int(rng.integers(n + 2, 13))
        pred = random_predictor(rng, n=n)
        prob = build_mhe(pred, L)
        Psi = np.hstack([prob.O, prob.Tf])
        # both routes solve the same full-rank LS problem; skip draws
        # whose conditioning would drown the comparison in round-off
        # (the gain rows R^-1 R^-T Tp' are seminormal equations, whose
        # error grows with the square of the projected stack's condition)
        if np.linalg.cond(Psi) > 1e3:
            continue
        accepted += 1
        r = rng.standard_normal(2 * L)
        oracle = (np.linalg.pinv(Psi) @ r)[-prob.n_faults:]
        worst = max(worst, np.max(np.abs(prob.gain_rows @ r - oracle)))
    verdict(7, "window-estimator-oracle", worst <= 1e-8,
            f"30 instances, max deviation from joint least squares "
            f"{worst:.2e}")


def test_08_data_driven_accuracy():
    t0 = time.perf_counter()
    cfg = DesignConfig(sensor=0, markov_length=100, hankel_rows=20,
                       hankel_cols=20, order=4, strategy="pole_placement",
                       poles=list(BENCH_POLES))
    rels = []
    for seed in range(10):
        model, ctrl = ff.get_plant("unstable4").factory(q=1e-6, r=1e-4)
        faulty = sensor_fault_plant(model, 0)
        data = collect_identification_data(faulty, ctrl, 10 ** 4, seed=seed)
        xi = identify_xi(data, 100, assume_delay=True)
        filt2 = design_filter_from_xi(xi, cfg)
        filt0 = bench_model_filter(faulty)
        M2, M0 = filter_markov_stack(filt2), filter_markov_stack(filt0)
        rels.append(np.linalg.norm(M2 - M0) / np.linalg.norm(M0))
    med = float(np.median(rels))
    dt = time.perf_counter() - t0
    ok = med <= 0.05 and dt < 120.0
    verdict(8, "data-driven-accuracy", ok,
            f"median relative filter response error {med:.2%} over 10 "
            f"seeds (worst {max(rels):.2%}), {dt:.0f}s")


def test_09_four_way_benchmark_ordering():
    t0 = time.perf_counter()
    ordered = 0
    all_stable = True
    traces = {name: [] for name in ("alg0", "alg1", "alg2", "alg3")}
    for seed in range(1000, 1020):
        rep = run_comparison(BenchConfig(seed=seed))
        tr = {}
        for res in rep.results:
            stable = res.ok and np.all(np.isfinite(
                res.estimates[rep.window[0]:]))
            all_stable = all_stable and stable
            if res.ok:
                tr[res.name] = float(np.trace(res.stats.covariance))
                traces[res.name].append(tr[res.name])
        if ("alg0" in tr and "alg1" in tr and "alg2" in tr
                and tr["alg0"] <= tr["alg2"] and tr["alg0"] <= tr["alg1"]):
            ordered += 1
    dt = time.perf_counter() - t0
    med = {k: float(np.median(v)) for k, v in traces.items() if v}
    ok = ordered >= 18 and all_stable
    verdict(9, "four-way-benchmark-ordering", ok,
            f"model-based best in {ordered}/20 seeds, all runs stable; "
            f"median error traces {med}, {dt:.0f}s")


def test_10_recursive_vs_window_cost(monkeypatch):
    # capture the seed-1000 run, its alg2 filter and alg3's MHE problem and
    # residual generator, then time both estimators sample by sample over
    # the recorded samples, in alternating rounds so that outside load
    # hits both sides: the filter's own step(), against one residual
    # generator step [A B; C D] on [x; z] plus the newest gain rows on the
    # rolled residual window
    captured = {}

    def capture(name, fn):
        def wrapped(*args, **kwargs):
            captured[name] = fn(*args, **kwargs)
            return captured[name]
        monkeypatch.setattr(bench_cli, fn.__name__, wrapped)

    capture("filter", design_filter_from_xi)
    capture("problem", build_mhe)
    capture("generator", residual_generator)
    capture("run", closed_loop_sim)  # the faulty run is the last call
    report = run_comparison(BenchConfig(seed=1000))
    filt, problem, gen = captured["filter"], captured["problem"], captured["generator"]
    U, Y = captured["run"][0].u, captured["run"][0].y
    N, n, nu, ny = len(U), len(gen.A), U.shape[1], Y.shape[1]
    M = np.block([[gen.A, gen.B], [gen.C, gen.D]])
    rows = problem.gain_rows

    def filter_pass(out):
        filt.reset()
        t0 = time.perf_counter_ns()
        for k in range(N):
            out[k] = filt.step(U[k], Y[k])
        return (time.perf_counter_ns() - t0) / N

    def window_pass(out):
        v, win = np.zeros(n + nu + ny), np.zeros(rows.shape[1])
        x = v[:n]
        t0 = time.perf_counter_ns()
        for k in range(N):
            v[n:n + nu] = U[k]
            v[n + nu:] = Y[k]
            s = M.dot(v)
            x[:] = s[:n]
            win[:-ny] = win[ny:]
            win[-ny:] = s[n:]
            out[k] = rows.dot(win)
        return (time.perf_counter_ns() - t0) / N

    f2, f3 = np.empty((N, filt.n_faults)), np.empty((N, problem.n_faults))
    sides = [(lambda: filter_pass(f2), []), (lambda: window_pass(f3), [])]
    for r in range(10):
        for time_pass, medians in sides[::(-1) ** r]:
            medians.append(time_pass())
    # the timed loops are the arms' own estimators: they give the run's
    # estimates, alg3's once its window has filled
    est = {res.name: res.estimates for res in report.results}
    L = problem.L
    for got, want in ((f2, est["alg2"]), (f3[L - 1:], est["alg3"][L - 1:])):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    t2, t3 = (float(np.median(medians)) for _, medians in sides)
    verdict(10, "recursive-vs-window-cost", t2 < t3,
            f"recursive filter step() {t2:.0f} ns/sample vs residual step plus "
            f"window estimate {t3:.0f} ns/sample at window length {L}, medians "
            f"of 10 alternating passes over the {N} recorded samples")
