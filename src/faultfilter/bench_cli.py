"""Benchmark harness and command line interface.

Reproduces the evaluation protocol end to end: collect fault-free
closed-loop data from an unstable plant under static output feedback,
identify the predictor Markov parameters, then run four estimators on
one faulty trajectory and compare their error statistics:

  alg0  model based inversion filter from the true plant,
  alg1  the same design applied to a plant realized from the identified
        Markov parameters,
  alg2  the direct data-driven filter assembled from the identified
        Markov parameters without an intermediate plant model,
  alg3  the moving horizon least squares estimator on the same
        identified quantities.

The registry ships a documented 4-state unstable plant with a printed
stabilizing output feedback gain; other plants come from a config file
with a [plant] and a [controller] section.  Reports carry estimate
series, error means and covariances, 3-sigma ellipse parameters and the
multiply-adds per sample each estimator costs, counted from its matrix
shapes.  They serialize to CSV plus a small self-contained SVG plot and
a cost file, all byte deterministic per seed.
"""
from __future__ import annotations

import argparse
import configparser
import copy
import functools
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    FaultFilterError,
    NumericalError,
    ValidationError,
    rewrap,
)
from .inverse_filter import (
    FaultEstimationFilter,
    _inverse_system,
    _listing,
    assemble_filter,
    invariant_zeros_stable,
    residual_generator,
    run_filter,
)
from .lti_core import (
    IOData,
    LinearSystem,
    StateSpaceModel,
    _FMT,
    _RecursionPlan,
    _as_int,
    _finite_samples,
    _read_only,
    _recursion_plan,
    _write_csv,
    psd_factor,
    sensor_fault_channel,
    sensor_fault_plant,
    spectral_radius,
    to_predictor,
)
from .markov_design import (
    DesignConfig,
    design_filter_from_xi,
    predictor_from_xi,
)
from .mhe_baseline import build_mhe, run_mhe
from .sysid_markov import IdentifiedXi, identify_xi

__all__ = [
    "FaultScenario",
    "parse_fault_signal",
    "get_plant",
    "closed_loop_sim",
    "collect_identification_data",
    "EllipseStats",
    "ellipse_stats",
    "AlgorithmResult",
    "ExperimentReport",
    "BenchConfig",
    "run_comparison",
    "time_filter_step",
    "time_window_step",
    "main",
    "entry",
]

# Closed loop poles requested for the 4-state registry plant; a spread of
# well damped real poles that every gain strategy can reach.
BENCH_POLES = (0.948, 0.532, 0.225, 0.141)

ALGORITHM_NAMES = ("alg0", "alg1", "alg2", "alg3")


# ---------------------------------------------------------------------------
# fault scenarios, plants


def parse_fault_signal(text: str, k) -> np.ndarray:
    """Values of a fault signal expression at the sample indices ``k``.

    Grammar: terms joined by '+', each one of

        <amp>                   constant offset
        step <amp>              same, spelled out
        [<amp>] sin <freq>      sinusoid amp*sin(freq*k), amp defaults 1
        [<amp>] cos <freq>      cosinusoid

    Frequencies accept a trailing ``pi`` multiplier, e.g. ``0.1pi``.
    The terms are summed in order.  Text outside the grammar, or a
    ``text`` that is not a string, raises ValidationError naming it.
    """
    def number(tok, what):
        try:
            return float(tok)
        except ValueError as exc:
            raise ValidationError(f"bad {what} {tok!r} in fault signal {text!r}") from exc

    def freq(tok):
        if tok.endswith("pi"):
            head = tok[:-2]
            return (number(head, "frequency") if head else 1.0) * np.pi
        return number(tok, "frequency")

    if not isinstance(text, str):
        raise ValidationError(f"fault signal {text!r} is not a string in the [scenario] grammar")
    val = np.zeros(len(k))
    for part in text.split("+"):
        toks = part.split()
        if not toks:
            raise ValidationError(f"empty term in fault signal {text!r}")
        if len(toks) == 2 and toks[0] in ("step", "sin", "cos"):
            toks = toks[1:] if toks[0] == "step" else ["1", *toks]
        if len(toks) == 1:
            val += number(toks[0], "amplitude")
        elif len(toks) == 3 and toks[1] in ("sin", "cos"):
            val += number(toks[0], "amplitude") * getattr(np, toks[1])(freq(toks[2]) * k)
        else:
            raise ValidationError(f"cannot parse fault signal term {part!r}")
    return val


@dataclass(frozen=True)
class FaultScenario:
    """When and how the plant's faults act, fixed once built and checked.

    The plant's fault channels (its E and G columns) place the faults;
    ``signals`` holds one :func:`parse_fault_signal` string per channel
    for the fault value from the onset sample on (zero before), and
    without it every channel gets "sin 0.1pi + 1".  Signals are evaluated
    on the absolute sample index, so a sinusoid keeps its phase regardless
    of the onset.  Anything but a collection of such strings is a
    ValidationError naming it; ``dataclasses.replace`` checks again.
    """

    onset: int = 51
    signals: tuple = None

    def __post_init__(self):  # a frozen instance: fields are set here only
        signals = self.signals
        if signals is not None:
            if isinstance(signals, (str, bytes)) or not hasattr(signals, "__iter__"):
                raise ValidationError(f"signals needs one string per fault, not {signals!r}")
            signals = tuple(signals)
            for sig in signals:
                parse_fault_signal(sig, np.arange(0))
        self.__dict__.update(signals=signals, onset=_as_int(self.onset, "onset", 0))

    def evaluate(self, N: int, n_faults: int) -> np.ndarray:
        """Fault value series of shape (N, n_faults)."""
        signals = ("sin 0.1pi + 1",) * n_faults if self.signals is None else self.signals
        if len(signals) != n_faults:
            raise ValidationError(f"scenario gives {len(signals)} fault signals for a plant "
                                  f"with {n_faults} faults")
        f = np.zeros((N, n_faults))
        k = np.arange(self.onset, N)
        for i, text in enumerate(signals):
            f[self.onset:, i] = parse_fault_signal(text, k)
        return f


@dataclass
class PlantEntry:
    factory: object


def _closed_loop_system(model: StateSpaceModel, gain) -> LinearSystem:
    """The plant under static output feedback u = -gain y + eta as one system.

    Input [eta, w, v, f], output [u, y]; the controller sees the faulty
    measurement.  With M = (I + gain D)^-1 and P = I - D M gain,

        x(k+1) = (A - B M gain C) x + B M eta + F w - B M gain (v + G f) + E f
        [u; y] = [-M gain C; P C] x + [M; D M] eta + [-M gain; P] (v + G f)

    Raises ValidationError for a gain of the wrong shape, an I + gain D
    singular to working precision, or a loop that is not strictly stable.
    """
    A, B, C, D, E, G = model.A, model.B, model.C, model.D, model.E, model.G
    nu, ny = model.n_inputs, model.n_outputs
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    if gain.shape != (nu, ny):
        raise ValidationError(f"controller gain must be {nu} x {ny}, got {gain.shape}")
    loop = np.eye(nu) + gain @ D
    # measured against the terms that form it, so that a gain such as
    # -inv(D), which cancels I only up to rounding, counts as singular
    s_min = np.linalg.svd(loop, compute_uv=False)[-1]
    if s_min <= 1e-12 * (1.0 + np.linalg.norm(gain @ D, 2)):
        raise ValidationError("feedback loop is algebraically singular")
    M = np.linalg.inv(loop)
    MK, nw = M @ gain, model.F.shape[1]
    P = np.eye(ny) - D @ MK
    Acl = A - B @ MK @ C
    rho = spectral_radius(Acl)
    if rho >= 1.0:
        raise ValidationError("controller fails to stabilize the loop: closed loop "
                              f"unstable (spectral radius {rho:.4f})")
    return LinearSystem(
        Acl, np.hstack([B @ M, model.F, -B @ MK, E - B @ MK @ G]),
        np.vstack([-MK @ C, P @ C]),
        np.block([[M, np.zeros((nu, nw)), -MK, -MK @ G],
                  [D @ M, np.zeros((ny, nw)), P, P @ G]]))


def get_plant(name: str) -> PlantEntry:
    if name not in _REGISTRY:
        raise ValidationError(
            f"unknown plant {name!r}; registered: {', '.join(sorted(_REGISTRY))}")
    return _REGISTRY[name]


def _unstable4_factory(q=None, r=None):
    """4-state, 2-input, 2-output unstable benchmark plant.

    Open loop eigenvalues {1.05, 0.51 +/- 0.22j, 0.08}; observable from
    either output alone, controllable, and the printed static output
    feedback gain brings the loop spectral radius to 0.76.  The fault
    channel of each single sensor has no invariant zeros, so both
    per-sensor designs are stably invertible.  Default noise
    intensities are Q = 1e-4 I and R = 1e-2 I.
    """
    A = np.array([[1.05, 0.0, 0.0, 0.0],
                  [0.0, 0.3, 0.35, 0.0],
                  [0.0, 0.0, 0.5, -0.3],
                  [0.0, 0.2, 0.0, 0.3]])
    B = np.array([[0.2, 0.0],
                  [0.0, 0.0],
                  [0.0, 0.5],
                  [-1.0, -0.8]])
    C = np.array([[0.6, 0.0, 0.0, 1.0],
                  [0.6, 0.8, 0.0, 0.0]])
    gain = np.array([[0.6, 1.3],
                     [-0.5, 0.7]])
    q = 1e-4 if q is None else float(q)
    r = 1e-2 if r is None else float(r)
    return StateSpaceModel(A, B, C, Q=q * np.eye(4), R=r * np.eye(2)), gain


_REGISTRY = {"unstable4": PlantEntry(_unstable4_factory)}


# ---------------------------------------------------------------------------
# closed-loop simulation


@dataclass(eq=False)
class _Loop:
    """A plant under feedback, its noise factors and its recursion plan:
    closed_loop_sim less the draws."""

    model: StateSpaceModel
    w_factor: np.ndarray
    v_factor: np.ndarray
    plan: _RecursionPlan

    @classmethod
    def build(cls, model: StateSpaceModel, gain) -> "_Loop":
        system = _closed_loop_system(model, gain)
        return cls(model, psd_factor(model.Q), psd_factor(model.R),
                   _recursion_plan(system.A, system.B, system.C, system.D))

    def simulate(self, N: int, rng, scenario: FaultScenario = None, eta=None):
        """closed_loop_sim on this loop."""
        model = self.model
        nu, ny = model.n_inputs, model.n_outputs
        eta = np.zeros((N, nu)) if eta is None else np.asarray(eta, dtype=float)
        if eta.shape != (N, nu):
            raise ValidationError(f"excitation must be {N} x {nu}, got {eta.shape}")
        W = rng.standard_normal((N, model.F.shape[1])) @ self.w_factor.T
        V = rng.standard_normal((N, ny)) @ self.v_factor.T
        nf = model.n_faults
        fault = np.zeros((N, nf)) if scenario is None else scenario.evaluate(N, nf)
        UY, _ = self.plan.apply(np.hstack([eta, W, V, fault]))
        return IOData(UY[:, :nu], UY[:, nu:]), fault


def closed_loop_sim(model: StateSpaceModel, gain, N: int, rng,
                    scenario: FaultScenario = None, eta=None):
    """Simulate the feedback loop u = -gain y + eta, optionally with faults.

    ``eta`` is the (N, n_u) excitation, zero when omitted.  The measured
    output carries the plant's faults as ``scenario`` evaluates them,
    and the controller acts on that faulty measurement.  Process noise,
    then measurement noise, is drawn from ``rng``, so runs are
    reproducible from the generator state.  A zero gain with eta = u
    gives the open-loop run of a stable plant.

    Returns:
        (IOData, fault_series) with the applied fault values.
    """
    return _Loop.build(model, gain).simulate(N, rng, scenario=scenario, eta=eta)


def collect_identification_data(plant: StateSpaceModel, gain, N: int,
                                seed: int) -> IOData:
    """Fault-free closed-loop record for identification.

    The excitation is unit white noise, drawn from the seeded generator
    before the plant noise; it is what makes the regression well posed
    despite the feedback.
    """
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal((N, plant.n_inputs))
    return closed_loop_sim(plant, gain, N, rng, eta=eta)[0]


# ---------------------------------------------------------------------------
# statistics


@dataclass(eq=False)
class EllipseStats:
    """Mean, covariance and the 3-sigma contour of an error cloud.

    The contour is the level set e' inv(cov) e = 3 around the mean;
    ``axes`` holds the semi-axis lengths sqrt(3 lambda_i) in descending
    order and ``directions`` the matching unit eigenvectors as columns.
    One dimensional samples degenerate to the interval mean +/- axes[0].
    """

    mean: np.ndarray
    covariance: np.ndarray
    axes: np.ndarray
    directions: np.ndarray
    degenerate: bool
    n_samples: int


def ellipse_stats(errors) -> EllipseStats:
    """Sample statistics of an (N, d) error series, rows with NaN dropped."""
    E = np.atleast_2d(np.asarray(errors, dtype=float))
    E = E[np.all(np.isfinite(E), axis=1)]
    N, d = E.shape
    if N < d + 1:
        raise ValidationError(
            f"need at least {d + 1} finite samples for {d}-dimensional statistics")
    mean = E.mean(axis=0)
    centered = E - mean
    cov = centered.T @ centered / N
    lam, vec = np.linalg.eigh(cov)
    order = np.argsort(lam)[::-1]
    lam, vec = lam[order], vec[:, order]
    degenerate = bool(lam[-1] <= 1e-12 * max(lam[0], 1e-300))
    return EllipseStats(
        mean=mean,
        covariance=cov,
        axes=np.sqrt(3.0 * np.clip(lam, 0.0, None)),
        directions=vec,
        degenerate=degenerate,
        n_samples=N,
    )


# ---------------------------------------------------------------------------
# timing (demos, tests and the benchmark harness; compare counts work instead)


# Steps per pair of clock reads.  A perf_counter_ns call costs ~50-100 ns,
# so 20 steps a batch leave a few ns of it per step, and 2000 steps still
# give 100 batches for the median.
_TIMING_BATCH = 20


def _batch_sizes(steps: int) -> list:
    """Split ``steps`` into batches of ``_TIMING_BATCH``, the last one short."""
    steps = _as_int(steps, "steps", 1)
    return [min(_TIMING_BATCH, steps - i) for i in range(0, steps, _TIMING_BATCH)]


def time_filter_step(filt: FaultEstimationFilter, steps: int = 10000) -> float:
    """Median nanoseconds per recursive filter step.

    Times the combined update [x; f] = M [x; u; y] as a single matrix
    vector product on random data.  That is the matvec floor under
    ``FaultEstimationFilter.step``, not ``step`` itself, and it depends
    only on the shape of ``step_matrix()``.  The clock is read around
    batches of steps, and the figure is the median over batches of the
    mean step time, with the cost of reading the clock left out.
    """
    sizes = _batch_sizes(steps)
    rng = np.random.default_rng(0)
    M = filt.step_matrix()
    n = filt.n_states
    v = rng.standard_normal(M.shape[1])
    out = np.empty(M.shape[0])
    ts = np.empty(len(sizes))
    for b, size in enumerate(sizes):
        t0 = time.perf_counter_ns()
        for _ in range(size):
            np.dot(M, v, out=out)
            v[:n] = out[:n]
        ts[b] = (time.perf_counter_ns() - t0) / size
    return float(np.median(ts))


def time_window_step(window_map: np.ndarray, block: int, steps: int = 10000) -> float:
    """Median nanoseconds per sliding-window estimate.

    Times one window shift (roll in ``block`` new entries) plus the
    window matrix product: a one-window proxy of the moving horizon
    path, not the FIR sweep over all windows that ``run_mhe`` runs.
    Like ``time_filter_step`` it returns the median over batches of the
    mean step time, without the cost of reading the clock.
    """
    sizes = _batch_sizes(steps)
    width = window_map.shape[1]
    if not 1 <= block <= width:
        raise ValidationError(f"block must be in [1, {width}], the window width, "
                              f"got {block}")
    rng = np.random.default_rng(0)
    zwin = rng.standard_normal(width)
    znew = rng.standard_normal(block)
    ts = np.empty(len(sizes))
    for b, size in enumerate(sizes):
        t0 = time.perf_counter_ns()
        for _ in range(size):
            zwin[:-block] = zwin[block:]
            zwin[-block:] = znew
            window_map @ zwin
        ts[b] = (time.perf_counter_ns() - t0) / size
    return float(np.median(ts))


# ---------------------------------------------------------------------------
# report


@dataclass(eq=False)
class AlgorithmResult:
    """Outcome of one estimator on the benchmark trajectory.

    ``macs_per_sample`` is the multiply-adds one sample costs, counted
    from matrix shapes: the step matrix's entries for a recursive
    filter, or for alg3 the residual generator's step plus the newest
    gain rows, the FIR taps ``run_mhe`` applies.  It is None for a
    failed arm.
    """

    name: str
    ok: bool
    estimates: np.ndarray = None
    stats: EllipseStats = None
    macs_per_sample: int = None
    message: str = ""


@dataclass(eq=False)
class ExperimentReport:
    """Everything one benchmark run produced."""

    plant: str
    seed: int
    window: tuple
    fault: np.ndarray
    results: list

    def summary(self) -> str:
        lines = [f"plant {self.plant}, seed {self.seed}, "
                 f"window [{self.window[0]}, {self.window[1]})"]
        for res in self.results:
            if not res.ok:
                lines.append(f"  {res.name}: FAILED ({res.message})")
                continue
            tr = float(np.trace(res.stats.covariance))
            cost = ("" if res.macs_per_sample is None
                    else f", {res.macs_per_sample} MACs/sample")
            lines.append(
                f"  {res.name}: trace(cov) {tr:.6g}, mean norm "
                f"{np.linalg.norm(res.stats.mean):.4g}{cost}")
        return "\n".join(lines)

    def write(self, out_dir) -> None:
        """Write estimates.csv, stats.csv, report.svg and cost.txt into a directory."""
        os.makedirs(out_dir, exist_ok=True)
        nf = self.fault.shape[1]
        ok = [res for res in self.results if res.ok]
        _write_csv(os.path.join(out_dir, "estimates.csv"),
                   [["k"] + [f"f{i+1}" for i in range(nf)]
                    + [f"{res.name}_f{i+1}" for res in ok for i in range(nf)]],
                   (np.arange(len(self.fault)), self.fault,
                    *[res.estimates for res in ok]))
        rows = [["algorithm", "ok", "samples", "mean", "covariance",
                 "ellipse_axes", "degenerate", "message"]]
        for res in self.results:
            if res.ok:
                st = res.stats
                rows.append([
                    res.name, 1, st.n_samples,
                    " ".join(_FMT % v for v in st.mean),
                    " ".join(_FMT % v for v in st.covariance.reshape(-1)),
                    " ".join(_FMT % v for v in st.axes),
                    int(st.degenerate), "",
                ])
            else:
                rows.append([res.name, 0, 0, "", "", "", "", res.message])
        _write_csv(os.path.join(out_dir, "stats.csv"), rows)
        write_report_svg(self, os.path.join(out_dir, "report.svg"))
        with open(os.path.join(out_dir, "cost.txt"), "w") as fh:
            fh.writelines(f"{res.name} macs_per_sample {res.macs_per_sample}\n"
                          for res in self.results if res.macs_per_sample is not None)


# ---------------------------------------------------------------------------
# svg plotting (self-contained, no plotting dependencies)

_COLORS = {"alg0": "#1f77b4", "alg1": "#ff7f0e", "alg2": "#2ca02c",
           "alg3": "#d62728"}


def write_report_svg(report: ExperimentReport, path) -> None:
    """Render the error clouds and their 3-sigma contours.

    Two fault dimensions give the classic scatter-plus-ellipse view on
    an equal-aspect plane; one dimension falls back to error against
    sample index with the 3-sigma band drawn as horizontal lines.
    """
    nf = report.fault.shape[1]
    k0, k1 = report.window
    width, height = 720, 540
    x0, y0, pw, ph = 70, 50, 470, 440
    ok_results = [r for r in report.results if r.ok]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" font-family="sans-serif" '
        f'font-size="15" text-anchor="middle">fault estimation errors, plant '
        f'{report.plant}, seed {report.seed}</text>',
    ]
    if ok_results:
        # the first two error components; a row counts where all are finite
        with np.errstate(invalid="ignore", over="ignore"):  # such rows are dropped
            errs = {r.name: r.estimates[k0:k1, :2] - report.fault[k0:k1, :2]
                    for r in ok_results}
        finite = {name: e[np.all(np.isfinite(e), axis=1)] for name, e in errs.items()}
        span = max(np.abs(np.vstack(list(finite.values()))).max(initial=0.0), 1e-12) * 1.15
        if nf >= 2:
            # two or more fault dimensions: equal-aspect scatter with ellipses
            scale = min(pw, ph) / (2 * span)
            cx, cy = x0 + pw / 2, y0 + ph / 2

            def to_px(p):
                return cx + p[0] * scale, cy - p[1] * scale

            def cloud(name):
                err = finite[name]
                return [to_px(p) for p in err[::max(1, len(err) // 300)]]

            def contour(st, color):
                mx, my = to_px(st.mean[:2])
                v = st.directions[:2, 0]
                ang = -np.degrees(np.arctan2(v[1], v[0]))
                rx = max(st.axes[0] * scale, 0.5)
                ry = max((st.axes[1] if len(st.axes) > 1 else 0.0) * scale, 0.5)
                return [f'<g transform="translate({mx:.2f} {my:.2f}) rotate({ang:.2f})">'
                        f'<ellipse rx="{rx:.2f}" ry="{ry:.2f}" fill="none" '
                        f'stroke="{color}" stroke-width="1.8"/></g>']

            radius = "1.6"
            xlabel = f"error, component 1 (half range {span:.3g})"
            ylabel = "error, component 2"
        else:
            # single fault dimension: error against time with 3-sigma bands
            n = k1 - k0

            def to_px(k, v):
                return (x0 + pw * (k / max(n - 1, 1)),
                        y0 + ph / 2 - v / span * (ph / 2))

            def cloud(name):
                err = errs[name][:, 0]
                stride = max(1, len(err) // 400)
                return [to_px(k, err[k]) for k in range(0, len(err), stride)
                        if np.isfinite(err[k])]

            def contour(st, color):
                return [f'<line x1="{x0}" x2="{x0 + pw}" y1="{py:.2f}" '
                        f'y2="{py:.2f}" stroke="{color}" stroke-width="1.2" '
                        f'stroke-dasharray="6 4"/>'
                        for _, py in (to_px(0, st.mean[0] - st.axes[0]),
                                      to_px(0, st.mean[0] + st.axes[0]))]

            radius = "1.4"
            xlabel = f"sample {k0} .. {k1 - 1}"
            ylabel = f"estimation error (half range {span:.3g})"
        parts += [
            f'<rect x="{x0}" y="{y0}" width="{pw}" height="{ph}" fill="none" '
            f'stroke="#444" stroke-width="1"/>',
            f'<text x="{x0 + pw / 2:.0f}" y="{y0 + ph + 32}" font-family='
            f'"sans-serif" font-size="12" text-anchor="middle">{xlabel}</text>',
            f'<text x="{x0 - 40}" y="{y0 + ph / 2:.0f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle" transform="rotate(-90 '
            f'{x0 - 40} {y0 + ph / 2:.0f})">{ylabel}</text>',
        ]
        ellipses = []  # drawn over every cloud; a band follows its own cloud
        for res in ok_results:
            color = _COLORS.get(res.name, "#888")
            parts += [f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius}" '
                      f'fill="{color}" fill-opacity="0.45"/>'
                      for px, py in cloud(res.name)]
            (ellipses if nf >= 2 else parts).extend(contour(res.stats, color))
        parts += ellipses
    for i, res in enumerate(report.results):
        yy = y0 + 16 + 18 * i
        label = res.name if res.ok else f"{res.name} (failed)"
        parts += [f'<circle cx="{x0 + pw + 24}" cy="{yy - 4}" r="4" '
                  f'fill="{_COLORS.get(res.name, "#888")}"/>',
                  f'<text x="{x0 + pw + 34}" y="{yy}" font-family="sans-serif" '
                  f'font-size="12">{label}</text>']
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# benchmark configuration and orchestration


@dataclass(frozen=True)
class BenchConfig:
    """Everything a comparison run needs, fixed once built and checked.

    Defaults reproduce the standard protocol on the registry plant:
    p = 100 past window, MHE window 100, 20 x 20 Hankel blocks,
    order 4, pole placement at BENCH_POLES, 1000 identification samples
    and a 1300 sample fault run on sensor 0 scored on samples 300
    onward.  For plants of other sizes set ``order`` to "auto" and
    either supply a matching pole list or switch the strategy to
    riccati.  ``controller`` is the static output feedback gain (u =
    -gain y + eta); None takes the registry plant's.

    Every setting is checked here, before any plant is built: a count
    that is not an integer or is below its bound, ``sensors`` (zero
    based) that are empty, not sorted, unique and nonnegative, or do not
    match the scenario's signal count, a noise scale ``q`` or ``r`` (Q =
    q I, R = r I) that is not finite or is negative, a value DesignConfig
    rejects, or a statistics window [window_start, run_samples) that is
    empty or starts before sample markov_length - 1, where the MHE
    window fills, is a ValidationError naming the field.  ``design`` is
    the checked DesignConfig, built from its fields (``sensor`` from
    ``sensors``).  Assigning a field raises; ``dataclasses.replace``
    checks again.
    """

    plant: str = "unstable4"
    model: StateSpaceModel = None
    controller: np.ndarray = None
    sensors: tuple = (0,)
    scenario: FaultScenario = field(default_factory=FaultScenario)
    q: float = None
    r: float = None
    p: int = 100
    markov_length: int = 100
    hankel_rows: int = 20
    hankel_cols: int = 20
    order: object = 4
    strategy: str = "pole_placement"
    poles: tuple = BENCH_POLES
    assume_delay: bool = True
    n_ident: int = 1000
    run_samples: int = 1300
    window_start: int = 300
    seed: int = 0
    design: DesignConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.__dict__  # a frozen instance: fields are set here only
        for name, least in (("seed", 0), ("n_ident", 1), ("run_samples", 1),
                            ("p", 1), ("window_start", None)):
            label = "n_ident ([identify] n_samples)" if name == "n_ident" else name
            d[name] = _as_int(getattr(self, name), label, least)
        _check_noise_scales(self.q, self.r)
        d["sensors"] = tuple(_as_int(j, "each entry of sensors")
                             for j in np.atleast_1d(self.sensors).tolist())
        if not self.sensors:
            raise ValidationError("sensors must name at least one sensor, got none")
        if list(self.sensors) != sorted(set(self.sensors)) or self.sensors[0] < 0:
            raise ValidationError("sensors must be sorted, unique and nonnegative, "
                                  f"got zero based {list(self.sensors)}")
        signals = self.scenario.signals
        if signals is not None and len(signals) != len(self.sensors):
            raise ValidationError(
                f"{len(self.sensors)} sensors but {len(signals)} fault signals")
        d["design"] = DesignConfig(sensor=self.sensors, **{
            f.name: getattr(self, f.name) for f in fields(DesignConfig) if f.name != "sensor"})
        L = self.design.markov_length
        if not L - 1 <= self.window_start < self.run_samples:
            raise ValidationError(
                f"bad statistics window [{self.window_start}, {self.run_samples}) for "
                f"{self.run_samples} samples; it must start at or after sample {L - 1}, "
                f"where the MHE window of markov_length {L} fills")

    def resolve_plant(self):
        """(model, gain) from explicit matrices or the registry."""
        if self.model is not None:
            if self.controller is None:
                raise ValidationError("explicit plant needs a controller")
            return self.model, self.controller
        model, ctrl = get_plant(self.plant).factory(q=self.q, r=self.r)
        return model, ctrl if self.controller is None else self.controller


def _check_noise_scales(q, r) -> None:
    """Reject a noise scale q or r that is not finite or is negative."""
    for name, value in (("q", q), ("r", r)):
        if value is not None and not (np.isfinite(value) and value >= 0):
            raise ValidationError(f"{name} must be finite and nonnegative, got {value}")


# The plant-only half of a registry comparison, shared by every seed.  A
# call that raised is not kept, so its error comes again on every call.
@functools.lru_cache(maxsize=8)
def _registry_loop(plant: str, q, r, sensors: tuple) -> _Loop:
    model, controller = get_plant(plant).factory(q=q, r=r)
    loop = _Loop.build(sensor_fault_plant(model, sensors), controller)
    _read_only(loop, loop.model, loop.plan, loop.plan.state)
    return loop


@functools.lru_cache(maxsize=8)
def _registry_alg0(plant: str, q, r, sensors: tuple, strategy: str,
                   poles) -> FaultEstimationFilter:
    pred = to_predictor(_registry_loop(plant, q, r, sensors).model)
    filt = assemble_filter(_inverse_system(pred), sensors, strategy=strategy, poles=poles)
    _read_only(filt)  # its matrices already are; this covers the state
    return filt


def run_comparison(cfg: BenchConfig) -> ExperimentReport:
    """Run the four estimators on one seeded benchmark trajectory.

    One generator drives both the identification record and the faulty
    run, so a seed pins the whole experiment.  Settings were checked when
    ``cfg`` was built; design settings are read from ``cfg.design``.  A
    Hankel size l + m above p + 1, a bad plant or a bad controller raises
    before any simulation; a failure of an arm on the data is captured in
    its result, whose ``message`` is the error's stage-tagged text once.
    alg1..alg3 share one identification and alg1 and alg3 one realized
    predictor, so a failed stage fails each arm that reads it.  Nothing
    is timed: each arm's cost is its multiply-adds per sample, counted
    from matrix shapes.

    The plant-only half of the work, which depends on (plant, q, r,
    sensors, strategy, poles) and not on the seed, is the faulty plant,
    its closed loop with the noise factors both simulations draw
    through and the loop's recursion plan, and alg0's filter.  For a
    registry plant under its registry controller it is built once per
    process and kept, read-only; alg0 runs on a copy of the kept filter.
    A seed sweep thus repeats only the simulations, the identification
    and alg1..alg3, with the same results as building everything anew.
    An explicit ``model`` or ``controller`` is built on every call.
    """
    design = cfg.design
    design._window_length(cfg.p)  # before any plant is built or simulated
    if cfg.model is None and cfg.controller is None:
        plant = (cfg.plant, cfg.q, cfg.r, cfg.sensors)
        loop = _registry_loop(*plant)
        alg0_filter = functools.partial(_registry_alg0, *plant, design.strategy, design.poles)
    else:
        model, controller = cfg.resolve_plant()
        loop = _Loop.build(sensor_fault_plant(model, cfg.sensors), controller)

        def alg0_filter():  # built in alg0's attempt, so a failure is alg0's
            return assemble_filter(_inverse_system(to_predictor(loop.model)), cfg.sensors,
                                   strategy=design.strategy, poles=design.poles)

    rng = np.random.default_rng(cfg.seed)
    ident, _ = loop.simulate(cfg.n_ident, rng,
                             eta=rng.standard_normal((cfg.n_ident, loop.model.n_inputs)))
    run_data, fault = loop.simulate(cfg.run_samples, rng, scenario=cfg.scenario)

    results = []

    def run_recursive(filt):
        # one step is the product of the step matrix with [x; u; y]
        n = filt.n_states
        return run_filter(filt, run_data), (n + filt.n_faults) * (n + filt.n_inputs + filt.n_outputs)

    def attempt(name, fn):
        try:
            estimates, macs = fn()
        except FaultFilterError as err:
            results.append(AlgorithmResult(name=name, ok=False, message=str(err)))
        else:
            err_series = estimates[cfg.window_start:] - fault[cfg.window_start:]
            results.append(AlgorithmResult(name=name, ok=True, estimates=estimates,
                                           stats=ellipse_stats(err_series),
                                           macs_per_sample=macs))

    # the stages alg1..alg3 share; a cache keeps values, not errors, so an
    # arm whose stage failed for another arm tries it again and fails alike
    @functools.cache
    def xi():
        try:
            return identify_xi(ident, cfg.p, assume_delay=cfg.assume_delay)
        except FaultFilterError as err:
            raise rewrap(err, "identify") from err

    @functools.cache
    def pred1():
        base, _ = predictor_from_xi(xi(), design.hankel_rows, design.hankel_cols,
                                    order=design.order)
        return sensor_fault_channel(base, cfg.sensors)

    def alg3():
        # moving horizon LS on alg1's realized predictor, so the residual
        # recursion and the window model come from one identified system
        # (raw identified fault blocks at long lags are noise dominated
        # and would wreck the window inverse)
        pred = pred1()
        problem = build_mhe(pred, design.markov_length)
        gen = residual_generator(pred)
        estimates = run_mhe(problem, gen.run(np.hstack([run_data.u, run_data.y])))
        # a sample costs one residual-generator step and the FIR taps
        # of the newest gain rows
        macs = (gen.A.size + gen.B.size + gen.C.size + gen.D.size
                + problem.gain_rows.size)
        return estimates, macs

    # alg0: inversion filter from the true plant, run on a copy of its own
    attempt("alg0", lambda: run_recursive(copy.copy(alg0_filter())))
    # alg1: the model based design on the predictor realized from xi
    attempt("alg1", lambda: run_recursive(assemble_filter(
        _inverse_system(pred1()), cfg.sensors, strategy=design.strategy, poles=design.poles)))
    # alg2: direct data-driven design, no intermediate plant model
    attempt("alg2", lambda: run_recursive(design_filter_from_xi(xi(), design)))
    attempt("alg3", alg3)

    return ExperimentReport(
        plant=cfg.plant if cfg.model is None else "custom",
        seed=cfg.seed,
        window=(cfg.window_start, cfg.run_samples),
        fault=fault,
        results=results,
    )


# ---------------------------------------------------------------------------
# config files


def parse_matrix(text: str) -> np.ndarray:
    """Parse 'a b; c d' into a 2-D array."""
    rows = [r.split() for r in text.split(";")]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError(f"ragged matrix literal {text!r}")
    try:
        return np.array([[float(v) for v in r] for r in rows])
    except ValueError as exc:
        raise ValidationError(f"bad matrix literal {text!r}") from exc


_PLANT_KEYS = {"name": str, **dict.fromkeys("ABCDEGFQR", parse_matrix),
               "q": float, "r": float}


def _read_ini(path, missing: str = None):
    """ConfigParser loaded from one INI file, without interpolation.

    Keys are case sensitive, so matrix keys tell Q from q.  An
    unreadable file raises ValidationError with ``missing`` (default:
    "cannot read config file <path>"); a malformed one raises
    ValidationError naming the file and the parse error.
    """
    parser = configparser.ConfigParser(interpolation=None)
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


def _plant_from_values(vals: dict) -> StateSpaceModel:
    """Plant model from the parsed matrix and noise keys of [plant]."""
    kwargs = {key: vals[key] for key in "ABCDEGFQR" if key in vals}
    for key in ("A", "B", "C"):
        if key not in kwargs:
            raise ValidationError(f"[plant] section must define {key}")
    _check_noise_scales(vals.get("q"), vals.get("r"))
    if "q" in vals and "Q" not in kwargs:
        kwargs["Q"] = vals["q"] * np.eye(kwargs.get("F", kwargs["A"]).shape[1])
    if "r" in vals and "R" not in kwargs:
        kwargs["R"] = vals["r"] * np.eye(len(kwargs["C"]))
    return StateSpaceModel(**kwargs)


def _boolean(raw: str) -> bool:
    """INI boolean in any spelling configparser accepts (yes/no, on/off, ...)."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def load_bench_config(config_path=None, plant=None, seed=None) -> BenchConfig:
    """Assemble a BenchConfig from an INI file plus the CLI options.

    Recognized sections: [plant] (registry ``name`` or explicit
    matrices, optional scalar ``q`` / ``r``), [controller] (``gain``
    matrix), [scenario] (``onset``, one based ``sensors``, ``signals``
    separated by ';'), [identify] (``p``, ``n_samples``,
    ``assume_delay``), [design] (``markov_length``, ``hankel_rows``,
    ``hankel_cols``, ``order``, ``strategy``, ``poles``), [bench]
    (``run_samples``, ``window_start``).  ``plant`` may name a
    registry entry, which replaces the [plant] ``name`` and matrices,
    or a config file with its own [plant] section.
    """
    kwargs = {}
    parser = (configparser.ConfigParser() if config_path is None
              else _read_ini(config_path))

    plant_parser = parser
    if plant is not None and plant not in _REGISTRY:
        plant_parser = _read_ini(
            plant, missing=f"--plant {plant!r} is neither a registered plant "
                           "nor a readable config file")

    if "plant" in plant_parser:
        vals = _ini_values(plant_parser["plant"], _PLANT_KEYS)
        if any(key in vals for key in "ABCDEGFQR"):
            kwargs["model"] = _plant_from_values(vals)
        elif "name" in vals:
            kwargs["plant"] = vals["name"]
        kwargs.update({key: vals[key] for key in ("q", "r") if key in vals})
    if plant in _REGISTRY:
        kwargs.update(plant=plant, model=None)
    if "controller" in plant_parser:
        ctrl = _ini_values(plant_parser["controller"], {"gain": parse_matrix})
        if "gain" in ctrl:
            kwargs["controller"] = ctrl["gain"]

    if "scenario" in parser:
        scen = _ini_values(parser["scenario"], {
            "onset": int,
            "sensors": _one_based,
            "signals": lambda raw: [part.strip() for part in raw.split(";")],
        })
        if "sensors" in scen:
            kwargs["sensors"] = scen.pop("sensors")
        kwargs["scenario"] = FaultScenario(**scen)

    if "identify" in parser:
        ident = _ini_values(parser["identify"], {
            "p": int, "n_samples": int, "assume_delay": _boolean})
        if "n_samples" in ident:
            ident["n_ident"] = ident.pop("n_samples")
        kwargs.update(ident)

    if "design" in parser:
        if "sensor" in parser["design"]:
            raise ValidationError(
                "[design] sensor is not used by benchmark configs; set the "
                "faulty sensors with [scenario] sensors")
        kwargs.update(_ini_values(parser["design"], {
            "markov_length": int,
            "hankel_rows": int,
            "hankel_cols": int,
            "order": lambda raw: raw if raw == "auto" else int(raw),
            "strategy": str,
            "poles": lambda raw: (None if raw == "none" else
                                  [float(v) for v in raw.replace(",", " ").split()]),
        }))

    if "bench" in parser:
        kwargs.update(_ini_values(parser["bench"], dict.fromkeys(
            ("run_samples", "window_start"), int)))

    if seed is not None:
        kwargs["seed"] = int(seed)
    return BenchConfig(**kwargs)


# ---------------------------------------------------------------------------
# command line interface


def _check_sensors(cfg: BenchConfig, n_outputs: int, source: str) -> None:
    """Reject a sensor past ``n_outputs``, one based as [scenario] sensors is."""
    if cfg.sensors[-1] >= n_outputs:  # the last, as they are sorted
        raise ValidationError(f"[scenario] sensors: sensor {cfg.sensors[-1] + 1} outside "
                              f"1..{n_outputs}, the outputs of {source}")


def _cli_plant(cfg: BenchConfig):
    """cfg.resolve_plant(), with the sensors checked against its outputs."""
    model, controller = cfg.resolve_plant()
    _check_sensors(cfg, model.n_outputs, "the plant")
    return model, controller


def _cli_identify(args, cfg: BenchConfig):
    """(xi, data) identified from the --data record or a simulated one."""
    if args.data is not None:
        data = IOData.from_csv(args.data)
        _finite_samples(data, args.data)
    else:
        model, controller = _cli_plant(cfg)
        data = collect_identification_data(model, controller, cfg.n_ident, cfg.seed)
    return identify_xi(data, cfg.p, assume_delay=cfg.assume_delay), data


def _cmd_identify(args, cfg: BenchConfig) -> int:
    out = os.path.join(_out_dir(args), "xi.csv")
    xi, data = _cli_identify(args, cfg)
    xi.to_csv(out)
    print(f"identified p={xi.p} blocks from {data.n_samples} samples -> {out}")
    return 0


def _cmd_design(args, cfg: BenchConfig) -> int:
    out = os.path.join(_out_dir(args), "filter.csv")
    xi = (IdentifiedXi.from_csv(args.xi) if args.xi is not None
          else _cli_identify(args, cfg)[0])
    # a simulated record has passed _cli_plant; a file has its own outputs
    _check_sensors(cfg, xi.n_y, args.xi or args.data)
    filt = design_filter_from_xi(xi, cfg.design)
    filt.to_csv(out)
    print(f"designed order {filt.n_states} filter "
          f"(strategy {filt.strategy}) -> {out}")
    return 0


def _cmd_estimate(args, cfg: BenchConfig) -> int:
    if args.filter is None or args.data is None:
        raise ValidationError("estimate needs --filter and --data")
    out = os.path.join(_out_dir(args), "estimates.csv")
    filt = FaultEstimationFilter.from_csv(args.filter)
    rho = spectral_radius(filt.Af)
    if rho >= 1.0:  # every design route leaves rho(Af) < 1
        raise ValidationError(f"{args.filter}: unstable filter, spectral radius "
                              f"of Af is {rho:.6g} >= 1")
    data = IOData.from_csv(args.data)
    _finite_samples(data, args.data)
    estimates = run_filter(filt, data)
    _write_csv(out, [["k"] + [f"fhat{i+1}" for i in range(filt.n_faults)]],
               (np.arange(len(estimates)), estimates))
    print(f"estimated {estimates.shape[0]} samples -> {out}")
    return 0


def _cmd_compare(args, cfg: BenchConfig) -> int:
    out_dir = _out_dir(args)
    _cli_plant(cfg)  # for the one-based sensor check only
    report = run_comparison(cfg)
    report.write(out_dir)
    print(report.summary())
    print(f"wrote estimates.csv, stats.csv, report.svg, cost.txt -> {out_dir}")
    return 0


def _cmd_zeros(args, cfg: BenchConfig) -> int:
    model, _ = _cli_plant(cfg)
    pred = to_predictor(sensor_fault_plant(model, cfg.sensors))
    ok, zeros = invariant_zeros_stable(pred.Phi, pred.Et, pred.C, pred.G)
    sensors_1b = " ".join(str(j + 1) for j in cfg.sensors)
    if zeros.size == 0:
        print(f"sensors {sensors_1b}: no invariant zeros")
    else:
        print(f"sensors {sensors_1b}: invariant zeros [{_listing(zeros, 6)}]")
    print("stable inversion possible" if ok
          else "stable inversion NOT possible (zero on or outside the unit circle)")
    return 0


def _out_dir(args) -> str:
    """The --out directory (default: current), created if missing.

    The verbs that write call this before any work, so a path that
    cannot be a directory, such as one running through a regular file,
    stops the run at once with a ValidationError naming it.
    """
    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    return out_dir


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process.

    ``parse_args`` returns a fresh namespace on every call, so one
    parser serves successive ``main`` calls.
    """
    parser = argparse.ArgumentParser(
        prog="faultfilter",
        description="data-driven sensor fault estimation filters: identify "
                    "Markov parameters, design inversion filters, run and "
                    "benchmark them")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--seed", type=int, default=None, help="experiment seed")
    common.add_argument("--out", help="output directory (default: current)")
    common.add_argument("--plant", help="registry plant name or plant config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify", parents=[common],
                          help="estimate Markov parameters from data")
    p_id.add_argument("--data", help="IO data CSV (default: simulate the plant)")

    p_de = sub.add_parser("design", parents=[common],
                          help="design a fault estimation filter")
    p_de.add_argument("--xi", help="identified Markov parameter CSV")
    p_de.add_argument("--data", help="IO data CSV (identified first)")

    p_es = sub.add_parser("estimate", parents=[common],
                          help="run a saved filter on recorded data")
    p_es.add_argument("--filter", help="filter bundle CSV")
    p_es.add_argument("--data", help="IO data CSV")

    sub.add_parser("compare", parents=[common],
                   help="four-way benchmark on a faulty closed-loop run")

    sub.add_parser("zeros", parents=[common],
                   help="list invariant zeros and check stable invertibility")

    return parser


def main(argv=None) -> int:
    """CLI dispatcher; returns the process exit code."""
    args = _parser().parse_args(argv)
    handlers = {
        "identify": _cmd_identify,
        "design": _cmd_design,
        "estimate": _cmd_estimate,
        "compare": _cmd_compare,
        "zeros": _cmd_zeros,
    }
    try:
        cfg = load_bench_config(args.config, plant=args.plant, seed=args.seed)
        return handlers[args.command](args, cfg)
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # an output file that cannot be written
        print(f"validation error: cannot write {err.filename}: {err.strerror}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    """Console script entry point."""
    sys.exit(main())
