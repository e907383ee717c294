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
stabilizing output feedback gain; user plants plug in through the same
registration hook or a plain config file.  Reports carry estimate
series, error means and covariances, 3-sigma ellipse parameters and per
step timing, and serialize to CSV (authoritative, byte deterministic per
seed) plus a small self-contained SVG plot; timing goes to a separate
text file because it is machine dependent.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FaultFilterError,
    NumericalError,
    ValidationError,
)
from .inverse_filter import (
    FaultEstimationFilter,
    invariant_zeros_stable,
    open_loop_inverse,
    reduced_filter,
    residual_generator,
    run_filter,
    stabilizing_gain,
)
from .lti_core import (
    IOData,
    LinearSystem,
    StateSpaceModel,
    _FMT,
    _finite_samples,
    _sensor_list,
    _write_csv,
    block_toeplitz,
    lti_recursion,
    psd_factor,
    sensor_fault_channel,
    sensor_fault_plant,
    spectral_radius,
    to_predictor,
)
from .markov_design import (
    DesignConfig,
    _design_section,
    _ini_values,
    _one_based,
    _read_ini,
    design_filter_from_xi,
    predictor_from_xi,
    z_markov,
)
from .mhe_baseline import build_mhe, run_mhe
from .sysid_markov import IdentifiedXi, identify_xi

__all__ = [
    "FeedbackController",
    "FaultScenario",
    "parse_fault_signal",
    "register_plant",
    "get_plant",
    "list_plants",
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
# controllers, scenarios, plants


@dataclass
class FeedbackController:
    """Static output feedback u(k) = -gain y(k) + eta(k).

    ``reference`` optionally fixes the additive excitation eta as a
    preset series; when absent the simulation helpers draw white noise
    (identification) or use zero (fault runs).
    """

    gain: np.ndarray
    reference: np.ndarray = None

    def __post_init__(self):
        self.gain = np.atleast_2d(np.asarray(self.gain, dtype=float))
        if self.reference is not None:
            self.reference = np.atleast_2d(np.asarray(self.reference, dtype=float))
            if self.reference.shape[1] != self.gain.shape[0]:
                raise ValidationError(
                    "reference width must match the controller input count")


def parse_fault_signal(text: str):
    """Parse a fault signal expression into term tuples.

    Grammar: terms joined by '+', each one of

        <amp>                   constant offset from onset on
        step <amp>              same, spelled out
        [<amp>] sin <freq>      sinusoid amp*sin(freq*k), amp defaults 1
        [<amp>] cos <freq>      cosinusoid

    Frequencies accept a trailing ``pi`` multiplier, e.g. ``0.1pi``.
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

    terms = []
    for part in text.split("+"):
        toks = part.split()
        if not toks:
            raise ValidationError(f"empty term in fault signal {text!r}")
        if toks[0] in ("sin", "cos") and len(toks) == 2:
            terms.append((toks[0], 1.0, freq(toks[1])))
        elif len(toks) == 3 and toks[1] in ("sin", "cos"):
            terms.append((toks[1], number(toks[0], "amplitude"), freq(toks[2])))
        elif toks[0] == "step" and len(toks) == 2:
            terms.append(("step", number(toks[1], "amplitude")))
        elif len(toks) == 1:
            terms.append(("step", number(toks[0], "amplitude")))
        else:
            raise ValidationError(f"cannot parse fault signal term {part!r}")
    return terms


_DEFAULT_SIGNAL = (("sin", 1.0, 0.1 * np.pi), ("step", 1.0))


@dataclass
class FaultScenario:
    """When and how sensors fail.

    ``sensors`` lists the affected output indices (zero based); one
    signal term list per sensor describes the fault value from the
    onset sample on (zero before).  Signals are evaluated on the
    absolute sample index, so a sinusoid keeps its phase regardless of
    the onset.
    """

    onset: int = 51
    sensors: tuple = (0,)
    signals: tuple = None

    def __post_init__(self):
        self.sensors = tuple(int(j) for j in
                             (self.sensors if not np.isscalar(self.sensors)
                              else [self.sensors]))
        if self.signals is None:
            self.signals = tuple(_DEFAULT_SIGNAL for _ in self.sensors)
        else:
            sigs = []
            for sig in self.signals:
                sigs.append(parse_fault_signal(sig) if isinstance(sig, str)
                            else tuple(sig))
            self.signals = tuple(tuple(t) for t in sigs)
        if len(self.signals) != len(self.sensors):
            raise ValidationError(
                f"{len(self.sensors)} sensors but {len(self.signals)} signals")
        if self.onset < 0:
            raise ValidationError("onset must be nonnegative")

    @property
    def n_faults(self) -> int:
        return len(self.sensors)

    def evaluate(self, N: int) -> np.ndarray:
        """Fault value series of shape (N, n_faults)."""
        f = np.zeros((N, self.n_faults))
        k = np.arange(self.onset, N)
        for i, terms in enumerate(self.signals):
            val = np.zeros(len(k))
            for term in terms:
                if term[0] == "step":
                    val += term[1]
                elif term[0] == "sin":
                    val += term[1] * np.sin(term[2] * k)
                elif term[0] == "cos":
                    val += term[1] * np.cos(term[2] * k)
                else:
                    raise ValidationError(f"unknown fault term {term!r}")
            f[self.onset:, i] = val
        return f


@dataclass
class PlantEntry:
    name: str
    factory: object
    description: str = ""


_REGISTRY: dict = {}


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


def register_plant(name: str, factory, description: str = "") -> None:
    """Add a plant to the registry.

    ``factory(q=None, r=None)`` must return a (StateSpaceModel,
    FeedbackController) pair, with the scalars overriding the default
    noise intensities Q = q I, R = r I.  Registration runs the factory
    once and rejects controllers that fail to stabilize the plant.
    """
    model, ctrl = factory()
    try:
        _closed_loop_system(model, ctrl.gain)
    except ValidationError as exc:
        raise ValidationError(f"plant {name!r}: {exc}") from exc
    _REGISTRY[name] = PlantEntry(name, factory, description)


def get_plant(name: str) -> PlantEntry:
    if name not in _REGISTRY:
        raise ValidationError(
            f"unknown plant {name!r}; registered: {', '.join(sorted(_REGISTRY))}")
    return _REGISTRY[name]


def list_plants():
    return sorted(_REGISTRY)


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
    model = StateSpaceModel(A, B, C, Q=q * np.eye(4), R=r * np.eye(2))
    return model, FeedbackController(gain)


register_plant("unstable4", _unstable4_factory,
               "4-state unstable plant, 2 in / 2 out, stabilizing gain included")


# ---------------------------------------------------------------------------
# closed-loop simulation


def closed_loop_sim(model: StateSpaceModel, controller: FeedbackController,
                    N: int, rng, scenario: FaultScenario = None,
                    excite_cov=None):
    """Simulate the feedback loop, optionally with faults and excitation.

    The measured output carries the sensor faults, and the controller
    acts on that faulty measurement.  Excitation eta is the controller's
    preset reference when given, else white noise with ``excite_cov``
    when given, else zero.  Draw order (eta, process noise, measurement
    noise) is fixed so runs are reproducible from the generator state.

    Returns:
        (IOData, fault_series) with the applied fault values.
    """
    nu, ny = model.n_inputs, model.n_outputs
    loop = _closed_loop_system(model, controller.gain)

    if controller.reference is not None:
        if controller.reference.shape[0] < N:
            raise ValidationError("preset reference shorter than the run")
        eta = controller.reference[:N]
    elif excite_cov is not None:
        eta = rng.standard_normal((N, nu)) @ psd_factor(excite_cov).T
    else:
        eta = np.zeros((N, nu))
    W = rng.standard_normal((N, model.F.shape[1])) @ psd_factor(model.Q).T
    V = rng.standard_normal((N, ny)) @ psd_factor(model.R).T

    nf = model.n_faults
    if scenario is not None:
        if scenario.n_faults != nf:
            raise ValidationError(
                f"scenario drives {scenario.n_faults} faults, model has {nf}")
        fault = scenario.evaluate(N)
    else:
        fault = np.zeros((N, nf))

    UY, _ = lti_recursion(loop.A, loop.B, loop.C, loop.D,
                          np.hstack([eta, W, V, fault]))
    return IOData(UY[:, :nu], UY[:, nu:]), fault


def collect_identification_data(plant: StateSpaceModel,
                                controller: FeedbackController,
                                N: int, seed: int,
                                excite_cov=None) -> IOData:
    """Fault-free closed-loop record for identification.

    Excitation is white with ``excite_cov`` (identity by default), which
    is what makes the regression well posed despite the feedback.
    """
    rng = np.random.default_rng(seed)
    cov = np.eye(plant.n_inputs) if excite_cov is None else excite_cov
    data, _ = closed_loop_sim(plant, controller, N, rng, scenario=None,
                              excite_cov=cov)
    return data


# ---------------------------------------------------------------------------
# statistics


@dataclass
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
# timing


def time_filter_step(filt: FaultEstimationFilter, steps: int = 10000,
                     seed: int = 0) -> float:
    """Median nanoseconds per recursive filter step.

    Times the combined update [x; f] = M [x; u; y] as a single matrix
    vector product, which is how a production loop would run it.
    """
    rng = np.random.default_rng(seed)
    M = filt.step_matrix()
    n = filt.n_states
    v = rng.standard_normal(M.shape[1])
    out = np.empty(M.shape[0])
    ts = np.empty(steps)
    for i in range(steps):
        t0 = time.perf_counter_ns()
        np.dot(M, v, out=out)
        v[:n] = out[:n]
        ts[i] = time.perf_counter_ns() - t0
    return float(np.median(ts))


def time_window_step(window_map: np.ndarray, block: int, steps: int = 10000,
                     seed: int = 0) -> float:
    """Median nanoseconds per sliding-window estimate.

    Times one window shift (roll in ``block`` new entries) plus the
    window matrix product, the per-sample work of the moving horizon
    path.
    """
    rng = np.random.default_rng(seed)
    width = window_map.shape[1]
    zwin = rng.standard_normal(width)
    znew = rng.standard_normal(block)
    ts = np.empty(steps)
    for i in range(steps):
        t0 = time.perf_counter_ns()
        zwin[:-block] = zwin[block:]
        zwin[-block:] = znew
        window_map @ zwin
        ts[i] = time.perf_counter_ns() - t0
    return float(np.median(ts))


# ---------------------------------------------------------------------------
# report


@dataclass
class AlgorithmResult:
    """Outcome of one estimator on the benchmark trajectory."""

    name: str
    ok: bool
    estimates: np.ndarray = None
    stats: EllipseStats = None
    step_time_ns: float = None
    message: str = ""


@dataclass
class ExperimentReport:
    """Everything one benchmark run produced."""

    plant: str
    seed: int
    scenario: FaultScenario
    window: tuple
    fault: np.ndarray
    results: list

    def result(self, name: str) -> AlgorithmResult:
        for res in self.results:
            if res.name == name:
                return res
        raise ValidationError(f"no result named {name!r}")

    def summary(self) -> str:
        lines = [f"plant {self.plant}, seed {self.seed}, "
                 f"window [{self.window[0]}, {self.window[1]})"]
        for res in self.results:
            if not res.ok:
                lines.append(f"  {res.name}: FAILED ({res.message})")
                continue
            tr = float(np.trace(res.stats.covariance))
            timing = ("" if res.step_time_ns is None
                      else f", step {res.step_time_ns:.0f} ns")
            lines.append(
                f"  {res.name}: trace(cov) {tr:.6g}, mean norm "
                f"{np.linalg.norm(res.stats.mean):.4g}{timing}")
        return "\n".join(lines)

    def to_csv(self, out_dir) -> None:
        """Write estimates.csv and stats.csv into a directory."""
        import os
        os.makedirs(out_dir, exist_ok=True)
        nf = self.fault.shape[1]
        ok = [res for res in self.results if res.ok]
        _write_csv(os.path.join(out_dir, "estimates.csv"),
                   [["k"] + [f"f{i+1}" for i in range(nf)]
                    + [f"{res.name}_f{i+1}" for res in ok for i in range(nf)]],
                   np.column_stack([np.arange(len(self.fault)), self.fault]
                                   + [res.estimates for res in ok]))
        with open(os.path.join(out_dir, "stats.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["algorithm", "ok", "samples", "mean", "covariance",
                        "ellipse_axes", "degenerate", "message"])
            for res in self.results:
                if res.ok:
                    st = res.stats
                    w.writerow([
                        res.name, 1, st.n_samples,
                        " ".join(_FMT % v for v in st.mean),
                        " ".join(_FMT % v for v in st.covariance.reshape(-1)),
                        " ".join(_FMT % v for v in st.axes),
                        int(st.degenerate), "",
                    ])
                else:
                    w.writerow([res.name, 0, 0, "", "", "", "", res.message])

    def write_timing(self, path) -> None:
        with open(path, "w") as fh:
            for res in self.results:
                if res.step_time_ns is not None:
                    fh.write(f"{res.name} median_step_ns {res.step_time_ns:.1f}\n")

    def to_svg(self, path) -> None:
        write_report_svg(self, path)


# ---------------------------------------------------------------------------
# svg plotting (self-contained, no plotting dependencies)

_COLORS = {"alg0": "#1f77b4", "alg1": "#ff7f0e", "alg2": "#2ca02c",
           "alg3": "#d62728"}


def _svg_open(width, height, title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" font-family="sans-serif" '
        f'font-size="15" text-anchor="middle">{title}</text>',
    ]


def _svg_axes(parts, x0, y0, w, h):
    parts.append(
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" '
        f'stroke="#444" stroke-width="1"/>')


def _svg_legend(parts, entries, x, y):
    for i, (name, ok) in enumerate(entries):
        color = _COLORS.get(name, "#888")
        yy = y + 18 * i
        parts.append(f'<circle cx="{x}" cy="{yy - 4}" r="4" fill="{color}"/>')
        label = name if ok else f"{name} (failed)"
        parts.append(
            f'<text x="{x + 10}" y="{yy}" font-family="sans-serif" '
            f'font-size="12">{label}</text>')


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
    parts = _svg_open(width, height,
                      f"fault estimation errors, plant {report.plant}, "
                      f"seed {report.seed}")
    if nf >= 2 and ok_results:
        # equal-aspect scatter of the first two error components
        pts = {}
        for res in ok_results:
            err = res.estimates[k0:k1, :2] - report.fault[k0:k1, :2]
            pts[res.name] = err[np.all(np.isfinite(err), axis=1)]
        allpts = np.vstack(list(pts.values()))
        span = max(np.abs(allpts).max(), 1e-12) * 1.15
        scale = min(pw, ph) / (2 * span)
        cx, cy = x0 + pw / 2, y0 + ph / 2

        def to_px(p):
            return cx + p[0] * scale, cy - p[1] * scale

        _svg_axes(parts, x0, y0, pw, ph)
        parts.append(
            f'<text x="{x0 + pw / 2:.0f}" y="{y0 + ph + 32}" font-family='
            f'"sans-serif" font-size="12" text-anchor="middle">error, '
            f'component 1 (half range {span:.3g})</text>')
        parts.append(
            f'<text x="{x0 - 40}" y="{y0 + ph / 2:.0f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle" transform="rotate(-90 '
            f'{x0 - 40} {y0 + ph / 2:.0f})">error, component 2</text>')
        for res in ok_results:
            color = _COLORS.get(res.name, "#888")
            cloud = pts[res.name]
            stride = max(1, len(cloud) // 300)
            for p in cloud[::stride]:
                px, py = to_px(p)
                parts.append(
                    f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.6" '
                    f'fill="{color}" fill-opacity="0.45"/>')
        for res in ok_results:
            st = res.stats
            color = _COLORS.get(res.name, "#888")
            mx, my = to_px(st.mean[:2])
            v = st.directions[:2, 0]
            ang = -np.degrees(np.arctan2(v[1], v[0]))
            rx = max(st.axes[0] * scale, 0.5)
            ry = max((st.axes[1] if len(st.axes) > 1 else 0.0) * scale, 0.5)
            parts.append(
                f'<g transform="translate({mx:.2f} {my:.2f}) rotate({ang:.2f})">'
                f'<ellipse rx="{rx:.2f}" ry="{ry:.2f}" fill="none" '
                f'stroke="{color}" stroke-width="1.8"/></g>')
    elif ok_results:
        # single fault dimension: error against time with 3-sigma bands
        errs = {r.name: r.estimates[k0:k1, 0] - report.fault[k0:k1, 0]
                for r in ok_results}
        allvals = np.hstack([e[np.isfinite(e)] for e in errs.values()])
        span = max(np.abs(allvals).max(), 1e-12) * 1.15
        n = k1 - k0
        _svg_axes(parts, x0, y0, pw, ph)

        def to_px(k, v):
            return (x0 + pw * (k / max(n - 1, 1)),
                    y0 + ph / 2 - v / span * (ph / 2))

        parts.append(
            f'<text x="{x0 + pw / 2:.0f}" y="{y0 + ph + 32}" font-family='
            f'"sans-serif" font-size="12" text-anchor="middle">sample '
            f'{k0} .. {k1 - 1}</text>')
        parts.append(
            f'<text x="{x0 - 40}" y="{y0 + ph / 2:.0f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle" transform="rotate(-90 '
            f'{x0 - 40} {y0 + ph / 2:.0f})">estimation error (half range '
            f'{span:.3g})</text>')
        for res in ok_results:
            color = _COLORS.get(res.name, "#888")
            err = errs[res.name]
            stride = max(1, len(err) // 400)
            for k in range(0, len(err), stride):
                if np.isfinite(err[k]):
                    px, py = to_px(k, err[k])
                    parts.append(
                        f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.4" '
                        f'fill="{color}" fill-opacity="0.45"/>')
            st = res.stats
            for edge in (st.mean[0] - st.axes[0], st.mean[0] + st.axes[0]):
                _, py = to_px(0, edge)
                parts.append(
                    f'<line x1="{x0}" x2="{x0 + pw}" y1="{py:.2f}" '
                    f'y2="{py:.2f}" stroke="{color}" stroke-width="1.2" '
                    f'stroke-dasharray="6 4"/>')
    _svg_legend(parts, [(r.name, r.ok) for r in report.results],
                x0 + pw + 24, y0 + 16)
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# benchmark configuration and orchestration


@dataclass
class BenchConfig:
    """Everything a comparison run needs.

    Defaults reproduce the standard protocol on the registry plant:
    p = 100 past window, window length 100, 20 x 20 Hankel blocks,
    order 4, pole placement at BENCH_POLES, 1000 identification samples
    and a 1300 sample fault run scored on samples 300 onward.  For
    plants of other sizes set ``order`` to "auto" and either supply a
    matching pole list or switch the strategy to riccati.
    """

    plant: str = "unstable4"
    model: StateSpaceModel = None
    controller: FeedbackController = None
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
    ridge: float = 0.0
    assume_delay: bool = True
    n_ident: int = 1000
    run_samples: int = 1300
    window_start: int = 300
    window_stop: int = None
    timing_steps: int = 2000
    seed: int = 0

    def resolve_plant(self):
        """(model, controller) from explicit matrices or the registry."""
        if self.model is not None:
            if self.controller is None:
                raise ValidationError("explicit plant needs a controller")
            return self.model, self.controller
        model, ctrl = get_plant(self.plant).factory(q=self.q, r=self.r)
        if self.controller is not None:
            ctrl = self.controller
        return model, ctrl


def _design_config(cfg: BenchConfig) -> DesignConfig:
    return DesignConfig(
        sensor=list(cfg.scenario.sensors),
        markov_length=cfg.markov_length,
        hankel_rows=cfg.hankel_rows,
        hankel_cols=cfg.hankel_cols,
        order=cfg.order,
        strategy=cfg.strategy,
        poles=None if cfg.poles is None else list(cfg.poles),
    )


def run_comparison(cfg: BenchConfig) -> ExperimentReport:
    """Run the four estimators on one seeded benchmark trajectory.

    One generator drives both the identification record and the faulty
    run, so a seed pins the whole experiment.  Failures of individual
    algorithms are captured in their result entries instead of aborting
    the run.
    """
    model, controller = cfg.resolve_plant()
    scenario = cfg.scenario
    J = _sensor_list(list(scenario.sensors), model.n_outputs)
    if list(J) != list(scenario.sensors):
        raise ValidationError("scenario sensors must be sorted and unique")
    faulty = sensor_fault_plant(model, J)
    L = cfg.markov_length
    stop = cfg.run_samples if cfg.window_stop is None else cfg.window_stop
    if not 0 <= cfg.window_start < stop <= cfg.run_samples:
        raise ValidationError(
            f"bad statistics window [{cfg.window_start}, {stop}) for "
            f"{cfg.run_samples} samples")

    rng = np.random.default_rng(cfg.seed)
    ident, _ = closed_loop_sim(faulty, controller, cfg.n_ident, rng,
                               scenario=None,
                               excite_cov=np.eye(model.n_inputs))
    run_data, fault = closed_loop_sim(faulty, controller, cfg.run_samples,
                                      rng, scenario=scenario, excite_cov=None)

    results = []

    def attempt(name, fn):
        try:
            estimates, step_ns = fn()
        except FaultFilterError as err:
            results.append(AlgorithmResult(name=name, ok=False,
                                           message=f"{name}: {err}"))
            return None
        err_series = estimates[cfg.window_start:stop] - fault[cfg.window_start:stop]
        res = AlgorithmResult(name=name, ok=True, estimates=estimates,
                              stats=ellipse_stats(err_series),
                              step_time_ns=step_ns)
        results.append(res)
        return res

    def model_based_filter(pred):
        inv = open_loop_inverse(pred)
        Kr = stabilizing_gain(inv.Phi1, inv.C2, strategy=cfg.strategy,
                              poles=None if cfg.poles is None else list(cfg.poles))
        return reduced_filter(pred, Kr, strategy=cfg.strategy)

    # alg0: inversion filter from the true plant
    def alg0():
        filt = model_based_filter(to_predictor(faulty))
        return (run_filter(filt, run_data),
                time_filter_step(filt, cfg.timing_steps))

    attempt("alg0", alg0)

    # identification feeds alg1..alg3; a failure here fails all three
    xi = None
    try:
        xi = identify_xi(ident, cfg.p, ridge=cfg.ridge,
                         assume_delay=cfg.assume_delay)
    except FaultFilterError as err:
        for name in ("alg1", "alg2", "alg3"):
            results.append(AlgorithmResult(
                name=name, ok=False, message=f"{name}: identify: {err}"))

    pred1 = None
    if xi is not None:
        # alg1: realize a plant predictor from the Markov parameters,
        # then run the model based design on it
        def alg1():
            nonlocal pred1
            base, _ = predictor_from_xi(xi, cfg.hankel_rows, cfg.hankel_cols,
                                        order=cfg.order)
            pred1 = sensor_fault_channel(base, J)
            filt = model_based_filter(pred1)
            return (run_filter(filt, run_data),
                    time_filter_step(filt, cfg.timing_steps))

        attempt("alg1", alg1)

        # alg2: direct data-driven design, no intermediate plant model
        def alg2():
            filt = design_filter_from_xi(xi, _design_config(cfg))
            return (run_filter(filt, run_data),
                    time_filter_step(filt, cfg.timing_steps))

        attempt("alg2", alg2)

        # alg3: moving horizon LS on alg1's realized predictor, so the
        # residual recursion and the window model come from one
        # identified system (raw identified fault blocks at long lags
        # are noise dominated and would wreck the window inverse)
        def alg3():
            if pred1 is None:
                raise ValidationError(
                    "needs the realized predictor (alg1 failed upstream)")
            problem = build_mhe(pred1, L)
            res_series = residual_generator(pred1).run(
                np.hstack([run_data.u, run_data.y]))
            estimates = run_mhe(problem, res_series)
            Hz = z_markov(xi.Hu, xi.Hy, L)
            window_map = problem.gain[-problem.n_faults:] @ block_toeplitz(Hz, L)
            step_ns = time_window_step(window_map, Hz.block_shape[1],
                                       cfg.timing_steps)
            return estimates, step_ns

        attempt("alg3", alg3)

    return ExperimentReport(
        plant=cfg.plant if cfg.model is None else "custom",
        seed=cfg.seed,
        scenario=scenario,
        window=(cfg.window_start, stop),
        fault=fault,
        results=results,
    )


# ---------------------------------------------------------------------------
# config files


def parse_matrix(text: str) -> np.ndarray:
    """Parse 'a b; c d' into a 2-D array."""
    rows = [r.split() for r in text.split(";")]
    try:
        M = np.array([[float(v) for v in r] for r in rows])
    except ValueError as exc:
        raise ValidationError(f"bad matrix literal {text!r}") from exc
    if M.ndim != 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError(f"ragged matrix literal {text!r}")
    return M


_PLANT_KEYS = {"name": str, **dict.fromkeys("ABCDEGFQR", parse_matrix),
               "q": float, "r": float}


def _plant_from_values(vals: dict) -> StateSpaceModel:
    """Plant model from the parsed matrix and noise keys of [plant]."""
    kwargs = {key: vals[key] for key in "ABCDEGFQR" if key in vals}
    for key in ("A", "B", "C"):
        if key not in kwargs:
            raise ValidationError(f"[plant] section must define {key}")
    model = StateSpaceModel(**kwargs)
    if "q" in vals and "Q" not in kwargs:
        kwargs["Q"] = vals["q"] * np.eye(model.F.shape[1])
    if "r" in vals and "R" not in kwargs:
        kwargs["R"] = vals["r"] * np.eye(model.n_outputs)
    return StateSpaceModel(**kwargs)


def _boolean(raw: str) -> bool:
    """INI boolean in any spelling configparser accepts (yes/no, on/off, ...)."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def load_bench_config(config_path=None, plant=None, seed=None,
                      overrides=None) -> BenchConfig:
    """Assemble a BenchConfig from an INI file plus CLI overrides.

    Recognized sections: [plant] (registry ``name`` or explicit
    matrices, optional scalar ``q`` / ``r``), [controller] (``gain``
    matrix), [scenario] (``onset``, one based ``sensors``, ``signals``
    separated by ';'), [identify] (``p``, ``n_samples``, ``ridge``,
    ``assume_delay``), [design] (``markov_length``, ``hankel_rows``,
    ``hankel_cols``, ``order``, ``strategy``, ``poles``), [bench]
    (``run_samples``, ``window_start``, ``window_stop``,
    ``timing_steps``).  ``plant`` may name a registry entry or a config
    file with its own [plant] section.
    """
    kwargs = dict(overrides or {})
    # matrix keys are case sensitive (Q vs q)
    parser = (configparser.ConfigParser() if config_path is None
              else _read_ini(config_path, case_sensitive=True))

    plant_parser = parser
    if plant is not None:
        if plant in _REGISTRY:
            kwargs["plant"] = plant
        else:
            plant_parser = _read_ini(
                plant, case_sensitive=True,
                missing=f"--plant {plant!r} is neither a registered plant nor a "
                        "readable config file")

    if "plant" in plant_parser:
        vals = _ini_values(plant_parser["plant"], _PLANT_KEYS)
        if any(key in vals for key in "ABCDEGFQR"):
            kwargs["model"] = _plant_from_values(vals)
        elif "name" in vals:
            kwargs["plant"] = vals["name"]
        kwargs.update({key: vals[key] for key in ("q", "r") if key in vals})
    if "controller" in plant_parser:
        ctrl = _ini_values(plant_parser["controller"], {"gain": parse_matrix})
        if "gain" in ctrl:
            kwargs["controller"] = FeedbackController(ctrl["gain"])

    if "scenario" in parser:
        kwargs["scenario"] = FaultScenario(**_ini_values(parser["scenario"], {
            "onset": int,
            "sensors": _one_based,
            "signals": lambda raw: [part.strip() for part in raw.split(";")],
        }))

    if "identify" in parser:
        ident = _ini_values(parser["identify"], {
            "p": int, "n_samples": int, "ridge": float, "assume_delay": _boolean})
        if "n_samples" in ident:
            ident["n_ident"] = ident.pop("n_samples")
        kwargs.update(ident)

    if "design" in parser:
        if "sensor" in parser["design"]:
            raise ValidationError(
                "[design] sensor is not used by benchmark configs; set the "
                "faulty sensors with [scenario] sensors")
        kwargs.update(_design_section(parser["design"]))

    if "bench" in parser:
        kwargs.update(_ini_values(parser["bench"], dict.fromkeys(
            ("run_samples", "window_start", "window_stop", "timing_steps"), int)))

    if seed is not None:
        kwargs["seed"] = int(seed)
    try:
        return BenchConfig(**kwargs)
    except TypeError as exc:
        raise ValidationError(f"bad benchmark config: {exc}") from exc


# ---------------------------------------------------------------------------
# command line interface


def _cli_identify(args, cfg: BenchConfig):
    """(xi, data) identified from the --data record or a simulated one."""
    if args.data is not None:
        data = IOData.from_csv(args.data)
        _finite_samples(data, args.data)
    else:
        model, controller = cfg.resolve_plant()
        data = collect_identification_data(model, controller, cfg.n_ident, cfg.seed)
    return identify_xi(data, cfg.p, ridge=cfg.ridge, assume_delay=cfg.assume_delay), data


def _cmd_identify(args, cfg: BenchConfig) -> int:
    xi, data = _cli_identify(args, cfg)
    out = _out_path(args, "xi.csv")
    xi.to_csv(out)
    print(f"identified p={xi.p} blocks from {data.n_samples} samples -> {out}")
    return 0


def _cmd_design(args, cfg: BenchConfig) -> int:
    xi = (IdentifiedXi.from_csv(args.xi) if args.xi is not None
          else _cli_identify(args, cfg)[0])
    filt = design_filter_from_xi(xi, _design_config(cfg))
    out = _out_path(args, "filter.csv")
    filt.to_csv(out)
    print(f"designed order {filt.n_states} filter "
          f"(strategy {filt.strategy}) -> {out}")
    return 0


def _cmd_estimate(args, cfg: BenchConfig) -> int:
    if args.filter is None or args.data is None:
        raise ValidationError("estimate needs --filter and --data")
    filt = FaultEstimationFilter.from_csv(args.filter)
    data = IOData.from_csv(args.data)
    _finite_samples(data, args.data)
    estimates = run_filter(filt, data)
    out = _out_path(args, "estimates.csv")
    _write_csv(out, [["k"] + [f"fhat{i+1}" for i in range(filt.n_faults)]],
               np.column_stack([np.arange(len(estimates)), estimates]))
    print(f"estimated {estimates.shape[0]} samples -> {out}")
    return 0


def _cmd_compare(args, cfg: BenchConfig) -> int:
    import os
    report = run_comparison(cfg)
    out_dir = args.out or "."
    report.to_csv(out_dir)
    report.to_svg(os.path.join(out_dir, "report.svg"))
    report.write_timing(os.path.join(out_dir, "timing.txt"))
    print(report.summary())
    print(f"wrote estimates.csv, stats.csv, report.svg, timing.txt -> {out_dir}")
    return 0


def _cmd_zeros(args, cfg: BenchConfig) -> int:
    model, _ = cfg.resolve_plant()
    J = _sensor_list(list(cfg.scenario.sensors), model.n_outputs)
    pred = to_predictor(sensor_fault_plant(model, J))
    ok, zeros = invariant_zeros_stable(pred.Phi, pred.Et, pred.C, pred.G)
    sensors_1b = " ".join(str(j + 1) for j in J)
    if zeros.size == 0:
        print(f"sensors {sensors_1b}: no invariant zeros")
    else:
        listing = ", ".join(
            f"{z.real:.6g}" if abs(z.imag) < 1e-12 else f"{z:.6g}"
            for z in zeros)
        print(f"sensors {sensors_1b}: invariant zeros [{listing}]")
    print("stable inversion possible" if ok
          else "stable inversion NOT possible (zero on or outside the unit circle)")
    return 0


def _out_path(args, default_name):
    import os
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, default_name)


def main(argv=None) -> int:
    """CLI dispatcher; returns the process exit code."""
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

    args = parser.parse_args(argv)
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
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    """Console script entry point."""
    sys.exit(main())
