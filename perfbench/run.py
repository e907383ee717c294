"""Benchmark runner: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compare --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the loop runs untraced and the last stdout line is a
JSON object with the end-to-end metrics of BENCHMARK.json: ``setup_s``
and ``op_ms``, both scaled by the reference kernel (see ``Reference``).
With ``--trace 1`` the first third of the time runs untraced, then spans
are installed around every layer boundary, set-up is repeated traced and
the rest of the time runs traced; the last line then carries the
per-layer metrics and ``tracing_overhead_ms`` (traced minus untraced
median operation time, unscaled).  ``all`` runs every workload both ways
in child processes and prints one table.

Each run also writes ``perfbench/out/<workload>-seed<n>-trace<t>.json``
with the environment, unscaled and scaled times, the reference kernel's
times, per-part timings, tail percentiles, diagnostics and the checks,
and a traced run writes its spans next to it.  The program
is imported from ``src/`` of the checkout; without it the runner exits
with code 2 before measuring anything.
"""
from __future__ import annotations

import os

# Pin BLAS before numpy loads: on a 2-core machine a second BLAS thread
# made the first identification 3x slower and later runs noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# Scaled times read as on a host where the reference kernel takes REF_S
# seconds.  On the 2-core x86-64 host the benchmark was written on it
# took 10-15 ms, depending on the load from outside.
REF_S = 0.010


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_package() -> float:
    """Import faultfilter from the checkout's src/; returns the import time.

    A single import's time moved between 0.9 and 1.8 s from run to run,
    so the time reported is the median over ``IMPORT_REPEATS`` fresh
    interpreters, each timing ``import numpy, faultfilter`` alone.
    """
    if not (SRC / "faultfilter" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'faultfilter'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import faultfilter
    import workloads  # noqa: F401
    if Path(faultfilter.__file__).resolve().parent != (SRC / "faultfilter").resolve():
        fail(f"faultfilter imported from {faultfilter.__file__}, not {SRC}")
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            "t0 = time.perf_counter(); import numpy, faultfilter; "
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                               capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            fail(f"importing faultfilter failed: {child.stderr.strip()}")
        times.append(float(child.stdout))
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "faultfilter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Reference:
    """A fixed kernel timed next to every operation, to read host speed.

    On the shared 2-core host, load from outside the process slowed
    identical code by 1.3-2x for minutes at a time, in CPU time as much
    as in wall time.  The kernel mixes the three kinds of work the
    package does: interpreter loops, small numpy products and a dense
    least-squares solve.  Its inputs are fixed and it never calls the
    package, so a change to the package cannot move it.

    Timed operations are scaled by the kernel's time just before them:
    ``op_ms`` is the median over operations of (operation time / kernel
    time) x ``REF_S``, and ``setup_s`` is scaled by the median of all the
    kernel's runs in the process, around set-ups and in the loop.  Over
    ten 20 s runs per workload under outside load, the scaled operation
    medians spread by 2-7% (quartile distance over median) where the
    unscaled ones spread by 10-19%.  Unscaled times are kept in the
    result file.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((6, 6)) * 0.3
        self.x = rng.standard_normal(6)
        self.M = rng.standard_normal((1500, 120))
        self.b = rng.standard_normal(1500)

    def run(self) -> float:
        import numpy as np
        t0 = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i * i % 7
        v = self.x
        for _ in range(1000):
            v = self.A @ v + self.x
        np.linalg.lstsq(self.M, self.b, rcond=None)
        return time.perf_counter() - t0


def timing_summary(samples) -> dict:
    """Median, count and the highest percentile with >= 10 samples above it."""
    import numpy as np
    v = np.asarray(samples, dtype=float)
    out = {"median": float(np.median(v)), "n": int(v.size)}
    if v.size >= 20:
        q = int(100 - 1000 / v.size)
        out[f"p{q}"] = float(np.percentile(v, q))
    return out


class Loop:
    """Closed loop over one workload's operations for a fixed time.

    Each operation is preceded by one run of the reference kernel.
    """

    def __init__(self, workload, reference, tracer=None):
        self.w = workload
        self.ref = reference
        self.tracer = tracer
        self.op_s = []
        self.ref_s = []
        self.attempted = 0
        self.failed = 0

    @property
    def ops(self) -> int:
        return len(self.op_s)

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.ref_s.append(self.ref.run())
            if self.tracer is not None:
                self.tracer.op_id = self.ops
            dt, attempted, failed = self.w.op(self.ops)
            self.op_s.append(dt)
            self.attempted += attempted
            self.failed += failed
            if time.perf_counter() >= deadline:
                break

    def op_ms(self) -> float:
        return statistics.median(self.op_s) * 1e3

    def scaled_op_ms(self) -> float:
        return statistics.median(o / r for o, r in zip(self.op_s, self.ref_s)) * REF_S * 1e3


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    import_s = import_package()
    import tracing
    from workloads import WORKLOADS

    ref = Reference()
    for _ in range(3):
        ref.run()  # warm-up
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(exist_ok=True)
    try:
        setups, setup_refs = [], []
        repeats = 1 if trace else SETUP_REPEATS
        for _ in range(repeats):
            w = WORKLOADS[name]()
            before = ref.run()
            t0 = time.perf_counter()
            w.setup(seed, str(work))
            setups.append(time.perf_counter() - t0)
            setup_refs.append((before + ref.run()) / 2)
        setup_s = import_s + statistics.median(setups)

        tracer = None
        if trace:
            untraced = Loop(w, ref)
            untraced.run(seconds / 3)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                w = WORKLOADS[name]()
                w.setup(seed, str(work))
                w.trace(tracer)
                traced = Loop(w, ref, tracer)
                traced.run(seconds * 2 / 3)
            finally:
                tracer.uninstall()
            loops = [untraced, traced]
        else:
            loops = [Loop(w, ref)]
            loops[0].run(seconds)
        main = loops[-1]
        accuracy = w.summary()
        final_attempted, final_failed = w.checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # one kernel run can hit a burst of outside load, so set-up is scaled
    # by the median of every kernel run in the process
    scaled_setup_s = setup_s / statistics.median(
        setup_refs + [r for lp in loops for r in lp.ref_s]) * REF_S
    attempted = final_attempted + sum(lp.attempted for lp in loops)
    failed = final_failed + sum(lp.failed for lp in loops)
    if trace:
        metrics = tracing.layer_metrics(tracer, main.ops)
        metrics["tracing_overhead_ms"] = main.op_ms() - loops[0].op_ms()
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": scaled_setup_s, "op_ms": main.scaled_op_ms()}
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "import_s": import_s, "setup_runs_s": setups, "setup_ref_s": setup_refs,
        "setup_s_unscaled": setup_s,
        "op_s": timing_summary(main.op_s), "ref_s": timing_summary(main.ref_s),
        "op_ms_unscaled": main.op_ms(), "scaled_op_ms": main.scaled_op_ms(),
        "parts_s": {k: timing_summary(v) for k, v in w.parts.items()},
        "ops": main.ops, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "accuracy": accuracy,
        "metrics": metrics,
    }
    if trace:
        record["untraced_op_s"] = timing_summary(loops[0].op_s)
        tracer.save(str(stem) + ".spans.npz")
    with open(str(stem) + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    for key in units:
        print(f"{name:9s} {key:52s} {metrics[key]:.6g} {units[key]}")
    print(f"{name:9s} {'fail_frac':52s} {failed}/{attempted}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_all(seed: int, seconds: float, spec: dict) -> dict:
    """Every workload untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                fail(f"workload {w['name']} (trace {trace}) exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for key, val in result["metrics"].items():
                merged["metrics"][f"{w['name']}.{key}"] = val
    return merged


def main() -> None:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, spec)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
