"""Benchmark for adiametric: seeded closed-loop workloads and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload smatrix --seed 1 --seconds 22 --trace 0

One client in this process runs the workload's tasks back to back, whole
rounds at a time, until ``--seconds`` of task time have passed.  Times are
reported in reference seconds: wall time scaled by a calibration kernel
timed alongside, which removes the host's speed drift.  Every
task's output is checked outside the timed region.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of ``perfbench/tracer.py``, measured over a
fixed task list (round 0).  See ``perfbench/README.md`` for the metric
definitions and the layer table.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and its set-up probes.  Must be set
# before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3  # this process plus two fresh probe processes
# Median time of the calibration kernel on the reference host (2.0 GHz
# Xeon, one BLAS thread) in its usual loaded state.  Task times are
# reported in reference seconds: wall seconds * CAL_REF_S / (kernel time
# measured around them).
CAL_REF_S = {"interpreter": 0.065, "dense": 0.055}
CAL_REPEATS = 3
CAL_INTERVAL_S = 2.0  # task wall time between calibrations
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("smatrix", "flow-dense", "cli-suite")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure set-up only and print it (used internally)")
    return parser.parse_args(argv)


# ------------------------------------------------------------------ set-up


def set_up(args, workdir):
    """Import adiametric, build the workload, run one untimed warm-up task.

    Returns ``(workload, setup_seconds)``, in reference seconds.  Raises
    when the package is not the checkout's own ``src/adiametric`` or the
    warm-up task fails.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import adiametric

    if Path(adiametric.__file__).resolve().parent != SRC / "adiametric":
        raise ImportError(f"adiametric imported from {adiametric.__file__}, not {SRC}")
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, reference)
    warm = workload.round(0)[0]
    failure = warm.check(warm.run())
    if failure is not None:
        raise RuntimeError(f"warm-up task {warm.key} failed: {failure}")
    elapsed = time.perf_counter() - start
    return workload, elapsed * speed_factor(workload.CALIBRATION)


def probe_setup(args):
    """Median set-up time over this process and fresh probe processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ------------------------------------------------------------ calibration


def _interpreter_kernel(np):
    """A Python loop over small complex matrix updates, like a solver's
    stage loop at d <= 4."""
    a = np.array([[0.3, 1j], [0.2, -0.5]])
    y = np.eye(2, dtype=complex)
    for _ in range(4000):
        k = 1j * (y @ a)
        y = y + 1e-3 * sum(c * k for c in (0.1, 0.2, 0.3))


def _dense_kernel(np):
    """Metric-flow-like updates and Hermitian eigensolves at d = 32 and 64."""
    for d, steps in ((32, 300), (64, 150)):
        h = np.cos(np.outer(np.arange(d), np.arange(d))) * (1.0 + 0.5j) / d
        theta = np.eye(d, dtype=complex)
        for _ in range(steps):
            k = 1j * (theta @ h - h.conj().T @ theta)
            theta = theta + 1e-3 * (k + k.conj().T)
        for _ in range(steps // 30):
            np.linalg.eigh(theta)
            np.linalg.solve(theta, h)


CALIBRATION_KERNELS = {"interpreter": _interpreter_kernel, "dense": _dense_kernel}


def speed_factor(kernel):
    """Reference over median time of a calibration kernel, measured now.

    The host's speed drifts by up to 1.8x over tens of seconds, and
    interpreter-bound and BLAS-bound code slow down by different amounts.
    The ratio of task time to a kernel of the same character, measured
    around it, drifts much less; multiplying wall time by this factor
    removes most of the drift.  The kernels do not use adiametric.
    """
    import numpy as np

    times = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        CALIBRATION_KERNELS[kernel](np)
        times.append(time.perf_counter() - start)
    return CAL_REF_S[kernel] / statistics.median(times)


# ---------------------------------------------------------------- running


class Outcome:
    """Latencies and failures of the tasks run so far.

    Wall latencies are converted to reference seconds with the mean of the
    speed factors measured before and after them, every CAL_INTERVAL_S of
    task time and at :meth:`close`.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.latencies = []  # reference seconds
        self.wall = []  # wall seconds
        self.kinds = []
        self.failures = []
        self._factor = speed_factor(kernel)
        self._pending = 0
        self._since = 0.0

    def run(self, task, tracer=None):
        if tracer is not None:
            tracer.task, tracer.enabled = task.key, True
        start = time.perf_counter()
        try:
            result = task.run()
            failure = None
        except Exception:  # a failing task is counted, not fatal
            result, failure = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if failure is None:
            try:
                failure = task.check(result)
            except Exception:
                failure = traceback.format_exc(limit=3)
        self.wall.append(latency)
        self.latencies.append(latency * self._factor)  # provisional
        self.kinds.append(task.kind)
        if failure is not None:
            self.failures.append((task.key, failure))
            print(f"FAILED {task.key}: {failure}", file=sys.stderr)
        self._pending += 1
        self._since += latency
        if self._since >= CAL_INTERVAL_S:
            self.close()

    def close(self):
        """Rescale the latencies since the last calibration."""
        if not self._pending:
            return
        factor = speed_factor(self.kernel)
        mean = 0.5 * (self._factor + factor)
        for i in range(len(self.wall) - self._pending, len(self.wall)):
            self.latencies[i] = self.wall[i] * mean
        self._factor, self._pending, self._since = factor, 0, 0.0

    def kind_medians(self):
        by_kind = {}
        for kind, latency in zip(self.kinds, self.latencies):
            by_kind.setdefault(kind, []).append(latency)
        return {kind: statistics.median(v) for kind, v in by_kind.items()}

    @property
    def busy(self):
        return sum(self.wall)

    @property
    def speed(self):
        """Reference seconds per wall second over all tasks."""
        return sum(self.latencies) / self.busy

    @property
    def tasks_per_s(self):
        return len(self.latencies) / sum(self.latencies)


def run_timed(workload, seconds):
    """Closed loop over whole rounds until ``seconds`` of task time, in
    reference seconds, so that a run does the same work on a slow host."""
    outcome = Outcome(workload.CALIBRATION)
    k = 0
    while sum(outcome.latencies) < seconds:
        for task in workload.round(k):
            outcome.run(task)
        k += 1
    outcome.close()
    return outcome, k


def tail(latencies):
    """Highest percentile with ten samples beyond it: ``(value, percentile)``."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n


# ------------------------------------------------------------- provenance


def _openblas():
    """Runtime OpenBLAS config string and thread count, when it is loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(handle, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
            return get_config().decode(), get_threads()
    return None, None


def provenance(args):
    import numpy
    import scipy

    config, threads = _openblas()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "adiametric").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"  # the benchmark may run from an exported tree
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": config,
        "blas_threads": threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ------------------------------------------------------------------- modes


def end_to_end(args, workload, setup_local):
    outcome, rounds = run_timed(workload, args.seconds)
    setup = statistics.median([setup_local] + probe_setup(args))
    lat = outcome.latencies
    attempted, failed = len(lat), len(outcome.failures)
    tail_value, tail_pct = tail(lat)
    metrics = {
        "setup_s": (setup, "s"),
        "tasks_per_s": (outcome.tasks_per_s, "1/s"),
        "task_p50_s": (statistics.median(lat), "s"),
        "task_tail_s": (tail_value, "s"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "samples": attempted,
        "rounds": rounds,
        "task_wall_s": outcome.busy,
        "speed_factor": outcome.speed,
        "tasks_per_wall_s": attempted / outcome.busy,
        "task_tail_percentile": tail_pct,
        "failed_frac": failed / attempted,
        "task_p50_s_by_kind": outcome.kind_medians(),
    }
    return metrics, details, attempted, failed


def traced(args, workload):
    """Untraced pass, then two traced passes, over the round-0 task list."""
    from tracer import Tracer

    tasks = workload.round(0)
    untraced = Outcome(workload.CALIBRATION)
    for task in tasks:
        untraced.run(task)
    untraced.close()
    passes = []
    for _ in range(2):
        tracer, outcome = Tracer(), Outcome(workload.CALIBRATION)
        tracer.install()
        try:
            for task in tasks:
                outcome.run(task, tracer)
        finally:
            tracer.uninstall()
        outcome.close()
        passes.append((tracer, outcome))
    (tracer, outcome), (tracer_b, outcome_b) = passes
    factor = outcome.speed

    metrics = {}
    for name, (value, unit) in tracer.metrics().items():
        if unit in ("s", "us"):
            value *= factor
        elif unit == "GFLOP/s":
            value /= factor
        metrics[name] = (value, unit)
    metrics["trace.tasks_per_s_untraced"] = (untraced.tasks_per_s, "1/s")
    metrics["trace.tasks_per_s_traced"] = (outcome.tasks_per_s, "1/s")
    metrics["trace.overhead_tasks_per_s"] = (outcome.tasks_per_s - untraced.tasks_per_s, "1/s")
    counts_repeat = tracer.solver_counts == tracer_b.solver_counts
    if not counts_repeat:
        print("FAILED solver counts differ between two traced passes", file=sys.stderr)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(("id", "parent", "task", "name", "start", "end"),
                                         span))) + "\n")
    attempted = sum(len(o.latencies) for o in (untraced, outcome, outcome_b))
    failed = sum(len(o.failures) for o in (untraced, outcome, outcome_b))
    details = {
        "tasks": len(tasks),
        "speed_factor": factor,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "solver_counts_repeat": counts_repeat,
    }
    return metrics, details, attempted, failed + (not counts_repeat)


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload, setup_local = set_up(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_local}))
            return 0
        if args.trace:
            metrics, details, attempted, failed = traced(args, workload)
        else:
            metrics, details, attempted, failed = end_to_end(args, workload, setup_local)

    info = provenance(args)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print("details " + json.dumps(details, sort_keys=True))
    print("provenance " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, details=details, provenance=info)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
