"""Seeded task lists and output checks for the three benchmark workloads.

A workload is cut into rounds.  ``round(k)`` returns the same task kinds in
the same order for every k and every seed; only the seeded inputs differ.
Each :class:`Task` has a ``run`` (the timed call into adiametric) and a
``check`` (run outside the timed region) that returns ``None`` or a failure
message.  Library modules are looked up as module attributes at call time,
so the traced run sees every call.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import adiametric
from adiametric import (
    cli,
    metric_flow,
    moyal,
    operator_core,
    scattering,
    switching,
    two_level,
)

DEFAULT_SEED = 0
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class Task:
    key: str  # unique within a run
    kind: str  # the same for the same slot of every round
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def _rng(seed, workload, k):
    return np.random.default_rng([seed, workload, k])


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.conj().T)
    return scale * h / np.linalg.norm(h)


def random_quasi_hermitian(rng, dim, scale=1.0, mixing=0.3):
    """``S^-1 h S`` with Hermitian h and Hermitian positive S near 1.

    The same construction as the test suite's fixture: the spectrum is real
    and the eigenvector condition is bounded by cond(S).
    """
    h = random_hermitian(rng, dim, scale)
    s = np.eye(dim) + mixing * random_hermitian(rng, dim)
    return np.linalg.solve(s, h @ s)


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


# ------------------------------------------------------------------ smatrix


class SMatrix:
    """``scattering.s_matrix`` over an eps ladder and both switch shapes.

    Coupling j is PT-symmetric: 2x2 blocks ``a sigma_z`` (free part) and
    ``i b sigma_x`` (interaction) with ``b < a``, one block for even j (d=2)
    and two for odd j (d=4), rotated by a seeded unitary.  Round k scatters
    couplings 2k and 2k+1 at every eps and shape.  The default seed's
    coupling 0 is the unrotated pair of ``configs/smatrix_ladder.json``.
    """

    name = "smatrix"
    CALIBRATION = "interpreter"
    LADDER = (1.6, 0.8, 0.4)
    SHAPES = ("smooth", "exp")
    # Theta(0) against K^-dag Theta_0 K^-1.  With the exp shape K is taken
    # at twice the horizon but the metric solve starts at the horizon, where
    # the damping is still exp(-12) = 6e-6, which bounds the agreement.
    IDENTITY_TOL = {"smooth": 1e-8, "exp": 1e-5}
    REFERENCE_RTOL, REFERENCE_ATOL = 1e-6, 1e-7

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.defects = {}
        self.reference = reference["smatrix"] if seed == DEFAULT_SEED else {}

    def coupling(self, j):
        if self.seed == DEFAULT_SEED and j == 0:
            return 2.0 * SZ, 0.75j * SX
        rng = _rng(self.seed, 0, j)
        # free levels +-a1 (and +-a2 for d=4) stay apart along the whole path
        ranges = [(1.9, 2.1)] if j % 2 == 0 else [(1.9, 2.1), (0.95, 1.05)]
        dim = 2 * len(ranges)
        h0 = np.zeros((dim, dim), dtype=complex)
        h_int = np.zeros((dim, dim), dtype=complex)
        for n, (lo, hi) in enumerate(ranges):
            a = rng.uniform(lo, hi)
            b = a * rng.uniform(0.33, 0.4)
            block = slice(2 * n, 2 * n + 2)
            h0[block, block] = a * SZ
            h_int[block, block] = 1j * b * SX
        v = random_unitary(rng, dim)
        return v @ h0 @ v.conj().T, v @ h_int @ v.conj().T

    def round(self, k):
        tasks = []
        for j in (2 * k, 2 * k + 1):
            h0, h_int = self.coupling(j)
            for i, eps in enumerate(self.LADDER):
                for shape in self.SHAPES:
                    key = f"c{j}/{shape}/eps={eps}"
                    prev = f"c{j}/{shape}/eps={self.LADDER[i - 1]}" if i else None
                    tasks.append(Task(
                        key,
                        f"d{len(h0)}/{shape}/eps={eps}",
                        lambda h0=h0, h_int=h_int, eps=eps, shape=shape: scattering.s_matrix(
                            h0, h_int, eps, shape=shape),
                        lambda res, key=key, prev=prev, shape=shape: self.check(
                            key, prev, shape, res),
                    ))
        return tasks

    def check(self, key, prev, shape, res):
        theta = res.theta_adiabatic
        if operator_core.hermiticity_defect(theta) > 1e-10 * np.linalg.norm(theta):
            return "theta_adiabatic is not Hermitian"
        if np.linalg.eigvalsh(theta)[0] <= 0.0:
            return "theta_adiabatic is not positive"
        k_inv = np.linalg.inv(res.moller_minus)
        err = _rel(theta, k_inv.conj().T @ k_inv)
        if err > self.IDENTITY_TOL[shape]:
            return f"Moller-metric identity off by {err:.2e}"
        defect = float(res.unitarity_defect)
        self.defects[key] = defect
        if prev is not None:
            if prev not in self.defects:
                return f"larger-eps task {prev} has no result"
            if defect > self.defects[prev]:
                return f"unitarity defect grew from {self.defects[prev]:.3e} to {defect:.3e}"
        ref = self.reference.get(key)
        if ref is not None and abs(defect - ref) > self.REFERENCE_RTOL * ref + self.REFERENCE_ATOL:
            return f"unitarity defect {defect!r} differs from the recorded {ref!r}"
        return None


# --------------------------------------------------------------- flow-dense


class FlowDense:
    """Metric flow on seeded quasi-Hermitian schedules at d = 32 and 64.

    Four schedules per run, each moving H_a to H_b (norm scaled by sqrt(d)
    so step counts do not depend on d): a ``LinearRamp`` over [0, 1] and an
    ``ExponentialSwitch`` of rate 2 over [-1, 0].  Every round runs the
    write path (``evolve_metric``) on all four and the read path
    (``hermitian_representation`` on the trajectory just written) on three
    of them, which keeps seven tasks per round so the median falls inside
    one task kind.  The schedules are the same in every round, so the
    costly propagator oracle runs once per schedule.
    """

    name = "flow-dense"
    CALIBRATION = "dense"
    DIMS = (32, 64)
    SAMPLES = 51
    ORACLE_STEPS = 32  # Richardson pair of evolve_metric_via_propagator: 32, 64
    ORACLE_TOL = 1e-6
    DEFECT_TOL = 1e-10

    def __init__(self, seed, workdir, reference):
        rng = _rng(seed, 1, 0)
        self.schedules = {}
        for d in self.DIMS:
            scale = math.sqrt(d)
            ha, hb = (random_quasi_hermitian(rng, d, scale) for _ in range(2))
            self.schedules[f"ramp{d}"] = (switching.LinearRamp(ha, hb, 1.0), 0.0, 1.0)
            ha, hb = (random_quasi_hermitian(rng, d, scale) for _ in range(2))
            self.schedules[f"exp{d}"] = (
                switching.ExponentialSwitch(ha, hb - ha, 2.0), -1.0, 0.0)
        self.config = metric_flow.SolverConfig(samples=self.SAMPLES)
        self.trajectories = {}
        self.oracles = {}

    def round(self, k):
        tasks = []
        for name in ("ramp32", "exp32", "ramp64", "exp64"):
            tasks.append(Task(f"r{k}/write/{name}", f"write/{name}",
                              lambda name=name: self.write(name),
                              lambda traj, name=name: self.check_write(name, traj)))
            if name != "exp32":
                tasks.append(Task(f"r{k}/read/{name}", f"read/{name}",
                                  lambda name=name: self.read(name),
                                  self.check_read))
        return tasks

    def write(self, name):
        schedule, t0, t1 = self.schedules[name]
        dim = schedule.at(t0).shape[0]
        traj = metric_flow.evolve_metric(schedule, np.eye(dim), t0, t1, self.config)
        self.trajectories[name] = traj
        return traj

    def read(self, name):
        schedule = self.schedules[name][0]
        return metric_flow.hermitian_representation(self.trajectories.pop(name), schedule)

    def oracle(self, name):
        """Theta(t1) by propagator conjugation, Richardson-extrapolated.

        The exponential-midpoint accumulation is symmetric, so its error
        expands in even powers of the step and (4 Theta_2n - Theta_n) / 3
        is fourth order.
        """
        if name not in self.oracles:
            schedule, t0, t1 = self.schedules[name]
            dim = schedule.at(t0).shape[0]
            coarse, fine = (
                metric_flow.evolve_metric_via_propagator(
                    schedule, np.eye(dim), t0, t1, nsteps=n).final
                for n in (self.ORACLE_STEPS, 2 * self.ORACLE_STEPS))
            self.oracles[name] = (4.0 * fine - coarse) / 3.0
        return self.oracles[name]

    def check_write(self, name, traj):
        err = _rel(traj.final, self.oracle(name))
        if err > self.ORACLE_TOL:
            return f"Theta(t1) differs from the propagator oracle by {err:.2e}"
        return None

    def check_read(self, rep):
        worst = float(np.max(rep.hermiticity_defects))
        if not worst <= self.DEFECT_TOL:
            return f"Hermitian representation defect {worst:.2e} is not at roundoff"
        return None


# ---------------------------------------------------------------- cli-suite


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[1], np.array(rows[2:], dtype=float)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class CliSuite:
    """``adiametric.cli.main`` in-process over seeded configs.

    One round runs every non-scattering command kind once, plus a second
    two-level ramp so that short and long ramps can be compared: moyal-check,
    two-level static, matrix static, cubic evolve, short and long ramp
    evolve, and a two-level deviation sweep.
    """

    name = "cli-suite"
    CALIBRATION = "interpreter"
    AMPLITUDE, W3 = 5.0, 3.0  # ramp keeps v^2 > w^2 for amplitude > sqrt(2) w3
    STATIC_TOL = 1e-10
    CUBIC_TOL = 1e-8

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.workdir = workdir
        self.deviations = {}

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write_config(self, kind, document):
        path = self._path(f"{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        return path

    def _task(self, k, kind, command, document, check):
        argv = [command]
        if document is not None:
            argv += ["--config", self._write_config(kind, document)]
        out = self._path(f"{kind}.out")
        argv += ["--out", out, "--quiet"]

        def run():
            return cli.main(argv)

        def checked(code):
            if code != 0:
                return f"{command} exited with {code}"
            return check(out)

        return Task(f"r{k}/{kind}", kind, run, checked)

    def round(self, k):
        rng = _rng(self.seed, 2, k)
        tasks = [self._task(k, "moyal-check", "moyal-check", None,
                            self.check_moyal)]

        # pseudo-Hermitian two-level generator: w_0 = 0, v.w = 0, |v| > |w|
        axes = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        r = rng.uniform(3.0, 5.0)
        s = r * rng.uniform(0.4, 0.8)
        v = [float(rng.uniform(-1.0, 1.0)), *(r * axes[:, 0])]
        w = [0.0, *(s * axes[:, 1])]
        h2 = two_level.pauli_compose(two_level.TwoLevelParams(np.array(v), np.array(w)))
        tasks.append(self._task(
            k, "static-two-level", "static",
            {"model": {"kind": "two-level", "v": v, "w": w},
             "output": {"format": "json"}},
            lambda out, h=h2: self.check_static(out, h)))

        dim = int(rng.integers(3, 7))
        h = random_quasi_hermitian(rng, dim, scale=2.0)
        weights = rng.uniform(0.5, 2.0, dim).tolist()
        tasks.append(self._task(
            k, "static-matrix", "static",
            {"model": {"kind": "matrix",
                       "h": adiametric.ioutil.matrix_to_json(h),
                       "weights": weights},
             "output": {"format": "json"}},
            lambda out, h=h: self.check_static(out, h)))

        g = float(rng.uniform(0.05, 0.2))
        duration = float(rng.uniform(math.pi, 3.0 * math.pi))
        tasks.append(self._task(
            k, "evolve-cubic", "evolve",
            {"model": {"kind": "cubic", "g": g, "duration": duration},
             "output": {"format": "csv"}},
            lambda out, g=g, duration=duration: self.check_cubic(out, g, duration)))

        for label, lo, hi in (("short", 2.6, 3.4), ("long", 25.0, 40.0)):
            ramp = {"duration": float(rng.uniform(lo, hi)),
                    "amplitude": self.AMPLITUDE, "w3": self.W3}
            tasks.append(self._task(
                k, f"evolve-ramp-{label}", "evolve",
                {"model": {"kind": "two-level", "ramp": ramp},
                 "output": {"format": "json"}},
                lambda out, k=k, label=label: self.check_ramp(out, k, label)))

        # up to a duration of ~10 the deviation falls steadily; beyond that it
        # oscillates at the 1e-3 level, so longer ladders need not be ordered
        durations = [float(rng.uniform(lo, hi))
                     for lo, hi in ((0.85, 1.15), (2.6, 3.4), (8.5, 11.5))]
        tasks.append(self._task(
            k, "sweep", "sweep",
            {"model": {"kind": "two-level"},
             "sweep": {"kind": "two-level-deviation", "durations": durations,
                       "amplitude": self.AMPLITUDE, "w3": self.W3},
             "output": {"format": "csv"}},
            self.check_sweep))
        return tasks

    def check_moyal(self, out):
        report = _read_json(out)
        if not report["result"]["all_passed"]:
            failed = [c["name"] for c in report["result"]["checks"] if not c["passed"]]
            return f"moyal-check failed: {failed}"
        return None

    def check_static(self, out, h):
        report = _read_json(out)
        diag = report["diagnostics"]
        theta = adiametric.ioutil.json_to_matrix(report["result"]["theta"])
        if not diag["positive_definite"]:
            return "static metric is not positive definite"
        bound = self.STATIC_TOL * np.linalg.norm(theta) * np.linalg.norm(h)
        if not diag["quasi_hermiticity_residual"] <= bound:
            return f"static residual {diag['quasi_hermiticity_residual']:.2e} not at roundoff"
        return None

    def check_cubic(self, out, g, duration):
        columns, rows = _read_csv(out)
        re_cols = [i for i, c in enumerate(columns) if c.endswith("_re")]
        got = rows[:, re_cols]
        want = np.array([moyal.linear_switch_closed_form(g, duration, t) for t in rows[:, 0]])
        err = float(np.max(np.abs(got - want)))
        if err > self.CUBIC_TOL:
            return f"cubic coefficients differ from the closed form by {err:.2e}"
        return None

    def check_ramp(self, out, k, label):
        deviation = _read_json(out)["diagnostics"]["deviation"]
        self.deviations[(k, label)] = deviation
        if label == "long":
            short = self.deviations.get((k, "short"))
            if short is None:
                return "short-ramp task has no result"
            if not deviation < short:
                return f"long-ramp deviation {deviation:.3e} not below short-ramp {short:.3e}"
        return None

    def check_sweep(self, out):
        _, rows = _read_csv(out)
        values = rows[:, 1]
        if not np.all(np.diff(values) < 0.0):
            return f"sweep deviations do not fall with duration: {values.tolist()}"
        return None


WORKLOADS = {cls.name: cls for cls in (SMatrix, FlowDense, CliSuite)}
