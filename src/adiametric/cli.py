"""Command-line driver.

Subcommands: ``evolve`` (metric trajectories to CSV/JSON), ``sweep``
(adiabaticity parameter ladders), ``smatrix`` (dressed S-matrix reports),
``static`` (static-metric construction and residuals), ``moyal-check``
(exact star-product self-verification).  All state lives in the JSON
configuration; outputs are deterministic and schema-versioned.  Exit
codes: 0 success, 2 configuration error, 3 solver failure, 4 violated
physics precondition (with a structured JSON error report when the
command writes JSON).  ``--format`` picks CSV or JSON for ``evolve`` and
``sweep``; the other commands always write JSON.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .config import ModelConfig, build_schedule, load_config, matrix_from, two_level_params
from .errors import ConfigError, PhysicsError, SolverError
from .ioutil import dump_json, matrix_to_json, write_csv
from .metric_flow import evolve_metric, quasi_hermiticity_residual, static_metric
from .operator_core import (
    _expm_orbit,
    _require_real_spectrum,
    biorthogonal_decompose,
    positivity_check,
)
from .scattering import ScatteringConfig, s_matrix
from .switching import adiabatic_sweep, extrapolate_to_zero, is_monotone_nonincreasing
from .two_level import component_generator, ramp_experiment, static_solution
from .moyal import (ANSATZ_NAMES, ONE, P, PhasePolynomial, Q, cubic_linear_switch_evolve,
                    cubic_static_first_order, harmonic_transport_check,
                    linear_switch_closed_form, moyal_product, star_flow_rhs)


def _check_out(out) -> None:
    """Raise :class:`ConfigError` (exit 2) for an ``--out`` that cannot be
    written; called before any work, it opens nothing."""
    if out in (None, "-"):
        return
    parent = os.path.dirname(out) or "."
    target = out if os.path.exists(out) else parent
    if os.path.isdir(out) or not (os.path.isdir(parent) and os.access(target, os.W_OK)):
        raise ConfigError(f"cannot write --out {out!r}: not a writable file path")


def _emit(args, config, result, diagnostics, table=None) -> None:
    """Write ``table``, ``(columns, rows)``, as CSV when CSV is selected, else
    the JSON report; only ``evolve`` and ``sweep`` select CSV (:func:`main`).
    An ``--out`` that cannot be opened raises :class:`ConfigError` (exit 2).
    """
    try:
        stream = sys.stdout if args.out in (None, "-") else open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    try:
        if args.format == "csv":
            write_csv(stream, *table)
        else:
            dump_json(stream, {"config": config.raw if config else {},
                               "result": result, "diagnostics": diagnostics})
    finally:
        if stream is not sys.stdout:
            stream.close()


def _given(section, *keys, **renamed):
    """Float keyword arguments for the ``keys`` present in ``section``, and for
    ``renamed`` ones (``argument="key"``): an absent key keeps the library default."""
    names = {**{key: key for key in keys}, **renamed}
    return {arg: float(section[key]) for arg, key in names.items() if key in section}


def _static_start(params, model):
    """The static solution picked by the model's ``initial`` section."""
    return static_solution(params, **_given(model.get("initial", {}), "alpha", theta0_s="theta0"))


# ---------------------------------------------------------------- evolve


def _evolve_two_level(config: ModelConfig):
    model = config.model
    if "ramp" in model:
        ramp = model["ramp"]
        res = ramp_experiment(float(ramp["duration"]), config=config.solver,
                              **_given(ramp, "amplitude", "w3", "v0"))
        times, comps = res.times, res.components
        diag = {
            "deviation": res.deviation,
            "selected_static": res.selected_static.four_vector().tolist(),
            "solver": res.solver_stats,
        }
    else:
        params = two_level_params(model)
        if "components" in model.get("initial", {}):
            comp0 = np.asarray(model["initial"]["components"], dtype=float)
        else:
            comp0 = _static_start(params, model).four_vector()
        t0 = float(model.get("t0", 0.0))
        t1 = float(model.get("t1", 10.0))
        times = np.linspace(t0, t1, config.solver.samples)
        # constant generator: exact exponentials at the samples
        comps = _expm_orbit(component_generator(params), times - t0, comp0)
        diag = {}

    columns = ["t", "theta0", "theta1", "theta2", "theta3"]
    rows = np.column_stack([times, comps])
    return {"columns": columns, "rows": rows.tolist()}, diag, (columns, rows)


def _evolve_matrix(config: ModelConfig):
    model = config.model
    schedule = build_schedule(model.get("schedule") or {"type": "constant", "h": model.get("h")})
    dim = schedule.at(0.0).shape[0]
    theta0 = matrix_from(model, "theta0", required=False)
    if theta0 is None:
        theta0 = np.eye(dim, dtype=complex)
    t0 = float(model.get("t0", 0.0))
    t1 = float(model.get("t1", 10.0))
    traj = evolve_metric(schedule, theta0, t0, t1, config.solver)

    columns = ["t"] + [f"theta_{part}_{i}_{j}" for i in range(dim) for j in range(dim)
                       for part in ("re", "im")]
    entries = traj.metrics.reshape(len(traj.times), -1).view(float)
    result = {"times": traj.times.tolist(), "metrics": matrix_to_json(traj.metrics)}
    diag = {"solver": traj.solver, **traj.stats}
    return result, diag, (columns, np.column_stack([traj.times, entries]))


def _evolve_cubic(config: ModelConfig):
    model = config.model
    g = float(model.get("g", 0.1))
    duration = float(model.get("duration", math.pi))
    traj = cubic_linear_switch_evolve(g, duration)
    columns = ["t"] + [f"coeff_{name}_{part}" for name in ANSATZ_NAMES
                       for part in ("re", "im")]
    rows = np.column_stack([traj.times, traj.values.astype(complex).view(float)])
    result = {"times": traj.times.tolist(),
              "coefficients": {n: traj.coefficient(n).real.tolist() for n in ANSATZ_NAMES}}
    diag = {"closed_form_at_duration":
            linear_switch_closed_form(g, duration, duration).tolist()}
    return result, diag, (columns, rows)


_EVOLVE = {"two-level": _evolve_two_level, "matrix": _evolve_matrix, "cubic": _evolve_cubic}


def cmd_evolve(config: ModelConfig, args) -> int:
    _emit(args, config, *_EVOLVE[config.kind](config))
    return 0


# ----------------------------------------------------------------- sweep


def cmd_sweep(config: ModelConfig, args) -> int:
    spec = config.section("sweep")
    if not spec:
        raise ConfigError("sweep command needs a 'sweep' section")
    kind = spec["kind"]
    if kind == "two-level-deviation":
        ladder = spec.get("durations")
        if not ladder:
            raise ConfigError("two-level sweep needs 'durations'")
        ramp = _given(spec, "amplitude", "w3")

        def experiment(duration):
            return ramp_experiment(duration, config=config.solver, **ramp).deviation

        param_name = "duration"
    else:
        ladder = spec.get("eps_ladder")
        if not ladder:
            raise ConfigError("smatrix sweep needs 'eps_ladder'")
        h0 = matrix_from(spec, "h0")
        h_int = matrix_from(spec, "h_int")

        def experiment(eps):
            return s_matrix(h0, h_int, eps).unitarity_defect

        param_name = "eps"

    table = adiabatic_sweep(ladder, experiment)
    params = np.array([p for p, _ in table], dtype=float)
    values = np.array([v for _, v in table], dtype=float)
    monotone_prefix = np.logical_and.accumulate(np.r_[True, values[1:] <= values[:-1]])

    result = {"parameters": params.tolist(),
              "values": values.tolist(),
              "monotone_nonincreasing": is_monotone_nonincreasing(values)}
    diagnostics = {}
    if len(ladder) >= 2:
        abscissa = 1.0 / params if param_name == "duration" else params
        diagnostics["extrapolated"] = float(extrapolate_to_zero(abscissa, values))
    columns = [param_name, "value", "monotone_nonincreasing_prefix"]
    rows = np.column_stack([params, values, monotone_prefix])
    _emit(args, config, result, diagnostics, (columns, rows))
    return 0


# --------------------------------------------------------------- smatrix


def cmd_smatrix(config: ModelConfig, args) -> int:
    spec = config.section("scattering")
    if not spec:
        raise ConfigError("smatrix command needs a 'scattering' section")
    h0 = matrix_from(spec, "h0")
    h_int = matrix_from(spec, "h_int")
    theta0 = matrix_from(spec, "theta0", required=False)
    sc_cfg = ScatteringConfig(**_given(spec, "horizon_factor"))
    ladder = spec.get("eps_ladder")
    if ladder is None:
        ladder = [float(spec["eps"])] if "eps" in spec else [0.1]

    def sweep(shape):
        """The ladder's S-matrices; a ladder not strictly monotone raises ConfigError."""
        return [r for _, r in adiabatic_sweep(
            ladder, lambda eps: s_matrix(h0, h_int, eps, theta0, sc_cfg, shape))]

    results = sweep("exp")
    defects = [r.unitarity_defect for r in results]
    result = {
        "eps_ladder": [float(e) for e in ladder],
        "unitarity_defects": [float(d) for d in defects],
        "runs": [r.as_report() for r in results],
    }
    diagnostics = {"defects_decreasing": is_monotone_nonincreasing(defects)}
    if len(ladder) >= 2:
        diagnostics["extrapolated_defect"] = float(extrapolate_to_zero(ladder, defects))
        s_ext = extrapolate_to_zero(ladder, [r.phase_renormalized() for r in results])
        diagnostics["extrapolated_s_phase_renormalized"] = matrix_to_json(s_ext)
    # per eps: the CF4 counts of the dressings, by switch shape
    solver = [{"eps": float(eps), "exp": r.solver_stats} for eps, r in zip(ladder, results)]
    if spec.get("compare_shapes"):
        smooth = sweep("smooth")
        if len(ladder) >= 2:
            s_smooth = extrapolate_to_zero(ladder, [r.phase_renormalized() for r in smooth])
            diagnostics["shape_disagreement"] = float(np.max(np.abs(s_ext - s_smooth)))
        diagnostics["smooth_defects"] = [float(r.unitarity_defect) for r in smooth]
        for entry, r in zip(solver, smooth):
            entry["smooth"] = r.solver_stats
    diagnostics["solver"] = solver
    _emit(args, config, result, diagnostics)
    return 0


# ---------------------------------------------------------------- static


def cmd_static(config: ModelConfig, args) -> int:
    model = config.model
    if config.kind == "two-level":
        params = two_level_params(model)
        comp = _static_start(params, model)
        theta = comp.matrix()
        h = params.hamiltonian()
        _require_real_spectrum(np.linalg.eigvals(h),
                               "two-level spectrum is complex; no positive static metric exists")
        result = {"components": comp.four_vector().tolist(), "theta": matrix_to_json(theta)}
    elif config.kind == "matrix":
        h = matrix_from(model, "h", required=False)
        if h is None:
            if "schedule" not in model:
                raise ConfigError("static on a 'matrix' model needs 'h' or 'schedule'")
            h = build_schedule(model["schedule"]).at(0.0)
        system = biorthogonal_decompose(h)
        weights = np.asarray(model.get("weights", [1.0] * system.dim), dtype=float)
        theta = static_metric(system, weights)
        result = {"theta": matrix_to_json(theta), "weights": weights.tolist()}
    else:
        raise ConfigError("static command supports 'two-level' and 'matrix' models")

    positive, smallest = positivity_check(theta)
    diagnostics = {
        "quasi_hermiticity_residual": float(quasi_hermiticity_residual(h, theta)),
        "positive_definite": bool(positive),
        "smallest_eigenvalue": float(smallest),
    }
    _emit(args, config, result, diagnostics)
    return 0


# ----------------------------------------------------------- moyal-check

#: Time, central-difference step and bound of the transport check; the
#: difference's truncation error, about dt^2/6 |d^3 Theta/dt^3|, is near 1e-6.
_TRANSPORT_T, _TRANSPORT_DT, _TRANSPORT_TOL = 0.3, 1e-4, 1e-5


def cmd_moyal_check(config: ModelConfig | None, args) -> int:
    checks = []

    def record(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    comm = moyal_product(Q, P) - moyal_product(P, Q)
    record("canonical_commutator", comm == PhasePolynomial({(0, 0): 1j}),
           "q*p - p*q == i exactly")

    h0 = PhasePolynomial({(2, 0): 1, (0, 2): 1})
    rot_ok = True
    for i in range(7):
        for j in range(7 - i):
            m = PhasePolynomial.monomial(i, j)
            lhs = star_flow_rhs(m, h0)
            rhs = (Q.pointwise_mul(m.diff_p()) - P.pointwise_mul(m.diff_q())).scale(2)
            rot_ok = rot_ok and lhs == rhs
    record("flow_equals_rotation_field", rot_ok, "all monomials of degree <= 6")

    theta = PhasePolynomial({(0, 1): 1, (2, 1): 3, (1, 0): -2})
    t, dt = _TRANSPORT_T, _TRANSPORT_DT  # an angle the period reduction keeps
    slope = (harmonic_transport_check(theta, t + dt)
             - harmonic_transport_check(theta, t - dt)).scale(0.5 / dt)
    gap = slope - star_flow_rhs(harmonic_transport_check(theta, t), h0)
    record("transport_solves_flow",
           max((abs(c) for _, c in gap.terms()), default=0.0) <= _TRANSPORT_TOL,
           "central difference of the rotation transport at t = 0.3 "
           "matches the flow field within 1e-5")

    th1 = cubic_static_first_order(Fraction(1, 3), Fraction(-2, 7))
    iq3 = PhasePolynomial({(0, 3): 1j})
    resid = star_flow_rhs(th1, h0) + (
        moyal_product(ONE, iq3) - moyal_product(iq3.conjugate(), ONE)
    ).times_i()
    record("cubic_static_first_order", resid.is_zero,
           "first-order flow residual vanishes identically")

    g, t = 0.1, math.pi
    spot = linear_switch_closed_form(g, t, t)[ANSATZ_NAMES.index("p3")]
    record("switch_closed_form_spot",
           abs(spot - g * (2.0 * math.pi / 3.0) / t) < 1e-15,
           "p^3 coefficient at t = duration = pi")

    passed = all(c["passed"] for c in checks)
    _emit(args, config, {"checks": checks, "all_passed": passed}, {})
    return 0 if passed else 3


# ------------------------------------------------------------------ main


_COMMANDS = {
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
    "smatrix": cmd_smatrix,
    "static": cmd_static,
    "moyal-check": cmd_moyal_check,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use; ``parse_args`` leaves it unchanged
    and returns a fresh ``Namespace`` each call."""
    parser = argparse.ArgumentParser(
        prog="adiametric",
        description="Time-dependent metric operators for non-Hermitian systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "moyal-check",
                       help="JSON configuration path")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None,
                       help="override the configured output format")
        p.add_argument("--quiet", action="store_true", help="omit the error line on stderr")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            _check_out(args.out)
            config = load_config(args.config) if args.config else None
            if args.command not in ("evolve", "sweep"):  # the commands with a CSV form
                args.format = "json"
            elif args.format is None:
                args.format = config.output_format
            return _COMMANDS[args.command](config, args)
        except PhysicsError as exc:
            if args.format == "json":
                _emit(args, config, {},
                      {"error": {"type": type(exc).__name__, "message": str(exc)}})
            raise
    # an error report that cannot be written ends here as a ConfigError
    except (ConfigError, SolverError, PhysicsError) as exc:
        code, label = ((2, "configuration error") if isinstance(exc, ConfigError) else
                       (3, "solver error") if isinstance(exc, SolverError) else
                       (4, "precondition violated"))
        if not args.quiet:
            print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
