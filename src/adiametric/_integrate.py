"""Integrators: adaptive DOP853 with dense output and a commutator-free Magnus method.

:func:`solve_ode` integrates ``dy/dt = rhs(t, y)`` for any ndarray state (a
complex matrix, a real component vector) by the 8(5,3) Runge-Kutta pair of
Hairer, Norsett & Wanner (DOP853): 12 rhs calls per accepted step, the last
one first-same-as-last, and 11 per rejected step.  Step control is the
pair's combined 5th/3rd-order error estimate with exponent -1/8 and Lund
stabilization.  The stepper lands exactly on schedule breakpoints and on
the endpoint, so discontinuous right-hand sides never hide inside a step;
other output times are read off the 7th-order dense output, which costs
three more rhs calls on each step that holds one.  The state and the 16
stages sit as rows of one buffer, and the dense output is linear in them
(Hairer, Norsett & Wanner, Sec. II.6), so each stage argument, the new
state and all the samples inside a step are each one BLAS product of
real coefficient rows with that buffer.  Such a product may round an
entry and its conjugate partner differently; a caller that needs exact
symmetry, like the metric flow, restores it on the samples.

:func:`magnus_cf4` returns the propagator of a linear equation whose
generator is ``A0 + f(t) A1`` with a scalar, vectorized ``f``, at the
endpoint or, as dense output, at uniform sample times.  It is the
4th-order commutator-free Magnus method of Blanes & Moan (Appl. Numer.
Math. 56 (2006) 1519): two matrix exponentials per step, formed by the
stacked Taylor kernel of :mod:`.operator_core`, so the ``A0`` motion is
carried exactly and the step is set by how ``f`` varies.  One rule divides
the work: :func:`solve_ode` serves metric trajectories only (its one caller
is ``metric_flow.evolve_metric``), and every single-time metric quantity,
the adiabatic metric and the transition probability, comes from a CF4
propagator U by the flow's conservation law ``Theta(t) = U^-dagger Theta_0
U^-1``.  CF4 also gives the scattering dressings and the two-level ramp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, StepSizeUnderflow
from .operator_core import PATH_CHUNK, _expm_stack, _frobenius_stack

# DOP853: the 8(5,3) pair of Hairer, Norsett & Wanner, "Solving Ordinary
# Differential Equations I" (2nd ed., 1993), Sec. II.5, with the 7th-order
# dense output of Sec. II.6 (the coefficients of their code dop853.f).  Row
# s of the tableau holds the nonzero coefficients {column: value} of stage
# s, taken at node _C[s].  Stage 12 is the first-same-as-last evaluation at
# the new state, so its row is the propagating weights B; stages 13-15
# serve only the dense output.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778,
])
_A_ROWS = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)
# the 3rd-order weights differ from B at stages 0, 8 and 11 (bhh1-bhh3)
_BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
_E3_ROW = {j: b - _BHH.get(j, 0.0) for j, b in _A_ROWS[12].items()}
_E5_ROW = {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
}
# the dense output's last four coefficient rows, over all 16 stages
_D_ROWS = (
    {0: -0.84289382761090128651353491142e1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e1, 7: 0.23846676565120698287728149680e1,
     8: 0.21170345824450282767155149946e1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e2,
     14: -0.91946323924783554000451984436e1, 15: -0.44360363875948939664310572000e1},
    {0: 0.10427508642579134603413151009e2, 5: 0.24228349177525818288430175319e3,
     6: 0.16520045171727028198505394887e3, 7: -0.37454675472269020279518312152e3,
     8: -0.22113666853125306036270938578e2, 9: 0.77334326684722638389603898808e1,
     10: -0.30674084731089398182061213626e2, 11: -0.93321305264302278729567221706e1,
     12: 0.15697238121770843886131091075e2, 13: -0.31139403219565177677282850411e2,
     14: -0.93529243588444783865713862664e1, 15: 0.35816841486394083752465898540e2},
    {0: 0.19985053242002433820987653617e2, 5: -0.38703730874935176555105901742e3,
     6: -0.18917813819516756882830838328e3, 7: 0.52780815920542364900561016686e3,
     8: -0.11573902539959630126141871134e2, 9: 0.68812326946963000169666922661e1,
     10: -0.10006050966910838403183860980e1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e1, 13: -0.60196695231264120758267380846e2,
     14: 0.84320405506677161018159903784e2, 15: 0.11992291136182789328035130030e2},
    {0: -0.25693933462703749003312586129e2, 5: -0.15418974869023643374053993627e3,
     6: -0.23152937917604549567536039109e3, 7: 0.35763911791061412378285349910e3,
     8: 0.93405324183624310003907691704e2, 9: -0.37458323136451633156875139351e2,
     10: 0.10409964950896230045147246184e3, 11: 0.29840293426660503123344363579e2,
     12: -0.43533456590011143754432175058e2, 13: 0.96324553959188282948394950600e2,
     14: -0.39177261675615439165231486172e2, 15: -0.14972683625798562581422125276e3},
)


def _tableau(rows, width):
    """Dense coefficient matrix from rows of ``{column: value}``."""
    out = np.zeros((len(rows), width))
    for r, row in enumerate(rows):
        out[r, list(row)] = list(row.values())
    return out


_A = _tableau(_A_ROWS, 16)
_B = _A[12, :12]
# row s: the weights of [y, k0, ..., k15] in stage s's argument, the k
# columns still to be scaled by h; row 12 gives the new state
_Y_A = np.column_stack((np.ones(16), _A))
_E3 = _tableau([_E3_ROW], 12)[0]
_E5 = _tableau([_E5_ROW], 12)[0]
_D = _tableau(_D_ROWS, 16)

# Step control of Hairer's dop853: h_new = h * SAFETY * err^(-1/8 + BETA/5)
# * err_prev^BETA, between MIN_FACTOR and MAX_FACTOR times h; a rejected
# step drops the err_prev factor, and the step after it may not grow.
# BETA > 0 is Lund's stabilization; it also lowers the error the steps
# settle at, to err^(1.2 BETA - 1/8) = 1/SAFETY.  The 7th-order samples can
# err by far more than a step's estimate where that estimate is noisy: on
# the random d = 2 exponential-switch flows of tests/test_metric_flow.py
# (11 samples), a sample lies further than rtol from a tight reference in
# 97 draws of 1500 with BETA = 0.04 (dop853's suggested ceiling), 10 with
# 0.06, 1 with 0.07 and none with 0.08 (worst 0.49 rtol).
_SAFETY = 0.9
_BETA = 0.08
_MIN_FACTOR = 0.333
_MAX_FACTOR = 6.0


@dataclass
class OdeSolution:
    """Samples of the solution at the requested output times."""

    times: np.ndarray
    states: list
    stats: dict = field(default_factory=dict)


def _combine(coeffs, rows):
    """``coeffs @ rows`` over the leading axis of ``rows``, by one BLAS product
    on its real view (complex entries split in two).  ``coeffs`` holds one
    combination, or one per row of a 2-d array, of the leading
    ``coeffs.shape[-1]`` rows.  The product may round an entry and its
    conjugate partner differently."""
    count = coeffs.shape[-1]
    flat = rows[:count].reshape(count, -1)
    out = coeffs @ flat.view(flat.real.dtype)
    return out.view(rows.dtype).reshape(coeffs.shape[:-1] + rows.shape[1:])


def _error_norm(hs, stages, y_old, y_new, rtol, atol):
    """DOP853's error norm: the 5th-order estimate ``err5`` damped by the
    3rd-order one, ``|h| |err5|^2 / sqrt(n (|err5|^2 + 0.01 |err3|^2))``,
    each weighted by ``atol + rtol max(|y_old|, |y_new|)`` entry by entry."""
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    err5 = np.abs(_combine(_E5, stages) / scale)
    err3 = np.abs(_combine(_E3, stages) / scale)
    sq5 = float(np.vdot(err5, err5))
    denom = sq5 + 0.01 * float(np.vdot(err3, err3))
    if denom == 0.0:
        return 0.0
    return abs(hs) * sq5 / math.sqrt(denom * scale.size)


def _interpolant_weights(x, hs):
    """Coefficients of the rows ``[y_old, k0, ..., k15, y_new]`` in the dense
    output of a step ``hs`` at the step fractions ``x`` in [0, 1], one row
    of 18 per fraction.

    Hairer's interpolant ``y_old + x (F0 + (1-x) (F1 + x (F2 + ... + x F6)))``
    with ``F0 = dy = y_new - y_old``, ``F1 = h k0 - dy``, ``F2 = 2 dy - h (k0
    + k12)`` and ``F3..F6 = h D k``, collected on each row.
    """
    u = np.asarray(x, dtype=float)[:, None]
    v = 1.0 - u
    w = np.hstack([u * u * v * v, u**3 * v * v, u**3 * v**3, u**4 * v**3]) @ _D
    w[:, :1] += u * v - u * u * v
    w[:, 12:13] -= u * u * v
    c_dy = u - u * v + 2.0 * u * u * v
    return np.hstack([1.0 - c_dy, hs * w, c_dy])


def _output_times(t_eval, t0, t1) -> np.ndarray:
    """``t_eval`` as a float array; raises :class:`SolverError` unless every
    time lies in ``[t0, t1]`` and the times are strictly monotone in the
    direction of integration."""
    t_eval = np.asarray(t_eval, dtype=float)
    outside = ~((t_eval >= min(t0, t1)) & (t_eval <= max(t0, t1)))
    if outside.any():
        raise SolverError(
            f"t_eval time {t_eval[outside][0]:.6g} lies outside [{t0:.6g}, {t1:.6g}]"
        )
    if np.any(np.diff(t_eval) * (1.0 if t1 >= t0 else -1.0) <= 0.0):
        raise SolverError(
            "t_eval must be strictly monotone in the direction of integration"
        )
    return t_eval


def _stops(breakpoints, t0, t1) -> list:
    """Where an integration from t0 to t1 (either direction) must land: the
    breakpoints strictly inside the window, once each, in the direction of
    integration, then t1."""
    direction = 1.0 if t1 >= t0 else -1.0
    inner = {float(b) for b in breakpoints if (b - t0) * direction > 0 and (t1 - b) * direction > 0}
    return [*sorted(inner, reverse=direction < 0), float(t1)]


def solve_ode(
    rhs,
    t0,
    t1,
    y0,
    *,
    rtol=1e-9,
    atol=1e-12,
    t_eval=None,
    breakpoints=(),
    post_step=None,
):
    """Integrate ``dy/dt = rhs(t, y)`` from t0 to t1 (either direction).

    Returns an :class:`OdeSolution` sampled at ``t_eval`` (default: the
    endpoint only).  ``t_eval`` must lie in ``[t0, t1]`` and be strictly
    monotone in the direction of integration; samples come back in that
    order.  ``breakpoints`` are interior times the stepper must land on
    exactly; so is t1.  Other samples are interpolated, unless one falls
    on a step end.  ``post_step`` maps each accepted state before the
    stepper goes on.  ``stats`` counts the accepted and rejected steps
    (``naccept``, ``nreject``), the rhs calls (``nfev``) and the steps that
    formed the three dense-output stages (``ndense``).  Raises
    :class:`SolverError` for a ``t_eval`` that breaks these rules or a
    right-hand side that turns non-finite, and its subclass
    :class:`StepSizeUnderflow` when the error controller stalls.
    """
    direction = 1.0 if t1 >= t0 else -1.0
    t_eval = np.array([t1], dtype=float) if t_eval is None else _output_times(t_eval, t0, t1)

    y = np.array(y0, copy=True)
    if t1 == t0:
        stats = {"naccept": 0, "nreject": 0, "nfev": 0, "ndense": 0}
        return OdeSolution(np.array([t0]), [y], stats)

    stops = _stops(breakpoints, t0, t1)

    keys = direction * t_eval  # ascending
    out_states = [y.copy() for t in t_eval[:1] if t == t0]
    h_floor = 1e-14 * max(abs(t0), abs(t1), 1.0)
    h = abs(t1 - t0) / 10.0  # the controller shrinks a first step that is too long

    t = float(t0)
    f = rhs(t, y)
    # rows [y, k0, ..., k15, y_new]: a stage argument, the new state and the
    # samples are each one product of a coefficient row with them.  What goes
    # to rhs, post_step or the caller is a fresh array, never a row.
    rows = np.empty((18,) + np.shape(f), np.result_type(y, f))
    rows[0], rows[1] = y, f
    nfev = 1
    naccept = nreject = ndense = 0
    rejected = False
    err_prev = 1e-4

    for stop in stops:
        while (stop - t) * direction > 1e-15 * max(abs(stop), 1.0):
            h = min(h, abs(stop - t))
            if h < h_floor:
                raise StepSizeUnderflow(
                    f"step size {h:.3e} underflowed at t={t:.6g} (rtol={rtol:.1e})"
                )
            hs = h * direction
            coeffs = hs * _Y_A
            coeffs[:, 0] = 1.0
            for s in range(1, 12):
                rows[1 + s] = rhs(t + _C[s] * hs, _combine(coeffs[s, : s + 1], rows))
            nfev += 11
            y_new = _combine(coeffs[12, :13], rows)
            enorm = _error_norm(hs, rows[1:], y, y_new, rtol, atol)
            if not math.isfinite(enorm):
                raise SolverError(f"non-finite right-hand side near t={t:.6g}")
            if enorm > 1.0:
                nreject += 1
                rejected = True
                h *= max(_MIN_FACTOR, _SAFETY * enorm ** (_BETA / 5 - 0.125))
                continue

            if enorm == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * enorm ** (_BETA / 5 - 0.125) * err_prev**_BETA
            err_prev = max(enorm, 1e-4)
            t_old = t
            t = t + hs
            if abs(stop - t) <= 1e-15 * max(abs(stop), 1.0):
                t = stop
            y = y_new if post_step is None else post_step(y_new)
            rows[13] = rhs(t, y)
            rows[17] = y
            nfev += 1
            naccept += 1
            end = np.searchsorted(keys, direction * t, side="right")
            inside = t_eval[len(out_states) : end]
            inside = inside[inside != t]
            if len(inside):
                for s in (13, 14, 15):
                    rows[1 + s] = rhs(t_old + _C[s] * hs, _combine(coeffs[s, : s + 1], rows))
                nfev += 3
                ndense += 1
                weights = _interpolant_weights((inside - t_old) / hs, hs)
                out_states.extend(_combine(weights, rows))
            if len(out_states) < end:  # a sample on the step end
                out_states.append(y.copy())
            rows[0], rows[1] = y, rows[13]
            h *= min(1.0 if rejected else _MAX_FACTOR, max(_MIN_FACTOR, factor))
            rejected = False

    return OdeSolution(
        t_eval.copy(),
        out_states,
        {"naccept": naccept, "nreject": nreject, "nfev": nfev, "ndense": ndense},
    )


# CF4: per step of size h from t, the exponentials exp(h (A0/2 + phi A1)) at
# phi = a1 f1 + a2 f2, then a2 f1 + a1 f2, with f1, f2 the factor at the Gauss
# nodes t + c1 h, t + c2 h.  The reverse order is only 2nd order.
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_CF4_WEIGHTS = np.array(
    [
        [0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0],
        [0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0],
    ]
)

#: Fewest steps of the first segment pass; each further pass may grow 8-fold.
MAGNUS_START_STEPS = 16

#: Most steps one segment may take before :func:`magnus_cf4` gives up.
MAGNUS_MAX_STEPS = 1 << 20


def _ordered_product(mats):
    """``mats[-1] @ ... @ mats[0]`` along the first axis by pairwise batched products."""
    left = None
    while len(mats) > 1:
        if len(mats) % 2:
            left = mats[-1] if left is None else left @ mats[-1]
            mats = mats[:-1]
        mats = mats[1::2] @ mats[0::2]
    return mats[0] if left is None else left @ mats[0]


def _prefix_products(mats):
    """Running products ``mats[k] @ ... @ mats[0]`` for every k, in log2(n) batched passes."""
    out = mats.copy()
    shift = 1
    while shift < len(out):
        out[shift:] = out[shift:] @ out[:-shift]
        shift *= 2
    return out


def _cf4_propagator(a0, a1, f, t0, t1, steps, samples=1, mirror=False):
    """``(samples, d, d)`` CF4 propagators from t0 to the ends of ``samples``
    equal subintervals, by ``steps`` uniform steps (a multiple of ``samples``)
    taken ``PATH_CHUNK`` at a time: whole subintervals, or part of a long one;
    ``mirror`` appends their product in the opposite order."""
    h = (t1 - t0) / steps
    per = steps // samples
    half = 0.5 * a0
    u = v = np.eye(len(a0), dtype=half.dtype)
    out = []
    start = 0
    while start < steps:
        if per > PATH_CHUNK:  # a piece of one subinterval
            stop = min(start + PATH_CHUNK, (start // per + 1) * per)
        else:  # whole subintervals
            stop = min(start + per * (PATH_CHUNK // per), steps)
        k = np.arange(start, stop, dtype=float)
        phi = f(t0 + (k[:, None] + _GAUSS) * h) @ _CF4_WEIGHTS.T
        if not np.all(np.isfinite(phi)):
            raise SolverError(f"non-finite switch factor in [{t0:.6g}, {t1:.6g}]")
        exps = _expm_stack(h * (half + phi.reshape(-1, 1, 1) * a1))
        if mirror:
            v = v @ _ordered_product(exps[::-1])
        # two exponentials per step, grouped by subinterval
        groups = exps.reshape(-1, 2 * min(per, stop - start), *a0.shape).swapaxes(0, 1)
        ends = _prefix_products(_ordered_product(groups)) @ u
        u = ends[-1]
        if stop % per == 0:
            out.extend(ends)
        start = stop
    return np.array(out + [v] if mirror else out)


def magnus_cf4(a0, a1, f, t0, t1, *, rtol=1e-9, atol=1e-12, samples=None, mirror=False):
    """Propagator ``Y(t1) Y(t0)^-1`` of ``dY/dt = (A0 + f(t) A1) Y`` by CF4.

    ``f`` maps an array of times to the array of scalar factors; it must be
    smooth inside ``(t0, t1)`` (a kink belongs at a segment end, or the
    order drops and the step count grows accordingly).  Steps are
    uniform; the step count is chosen by Richardson extrapolation on the
    whole segment.  The first pass takes ``MAGNUS_START_STEPS`` steps, or
    ``|t1 - t0| ||A0 - tr(A0)/d||_2`` if more, so that every pass resolves
    the ``A0`` motion (``h ||A0|| <= 1``; ``f A1`` is taken to be no
    larger) and the ``h^4`` error law the estimate rests on holds: with
    coarser steps the phases alias and two passes can agree by accident.
    Passes with ``n`` and ``m`` steps give the error
    estimate ``e = ||U_m - U_n||_F / ((m/n)^4 - 1)`` of ``U_m``, and the
    segment is accepted when ``e <= d atol + rtol ||U_m||_F``, the
    ``solve_ode`` step test (an RMS over entries of ``err / (atol + rtol
    |y|)``) applied once to the whole propagator with a uniform scale.
    Otherwise the next pass takes the step count predicted to meet half the
    tolerance, between 1.25 and 8 times the last.  The accepted propagator
    is the extrapolant ``U_m + (U_m - U_n) / ((m/n)^4 - 1)``.  The test and
    ``error_estimate`` refer to the unextrapolated ``U_m``; the returned
    extrapolant is typically about three orders more accurate, so
    ``error_estimate`` bounds its error loosely.

    Dense output: with ``samples=k`` both passes take a multiple of ``k``
    steps, and their partial products at ``t0 + j (t1 - t0) / k`` are
    tested and extrapolated like the endpoint; the result is the ``(k + 1,
    d, d)`` stack of propagators from t0 to those times (``j = 0..k``).
    ``mirror=True`` (endpoint only) returns ``[U(t1, t0), U(-t0, -t1)]`` for
    an even ``f``: a pass from -t0 to -t1 meets the same Gauss-node factors
    with h negated, so its exponentials invert these, and ``U(-t0, -t1)``
    is their product in the opposite order.  Both pass the test above.

    Each pass forms its exponentials ``PATH_CHUNK`` steps at a time in one
    stacked Taylor evaluation and reduces them by pairwise batched
    products, so memory stays O(``PATH_CHUNK`` d^2).  Real generators give
    real propagators.

    Returns ``(U, stats)`` with ``stats`` counting the accepted ``steps``,
    the ``exponentials`` formed over all passes and the final
    ``error_estimate`` (the largest over the samples and products).  Raises
    :class:`SolverError` when t0 or t1, the factor or the propagator is
    non-finite or the tolerance needs more than ``MAGNUS_MAX_STEPS`` steps.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise SolverError(f"non-finite CF4 window [{t0}, {t1}]")
    a0, a1 = np.asarray(a0), np.asarray(a1)
    dtype = np.result_type(a0, a1, float)
    a0, a1 = a0.astype(dtype), a1.astype(dtype)
    dim = len(a0)
    count = 1 if samples is None else int(samples)
    if count < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if mirror and samples is not None:
        raise ValueError("mirror gives endpoints only; it takes no samples")
    eye = np.eye(dim, dtype=dtype)
    ends = np.repeat(eye[None], count + mirror, axis=0)
    stats = {"steps": 0, "exponentials": 0, "error_estimate": 0.0}
    rate = np.linalg.norm(a0 - np.trace(a0) / dim * np.eye(dim), 2)
    m = max(MAGNUS_START_STEPS, math.ceil(abs(t1 - t0) * rate))
    n = u_n = None
    formed = 0
    while t1 != t0:
        m = -(-m // count) * count
        if m > MAGNUS_MAX_STEPS:
            raise SolverError(
                f"CF4 needs more than {MAGNUS_MAX_STEPS} steps on "
                f"[{t0:.6g}, {t1:.6g}] (rtol={rtol:.1e}, atol={atol:.1e})"
            )
        u_m = _cf4_propagator(a0, a1, f, t0, t1, m, count, mirror)
        formed += m
        if n is None:
            n, u_n, m = m, u_m, 2 * m
            continue
        ratio = (m / n) ** 4 - 1.0
        diff = u_m - u_n
        estimates = _frobenius_stack(diff) / ratio
        tols = dim * atol + rtol * _frobenius_stack(u_m)
        if not np.all(np.isfinite(estimates)):
            raise SolverError(f"non-finite CF4 propagator on [{t0:.6g}, {t1:.6g}]")
        if np.all(estimates <= tols):
            stats = {"steps": m, "exponentials": 2 * formed,
                     "error_estimate": float(estimates.max())}
            ends = u_m + diff / ratio
            break
        grow = float(np.max(2.0 * estimates / tols)) ** 0.25
        n, u_n = m, u_m
        m = min(8 * m, max(math.ceil(1.25 * m), math.ceil(grow * m)))
    if samples is None:
        return (ends if mirror else ends[0]), stats
    return np.concatenate([eye[None], ends]), stats
