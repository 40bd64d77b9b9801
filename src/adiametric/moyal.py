"""Exact phase-space polynomial algebra with the Moyal star product.

Polynomials in the commuting symbols (p, q) stand in for operator-valued
expressions; the star product

    F * G = sum_k (i/2)^k / k! * F (d_q d_p - d_p d_q)^k G

(left derivatives on F, right on G) reproduces the operator product of
the corresponding symmetrically ordered operators, and conjugating the
coefficients represents the operator adjoint.  For polynomials the series
terminates, and every scalar it introduces is rational, so coefficients
are kept exact: a polynomial holds Gaussian-integer numerators over one
positive integer denominator, in lowest terms, and a star product sums
integer-weighted terms over one common denominator and reduces once.
Associativity, the canonical commutator q*p - p*q = i, and adjoint
compatibility all hold bit-exactly, leaving time integration as the only
numerical step in this module.

The flow of a metric symbol under a generator symbol H is

    dTheta/dt = i (Theta * H - conj(H) * Theta),

which for the quadratic generator p^2 + q^2 reduces identically to the
rotation field 2 (q dTheta/dp - p dTheta/dq): metrics are transported
along clockwise phase-space rotations at angular rate 2, hence with
period pi.  The cubic model adds i g q^3; its order-g metric closes on
polynomials of degree three.  Under a linear switch that system is exact
exponentials of one constant generator, and it is solved in closed form
below as well.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._integrate import _output_times
from .errors import OutOfRange
from .operator_core import _expm_orbit, _require_count

__all__ = [
    "PhasePolynomial",
    "P",
    "Q",
    "ONE",
    "moyal_product",
    "star_flow_rhs",
    "harmonic_transport_check",
    "cubic_static_first_order",
    "ANSATZ_BASIS",
    "ANSATZ_NAMES",
    "CoefficientTrajectory",
    "cubic_linear_switch_evolve",
    "linear_switch_closed_form",
]


def _gaussian(value):
    """A coefficient value, exactly, as the Gaussian rational ``(re, im, den)``, ``den > 0``."""
    parts = value if isinstance(value, tuple) else (value.real, value.imag)
    if any(isinstance(x, float) and not math.isfinite(x) for x in parts):
        raise OutOfRange(f"coefficient {value!r} is not finite")
    re, im = map(Fraction, parts)
    den = math.lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


def _lowest_terms(terms, den):
    """``(terms, den)`` with zero terms dropped and every common factor cancelled."""
    terms = {key: v for key, v in terms.items() if v[0] or v[1]}
    g = math.gcd(den, *itertools.chain.from_iterable(terms.values()))
    if g > 1:
        terms = {key: (re // g, im // g) for key, (re, im) in terms.items()}
    return terms, den // g


def _scaled(terms, re, im):
    """Numerators ``terms`` times the Gaussian integer ``re + i im``."""
    return {key: (a * re - b * im, a * im + b * re) for key, (a, b) in terms.items()}


def _mul_into(acc, f, g):
    """Add the commutative product of numerators ``f`` and ``g`` into ``acc``."""
    for (a, b), (fr, fi) in f.items():
        for (c, d), (gr, gi) in g.items():
            key = (a + c, b + d)
            re, im = acc.get(key, (0, 0))
            acc[key] = (re + fr * gr - fi * gi, im + fr * gi + fi * gr)
    return acc


def _derivative(terms, a, b):
    """Numerators of ``d_p^a d_q^b``, over the same denominator."""
    out = {}
    for (i, j), (re, im) in terms.items():
        if i >= a and j >= b:
            n = math.perm(i, a) * math.perm(j, b)
            out[(i - a, j - b)] = (re * n, im * n)
    return out


class PhasePolynomial:
    """Immutable polynomial in (p, q) with exact rational complex coefficients.

    The coefficient of ``p^i q^j`` is ``(re + i im) / den``: ``_terms`` maps
    exponent pairs ``(i, j)`` (p-power, q-power) to Gaussian-integer
    numerators ``(re, im)`` over the one positive denominator ``_den``, kept
    in lowest terms with no zero numerators, so equal polynomials are equal
    structurally.  Accepts int, float, Fraction, complex, or pair coefficient
    values; finite floats convert exactly (every float is a dyadic rational),
    and a NaN or infinite part raises :class:`OutOfRange`.  A key that is not a
    pair is refused, and an exponent that is not an integer of at least 0
    raises :class:`ConfigError`.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms=None):
        exact = {}
        for key, value in (terms or {}).items():
            i, j = key
            _require_count(i, "PhasePolynomial exponent", 0)
            _require_count(j, "PhasePolynomial exponent", 0)
            exact[(int(i), int(j))] = _gaussian(value)
        den = math.lcm(*(d for _, _, d in exact.values()))
        self._terms, self._den = _lowest_terms(
            {key: (re * (den // d), im * (den // d)) for key, (re, im, d) in exact.items()}, den
        )

    # -- construction helpers -------------------------------------------
    @classmethod
    def monomial(cls, i, j, coeff=1):
        return cls({(i, j): coeff})

    @classmethod
    def _over(cls, terms, den):
        """The polynomial with numerators ``terms`` over ``den``, reduced."""
        poly = cls.__new__(cls)
        poly._terms, poly._den = _lowest_terms(terms, den)
        return poly

    # -- inspection ------------------------------------------------------
    @property
    def degree(self) -> int:
        return max((i + j for i, j in self._terms), default=0)

    def coefficient(self, i, j) -> complex:
        # int true division rounds correctly, as Fraction.__float__ does
        re, im = self._terms.get((i, j), (0, 0))
        return complex(re / self._den, im / self._den)

    def terms(self):
        """Iterate ``((i, j), complex_coefficient)`` pairs, sorted."""
        for key in sorted(self._terms):
            yield key, self.coefficient(*key)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self._den, frozenset(self._terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "PhasePolynomial(0)"
        bits = []
        for (i, j), c in self.terms():
            mono = "".join(
                s for s, e in (("p^%d" % i, i), ("q^%d" % j, j)) if e
            ) or "1"
            bits.append(f"({c:g})*{mono}")
        return "PhasePolynomial(" + " + ".join(bits) + ")"

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        den = math.lcm(self._den, other._den)
        terms = _scaled(self._terms, den // self._den, 0)
        for key, (re, im) in _scaled(other._terms, den // other._den, 0).items():
            a, b = terms.get(key, (0, 0))
            terms[key] = (a + re, b + im)
        return PhasePolynomial._over(terms, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PhasePolynomial._over(_scaled(self._terms, -1, 0), self._den)

    def scale(self, value):
        re, im, den = _gaussian(value)
        return PhasePolynomial._over(_scaled(self._terms, re, im), self._den * den)

    def times_i(self):
        return PhasePolynomial._over(_scaled(self._terms, 0, 1), self._den)

    def conjugate(self):
        """Coefficient conjugation: the symbol of the operator adjoint."""
        return PhasePolynomial._over({k: (a, -b) for k, (a, b) in self._terms.items()}, self._den)

    def pointwise_mul(self, other):
        """Ordinary commutative polynomial product."""
        terms = _mul_into({}, self._terms, other._terms)
        return PhasePolynomial._over(terms, self._den * other._den)

    def diff_p(self):
        return PhasePolynomial._over(_derivative(self._terms, 1, 0), self._den)

    def diff_q(self):
        return PhasePolynomial._over(_derivative(self._terms, 0, 1), self._den)

    def substitute_linear(self, pp, pq, qp, qq):
        """Compose with p -> pp*p + pq*q, q -> qp*p + qq*q (exact scalars): every
        term summed over the one denominator ``den dp^I dq^J`` (dp, dq those of the
        new p and q, I, J the largest powers of p and q) and reduced once."""
        new_p = PhasePolynomial({(1, 0): pp, (0, 1): pq})
        new_q = PhasePolynomial({(1, 0): qp, (0, 1): qq})
        max_i = max((i for i, _ in self._terms), default=0)
        max_j = max((j for _, j in self._terms), default=0)
        pow_p, pow_q = [{(0, 0): (1, 0)}], [{(0, 0): (1, 0)}]  # numerators over dp^i, dq^j
        for pows, new, count in ((pow_p, new_p, max_i), (pow_q, new_q, max_j)):
            for _ in range(count):
                pows.append(_mul_into({}, pows[-1], new._terms))
        total = {}
        for (i, j), (re, im) in self._terms.items():
            w = new_p._den ** (max_i - i) * new_q._den ** (max_j - j)
            _mul_into(total, _scaled(pow_p[i], re * w, im * w), pow_q[j])
        return PhasePolynomial._over(total, self._den * new_p._den**max_i * new_q._den**max_j)


ONE = PhasePolynomial.monomial(0, 0)
P = PhasePolynomial.monomial(1, 0)
Q = PhasePolynomial.monomial(0, 1)


def moyal_product(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """Star product; a finite sum for polynomials, evaluated exactly.

    Expanding the exponential bidifferential operator binomially,

        F * G = sum_{k,m} (i/2)^k (-1)^m / (m! (k-m)!)
                * (d_p^m d_q^(k-m) F) (d_p^(k-m) d_q^m G),

    truncating at ``k = K = min(deg F, deg G)``.  Over the one denominator
    ``den_F den_G 2^K K!`` every term has the Gaussian-integer weight
    ``i^k (-1)^m 2^(K-k) K! / (m! (k-m)!)``, so the sum runs on integer
    numerators and is reduced once at the end.
    """
    kmax = min(f.degree, g.degree)
    full = math.factorial(kmax)
    total = {}
    for k in range(kmax + 1):
        for m in range(k + 1):
            left, right = _derivative(f._terms, m, k - m), _derivative(g._terms, k - m, m)
            if not (left and right):
                continue
            w = (-1) ** m * 2 ** (kmax - k) * full // (math.factorial(m) * math.factorial(k - m))
            # i^k cycles (1, i, -1, -i)
            rot = ((w, 0), (0, w), (-w, 0), (0, -w))[k % 4]
            _mul_into(total, _scaled(left, *rot), right)
    return PhasePolynomial._over(total, f._den * g._den * 2**kmax * full)


def star_flow_rhs(theta: PhasePolynomial, h: PhasePolynomial) -> PhasePolynomial:
    """Metric-flow field ``i (Theta * H - conj(H) * Theta)`` on symbols.

    For ``H = p^2 + q^2`` this equals ``2 (q dTheta/dp - p dTheta/dq)``
    identically, and real (Hermitian-symbol) metrics stay real.
    """
    return (moyal_product(theta, h) - moyal_product(h.conjugate(), theta)).times_i()


def harmonic_transport_check(theta0: PhasePolynomial, t) -> PhasePolynomial:
    """Exact flow of the quadratic-generator metric: rotation transport.

    Solves ``dTheta/dt = 2 (q d_p - p d_q) Theta`` by composing with the
    rotation ``p -> p cos 2t + q sin 2t, q -> -p sin 2t + q cos 2t``.
    The angle is reduced modulo the flow period pi first, so transport by
    any whole multiple of pi is the identity bit-exactly.  A non-finite t
    raises :class:`OutOfRange`.
    """
    if not math.isfinite(t):
        raise OutOfRange(f"transport time must be finite, got {t}")
    reduced = math.remainder(float(t), math.pi)
    if reduced == 0.0:
        return theta0
    c = math.cos(2.0 * reduced)
    s = math.sin(2.0 * reduced)
    return theta0.substitute_linear(c, s, -s, c)


def cubic_static_first_order(c=0.0, d=0.0) -> PhasePolynomial:
    """First-order static metric symbol of the cubic model.

    ``c + d (p^2 + q^2) + p q^2 + (2/3) p^3``; the first two terms commute
    with the quadratic generator and parametrize the metric ambiguity,
    while the cubic part cancels the flow source exactly at first order.
    """
    return PhasePolynomial(
        {
            (0, 0): c,
            (2, 0): d,
            (0, 2): d,
            (1, 2): 1,
            (3, 0): Fraction(2, 3),
        }
    )


#: Exponent pairs of the order-3 metric ansatz, in canonical order.
ANSATZ_BASIS = (
    (0, 0),
    (1, 0),
    (0, 1),
    (2, 0),
    (1, 1),
    (0, 2),
    (3, 0),
    (2, 1),
    (1, 2),
    (0, 3),
)

ANSATZ_NAMES = ("1", "p", "q", "p2", "pq", "q2", "p3", "p2q", "pq2", "q3")

_H0 = PhasePolynomial({(2, 0): 1, (0, 2): 1})
_Q3_INDEX = ANSATZ_BASIS.index((0, 3))


@functools.cache
def _ansatz_generator_matrix() -> np.ndarray:
    """Flow generator of the quadratic part projected on the ansatz.

    Built once, on first use, by pushing every basis monomial through the
    star flow; the result must close on the ansatz (degree is preserved),
    which is asserted here rather than assumed.  The array is read-only.
    """
    index = {key: n for n, key in enumerate(ANSATZ_BASIS)}
    gen = np.zeros((len(ANSATZ_BASIS), len(ANSATZ_BASIS)))
    for col, key in enumerate(ANSATZ_BASIS):
        out = star_flow_rhs(PhasePolynomial.monomial(*key), _H0)
        for mono, coeff in out.terms():
            if mono not in index:
                raise AssertionError(f"ansatz not closed: produced {mono}")
            if abs(coeff.imag) > 0:
                raise AssertionError("generator must be real on real symbols")
            gen[index[mono], col] = coeff.real
    gen.setflags(write=False)
    return gen


@dataclass(frozen=True)
class CoefficientTrajectory:
    """Per-time coefficient vectors of the order-3 metric ansatz.

    ``values[k]`` holds the coefficients of the full metric symbol on
    ``ANSATZ_BASIS`` at ``times[k]`` (constant term included); valid
    metrics keep every coefficient real.
    """

    times: np.ndarray
    values: np.ndarray
    g: float
    duration: float

    def coefficient(self, name: str) -> np.ndarray:
        return self.values[:, ANSATZ_NAMES.index(name)]


def cubic_linear_switch_evolve(g, duration, t_eval=None) -> CoefficientTrajectory:
    """Evolve the order-g metric of the cubic model under a linear switch.

    The generator is ``p^2 + q^2 + i (t g / duration) q^3`` on
    ``[0, duration]`` with the metric symbol starting at 1.  At first
    order in g the flow closes on the degree-3 ansatz: the quadratic part
    contributes the rotation generator and the switched cubic part feeds
    the q^3 coefficient with strength ``-2 t g / duration``.  Appending
    ``(t, 1)`` to the 10 coefficients makes this linear system autonomous,
    with a constant 12x12 generator G, so the trajectory is ``exp(t G)``
    applied to the start, exactly, at every ``t_eval`` time (default: a
    uniform grid of at least 513 points).  Raises :class:`SolverError` for
    a ``t_eval`` outside ``[0, duration]`` or not strictly increasing, and
    :class:`OutOfRange` for a non-finite g or duration or a duration <= 0.
    """
    if not (math.isfinite(g) and math.isfinite(duration) and duration > 0.0):
        raise OutOfRange(f"need a finite g and a finite positive duration, got {g}, {duration}")
    duration = float(duration)
    if t_eval is None:
        n = max(513, min(4097, int(64 * duration / math.pi) | 1))
        t_eval = np.linspace(0.0, duration, n)
    times = _output_times(t_eval, 0.0, duration)
    size = len(ANSATZ_BASIS)
    gen = np.zeros((size + 2, size + 2))
    gen[:size, :size] = _ansatz_generator_matrix()
    gen[_Q3_INDEX, size] = -2.0 * float(g) / duration  # q^3 source -2 t g / T
    gen[size, size + 1] = 1.0  # dt/dt = 1
    z0 = np.r_[1.0, np.zeros(size), 1.0]  # metric symbol 1, t = 0, constant 1
    return CoefficientTrajectory(
        times=times,
        values=_expm_orbit(gen, times, z0)[:, :size],
        g=float(g),
        duration=duration,
    )


def linear_switch_closed_form(g, duration, t) -> np.ndarray:
    """Closed-form ansatz coefficients for the linearly switched cubic model.

    Returns the 10-vector on ``ANSATZ_BASIS`` at time ``t`` in
    ``[0, duration]``.  Only the constant term and the four cubic
    coefficients are nonzero at first order in g; the cubic block is

        p^3  : (g/T) (48 t - 27 sin 2t + sin 6t) / 72
        p^2 q: -(g/T) (2/3) (2 + cos 2t) sin^4 t
        p q^2: (g/T) (t - (3/8) sin 2t - (1/24) sin 6t)
        q^3  : -(g/T) (15 + 2 cos 2t + cos 4t) sin^2 t / 18

    the solution of the flow equation exactly as integrated by
    :func:`cubic_linear_switch_evolve`.  It vanishes at t=0, has a p^3
    coefficient of ``(g/T) 2 pi / 3`` at t = pi, and in the slow-switch
    limit the oscillatory p^2 q and q^3 terms die off like 1/T while the
    surviving terms reproduce the first-order static metric with zero
    free constants.
    """
    if not (math.isfinite(g) and math.isfinite(duration) and duration > 0.0):
        raise OutOfRange(f"need a finite g and a finite positive duration, got {g}, {duration}")
    t = float(t)
    duration = float(duration)
    if not -1e-12 <= t <= duration * (1.0 + 1e-12):
        raise OutOfRange(f"t={t:g} outside the switching window [0, {duration:g}]")

    tau = 2.0 * t
    scale = 0.5 * float(g) / duration
    p3 = scale * (24.0 * tau - 27.0 * math.sin(tau) + math.sin(3.0 * tau)) / 36.0
    p2q = -scale * (4.0 / 3.0) * (2.0 + math.cos(tau)) * math.sin(0.5 * tau) ** 4
    pq2 = scale * (tau - 0.75 * math.sin(tau) - math.sin(3.0 * tau) / 12.0)
    q3 = -scale * (15.0 + 2.0 * math.cos(tau) + math.cos(2.0 * tau)) * math.sin(
        0.5 * tau
    ) ** 2 / 9.0

    out = np.zeros(len(ANSATZ_BASIS))
    out[0] = 1.0
    out[ANSATZ_BASIS.index((3, 0))] = p3
    out[ANSATZ_BASIS.index((2, 1))] = p2q
    out[ANSATZ_BASIS.index((1, 2))] = pq2
    out[ANSATZ_BASIS.index((0, 3))] = q3
    return out
