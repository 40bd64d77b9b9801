"""Star-product exactness, transport, and the cubic-model metrics."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiametric.errors import ConfigError, OutOfRange, SolverError
from adiametric.moyal import (
    ANSATZ_NAMES,
    ONE,
    P,
    PhasePolynomial,
    Q,
    cubic_linear_switch_evolve,
    cubic_static_first_order,
    harmonic_transport_check,
    linear_switch_closed_form,
    moyal_product,
    star_flow_rhs,
)

from helpers import FractionPolynomial, fraction_moyal_product, substitute_linear_per_term

H0 = PhasePolynomial({(2, 0): 1, (0, 2): 1})


def dyadic_polynomials(max_degree=4):
    """Random polynomials with small dyadic coefficients (exact in floats)."""
    coeff = st.tuples(
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-8, max_value=8),
    ).map(lambda ab: complex(ab[0], ab[1]) / 2)
    exponents = st.tuples(
        st.integers(min_value=0, max_value=max_degree),
        st.integers(min_value=0, max_value=max_degree),
    ).filter(lambda ij: ij[0] + ij[1] <= max_degree)
    return st.dictionaries(exponents, coeff, max_size=6).map(PhasePolynomial)


def exact_scalars():
    """Reals as Fractions over 1, 2, 3 or 7, or as finite floats."""
    return st.one_of(
        st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 7])),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )


def as_coefficient(re, im):
    """One scalar in each form the constructor accepts: complex, real, or pair."""
    if isinstance(re, float) and isinstance(im, float):
        return complex(re, im)
    return re if im == 0 else (re, im)


def oracle_pairs(max_degree=6):
    """``(PhasePolynomial, FractionPolynomial)`` of the same non-dyadic coefficients."""
    exponents = st.tuples(
        st.integers(min_value=0, max_value=max_degree),
        st.integers(min_value=0, max_value=max_degree),
    ).filter(lambda ij: ij[0] + ij[1] <= max_degree)

    def build(raw):
        return (PhasePolynomial({k: as_coefficient(*v) for k, v in raw.items()}),
                FractionPolynomial({k: tuple(map(Fraction, v)) for k, v in raw.items()}))

    return st.dictionaries(exponents, st.tuples(exact_scalars(), exact_scalars()),
                           max_size=6).map(build)


def assert_agrees(poly, oracle):
    """``poly`` holds exactly the oracle's coefficients, in lowest terms: read
    back as Fractions, as ``coefficient()`` bits, and as an equal, equally
    hashing rebuild from the oracle's pairs."""
    assert poly._den > 0
    assert all(re or im for re, im in poly._terms.values())
    assert math.gcd(poly._den, *(n for v in poly._terms.values() for n in v)) == 1
    read_back = {key: (Fraction(re, poly._den), Fraction(im, poly._den))
                 for key, (re, im) in poly._terms.items()}
    assert read_back == oracle._terms
    for key in oracle._terms:
        got, want = poly.coefficient(*key), oracle.coefficient(*key)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    rebuilt = PhasePolynomial(oracle._terms)
    assert rebuilt == poly and hash(rebuilt) == hash(poly)


class TestFractionOracle:
    """The one-denominator algebra against the Fraction-pair implementation."""

    @given(oracle_pairs(), oracle_pairs())
    @settings(max_examples=60, deadline=None)
    def test_moyal_product(self, f, g):
        assert_agrees(moyal_product(f[0], g[0]), fraction_moyal_product(f[1], g[1]))

    @given(oracle_pairs(), oracle_pairs())
    @settings(max_examples=60, deadline=None)
    def test_ring_operations(self, f, g):
        assert_agrees(f[0], f[1])
        assert_agrees(f[0].pointwise_mul(g[0]), f[1].pointwise_mul(g[1]))
        assert_agrees(f[0] + g[0], f[1] + g[1])
        assert_agrees(f[0] - g[0], f[1] - g[1])
        assert_agrees(f[0].times_i(), f[1].times_i())
        assert_agrees(f[0].conjugate(), f[1].conjugate())
        assert (f[0] == g[0]) == (f[1] == g[1])

    @given(oracle_pairs(), exact_scalars(), exact_scalars())
    @settings(max_examples=60, deadline=None)
    def test_scale_and_derivatives(self, f, re, im):
        assert_agrees(f[0].scale(as_coefficient(re, im)),
                      f[1].scale((Fraction(re), Fraction(im))))
        assert_agrees(f[0].diff_p(), f[1].diff_p())
        assert_agrees(f[0].diff_q(), f[1].diff_q())

    @given(oracle_pairs(), st.lists(exact_scalars(), min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_substitute_linear(self, f, coeffs):
        assert_agrees(f[0].substitute_linear(*coeffs),
                      f[1].substitute_linear(*map(Fraction, coeffs)))


@given(oracle_pairs(),
       st.lists(st.tuples(exact_scalars(), exact_scalars()).map(lambda ri: as_coefficient(*ri)),
                min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_substitute_linear_equals_per_term_sum(f, coeffs):
    # one common denominator, reduced once, against every term reduced on its own
    assert f[0].substitute_linear(*coeffs) == substitute_linear_per_term(f[0], *coeffs)


class TestNonFiniteCoefficients:
    """A NaN or infinite coefficient raises OutOfRange wherever it enters;
    each once raised an untyped ValueError or OverflowError."""

    BAD = [math.nan, math.inf, -math.inf, complex(1.0, math.nan), (math.inf, 0)]
    IDS = ["nan", "inf", "-inf", "complex-nan", "pair-inf"]

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_construction_and_scale(self, bad):
        with pytest.raises(OutOfRange, match="not finite"):
            PhasePolynomial({(1, 0): 1, (0, 2): bad})
        with pytest.raises(OutOfRange, match="not finite"):
            P.scale(bad)

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_substitute_linear(self, bad):
        with pytest.raises(OutOfRange, match="not finite"):
            H0.substitute_linear(1.0, bad, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_cubic_static_constants(self, bad):
        with pytest.raises(OutOfRange, match="not finite"):
            cubic_static_first_order(bad)
        with pytest.raises(OutOfRange, match="not finite"):
            cubic_static_first_order(0.0, bad)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_transport_time(self, t):
        with pytest.raises(OutOfRange):
            harmonic_transport_check(H0, t)


@pytest.mark.parametrize("key, message", [
    ((1.5, 0), "exponent must be an integer, got 1.5"),
    ((0, -1), "exponent must be at least 0, got -1"),
], ids=["fraction", "negative"])
def test_exponent_not_a_count_rejected(key, message):
    # (1.5, 0) once became p silently, and -1 raised an untyped ValueError
    with pytest.raises(ConfigError, match=message):
        PhasePolynomial({key: 1})


@pytest.mark.parametrize("key", [(1, 0, 2), (1,)], ids=["three", "one"])
def test_key_not_a_pair_rejected(key):
    # (1, 0, 2) once became p silently, and (1,) raised an IndexError
    with pytest.raises(ValueError, match="values to unpack"):
        PhasePolynomial({key: 1})


def test_numpy_integer_exponents_accepted():
    assert PhasePolynomial({(np.int64(1), np.int32(0)): 1}) == P


class TestAlgebra:
    def test_identity_element(self):
        g = PhasePolynomial({(2, 1): 3.5, (0, 0): -1j})
        assert moyal_product(ONE, g) == g
        assert moyal_product(g, ONE) == g

    def test_first_order_products(self):
        assert moyal_product(P, Q) == PhasePolynomial({(1, 1): 1, (0, 0): -0.5j})
        assert moyal_product(Q, P) == PhasePolynomial({(1, 1): 1, (0, 0): 0.5j})

    def test_canonical_commutator_exact(self):
        comm = moyal_product(Q, P) - moyal_product(P, Q)
        assert comm == PhasePolynomial({(0, 0): 1j})

    def test_quadratic_commutator(self):
        p2 = PhasePolynomial.monomial(2, 0)
        q2 = PhasePolynomial.monomial(0, 2)
        comm = moyal_product(p2, q2) - moyal_product(q2, p2)
        assert comm == PhasePolynomial({(1, 1): -4j})

    def test_reduces_to_pointwise_at_order_zero(self):
        f = PhasePolynomial({(1, 0): 2})
        g = PhasePolynomial({(0, 0): 3})  # degree 0: no derivative terms
        assert moyal_product(f, g) == f.pointwise_mul(g)

    @given(dyadic_polynomials(), dyadic_polynomials(), dyadic_polynomials())
    @settings(max_examples=60, deadline=None)
    def test_associativity_exact(self, f, g, k):
        lhs = moyal_product(moyal_product(f, g), k)
        rhs = moyal_product(f, moyal_product(g, k))
        assert lhs == rhs

    @given(dyadic_polynomials(), dyadic_polynomials())
    @settings(max_examples=60, deadline=None)
    def test_adjoint_compatibility_exact(self, f, g):
        lhs = moyal_product(f, g).conjugate()
        rhs = moyal_product(g.conjugate(), f.conjugate())
        assert lhs == rhs

    @given(dyadic_polynomials(), dyadic_polynomials(), dyadic_polynomials())
    @settings(max_examples=30, deadline=None)
    def test_bilinearity(self, f, g, k):
        assert moyal_product(f + g, k) == moyal_product(f, k) + moyal_product(g, k)


class TestFlowField:
    def test_momentum_symbol(self):
        assert star_flow_rhs(P, H0) == PhasePolynomial({(0, 1): 2})

    def test_radius_function_is_static(self):
        assert star_flow_rhs(H0, H0).is_zero

    def test_equals_rotation_field_on_all_monomials(self):
        for i in range(7):
            for j in range(7 - i):
                m = PhasePolynomial.monomial(i, j)
                lhs = star_flow_rhs(m, H0)
                rhs = (
                    Q.pointwise_mul(m.diff_p()) - P.pointwise_mul(m.diff_q())
                ).scale(2)
                assert lhs == rhs, (i, j)

    @given(dyadic_polynomials(max_degree=3))
    @settings(max_examples=40, deadline=None)
    def test_real_symbols_stay_real(self, poly):
        real_poly = (poly + poly.conjugate()).scale(0.5)
        out = star_flow_rhs(real_poly, H0)
        for _, coeff in out.terms():
            assert coeff.imag == 0.0


class TestHarmonicTransport:
    def test_radius_invariant(self):
        # exact up to cos^2 + sin^2 roundoff at a generic angle
        out = harmonic_transport_check(H0, 0.77)
        for key in [(2, 0), (0, 2)]:
            assert abs(out.coefficient(*key) - 1.0) < 1e-15
        assert abs(out.coefficient(1, 1)) < 1e-15

    def test_quarter_period_maps_q_to_minus_p(self):
        out = harmonic_transport_check(Q, math.pi / 4)
        assert abs(out.coefficient(1, 0) + 1.0) < 1e-15
        assert abs(out.coefficient(0, 1)) < 1e-15

    def test_full_period_identity_exact(self):
        theta = PhasePolynomial({(3, 0): 1.5, (1, 2): -2, (0, 1): 0.25j})
        assert harmonic_transport_check(theta, math.pi) == theta
        assert harmonic_transport_check(theta, -math.pi) == theta
        assert harmonic_transport_check(theta, 2 * math.pi) == theta

    def test_solves_flow_equation(self):
        # finite-difference time derivative against the generator field
        theta = PhasePolynomial({(2, 1): 1, (0, 1): -0.5})
        t, h = 0.31, 1e-6
        plus = harmonic_transport_check(theta, t + h)
        minus = harmonic_transport_check(theta, t - h)
        rate = star_flow_rhs(harmonic_transport_check(theta, t), H0)
        for (i, j) in set(k for k, _ in plus.terms()) | set(
            k for k, _ in rate.terms()
        ):
            fd = (plus.coefficient(i, j) - minus.coefficient(i, j)) / (2 * h)
            assert abs(fd - rate.coefficient(i, j)) < 1e-7


class TestCubicStatic:
    def test_default_constants(self):
        theta1 = cubic_static_first_order()
        assert theta1 == PhasePolynomial({(1, 2): 1, (3, 0): Fraction(2, 3)})

    def test_first_order_residual_vanishes_identically(self):
        # residual of 1 + g theta1 under H0 + i g q^3, collected at order g
        iq3 = PhasePolynomial({(0, 3): 1j})
        for c, d in [(0, 0), (Fraction(1, 3), Fraction(-2, 7)), (1.5, 0.25)]:
            theta1 = cubic_static_first_order(c, d)
            order_g = star_flow_rhs(theta1, H0) + (
                moyal_product(ONE, iq3) - moyal_product(iq3.conjugate(), ONE)
            ).times_i()
            assert order_g.is_zero, (c, d)


class TestLinearSwitch:
    def test_initial_condition(self):
        vec = linear_switch_closed_form(0.1, 10.0, 0.0)
        expected = np.zeros(10)
        expected[0] = 1.0
        np.testing.assert_allclose(vec, expected, atol=1e-15)

    def test_spot_value_p3_at_pi(self):
        vec = linear_switch_closed_form(0.1, math.pi, math.pi)
        assert abs(vec[ANSATZ_NAMES.index("p3")] - 1.0 / 15.0) < 1e-14

    def test_adiabatic_limit_recovers_static_terms(self):
        g, duration = 0.1, 4000.0
        vec = linear_switch_closed_form(g, duration, duration)
        assert abs(vec[ANSATZ_NAMES.index("pq2")] - g) < 2 * g / duration
        assert abs(vec[ANSATZ_NAMES.index("p3")] - 2 * g / 3) < 2 * g / duration

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange):
            linear_switch_closed_form(0.1, 1.0, 2.0)

    def test_integration_matches_closed_form(self):
        g = 0.1
        for duration in (math.pi, 10.0):
            pts = [duration / 4, duration / 2, duration]
            traj = cubic_linear_switch_evolve(g, duration, t_eval=pts)
            for k, t in enumerate(pts):
                exact = linear_switch_closed_form(g, duration, t)
                scale = np.maximum(np.abs(exact), g / duration)
                assert np.max(np.abs(traj.values[k] - exact) / scale) < 1e-6

    def test_low_degree_coefficients_stay_zero(self):
        traj = cubic_linear_switch_evolve(0.2, 5.0)
        # nothing feeds degrees 1 and 2 at first order
        for name in ("p", "q", "p2", "pq", "q2"):
            assert np.max(np.abs(traj.coefficient(name))) < 1e-12

    def test_oscillatory_envelope_halves_when_duration_doubles(self):
        g = 0.1
        envelopes = {}
        for duration in (40.0, 80.0):
            traj = cubic_linear_switch_evolve(g, duration)
            window = traj.times >= duration - math.pi
            envelopes[duration] = np.max(
                np.abs(traj.coefficient("p2q")[window])
            )
        ratio = envelopes[80.0] / envelopes[40.0]
        assert 0.4 <= ratio <= 0.6


class TestLinearSwitchExponentials:
    """The cubic flow is exact exponentials of a constant 12x12 generator."""

    @pytest.mark.parametrize("g", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("duration", [math.pi, 10.0, 40.0, 100.0])
    def test_every_sample_matches_closed_form(self, g, duration):
        traj = cubic_linear_switch_evolve(g, duration)
        exact = np.array([linear_switch_closed_form(g, duration, t) for t in traj.times])
        assert np.max(np.abs(traj.values - exact)) < 1e-12

    def test_t_eval_outside_interval_raises(self):
        with pytest.raises(SolverError, match="outside"):
            cubic_linear_switch_evolve(0.1, 2.0, t_eval=[0.5, 2.5])
        with pytest.raises(SolverError, match="outside"):
            cubic_linear_switch_evolve(0.1, 2.0, t_eval=[-0.1, 1.0])

    def test_non_increasing_t_eval_raises(self):
        for t_eval in ([0.5, 0.5, 1.0], [1.0, 0.5]):
            with pytest.raises(SolverError, match="strictly monotone in the direction of integration"):
                cubic_linear_switch_evolve(0.1, 2.0, t_eval=t_eval)

    def test_generator_built_once_read_only(self):
        from adiametric.moyal import _ansatz_generator_matrix

        gen = _ansatz_generator_matrix()
        assert _ansatz_generator_matrix() is gen
        assert not gen.flags.writeable
