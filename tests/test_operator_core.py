"""Linear-algebra primitives against hand and spectral oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import adiametric
from adiametric.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NonHermitianInput,
    NotDiagonalizable,
    NotPositive,
    SolverError,
)
from adiametric.operator_core import (
    HERMITICITY_TOL,
    PATH_CHUNK,
    _expm_stack,
    _frobenius_stack,
    _hermiticity_defects,
    _hermitian_part,
    _is_hermitian,
    _lower_inverse,
    _require_hermitian,
    biorthogonal_decompose,
    continued_eigensystems,
    eigenframe,
    frobenius,
    hermitian_sqrt,
    hermiticity_defect,
    positivity_check,
    propagator,
    spectrum_reality_check,
)

from helpers import (
    I2,
    SX,
    SY,
    SZ,
    random_hermitian,
    random_quasi_hermitian,
    two_level_matrix,
)


class TestHermiticityDefect:
    def test_identity_is_hermitian(self):
        assert hermiticity_defect(np.eye(3)) == 0.0

    def test_upper_triangular_hand_value(self):
        # M - M^dag = [[0, i], [i, 0]]: Frobenius norm sqrt(2)
        m = np.array([[0.0, 1j], [0.0, 0.0]])
        assert abs(hermiticity_defect(m) - math.sqrt(2.0)) < 1e-15

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            hermiticity_defect(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionMismatch):
            hermiticity_defect(np.array([[np.nan, 0], [0, 1]]))

    def test_any_memory_layout(self):
        # the transpose of a complex matrix once raised numpy's "last axis
        # must be contiguous" ValueError from the finiteness check
        m = np.array([[0.0, 1j], [0.0, 0.0]])
        assert hermiticity_defect(m.T) == hermiticity_defect(m)
        with pytest.raises(DimensionMismatch, match="finite"):
            hermiticity_defect(np.array([[np.nan, 1j], [0.0, 0.0]]).T)


@given(
    dim=st.integers(1, 13),
    count=st.integers(1, 5),
    complex_entries=st.booleans(),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_frobenius_stack_matches_frobenius(dim, count, complex_entries, scale, seed):
    rng = np.random.default_rng(seed)
    stack = scale * rng.standard_normal((count, dim, dim))
    if complex_entries:
        stack = stack + 1j * scale * rng.standard_normal((count, dim, dim))
    np.testing.assert_array_equal(_frobenius_stack(stack), [frobenius(m) for m in stack])


@given(
    dim=st.integers(1, 9),
    count=st.integers(1, 16),
    # multiples of the tolerance: 0 is Hermitian, 0.1-10 straddle the bound
    defect=st.sampled_from([0.0, 0.1, 0.99, 1.01, 10.0, 1e10]),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_stacked_hermiticity_matches_per_matrix(dim, count, defect, scale, seed):
    rng = np.random.default_rng(seed)
    shape = (count, dim, dim)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    herm, skew = _hermitian_part(scale * a), b - _hermitian_part(b)
    stack = herm + (defect * HERMITICITY_TOL * max(1.0, scale) / dim) * skew
    defects = _hermiticity_defects(stack)
    # bit for bit: the per-matrix defect and the norm it was written as before
    np.testing.assert_array_equal(defects, [hermiticity_defect(m) for m in stack])
    np.testing.assert_array_equal(defects, [frobenius(m - m.conj().T) for m in stack])
    for m, hermitian in zip(stack, _is_hermitian(stack)):
        if hermitian:
            _require_hermitian(m)
        else:
            with pytest.raises(NonHermitianInput):
                _require_hermitian(m)


class TestPositivityCheck:
    def test_identity(self):
        ok, smallest = positivity_check(np.eye(2))
        assert ok and abs(smallest - 1.0) < 1e-14

    def test_positive_pauli_combination(self):
        # eigenvalues 1 +- 0.75 by the two-level splitting
        ok, smallest = positivity_check(I2 + 0.75 * SY)
        assert ok and abs(smallest - 0.25) < 1e-14

    def test_indefinite_pauli_combination(self):
        ok, smallest = positivity_check(I2 + 1.5 * SY)
        assert not ok and abs(smallest + 0.5) < 1e-14

    def test_rejects_nonhermitian(self):
        with pytest.raises(NonHermitianInput):
            positivity_check(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermitianSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(hermitian_sqrt(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(
            hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_pauli_combination_spectral_oracle(self):
        # spectral decomposition on the sigma_y eigenbasis
        theta = I2 + 0.75 * SY
        plus = 0.5 * np.array([[1, -1j], [1j, 1]])  # projector on +1 eigenvector
        minus = np.eye(2) - plus
        oracle = math.sqrt(1.75) * plus + math.sqrt(0.25) * minus
        np.testing.assert_allclose(hermitian_sqrt(theta), oracle, atol=1e-14)

    def test_square_reconstructs(self, subtests=None):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5, 8):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            theta = a @ a.conj().T + 0.5 * np.eye(dim)
            om = hermitian_sqrt(theta)
            rel = np.linalg.norm(om @ om - theta) / np.linalg.norm(theta)
            assert rel < 1e-12
            assert hermiticity_defect(om) < 1e-13

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositive):
            hermitian_sqrt(I2 + 1.5 * SY)


def test_lower_inverse_matches_inv():
    # every size from a single leaf through three halvings, odd sizes included
    rng = np.random.default_rng(12)
    for dim in range(1, 71):
        a = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
        low = np.linalg.cholesky(a @ a.conj().swapaxes(1, 2) / dim + np.eye(dim))
        got, want = _lower_inverse(low), np.linalg.inv(low)
        assert not np.triu(got, 1).any(), dim
        err = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert np.all(err <= 1e-13), (dim, err)


class TestBiorthogonalDecompose:
    def test_hermitian_diagonal(self):
        sys = biorthogonal_decompose(SZ)
        np.testing.assert_allclose(sys.eigenvalues, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(sys.right), [[0, 1], [1, 0]], atol=1e-14)
        np.testing.assert_allclose(sys.left, sys.right, atol=1e-14)

    def test_two_level_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h_vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            m = two_level_matrix(2 * h_vec.real, 2 * h_vec.imag)
            split = np.sqrt(np.sum(h_vec[1:] ** 2) + 0j)
            expect = sorted(
                [h_vec[0] + split, h_vec[0] - split], key=lambda z: (z.real, z.imag)
            )
            sys = biorthogonal_decompose(m)
            np.testing.assert_allclose(sys.eigenvalues, expect, atol=1e-12)

    def test_biorthonormality_residual_random(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 5):
            h, _ = random_quasi_hermitian(rng, dim)
            sys = biorthogonal_decompose(h)
            assert sys.biorthonormality_residual() < 1e-10
            assert sys.eigen_residual(h) < 1e-10

    def test_normalization_deterministic(self):
        h, _ = random_quasi_hermitian(np.random.default_rng(5), 4)
        a = biorthogonal_decompose(h)
        b = biorthogonal_decompose(h.copy())
        np.testing.assert_array_equal(a.right, b.right)
        # right vectors unit norm, first significant component real positive
        norms = np.linalg.norm(a.right, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-14)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            biorthogonal_decompose(np.eye(2))

    def test_defective_rejected(self):
        # a Jordan chain split by 1e-6: the gaps pass GAP_TOL, but the
        # eigenvectors are nearly parallel (condition number 2.1e12), so the
        # eigenvector-condition guard is what fires
        with pytest.raises(NotDiagonalizable):
            biorthogonal_decompose(
                np.array([[1.0, 1.0, 0.0], [0.0, 1.0 + 1e-6, 1.0], [0.0, 0.0, 1.0 + 2e-6]])
            )


class TestPropagator:
    def test_zero_time(self):
        np.testing.assert_array_equal(propagator(SZ, 0.0), np.eye(2))

    def test_pauli_half_turn(self):
        np.testing.assert_allclose(propagator(SZ, math.pi), -np.eye(2), atol=1e-13)

    def test_hermitian_unitarity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = 0.5 * (a + a.conj().T)
            u = propagator(h, 0.7)
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12

    def test_group_property(self):
        # real-spectrum generators keep the evolution bounded, so the
        # absolute tolerance is meaningful over the full stated range
        rng = np.random.default_rng(9)
        for _ in range(5):
            h, _ = random_quasi_hermitian(rng, 3, scale=10.0)
            a, b = rng.uniform(-10, 10, size=2)
            lhs = propagator(h, a) @ propagator(h, b)
            np.testing.assert_allclose(lhs, propagator(h, a + b), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(2, 6),
        hermitian=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        dt=st.floats(-2.0, 2.0),
    )
    def test_matches_scipy_expm(self, dim, hermitian, seed, dt):
        rng = np.random.default_rng(seed)
        if hermitian:
            h = random_hermitian(rng, dim, 2.0)
        else:
            h, _ = random_quasi_hermitian(rng, dim, scale=2.0)
        np.testing.assert_allclose(
            propagator(h, dt), scipy.linalg.expm(-1j * dt * h), atol=1e-12
        )

    def test_defective_generator_matches_scipy_expm(self):
        # sigma_z + i sigma_x is an exceptional point: one eigenvalue (0)
        # with a single eigenvector, where no spectral formula applies
        h = SZ + 1j * SX
        for dt in (-2.5, 0.3, 1.7):
            np.testing.assert_allclose(
                propagator(h, dt), scipy.linalg.expm(-1j * dt * h), atol=1e-12
            )
        # nilpotent: exp(-i H t) = I - i H t exactly
        np.testing.assert_allclose(propagator(h, 1.7), I2 - 1.7j * h, atol=1e-13)


def test_taylor_stack_matches_expm():
    # d = 1-13, real and complex, 1-norms just below and above every power
    # of two in [1e-3, 50]: every squaring count and block layout
    norms = [n for k in range(-10, 6) for n in (0.97 * 2.0**k, 1.03 * 2.0**k)]
    norms = np.array([n for n in norms if 1e-3 <= n <= 50.0])
    ep = SZ + 1j * SX  # the exceptional point: defective, nilpotent
    for dim in range(1, 14):
        for dtype in (float, complex):
            rng = np.random.default_rng(dim)
            gens = rng.standard_normal((len(norms), dim, dim)).astype(dtype)
            if dtype is complex:
                gens += 1j * rng.standard_normal((len(norms), dim, dim))
                if dim == 2:
                    gens = np.concatenate([gens, [ep, -3.0j * ep]])
            scaled = gens[:len(norms)]  # the exceptional points keep their norm
            scaled *= (norms / np.abs(scaled).sum(axis=1).max(axis=1))[:, None, None]
            got = _expm_stack(gens)
            assert got.dtype == gens.dtype
            for g, e in zip(gens, got):
                expected = scipy.linalg.expm(g)
                assert np.linalg.norm(e - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))
    # beyond the grid: 1-norms up to about 130 (8 squarings), where scipy's
    # own error on real 2x2 grid matrices already exceeds the bound
    rng = np.random.default_rng(7)
    gens = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    gens *= np.array([1e-3, 0.1, 1.0, 5.0, 40.0])[:, None, None]
    for g, e in zip(gens, _expm_stack(gens)):
        expected = scipy.linalg.expm(g)
        assert np.linalg.norm(e - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))


def test_import_leaves_scipy_unloaded():
    # the package's linear algebra is numpy only; scipy is a test oracle
    src = str(Path(adiametric.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, adiametric, adiametric.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


class TestEigenframe:
    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(2, 6),
        hermitian=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reconstructs_generator(self, dim, hermitian, seed):
        rng = np.random.default_rng(seed)
        if hermitian:
            h = random_hermitian(rng, dim, 2.0)
        else:
            h, _ = random_quasi_hermitian(rng, dim, scale=2.0)
        vals, vecs, vecs_inv = eigenframe(h)
        rebuilt = (vecs * vals) @ vecs_inv
        assert np.linalg.norm(rebuilt - h) <= 1e-10 * np.linalg.norm(h)
        np.testing.assert_allclose(vecs_inv @ vecs, np.eye(dim), atol=1e-10)
        if hermitian:  # the unitary eigh path
            np.testing.assert_array_equal(vecs_inv, vecs.conj().T)


class TestContinuedEigensystems:
    def test_levels_follow_eigenvectors_across_chunks(self):
        # diag(u, 1 - u) crosses at u = 0.5; the levels keep their axes
        us = np.linspace(0.0, 1.0, 8)
        path = np.array([np.diag([u, 1.0 - u]) for u in us], dtype=complex)
        pieces = list(continued_eigensystems(path[i : i + 3] for i in range(0, 8, 3)))
        vals = np.concatenate([v for v, _, _ in pieces])
        np.testing.assert_allclose(vals, np.stack([us, 1.0 - us], axis=1), atol=1e-15)
        for _, right, left_h in pieces:
            np.testing.assert_allclose(left_h @ right, np.broadcast_to(I2, right.shape))
            np.testing.assert_allclose(np.abs(right), np.broadcast_to(I2, right.shape))

    def test_matches_per_point_overlap_loop(self):
        # reference: one biorthogonal decomposition per point, overlap argmax
        rng = np.random.default_rng(21)
        h_a, s = random_quasi_hermitian(rng, 4, scale=2.0)
        h_b = np.linalg.solve(s, random_hermitian(rng, 4, 1.5) @ s)
        path = h_a + np.linspace(0.0, 1.0, 600)[:, None, None] * h_b
        sys = biorthogonal_decompose(path[0])
        expected, left = [sys.eigenvalues], sys.left
        for h in path[1:]:
            nxt = biorthogonal_decompose(h)
            perm = np.argmax(np.abs(left.conj().T @ nxt.right), axis=1)
            expected.append(nxt.eigenvalues[perm])
            left = nxt.left[:, perm]
        chunks = (path[i : i + PATH_CHUNK] for i in range(0, len(path), PATH_CHUNK))
        vals = np.concatenate([v for v, _, _ in continued_eigensystems(chunks)])
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_starts_in_real_imag_order(self):
        h = np.diag([2.0, -1.0 + 1j, -1.0 - 1j]).astype(complex)
        vals, _, _ = next(continued_eigensystems([h[None]]))
        np.testing.assert_array_equal(vals[0], [-1.0 - 1j, -1.0 + 1j, 2.0])

    def test_coarse_path_rejected(self):
        # two levels of diag(1, 2, 3) pair best with the same next eigenvector
        right = np.array([[0.9, 0.1, 0.3], [0.8, 0.2, 0.3], [0.1, 0.5, 0.9]])
        nxt = right @ np.diag([1.0, 2.0, 3.0]) @ np.linalg.inv(right)
        path = np.array([np.diag([1.0, 2.0, 3.0]), nxt], dtype=complex)
        with pytest.raises(SolverError, match="path too coarse"):
            list(continued_eigensystems([path]))


class TestSpectrumReality:
    def test_hermitian(self):
        assert spectrum_reality_check(SZ)

    def test_two_level_real_regime(self):
        # splitting sqrt(v^2 - w^2)/... real since v^2 = 16 > w^2 = 9
        m = two_level_matrix([0, 4, 0, 0], [0, 0, 0, 3])
        assert spectrum_reality_check(m)

    def test_two_level_complex_regime(self):
        m = two_level_matrix([0, 2, 0, 0], [0, 0, 0, 3])
        assert not spectrum_reality_check(m)
