"""Dense complex linear algebra primitives.

Everything downstream (metric evolution, scattering, toy models) builds on
the operations here: Hermiticity and positivity predicates, the Hermitian
principal square root, the inverse of stacked lower-triangular (Cholesky)
factors, biorthogonal eigendecompositions of diagonalizable
non-Hermitian matrices, the eigenframe ``H = V diag(E) V^-1`` behind every
free propagator, eigensystems continued along a path of matrices, and the
package's one matrix exponential: a stacked Taylor kernel with scaling and
squaring, behind :func:`propagator` and every exponential integrator.

All functions are pure; matrices are plain ``numpy.ndarray`` values of
complex dtype and are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexSpectrum,
    ConfigError,
    DegenerateSpectrum,
    DimensionMismatch,
    NonHermitianInput,
    NotDiagonalizable,
    NotPositive,
    SolverError,
)

__all__ = [
    "BiorthogonalSystem",
    "as_operator",
    "frobenius",
    "hermiticity_defect",
    "positivity_check",
    "hermitian_sqrt",
    "biorthogonal_decompose",
    "eigenframe",
    "continued_eigensystems",
    "propagator",
    "spectrum_reality_check",
]

#: Relative scale of every Hermiticity check.
HERMITICITY_TOL = 1e-10

#: Relative eigenvalue-gap floor below which a spectrum counts as degenerate.
GAP_TOL = 1e-8

#: Largest imaginary eigenvalue part a spectrum may have and still count as real.
SPECTRUM_TOL = 1e-9

#: Largest eigenvector condition number of a matrix that counts as diagonalizable.
EIGENVECTOR_COND_TOL = 1e12

#: Matrices per stacked chunk: path points, or exponentials of one Taylor call.
PATH_CHUNK = 256

_UNIT_ROUNDOFF = 2.0**-53
_EXPM_PIECE = 1 << 13  # matrix entries per piece of one Taylor evaluation


def as_operator(m) -> np.ndarray:
    """Validate and coerce ``m`` to a finite square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.reshape(-1).view(float))):  # any memory layout
        raise DimensionMismatch("matrix entries must be finite")
    return a


def _require_positive(value, name) -> None:
    """Raise :class:`ConfigError` unless the scalar parameter ``name`` is finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name} must be finite and positive, got {value}")


def _operator_pair(a, b):
    """``a`` and ``b`` by :func:`as_operator`; :class:`DimensionMismatch` unless one shape."""
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"operator shapes {a.shape} and {b.shape} differ")
    return a, b


def frobenius(m) -> float:
    """Frobenius norm, the matrix norm used throughout the package."""
    return float(np.linalg.norm(m))


def _frobenius_stack(m) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, equal to :func:`frobenius` bit for bit.

    The sums run as :func:`frobenius` runs them: one real dot product for
    real input, one over the real parts plus one over the imaginary parts
    for complex input, so stacked and per-matrix checks agree to the last bit.
    """
    flat = np.asarray(m).reshape(len(m), -1)
    if np.iscomplexobj(flat):
        return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    return np.sqrt(np.vecdot(flat, flat))


def _hermiticity_defects(m) -> np.ndarray:
    """``||M - M^dagger||_F`` of each matrix of a stack; one matrix is a stack of one."""
    return _frobenius_stack(m - m.conj().swapaxes(-1, -2))


def _is_hermitian(m):
    """Defect within ``HERMITICITY_TOL * max(1, ||M||_F)``: a bool for one
    matrix, an array per matrix of a stack, decided on the same bits."""
    if m.ndim == 2:  # the scalar norms skip the stacked norm's set-up
        return frobenius(m - m.conj().T) <= HERMITICITY_TOL * max(1.0, frobenius(m))
    return _hermiticity_defects(m) <= HERMITICITY_TOL * np.maximum(1.0, _frobenius_stack(m))


def hermiticity_defect(m) -> float:
    """``||M - M^dagger||_F``; zero exactly when M is Hermitian."""
    a = as_operator(m)
    return frobenius(a - a.conj().T)


def _hermitian_part(m) -> np.ndarray:
    """``(M + M^dagger) / 2`` of a matrix or of each matrix of a stack."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _require_hermitian(m):
    """``(M + M^dagger) / 2``; :class:`NonHermitianInput` unless :func:`_is_hermitian`."""
    a = as_operator(m)
    if not _is_hermitian(a):
        defect = hermiticity_defect(a)
        raise NonHermitianInput(f"hermiticity defect {defect:.3e} exceeds tolerance")
    return _hermitian_part(a)


def positivity_check(m):
    """Return ``(is_positive_definite, smallest_eigenvalue)`` of Hermitian M.

    Raises :class:`NonHermitianInput` when the Hermiticity defect exceeds
    ``HERMITICITY_TOL`` relative to the matrix norm.
    """
    a = _require_hermitian(m)
    smallest = float(np.linalg.eigvalsh(a)[0])
    return smallest > 0.0, smallest


def hermitian_sqrt(theta) -> np.ndarray:
    """Hermitian positive-definite principal square root of ``theta``.

    This is the canonical factor in the decomposition theta = Omega^dagger
    Omega; it is the unique positive choice and varies smoothly with theta.
    """
    a = _require_hermitian(theta)
    vals, vecs = np.linalg.eigh(a)
    if vals[0] <= 0.0:
        raise NotPositive(f"smallest eigenvalue {vals[0]:.3e} is not positive")
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


_TRI_LEAF = 16  # largest triangle :func:`_lower_inverse` hands to ``inv``


def _lower_inverse(low) -> np.ndarray:
    """Inverse of each lower-triangular matrix of a ``(n, d, d)`` stack.

    Halving ``L = [[A, 0], [C, D]]`` gives ``L^-1 = [[A^-1, 0], [-D^-1 C A^-1,
    D^-1]]``, so only the diagonal triangles of at most ``_TRI_LEAF`` rows
    go to ``np.linalg.inv``; their upper triangles are set to zero.
    """
    dim = low.shape[-1]
    if dim <= _TRI_LEAF:
        return np.tril(np.linalg.inv(low))
    half = dim // 2
    a_inv = _lower_inverse(low[:, :half, :half])
    d_inv = _lower_inverse(low[:, half:, half:])
    out = np.zeros_like(low)
    out[:, :half, :half] = a_inv
    out[:, half:, half:] = d_inv
    out[:, half:, :half] = -(d_inv @ low[:, half:, :half]) @ a_inv
    return out


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Eigenvalues with paired right/left eigenvector families.

    Columns of ``right`` are eigenvectors of H, columns of ``left`` are
    eigenvectors of H^dagger, normalized so that ``left^dagger @ right`` is
    the identity.  Right vectors have unit Euclidean norm with their first
    significant component rotated to the positive real axis, which makes
    decompositions reproducible.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray

    @property
    def dim(self) -> int:
        return self.right.shape[0]

    def biorthonormality_residual(self) -> float:
        """Max deviation of ``<left_m|right_n>`` from the Kronecker delta."""
        gram = self.left.conj().T @ self.right
        return float(np.max(np.abs(gram - np.eye(self.dim))))

    def eigen_residual(self, h) -> float:
        """Max residual of the right/left eigenvalue equations for ``h``."""
        h = as_operator(h)
        r = np.max(np.abs(h @ self.right - self.right * self.eigenvalues))
        l = np.max(
            np.abs(h.conj().T @ self.left - self.left * self.eigenvalues.conj())
        )
        return float(max(r, l))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Unit-normalize columns; rotate first significant entry real positive."""
    out = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    d = out.shape[0]
    for n in range(d):
        col = out[:, n]
        idx = np.argmax(np.abs(col) > 1e-12)
        phase = col[idx] / abs(col[idx])
        out[:, n] = col / phase
    return out


def _refine_eigenpair(a, lam, v):
    """Newton refinement of one eigenpair via the bordered system.

    Solves ``[[A - lam I, -v], [v^dag, 0]] (dv, dlam) = (-r, 0)`` so the
    eigenvector correction stays orthogonal to the current iterate; two
    iterations push the residual to roundoff even for poorly separated
    spectra, which is what keeps downstream static-metric residuals at
    the 1e-12 scale.
    """
    n = a.shape[0]
    eye = np.eye(n)
    for _ in range(2):
        residual = a @ v - lam * v
        bordered = np.zeros((n + 1, n + 1), dtype=complex)
        bordered[:n, :n] = a - lam * eye
        bordered[:n, n] = -v
        bordered[n, :n] = v.conj()
        rhs = np.concatenate([-residual, [0.0]])
        try:
            sol = np.linalg.solve(bordered, rhs)
        except np.linalg.LinAlgError:
            break
        v = v + sol[:n]
        lam = lam + sol[n]
        v = v / np.linalg.norm(v)
    return lam, v


def biorthogonal_decompose(h) -> BiorthogonalSystem:
    """Decompose a diagonalizable matrix into a biorthonormal eigensystem.

    Eigenvalues are sorted by (real, imaginary) part.  Raises
    :class:`DegenerateSpectrum` when the smallest eigenvalue gap falls
    below ``GAP_TOL * max(1, ||H||_F)`` and :class:`NotDiagonalizable`
    when the eigenvector matrix is numerically defective (condition
    number above ``EIGENVECTOR_COND_TOL``).
    """
    a = as_operator(h)
    vals, vecs = np.linalg.eig(a)
    for n in range(a.shape[0]):
        vals[n], vecs[:, n] = _refine_eigenpair(a, vals[n], vecs[:, n])
    order = np.lexsort((vals.imag, vals.real))
    vals, right = vals[order], _fix_phases(vecs[:, order])
    _require_separated(a[None], vals[None], right[None])
    left = np.linalg.inv(right).conj().T
    return BiorthogonalSystem(eigenvalues=vals, right=right, left=left)


def _require_separated(h, vals, right):
    """``(vals, right)``, the eigensystems ``(n, d)``, ``(n, d, d)`` of a
    ``(n, d, d)`` stack ``h``; raise for a gap below ``GAP_TOL * max(1, ||H||_F)``
    or an eigenvector condition number above ``EIGENVECTOR_COND_TOL``."""
    self_gap = np.diag(np.full(vals.shape[1], np.inf))
    gaps = (np.abs(vals[:, :, None] - vals[:, None, :]) + self_gap).min(axis=(1, 2))
    floor = GAP_TOL * np.maximum(1.0, _frobenius_stack(h))
    if np.any(gaps < floor):
        k = int(np.argmax(gaps < floor))
        raise DegenerateSpectrum(
            f"minimal eigenvalue gap {gaps[k]:.3e} below tolerance {floor[k]:.3e}"
        )
    cond = np.linalg.cond(right)
    if not np.all(cond <= EIGENVECTOR_COND_TOL):
        raise NotDiagonalizable(f"eigenvector condition number {np.max(cond):.3e}")
    return vals, right


def eigenframe(h):
    """Eigenframe ``(E, V, V^-1)`` with ``H = V diag(E) V^-1``, E (real, imag)-sorted.

    Hermitian input (within ``HERMITICITY_TOL``) takes the unitary ``eigh``
    path; anything else goes through :func:`biorthogonal_decompose`.
    """
    a = as_operator(h)
    if _is_hermitian(a):
        vals, vecs = np.linalg.eigh(_hermitian_part(a))
        return vals.astype(complex), vecs, vecs.conj().T
    sys = biorthogonal_decompose(a)
    return sys.eigenvalues, sys.right, sys.left.conj().T


def continued_eigensystems(chunks):
    """Eigensystems along a path of matrices, continued level by level.

    ``chunks`` yields consecutive pieces of one path as stacked ``(n, d, d)``
    arrays; per chunk this yields eigenvalues ``(n, d)``, unit-norm right
    eigenvectors (columns) and ``left_h = right^-1`` (rows), with index m
    following one level from the (real, imag) order of the first point.
    The successor of a level maximizes ``|left_prev^dagger right_next|``, so
    eigenvectors, not eigenvalues, carry the identity through crossings; a
    successor claimed twice raises :class:`SolverError`.
    """
    yield from _continued_levels(np.linalg.eig(chunk) for chunk in chunks)


def _continued_levels(eigensystems):
    """:func:`continued_eigensystems` on the ``(vals, right)`` pairs of its chunks."""
    carry = None
    for vals, right in eigensystems:
        try:
            left_h = np.linalg.inv(right)
        except np.linalg.LinAlgError as exc:
            raise NotDiagonalizable("singular eigenvectors on the path") from exc
        if carry is None:
            carry = left_h[0, np.lexsort((vals[0].imag, vals[0].real))]
        prev = np.concatenate([carry[None], left_h[:-1]])
        successor = np.argmax(np.abs(prev @ right), axis=2)
        levels = np.arange(successor.shape[1])
        if np.any(np.sort(successor, axis=1) != levels):
            raise SolverError("eigenvector matching failed; path too coarse")
        perm = np.empty_like(successor)
        for k, step in enumerate(successor):
            levels = step[levels]
            perm[k] = levels
        vals = np.take_along_axis(vals, perm, axis=1)
        right = np.take_along_axis(right, perm[:, None, :], axis=2)
        left_h = np.take_along_axis(left_h, perm[:, :, None], axis=1)
        carry = left_h[-1]
        yield vals, right, left_h


def _expm_stack(gens):
    """``exp`` of each matrix of a ``(n, d, d)`` stack.

    Taylor polynomial with scaling and squaring, evaluated for the whole
    stack at once: the stack is scaled by ``2^-s`` until its largest
    1-norm x is at most 1, the degree q is the smallest whose remainder
    bound ``x^(q+1) / (q+1)! e^x`` is below the unit roundoff, and the
    result is squared s times.  The bound holds for any matrix, so no
    eigenvector conditioning enters (exceptional points included).
    Paterson & Stockmeyer (SIAM J. Comput. 2 (1973) 60) evaluate it: Horner
    in ``A^p`` over blocks of p coefficients, p minimizing the product count
    ``p - 1 + (q - 1) // p`` (7 at q = 18), in p + 1 work arrays.
    """
    norm = float(np.abs(gens).sum(axis=1).max())
    squarings = math.ceil(math.log2(norm)) if norm > 1.0 else 0
    x = norm / 2.0**squarings
    degree, bound = 1, 0.5 * x * x * math.exp(x)
    while bound > _UNIT_ROUNDOFF:
        degree += 1
        bound *= x / (degree + 1)
    p = min(range(1, degree + 1), key=lambda p: (p - 1 + (degree - 1) // p, p))
    top = (degree - 1) // p  # the highest block holds coefficients top*p .. q
    coef = np.zeros((top + 1) * p + 1)
    coef[:degree + 1] = [1.0 / math.factorial(k) for k in range(degree + 1)]
    # block weights of [R A^p, A, ..., A^(p-1)]; the constants go on the diagonal
    weights = np.hstack([np.ones((top + 1, 1)), coef[:-1].reshape(top + 1, p)[:, 1:]])
    out = np.empty(gens.shape, dtype=np.result_type(gens, float))
    size = max(1, _EXPM_PIECE // gens[0].size)
    work = np.empty((p + 1) * min(size, len(gens)) * gens[0].size, dtype=out.dtype)
    for start in range(0, len(gens), size):  # pieces bound the work arrays
        # slots[0] takes each product, slots[i] holds A^i: one (1, p) @ (p, .)
        # product forms a block's linear combination in the result
        res = out[start:start + size]
        slots = work[:(p + 1) * res.size].reshape(p + 1, *res.shape)
        np.multiply(gens[start:start + size], 2.0**-squarings, out=slots[1])
        for i in range(2, p + 1):
            np.matmul(slots[i - 1], slots[1], out=slots[i])
        flat, diag = res.reshape(1, -1), res.reshape(len(res), -1)[:, :: len(res[0]) + 1]
        np.matmul(coef[None, top * p + 1:], slots[1:].reshape(p, -1), out=flat)
        diag += coef[top * p]
        for j in range(top - 1, -1, -1):
            np.matmul(res, slots[p], out=slots[0])
            np.matmul(weights[j:j + 1], slots[:p].reshape(p, -1), out=flat)
            diag += coef[j * p]
        for _ in range(squarings):
            np.matmul(res, res, out=slots[0])
            res[...] = slots[0]
    return out


def _expm_orbit(gen, times, y0) -> np.ndarray:
    """Rows ``exp(t G) y0 = y0 + t phi_1(t G) G y0`` for each t of ``times``,
    from the last column of ``exp(t [[G, G y0], [0, 0]])``, ``PATH_CHUNK`` at a
    time: a fixed point (``G y0 = 0``) stays fixed exactly."""
    dim = len(y0)
    border = np.zeros((dim + 1, dim + 1), dtype=np.result_type(gen, y0))
    border[:dim, :dim], border[:dim, dim] = gen, gen @ y0
    times = np.asarray(times, dtype=float)
    rows = [np.empty((0, dim))]
    for start in range(0, len(times), PATH_CHUNK):
        exps = _expm_stack(times[start:start + PATH_CHUNK, None, None] * border)
        rows.append(y0 + exps[:, :dim, dim])
    return np.concatenate(rows)


def propagator(h, dt) -> np.ndarray:
    """``exp(-i H dt)`` by the stacked Taylor kernel; exceptional points need no special path."""
    return _expm_stack((-1j * dt) * as_operator(h)[None])[0]


def spectrum_reality_check(h) -> bool:
    """True when every eigenvalue has imaginary part below ``SPECTRUM_TOL``."""
    return _real_spectrum(np.linalg.eigvals(as_operator(h)))


def _real_spectrum(vals) -> bool:
    """Whether every eigenvalue of ``vals`` has imaginary part below ``SPECTRUM_TOL``."""
    return bool(np.max(np.abs(vals.imag)) < SPECTRUM_TOL)


def _require_real_spectrum(vals, message):
    """Raise :class:`ComplexSpectrum` with ``message`` unless :func:`_real_spectrum`."""
    if not _real_spectrum(vals):
        raise ComplexSpectrum(message)
