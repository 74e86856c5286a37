"""Reference Sylvester solvers for the tests, built on scipy.

The package solves A W + W B = Z by diagonalizing symmetric A and B with
numpy alone. The references here take general A and B and share no code
with it:

* :func:`schur_solve` is the Bartels-Stewart route,
  ``scipy.linalg.solve_sylvester``.
* :func:`kron_oracle` vectorizes the equation into the dense mn x mn
  system and solves it by LU, rejecting it when the reciprocal condition
  estimate is below 1e-12.
* :func:`least_norm_solve` solves the same dense system by least
  squares, so a singular but consistent problem gets its minimum-norm
  solution; it is the reference for the mixing solve.

Both dense references are limited to mn <= KRON_GUARD unknowns.

:func:`relative_residual` is the tests' own measure of a candidate W,
computed with ``np.linalg.norm`` rather than the package's check.

``tests/oracles.py`` must not import this module: the benchmark imports
``oracles`` and should not pay for scipy.
"""

import warnings

import numpy as np
import scipy.linalg

from fuzzml.sylvester import RESIDUAL_RTOL, NumericalError

# Largest mn for which the dense mn x mn system is built.
KRON_GUARD = 4096
_RCOND_MIN = 1e-12


def relative_residual(a, b, z, w) -> float:
    """||A W + W B - Z||_F / ||Z||_F; a zero Z divides by the smallest float instead."""
    num = np.linalg.norm(a @ w + w @ b - z)
    return float(num / max(np.linalg.norm(z), np.finfo(np.float64).tiny))


def schur_solve(a, b, z) -> np.ndarray:
    """Solve A W + W B = Z via Schur decompositions of A and B."""
    a, b, z = (np.asarray(m, dtype=np.float64) for m in (a, b, z))
    try:
        w = scipy.linalg.solve_sylvester(a, b, z)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError("singular problem: %s" % exc) from exc
    if not np.all(np.isfinite(w)) or relative_residual(a, b, z, w) > RESIDUAL_RTOL:
        raise NumericalError(
            "singular problem: residual exceeds %.1e" % RESIDUAL_RTOL
        )
    return w


def _kron_system(a, b):
    return np.kron(np.eye(b.shape[0]), a) + np.kron(b.T, np.eye(a.shape[0]))


def kron_oracle(a, b, z) -> np.ndarray:
    """Solve the vectorized system (I (x) A + B^T (x) I) w = vec(Z) directly.

    Vectorization is column-major. Guarded to mn <= KRON_GUARD unknowns;
    a reciprocal condition estimate below 1e-12 raises
    :class:`NumericalError`.
    """
    a, b, z = (np.asarray(m, dtype=np.float64) for m in (a, b, z))
    m, n = z.shape
    if m * n > KRON_GUARD:
        raise ValueError("problem too large for the dense oracle (mn > %d)" % KRON_GUARD)
    big = _kron_system(a, b)
    try:
        with warnings.catch_warnings():
            # exact singularity surfaces as a warning here; the rcond check
            # below turns it into the contractual error
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(big)
        rcond, info = scipy.linalg.lapack.dgecon(lu, np.linalg.norm(big, 1), norm="1")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError("singular problem: %s" % exc) from exc
    if info != 0 or not np.isfinite(rcond) or rcond < _RCOND_MIN:
        raise NumericalError(
            "singular problem: reciprocal condition estimate %.2e" % rcond
        )
    w = scipy.linalg.lu_solve((lu, piv), z.flatten(order="F"))
    return w.reshape((m, n), order="F")


def least_norm_solve(a, b, z) -> np.ndarray:
    """Minimum-norm least-squares solution of the vectorized system.

    Solves (I (x) A + B' (x) I) vec(W) = vec(Z) with column-major
    vectorization; A and B need not be symmetric. For a singular but
    consistent problem the undetermined directions receive no component.
    An inconsistent system raises :class:`NumericalError` with the
    smallest |lambda_i + sigma_j|.
    """
    a, b, z = (np.asarray(m, dtype=np.float64) for m in (a, b, z))
    m, n = z.shape
    if m * n > KRON_GUARD:
        raise ValueError("problem too large for the dense solver (mn > %d)" % KRON_GUARD)
    w, _, _, _ = np.linalg.lstsq(_kron_system(a, b), z.flatten(order="F"), rcond=None)
    w = w.reshape((m, n), order="F")
    residual = relative_residual(a, b, z, w)
    if not residual <= RESIDUAL_RTOL:
        gap = np.min(np.abs(np.linalg.eigvals(a)[:, None] + np.linalg.eigvals(b)[None, :]))
        raise NumericalError(
            "singular problem: relative residual %.2e exceeds %.1e; "
            "smallest |lambda_i + sigma_j| %.2e" % (residual, RESIDUAL_RTOL, gap))
    return w
