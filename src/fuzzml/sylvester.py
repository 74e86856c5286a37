"""Solver for the Sylvester equation A W + W B = Z with symmetric A and B.

Both training subproblems have symmetric coefficients, so the equation
diagonalizes (Simoncini, "Computational methods for linear matrix
equations", SIAM Review 2016). The module's one solve, which training
runs for both subproblems, computes A = Ua diag(lambda) Ua' and
B = Ub diag(sigma) Ub' with two symmetric eigendecompositions and returns
W = Ua ((Ua' Z Ub) / (lambda_i + sigma_j)) Ub' together with
lambda_min(A) + sigma_min(B), the smallest eigenvalue of the operator
W -> A W + W B. The divide is strict: no gap is zeroed, so a singular
operator fails the residual check. Callers whose operator has a known
null space (the mixing subproblem) remove it before calling.

The solver either returns a W with relative residual
||A W + W B - Z||_F / ||Z||_F at most RESIDUAL_RTOL or raises
:class:`SingularProblemError`, whose message reports the smallest gap
|lambda_i + sigma_j| between the spectra of A and -B. When A has an
eigenvalue far larger in magnitude than the gaps (the mixing
subproblem's Laplacian can reach -3e7 next to gaps of 0.08), the
rounding of W alone, amplified by A, can exceed RESIDUAL_RTOL although W
is accurate to working precision. A W that misses the tolerance on the
first try therefore gets one refinement step with the same
eigenvectors, W <- W - Ua ((Ua' R Ub) / (lambda_i + sigma_j)) Ub' with
R = A W + W B - Z, before the unchanged check decides. Only numpy is
needed.
"""

import math

import numpy as np

__all__ = [
    "NumericalError",
    "SingularProblemError",
    "RESIDUAL_RTOL",
]

RESIDUAL_RTOL = 1e-8
# Largest |M - M'| accepted as symmetric, relative to max |M|.
_SYMMETRY_RTOL = 1e-10
_TINY = np.finfo(np.float64).tiny


class NumericalError(RuntimeError):
    """A numerical failure: a singular solve or non-finite training values."""


class SingularProblemError(NumericalError):
    """The Sylvester operator is singular (spectra of A and -B overlap)."""


def _check_inputs(a, b, z):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("B must be square")
    if z.shape != (a.shape[0], b.shape[0]):
        raise ValueError(
            "Z must be %d x %d, got %s" % (a.shape[0], b.shape[0], z.shape)
        )
    for name, m in (("A", a), ("B", b), ("Z", z)):
        if not np.isfinite(m).all():
            raise SingularProblemError("non-finite entries in %s" % name)
    return a, b, z


def _check_symmetric(m, name):
    scale = np.abs(m).max(initial=0.0)
    if np.abs(m - m.T).max(initial=0.0) > _SYMMETRY_RTOL * scale:
        raise ValueError("%s must be symmetric" % name)


def _relative_norm(r, z) -> float:
    return math.sqrt(np.vdot(r, r)) / max(math.sqrt(np.vdot(z, z)), _TINY)


def _solve_sylvester(a, b, z):
    """Solve A W + W B = Z for symmetric A and B by diagonalization.

    Returns W and lambda_min(A) + sigma_min(B). That sum is the smallest
    eigenvalue of the operator W -> A W + W B (+inf when W has no
    entries); it is positive exactly when the operator is positive
    definite.

    Raises
    ------
    ValueError
        If the shapes do not match or A or B is not symmetric.
    SingularProblemError
        If an input is not finite, or the residual contract is not met,
        which happens exactly when the spectra of A and -B (nearly)
        overlap. The message gives the smallest |lambda_i + sigma_j|.
    """
    a, b, z = _check_inputs(a, b, z)
    _check_symmetric(a, "A")
    _check_symmetric(b, "B")
    try:
        a_eigs, a_vecs = np.linalg.eigh(a)
        b_eigs, b_vecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise SingularProblemError("eigendecomposition failed: %s" % exc) from exc
    gaps = a_eigs[:, None] + b_eigs[None, :]
    lowest = float(gaps.min(initial=math.inf))

    def apply_inverse(rhs):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # a zero gap gives inf or nan here, which the exit check reports
            return a_vecs @ ((a_vecs.T @ rhs @ b_vecs) / gaps) @ b_vecs.T

    w = apply_inverse(z)
    finite = np.isfinite(w).all()
    if finite:
        residual = a @ w + w @ b - z
        relative = _relative_norm(residual, z)
        if not relative <= RESIDUAL_RTOL:  # a NaN residual gets the step too
            w = w - apply_inverse(residual)
            finite = np.isfinite(w).all()
            if finite:
                relative = _relative_norm(a @ w + w @ b - z, z)
    if not (finite and relative <= RESIDUAL_RTOL):
        cause = ("relative residual %.2e exceeds %.1e" % (relative, RESIDUAL_RTOL)
                 if finite else "non-finite solution")
        raise SingularProblemError("singular problem: %s; smallest |lambda_i + sigma_j| %.2e"
                                   % (cause, np.min(np.abs(gaps))))
    return w, lowest
