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
null space (the mixing subproblem) remove it before calling. An absent
A (``None``) stands for a zero left coefficient: the solve is W B = Z,
with one eigendecomposition and sigma_min(B) as the operator minimum.

Every failure of the solve is a :class:`NumericalError`. The solver
either returns a W with relative residual ||A W + W B - Z||_F / ||Z||_F
at most RESIDUAL_RTOL or raises one whose message begins "singular
problem" and reports the smallest gap |lambda_i + sigma_j| between the
spectra of A and -B. A non-finite input, a failed eigendecomposition and
a coefficient A or B that is not symmetric each raise one too, with a
message that names the cause. Only numpy is needed.
"""

import math

import numpy as np

__all__ = ["NumericalError"]

RESIDUAL_RTOL = 1e-8
# Largest |M - M'| accepted as symmetric, relative to max |M|.
_SYMMETRY_RTOL = 1e-10
_TINY = np.finfo(np.float64).tiny


class NumericalError(RuntimeError):
    """A numerical failure: a singular solve or non-finite training values."""


def _check_inputs(a, b, z):
    given = [("A", a)] if a is not None else []
    for name, m in given + [("B", b), ("Z", z)]:
        if not np.isfinite(m).all():
            raise NumericalError("non-finite entries in %s" % name)
    for name, m in given + [("B", b)]:
        if np.abs(m - m.T).max(initial=0.0) > _SYMMETRY_RTOL * np.abs(m).max(initial=0.0):
            raise NumericalError("%s must be symmetric" % name)


def _relative_norm(r, z) -> float:
    return math.sqrt(np.vdot(r, r)) / max(math.sqrt(np.vdot(z, z)), _TINY)


def _solve_sylvester(a, b, z):
    """Solve A W + W B = Z for symmetric A and B by diagonalization.

    Returns W and lambda_min(A) + sigma_min(B). That sum is the smallest
    eigenvalue of the operator W -> A W + W B (+inf when W has no
    entries); it is positive exactly when the operator is positive
    definite. ``a=None`` solves W B = Z and returns sigma_min(B) (+inf
    when B is empty).

    A, B and Z are float64 arrays of matching shapes, as training builds
    them; they are not coerced or shape-checked.

    Raises
    ------
    NumericalError
        If A or B is not symmetric, an input is not finite, the
        eigendecomposition fails, or the residual contract is not met,
        which happens exactly when the spectra of A and -B (nearly)
        overlap; that message begins "singular problem" and gives the
        smallest |lambda_i + sigma_j|.
    """
    _check_inputs(a, b, z)
    try:
        if a is not None:
            a_eigs, a_vecs = np.linalg.eigh(a)
        b_eigs, b_vecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed: %s" % exc) from exc
    gaps = b_eigs if a is None else a_eigs[:, None] + b_eigs[None, :]
    lowest = float(gaps.min(initial=math.inf))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a zero gap gives inf or nan here, which the exit check reports
        w = (z @ b_vecs) / gaps if a is None else a_vecs @ ((a_vecs.T @ z @ b_vecs) / gaps)
        w = w @ b_vecs.T
    finite = np.isfinite(w).all()
    if finite:
        relative = _relative_norm(w @ b - z if a is None else a @ w + w @ b - z, z)
    if not (finite and relative <= RESIDUAL_RTOL):
        cause = ("relative residual %.2e exceeds %.1e" % (relative, RESIDUAL_RTOL)
                 if finite else "non-finite solution")
        raise NumericalError("singular problem: %s; smallest |lambda_i + sigma_j| %.2e"
                             % (cause, np.min(np.abs(gaps))))
    return w, lowest
