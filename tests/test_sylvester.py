import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from reference_sylvester import (
    KRON_GUARD,
    kron_oracle,
    least_norm_solve,
    relative_residual,
    schur_solve,
)

from fuzzml.sylvester import NumericalError, _solve_sylvester

SRC = Path(__file__).resolve().parent.parent / "src"


def _solution(a, b, z):
    """The W of :func:`_solve_sylvester`, to loop over with the reference solvers."""
    return _solve_sylvester(a, b, z)[0]


def _assert_close_rel(got, want, tol):
    got = np.asarray(got)
    want = np.asarray(want)
    assert np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want)))


def _symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return 0.5 * (m + m.T)


def _random_separated_problem(rng, max_dim=8):
    """Random symmetric problem with spectra pushed apart by shifting A."""
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    b = _symmetric(rng, n)
    a = _symmetric(rng, m) + 2.0 * np.linalg.norm(b) * np.eye(m)
    z = rng.normal(size=(m, n))
    return a, b, z


def _general_separated_problem(rng, max_dim=6):
    """Random non-symmetric problem, for the dense route that accepts it."""
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    b = rng.normal(size=(n, n))
    a = rng.normal(size=(m, m)) + 2.0 * np.linalg.norm(b) * np.eye(m)
    return a, b, rng.normal(size=(m, n))


def _with_spectrum(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    m = (q * eigenvalues) @ q.T
    return 0.5 * (m + m.T)


class TestExamples:
    def test_identity_a_zero_b(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(2, 3))
        for solver in (_solution, kron_oracle, least_norm_solve):
            np.testing.assert_allclose(solver(np.eye(2), np.zeros((3, 3)), z), z,
                                       atol=1e-12)

    def test_scalar_shift(self):
        z = 10.0 * np.ones((2, 3))
        for solver in (_solution, kron_oracle, least_norm_solve):
            got = solver(2.0 * np.eye(2), 3.0 * np.eye(3), z)
            np.testing.assert_allclose(got, 2.0 * np.ones((2, 3)), atol=1e-12)

    def test_random_solve_matches_oracle(self):
        rng = np.random.default_rng(1)
        b = _symmetric(rng, 3)
        a = _symmetric(rng, 4) + 2.0 * np.linalg.norm(b) * np.eye(4)
        z = rng.normal(size=(4, 3))
        w = _solve_sylvester(a, b, z)[0]
        w_ref = kron_oracle(a, b, z)
        _assert_close_rel(w, w_ref, 1e-10)

    def test_one_by_one(self):
        got = kron_oracle([[3.0]], [[4.0]], [[14.0]])
        np.testing.assert_allclose(got, [[2.0]], atol=1e-14)
        one = np.array([[3.0]]), np.array([[4.0]]), np.array([[14.0]])
        np.testing.assert_allclose(_solve_sylvester(*one)[0], [[2.0]], atol=1e-14)

    def test_overlapping_spectra_raise(self):
        overlapping = np.array([[1.0]]), np.array([[-1.0]]), np.array([[1.0]])
        for solver in (_solution, kron_oracle):
            with pytest.raises(NumericalError, match="singular problem"):
                solver(*overlapping)
        with pytest.raises(NumericalError, match="non-finite solution; smallest"):
            _solve_sylvester(*overlapping)


class TestSweep:
    def test_200_seeded_problems_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b, z = _random_separated_problem(rng)
            w = _solve_sylvester(a, b, z)[0]
            w_ref = kron_oracle(a, b, z)
            _assert_close_rel(w, w_ref, 1e-10)
            assert relative_residual(a, b, z, w) <= 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            a, b, z1 = _random_separated_problem(rng, max_dim=5)
            z2 = rng.normal(size=z1.shape)
            w12 = _solve_sylvester(a, b, z1 + z2)[0]
            w1 = _solve_sylvester(a, b, z1)[0]
            w2 = _solve_sylvester(a, b, z2)[0]
            _assert_close_rel(w12, w1 + w2, 1e-10)

    def test_second_output_is_the_operator_minimum(self):
        # the instances of acceptance criterion 2: same seed, same draws
        rng = np.random.default_rng(20240202)
        for _ in range(200):
            a, b, z = _random_separated_problem(rng)
            lowest = _solve_sylvester(a, b, z)[1]
            want = np.linalg.eigvalsh(a)[0] + np.linalg.eigvalsh(b)[0]
            assert abs(lowest - want) <= 1e-12 * (np.linalg.norm(a) + np.linalg.norm(b))
        for m, n in ((0, 0), (0, 3), (2, 0)):
            w, lowest = _solve_sylvester(np.eye(m), np.eye(n), np.zeros((m, n)))
            assert w.shape == (m, n)
            assert lowest == math.inf


class TestConsequentLikeProblems:
    """Shapes of the consequent subproblem: small indefinite A, large stiff B."""

    @pytest.mark.parametrize("n_labels", [2, 5, 24])
    def test_indefinite_a_and_widely_spread_b(self, n_labels):
        rng = np.random.default_rng(50 + n_labels)
        a = _with_spectrum(rng, np.linspace(-0.05, 2.0, n_labels))
        b = _with_spectrum(rng, np.logspace(-1, 7, 63))
        z = rng.normal(size=(n_labels, 63))
        w = _solve_sylvester(a, b, z)[0]
        assert relative_residual(a, b, z, w) <= 1e-8
        w_ref = schur_solve(a, b, z)
        assert np.linalg.norm(w - w_ref) <= 1e-8 * np.linalg.norm(w_ref)

    def test_matches_schur_route_at_training_sizes(self):
        rng = np.random.default_rng(51)
        for n_labels in (8, 64, 65, 200):
            a = _symmetric(rng, n_labels)
            b = _with_spectrum(rng, rng.uniform(1.0, 1e3, size=30))
            a += (abs(np.linalg.eigvalsh(a)[0]) + 1.0) * np.eye(n_labels)
            z = rng.normal(size=(n_labels, 30))
            w = _solve_sylvester(a, b, z)[0]
            assert relative_residual(a, b, z, w) <= 1e-8
            w_ref = schur_solve(a, b, z)
            assert np.linalg.norm(w - w_ref) <= 1e-10 * np.linalg.norm(w_ref)

    def test_singular_problem_reports_the_gap(self):
        rng = np.random.default_rng(52)
        a = _with_spectrum(rng, np.array([-3.0, 1.0, 2.0]))
        b = _with_spectrum(rng, np.array([3.0, 10.0, 100.0, 1e4]))
        z = rng.normal(size=(3, 4))
        with pytest.raises(NumericalError) as info:
            _solve_sylvester(a, b, z)
        message = str(info.value)
        assert message.startswith("singular problem: relative residual ")
        assert "smallest |lambda_i + sigma_j|" in message
        assert float(message.rsplit(" ", 1)[1]) <= 1e-12

    def test_near_zero_gap_is_not_dropped(self):
        # a real gap of 1e-2 next to eigenvalues of 1e6 must be divided by,
        # not zeroed by a scale-relative cutoff
        a = np.diag([-1e6 + 1e-2, 5.0])
        b = np.diag([1e6, 3.0])
        z = np.ones((2, 2))
        w = _solve_sylvester(a, b, z)[0]
        assert w[0, 0] == pytest.approx(1.0 / 1e-2, rel=1e-6)
        assert relative_residual(a, b, z, w) <= 1e-8

    @pytest.mark.parametrize("n, m, seed", [(4, 3, 23), (4, 3, 32), (6, 4, 22), (8, 6, 9)])
    def test_rounding_amplified_by_a_large_eigenvalue_is_refined(self, n, m, seed):
        # the mixing solve's spectra on wide labels: 2 gamma Lap reaches
        # -3e7 next to a zero eigenvalue, B lies in 0.08-0.5; every gap is
        # at least 0.08, but the first W misses RESIDUAL_RTOL by rounding
        rng = np.random.default_rng(seed)
        a = _with_spectrum(rng, np.concatenate(([-3e7, 0.0], rng.uniform(-2e4, 2e4, n - 2))))
        b = _with_spectrum(rng, rng.uniform(0.08, 0.5, m))
        z = rng.normal(size=(n, m))
        w = _solve_sylvester(a, b, z)[0]
        assert relative_residual(a, b, z, w) <= 1e-8
        w_ref = scipy.linalg.solve_sylvester(a, b, z)
        assert np.linalg.norm(w - w_ref) <= 1e-7 * np.linalg.norm(w_ref)


class TestLeastNormSolve:
    def test_matches_exact_solution_when_nonsingular(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            a, b, z = _random_separated_problem(rng, max_dim=6)
            np.testing.assert_allclose(least_norm_solve(a, b, z),
                                       _solve_sylvester(a, b, z)[0], atol=1e-9)
            a, b, z = _general_separated_problem(rng)
            np.testing.assert_allclose(least_norm_solve(a, b, z),
                                       kron_oracle(a, b, z), atol=1e-9)

    def test_consistent_singular_system(self):
        # A and -B share the eigenvalue 0, but Z lies in the operator range.
        a = np.diag([0.0, 1.0])
        b = np.diag([0.0, 2.0])
        w_true = np.array([[0.0, 1.0], [2.0, 3.0]])
        z = a @ w_true + w_true @ b
        w = least_norm_solve(a, b, z)
        assert relative_residual(a, b, z, w) <= 1e-8
        # the (0,0) direction is undetermined; minimum norm leaves it at zero
        assert abs(w[0, 0]) <= 1e-12
        # the determined entries match the construction
        np.testing.assert_allclose(w[0, 1], w_true[0, 1], atol=1e-10)
        np.testing.assert_allclose(w[1, :], w_true[1, :], atol=1e-10)
        # the strict solves reject the rank-deficient system
        with pytest.raises(NumericalError):
            kron_oracle(a, b, z)

    def test_inconsistent_singular_system_raises(self):
        a = np.zeros((1, 1))
        b = np.zeros((1, 1))
        with pytest.raises(NumericalError, match="smallest"):
            least_norm_solve(a, b, [[1.0]])

    def test_zero_rhs_gives_zero(self):
        np.testing.assert_array_equal(
            least_norm_solve(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))),
            np.zeros((2, 2)),
        )


class TestGuards:
    def test_kron_oracle_size_guard(self):
        n = int(np.sqrt(KRON_GUARD)) + 1
        with pytest.raises(ValueError, match="too large"):
            kron_oracle(np.eye(n), np.eye(n), np.zeros((n, n)))

    def test_least_norm_size_guard(self):
        n = int(np.sqrt(KRON_GUARD)) + 1
        with pytest.raises(ValueError, match="too large"):
            least_norm_solve(np.eye(n), np.eye(n), np.zeros((n, n)))

    def test_failed_eigendecomposition_is_a_numerical_failure(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError,
                           match="eigendecomposition failed: Eigenvalues did not converge"):
            _solve_sylvester(np.eye(2), np.eye(2), np.ones((2, 2)))

    def test_rejects_non_symmetric_coefficients(self):
        skew = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NumericalError, match="^A must be symmetric$"):
            _solve_sylvester(skew, np.eye(2), np.ones((2, 2)))
        with pytest.raises(NumericalError, match="^B must be symmetric$"):
            _solve_sylvester(np.eye(2), skew, np.ones((2, 2)))

    @pytest.mark.parametrize("solver", [_solve_sylvester], ids=["solve_sylvester"])
    def test_non_finite_input_is_a_numerical_failure(self, solver):
        # not a LinAlgError, which is a ValueError and would read as bad input
        for position in range(3):
            args = [np.eye(2), np.eye(2), np.ones((2, 2))]
            args[position] = args[position].copy()
            args[position][0, 0] = np.inf
            with pytest.raises(NumericalError, match="non-finite"):
                solver(*args)


def test_import_loads_no_scipy():
    code = ("import sys, fuzzml; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_import_defers_thread_pool_and_hashlib():
    # the package imports them where a thread pool or a digest is first needed
    code = ("import sys, numpy; before = set(sys.modules); import fuzzml; "
            "print(sorted({'concurrent.futures', 'hashlib'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
