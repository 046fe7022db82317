import numpy as np
import pytest

from qmet.errors import SingularQfim
from qmet.linalg import (
    Qfim,
    _cholesky,
    cholesky,
    determinant,
    nuclear_norm,
    qfim,
    spd_inverse,
    symmetrize,
)
from qmet.stepwise import best_order_bruteforce, best_order_dp, csep_ordered, dp_tables

from helpers import det_cofactor, rand_spd


class TestCholesky:
    def test_worked_2x2(self):
        L = cholesky([[4.0, 2.0], [2.0, 5.0]])
        assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]])
        assert np.allclose(L @ L.T, [[4.0, 2.0], [2.0, 5.0]], rtol=1e-12)

    def test_identity(self):
        assert np.allclose(cholesky(np.eye(3)), np.eye(3))

    def test_indefinite_raises(self):
        with pytest.raises(SingularQfim):
            cholesky([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky([[1.0, 0.5], [0.0, 1.0]])

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(1, 9)
            m = rand_spd(rng, n)
            L = cholesky(m)
            err = np.linalg.norm(L @ L.T - m) / np.linalg.norm(m)
            assert err < 1e-10
            assert np.all(np.diag(L) > 0)
            assert np.allclose(np.triu(L, 1), 0.0)

    def test_near_singular_raises(self):
        # rank-1 plus a component below the pivot tolerance
        v = np.array([1.0, 2.0, 3.0])
        m = np.outer(v, v) + 1e-16 * np.eye(3)
        with pytest.raises(SingularQfim):
            cholesky(m)

    @staticmethod
    def _with_pivots(rng, pivots, tiny=None):
        """M D M^T with M unit lower triangular: its squared Cholesky pivots are D.

        When ``tiny`` names a pivot, row ``tiny`` of M is the unit vector, so
        LAPACK computes that squared pivot exactly, and the column below it
        is scaled so that the pivot's share of every later diagonal entry is
        between 2 and 4: the pivot tolerance stays at the scale of those.
        """
        n = len(pivots)
        m = np.tril(rng.uniform(-1.0, 1.0, (n, n)), -1) + np.eye(n)
        if tiny is not None:
            m[tiny, :tiny] = 0.0
            below = n - tiny - 1
            m[tiny + 1:, tiny] = rng.choice([-1.0, 1.0], below) * np.sqrt(
                rng.uniform(2.0, 4.0, below) / pivots[tiny]
            )
        return symmetrize(m @ np.diag(pivots) @ m.T)

    def test_error_names_first_bad_pivot(self):
        # a tiny positive pivot before the negative one at which LAPACK stops
        with pytest.raises(SingularQfim, match="index 1 "):
            cholesky(np.diag([1.0, 1e-20, -1.0]))
        # the unvalidated kernel reads a NaN pivot as singular
        with pytest.raises(SingularQfim, match="index 2 "):
            _cholesky(np.array([[1.0, 0.0, np.nan], [0.0, 1.0, 0.0], [np.nan, 0.0, 1.0]]))
        rng = np.random.default_rng(29)
        for n in range(2, 9):
            for k in range(n):
                # LAPACK stops at k, where the squared pivot is negative
                d = rng.uniform(0.5, 2.0, n)
                d[k] = -1.0
                with pytest.raises(SingularQfim, match=f"index {k} "):
                    cholesky(self._with_pivots(rng, d))
                # a tiny positive pivot at i < k fails the rule before LAPACK stops
                for i in range(k):
                    d_tiny = d.copy()
                    d_tiny[i] = 1e-20
                    with pytest.raises(SingularQfim, match=f"index {i} "):
                        cholesky(self._with_pivots(rng, d_tiny, tiny=i))


class TestDeterminant:
    def test_worked_2x2(self):
        assert determinant([[4.0, 2.0], [2.0, 5.0]]) == pytest.approx(16.0, rel=1e-12)

    def test_identity_and_diag(self):
        assert determinant(np.eye(4)) == pytest.approx(1.0)
        assert determinant(np.diag([1.0, 4.0])) == pytest.approx(4.0)

    def test_non_spd_fallback(self):
        # eigenvalues 3 and -1: singular under the pivot rule, like cholesky and spd_inverse
        with pytest.raises(SingularQfim):
            determinant([[1.0, 2.0], [2.0, 1.0]])

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(11)
        compared = raised = 0
        for _ in range(100):
            n = rng.integers(1, 5)
            m = symmetrize(rng.standard_normal((n, n)) * 2.0)
            eig = np.linalg.eigvalsh(m)
            margin = 1e-6 * np.abs(eig).max()
            if eig[0] > margin:  # clearly positive definite
                assert determinant(m) == pytest.approx(det_cofactor(m), rel=1e-9, abs=1e-12)
                compared += 1
            elif eig[0] < -margin:  # clearly indefinite or negative definite
                with pytest.raises(SingularQfim):
                    determinant(m)
                raised += 1
        assert compared > 0 and raised > 0

    def test_equals_squared_pivot_product(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = rand_spd(rng, rng.integers(1, 7))
            L = cholesky(m)
            ref = float(np.prod(np.diag(L)) ** 2)
            assert abs(determinant(m) - ref) <= 1e-10 * abs(ref)

    def test_trailing_ratio_positive(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = rand_spd(rng, n)
            for j in range(2, n + 1):
                ratio = determinant(m[j - 1:, j - 1:]) / determinant(m[j - 2:, j - 2:])
                assert ratio > 0


class TestNorms:
    def test_nuclear_examples(self):
        assert nuclear_norm(np.diag([2.0, -3.0])) == pytest.approx(5.0)
        assert nuclear_norm(np.zeros((3, 3))) == pytest.approx(0.0)

    def test_nuclear_antisymmetric_axial(self):
        # 3x3 antisymmetric with axial vector u has singular values (|u|, |u|, 0)
        rng = np.random.default_rng(19)
        for _ in range(30):
            u = rng.standard_normal(3)
            m = np.array(
                [[0.0, u[2], -u[1]], [-u[2], 0.0, u[0]], [u[1], -u[0], 0.0]]
            )
            assert nuclear_norm(m) == pytest.approx(2.0 * np.linalg.norm(u), rel=1e-10)

    def test_norm_sandwich(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n))
            if rng.uniform() < 0.5:
                m = m + 1j * rng.standard_normal((n, n))
                m = 0.5 * (m + m.conj().T)
            lo, hi = np.linalg.norm(m, 2), nuclear_norm(m)
            assert lo <= hi + 1e-12
            assert hi <= n * lo + 1e-12


class TestValidation:
    def test_empty_matrix_rejected(self):
        empty = np.zeros((0, 0))
        for call in (cholesky, determinant, csep_ordered, dp_tables, best_order_dp,
                     best_order_bruteforce):
            with pytest.raises(ValueError, match="empty"):
                call(empty)

    def test_non_finite_matrix_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            m = np.eye(3) + 0.1
            m[2, 0] = bad
            for call in (cholesky, determinant, csep_ordered, dp_tables, best_order_dp,
                         best_order_bruteforce):
                with pytest.raises(ValueError, match="non-finite"):
                    call(m)


class TestQfim:
    def test_fields_and_identity(self):
        m = np.array([[4.0, 2.0], [2.0, 5.0]])
        qf = qfim(m)
        assert isinstance(qf, Qfim) and qf.n == 2
        assert np.array_equal(qf.q, m)
        assert np.array_equal(qf.L, cholesky(m))
        assert np.array_equal(qf.linv, np.linalg.inv(qf.L))
        assert qfim(qf) is qf

    def test_inverse_is_spd_inverse(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            m = rand_spd(rng, int(rng.integers(1, 8)))
            assert np.array_equal(qfim(m).inverse, spd_inverse(m))

    def test_arrays_read_only(self):
        m = np.array([[4.0, 2.0], [2.0, 5.0]])
        qf = qfim(m)
        for a in (qf.q, qf.L, qf.linv, qf.inverse):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        m[0, 0] = 9.0  # the caller's array stays its own
        assert qf.q[0, 0] == 4.0

    def test_errors(self):
        with pytest.raises(SingularQfim, match="index 1 "):
            qfim([[1.0, 2.0], [2.0, 1.0]])
        for bad, match in ((np.zeros((0, 0)), "empty"), ([[1.0, np.nan], [np.nan, 1.0]], "non-finite"),
                           ([[1.0, 0.5], [0.0, 1.0]], "not symmetric"), (np.ones((2, 3)), "square")):
            with pytest.raises(ValueError, match=match):
                qfim(bad)


class TestSolvers:
    def test_spd_inverse(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            m = rand_spd(rng, int(rng.integers(1, 8)))
            inv = spd_inverse(m)
            assert np.allclose(m @ inv, np.eye(m.shape[0]), atol=1e-9)
            assert np.allclose(inv, inv.T)
