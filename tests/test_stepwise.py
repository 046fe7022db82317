import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from qmet.errors import SingularQfim, TooManyParameters
from qmet.linalg import pivot_tol
from qmet.stepwise import (
    DP_MAX,
    _subset_logdets,
    best_order_bruteforce,
    best_order_dp,
    brackets,
    csep_cholesky,
    csep_ordered,
    dp_tables,
)

from helpers import (
    dp_costs_by_loop,
    dp_tables_by_layers,
    rand_spd,
    simplex_min_csep,
    step_terms_by_inversion,
)

Q_WORKED = np.array([[4.0, 2.0], [2.0, 5.0]])


class TestCsepOrdered:
    def test_identity_matrix(self):
        res = csep_ordered(np.eye(2), (1, 2))
        assert res.value == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(res.gammas, [0.5, 0.5])

    def test_worked_reverse_order(self):
        res = csep_ordered(Q_WORKED, (2, 1))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(res.gammas, [0.5, 0.5], atol=1e-12)

    def test_worked_natural_order(self):
        res = csep_ordered(Q_WORKED, (1, 2))
        assert res.value == pytest.approx(1.0125, abs=1e-12)
        assert np.allclose(res.gammas, [5.0 / 9.0, 4.0 / 9.0], atol=1e-12)
        oracle = simplex_min_csep(step_terms_by_inversion(Q_WORKED, (1, 2)))
        assert res.value == pytest.approx(oracle, rel=1e-6)

    def test_default_order_is_natural(self):
        assert csep_ordered(Q_WORKED).value == pytest.approx(1.0125, abs=1e-12)

    def test_gammas_normalized_and_proportional(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            q = rand_spd(rng, n)
            order = tuple(rng.permutation(n) + 1)
            res = csep_ordered(q, order)
            assert np.sum(res.gammas) == pytest.approx(1.0, abs=1e-12)
            assert np.all(res.gammas > 0)
            ref = np.sqrt(res.step_terms)
            assert np.allclose(res.gammas, ref / ref.sum(), atol=1e-12)
            assert res.value == pytest.approx(
                float(np.sum(np.sqrt(res.step_terms)) ** 2), rel=1e-10
            )

    def test_step_terms_match_direct_inversion(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            q = rand_spd(rng, n)
            order = tuple(rng.permutation(n) + 1)
            res = csep_ordered(q, order)
            direct = step_terms_by_inversion(q, order)
            assert np.allclose(res.step_terms, direct, rtol=1e-10)

    def test_optimality_of_gammas(self):
        # any feasible split is no better; equality only at the optimum
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            q = rand_spd(rng, n)
            order = tuple(rng.permutation(n) + 1)
            res = csep_ordered(q, order)
            a = res.step_terms
            for _ in range(100):
                g = rng.dirichlet(np.ones(n))
                assert res.value <= np.sum(a / g) + 1e-8
            assert res.value == pytest.approx(float(np.sum(a / res.gammas)), rel=1e-10)

    def test_matches_simplex_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            q = rand_spd(rng, n)
            order = tuple(rng.permutation(n) + 1)
            res = csep_ordered(q, order)
            oracle = simplex_min_csep(step_terms_by_inversion(q, order))
            assert abs(res.value - oracle) / res.value < 1e-6

    def test_weighted_matches_weighted_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            q = rand_spd(rng, n)
            w = rng.uniform(0.2, 3.0, size=n)
            order = tuple(rng.permutation(n) + 1)
            res = csep_ordered(q, order, w)
            a = step_terms_by_inversion(q, order) * w[[o - 1 for o in order]]
            assert abs(res.value - simplex_min_csep(a)) / res.value < 1e-6

    def test_singular_raises(self):
        with pytest.raises(SingularQfim):
            csep_ordered([[1.0, 2.0], [2.0, 1.0]], (1, 2))

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValueError):
            csep_ordered(np.eye(3), (1, 2))
        with pytest.raises(ValueError):
            csep_ordered(np.eye(2), (1, 1))

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            csep_ordered([[1.0, 2.0], [0.0, 4.0]])
        with pytest.raises(ValueError):
            best_order_dp(np.array([[1.0, 2.0], [0.0, 4.0]]))


class TestCsepCholesky:
    def test_worked_example(self):
        assert csep_cholesky(Q_WORKED) == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        for n in (1, 2, 5):
            assert csep_cholesky(np.eye(n)) == pytest.approx(float(n**2))

    def test_equals_reversed_ordering(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            q = rand_spd(rng, n)
            via_chol = csep_cholesky(q)
            via_order = csep_ordered(q, tuple(range(n, 0, -1))).value
            assert abs(via_chol - via_order) <= 1e-10 * max(1.0, via_chol)

    def test_singular_raises(self):
        with pytest.raises(SingularQfim):
            csep_cholesky([[1.0, 2.0], [2.0, 1.0]])


class TestBrackets:
    def test_identity_saturates(self):
        br = brackets(np.eye(2))
        assert (br.harmonic_lower, br.geometric_lower, br.upper) == (4.0, 4.0, 4.0)
        assert csep_ordered(np.eye(2)).value == pytest.approx(4.0)

    def test_scaled_identity_saturates(self):
        br = brackets(3.0 * np.eye(3))
        assert br.harmonic_lower == pytest.approx(3.0)
        assert br.geometric_lower == pytest.approx(3.0)
        assert br.upper == pytest.approx(3.0)

    def test_diag_example(self):
        br = brackets(np.diag([1.0, 4.0]))
        assert br.harmonic_lower == pytest.approx(1.6)
        assert br.geometric_lower == pytest.approx(2.0)
        assert br.upper == pytest.approx(2.5)
        value = csep_ordered(np.diag([1.0, 4.0])).value
        assert br.geometric_lower < value < br.upper
        assert value == pytest.approx(2.25)

    def test_sandwich_all_orderings(self):
        rng = np.random.default_rng(6)
        from itertools import permutations

        for _ in range(100):
            n = int(rng.integers(2, 5))
            q = rand_spd(rng, n)
            br = brackets(q)
            assert br.harmonic_lower <= br.geometric_lower + 1e-12
            for perm in permutations(range(1, n + 1)):
                v = csep_ordered(q, perm).value
                assert br.geometric_lower <= v * (1 + 1e-12) + 1e-9
                assert v <= br.upper * (1 + 1e-12) + 1e-9

    def test_singular_raises(self):
        with pytest.raises(SingularQfim):
            brackets(np.zeros((2, 2)))


class TestBruteForce:
    def test_worked_example(self):
        res = best_order_bruteforce(Q_WORKED)
        assert res.ordering == (2, 1)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_ties_pick_natural_order(self):
        # dyadic entries make all orderings tie exactly in floating point
        res = best_order_bruteforce(np.diag([1.0, 4.0, 0.25]))
        assert res.ordering == (1, 2, 3)

    def test_identity(self):
        res = best_order_bruteforce(np.eye(3))
        assert res.value == pytest.approx(9.0)
        assert res.ordering == (1, 2, 3)

    def test_guard(self):
        with pytest.raises(TooManyParameters):
            best_order_bruteforce(np.eye(9))

    def test_singular_raises(self):
        with pytest.raises(SingularQfim):
            best_order_bruteforce([[1.0, 2.0], [2.0, 1.0]])


def _q_eps(eps, perm):
    q = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + eps, 0.0], [0.0, 0.0, 2.0]])
    return q[np.ix_(perm, perm)]


def _sloppy(seed, n, decades):
    rng = np.random.default_rng(seed)
    basis, r = np.linalg.qr(rng.standard_normal((n, n)))
    basis = basis * np.sign(np.diag(r))
    q = basis @ np.diag(np.logspace(0.0, -decades, n)) @ basis.T
    return 0.5 * (q + q.T)


def _submatrix(q, mask):
    idx = [k for k in range(q.shape[0]) if mask >> k & 1]
    return q[np.ix_(idx, idx)]


class TestSubsetLogdets:
    def test_matches_slogdet_of_every_submatrix(self):
        rng = np.random.default_rng(14)
        for n in range(1, 9):
            for _ in range(5):
                q = rand_spd(rng, n)
                ld = _subset_logdets(q)
                assert ld.shape == (1 << n,) and ld[0] == 0.0
                atol = 1e-12 + 1e3 * np.finfo(float).eps * float(np.linalg.cond(q))
                for mask in range(1, 1 << n):
                    sign, ref = np.linalg.slogdet(_submatrix(q, mask))
                    assert sign == 1.0
                    assert abs(ld[mask] - ref) <= atol * mask.bit_count()

    @pytest.mark.parametrize("eps", [0.0, 1e-14])
    @pytest.mark.parametrize("perm", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_singular_block_fails_the_rule(self, eps, perm):
        # wherever the permutation puts the singular pair of Q_eps, no mask
        # holding the pair may be completed by appending either member last
        q = _q_eps(eps, list(perm))
        ld = _subset_logdets(q)
        log_tol = np.log(pivot_tol(q))
        pair = [perm.index(0), perm.index(1)]
        block = (1 << pair[0]) | (1 << pair[1])
        for mask in range(1 << 3):
            if mask & block != block:
                assert np.isfinite(ld[mask])
                continue
            for j in pair:
                assert not ld[mask] - ld[mask ^ (1 << j)] > log_tol

    def test_rank_one_fails_the_rule_beyond_singletons(self):
        # every pair of parameters spans the same single direction
        q = np.outer([1.0, 2.0, 4.0, 0.5], [1.0, 2.0, 4.0, 0.5])
        ld = _subset_logdets(q)
        log_tol = np.log(pivot_tol(q))
        for mask in range(1, 1 << 4):
            members = [j for j in range(4) if mask >> j & 1]
            if len(members) == 1:
                assert ld[mask] == pytest.approx(np.log(q[members[0], members[0]]))
                continue
            for j in members:
                assert not ld[mask] - ld[mask ^ (1 << j)] > log_tol


class TestDynamicProgramming:
    def test_worked_example(self):
        res = best_order_dp(Q_WORKED)
        assert res.ordering == (2, 1)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_single_parameter(self):
        q = np.array([[2.5]])
        res = best_order_dp(q)
        assert res.value == pytest.approx(1.0 / 2.5)
        tables = dp_tables(q)
        assert tables.cost[0] == 0.0
        assert tables.cost[1] == pytest.approx(1.0 / np.sqrt(2.5))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for n in range(2, 7):
            for _ in range(40):
                q = rand_spd(rng, n)
                dp = best_order_dp(q)
                bf = best_order_bruteforce(q)
                assert abs(dp.value - bf.value) <= 1e-9 * max(1.0, bf.value)

    def test_weighted_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            q = rand_spd(rng, n)
            w = rng.uniform(0.2, 3.0, size=n)
            dp = best_order_dp(q, w)
            bf = best_order_bruteforce(q, w)
            assert abs(dp.value - bf.value) <= 1e-9 * max(1.0, bf.value)

    def test_diagonal_order_invariance(self):
        rng = np.random.default_rng(9)
        from itertools import permutations

        for _ in range(20):
            n = int(rng.integers(2, 5))
            q = np.diag(rng.uniform(0.5, 4.0, size=n))
            values = [csep_ordered(q, p).value for p in permutations(range(1, n + 1))]
            assert max(values) - min(values) <= 1e-12 * max(values)

    def test_table_structure(self):
        rng = np.random.default_rng(10)
        n = 5
        q = rand_spd(rng, n)
        tables = dp_tables(q)
        assert tables.cost[0] == 0.0
        # expansions count k * C(n, k) over subset sizes
        from math import comb

        assert tables.expansions == sum(k * comb(n, k) for k in range(1, n + 1))
        # minimum cost per population count never decreases
        by_size = {}
        for mask, c in enumerate(tables.cost):
            by_size.setdefault(mask.bit_count(), []).append(c)
        mins = [min(by_size[k]) for k in sorted(by_size)]
        assert all(a <= b + 1e-12 for a, b in zip(mins, mins[1:]))

    def test_costs_match_loop_reference(self):
        # determinant ratios of two Cholesky chains round differently from
        # the loop's solves, hence a tolerance
        rng = np.random.default_rng(13)
        for n in range(1, 8):
            for _ in range(10):
                q = rand_spd(rng, n)
                tables = dp_tables(q)
                ref = dp_costs_by_loop(q, pivot_tol(q))
                assert np.allclose(tables.cost, ref, rtol=1e-12, atol=0.0)
        # a singular direction leaves the same subsets infeasible
        q = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        tables = dp_tables(q)
        assert np.array_equal(np.isinf(tables.cost), np.isinf(dp_costs_by_loop(q, pivot_tol(q))))
        assert np.all(tables.choice[np.isinf(tables.cost)] == -1)

    def test_guard(self):
        with pytest.raises(TooManyParameters):
            best_order_dp(np.eye(21))

    # n <= 12 is one block of the lattice; n = 13 is several, and n = 15
    # splits its largest layers into runs of rows
    @pytest.mark.parametrize("n", [*range(1, 14), 15])
    @pytest.mark.parametrize("family", ["well", "sloppy", "weighted"])
    def test_tables_equal_layer_referee(self, n, family):
        # the same step costs, pivot rule and tie-break as the layer loop, so
        # the same bits
        rng = np.random.default_rng([n, 15])
        q = _sloppy(int(rng.integers(2**32)), n, 8.0) if family == "sloppy" else rand_spd(rng, n)
        w = rng.uniform(0.2, 3.0, size=n) if family == "weighted" else None
        tables = dp_tables(q, w)
        cost, choice = dp_tables_by_layers(q, w)
        assert np.array_equal(tables.cost, cost)
        assert np.array_equal(tables.choice, choice)

    @pytest.mark.parametrize("q", [
        _q_eps(1e-13, [0, 1, 2]),
        _q_eps(1e-13, [2, 0, 1]),
        np.outer([1.0, 2.0, 4.0, 0.5], [1.0, 2.0, 4.0, 0.5]),
        np.diag([2.0, 0.0, 1.0, 3.0]),
    ], ids=["q_eps", "q_eps_permuted", "rank_one", "zero_pivot"])
    def test_singular_tables_equal_layer_referee(self, q):
        tables = dp_tables(q)
        cost, choice = dp_tables_by_layers(q)
        assert np.array_equal(tables.cost, cost)
        assert np.array_equal(tables.choice, choice)
        assert not np.isfinite(tables.cost[-1])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_scaled_identity_ties_pick_lowest_member(self, n):
        # every subset of c I_n has the same log-determinant per size, so all
        # candidates tie exactly and each choice is the lowest member
        masks = np.arange(1, 1 << n)
        lowest = np.log2(masks & -masks).astype(np.intp)
        for c in (1.0, 0.25, 3.7):
            tables = dp_tables(c * np.eye(n))
            assert np.array_equal(tables.choice[1:], lowest)
            assert best_order_dp(c * np.eye(n)).ordering == tuple(range(1, n + 1))

    def test_diagonal_ties_pick_natural_order(self):
        # the twin of the brute-force test: dyadic entries tie exactly here too
        assert best_order_dp(np.diag([1.0, 4.0, 0.25])).ordering == (1, 2, 3)

    def test_dp_value_consistent_with_cost_square(self):
        rng = np.random.default_rng(11)
        q = rand_spd(rng, 4)
        tables = dp_tables(q)
        res = best_order_dp(q)
        assert res.value == pytest.approx(tables.cost[(1 << 4) - 1] ** 2, rel=1e-10)

    def test_serialization(self):
        res = best_order_dp(Q_WORKED)
        doc = res.to_json()
        assert set(doc) == {"value", "ordering", "gammas", "step_terms"}
        assert doc["ordering"] == [2, 1]


def _cond_rtol(q):
    """Relative tolerance for stepwise values of q: rounding grows with cond(Q)."""
    return 1e-12 + 1e3 * np.finfo(float).eps * float(np.linalg.cond(q))


def _search_or_none(search, q):
    try:
        return search(q)
    except SingularQfim:
        return None


# Q_eps has a Schur pivot of eps against the pivot tolerance 2e-12.  Within a
# factor of 2 of that tolerance, rounding of the pivot decides whether the
# bound exists, so that band is left out.
_EPS = st.floats(-15.0, -6.0).map(lambda e: 10.0**e).filter(
    lambda eps: not 1e-12 <= eps <= 4e-12
)
_Q_EPS = st.builds(_q_eps, _EPS, st.permutations(range(3)))
_SLOPPY = st.builds(
    _sloppy, st.integers(0, 2**32 - 1), st.integers(2, 6), st.floats(0.0, 10.0)
)


@st.composite
def _scaled_sloppy(draw):
    # D Q D with a sloppy Q: the natural Cholesky order can meet a tiny pivot
    # where another order is feasible, which a determinant-ratio search must
    # not mistake for a singular subset
    n = draw(st.integers(2, 6))
    q = _sloppy(draw(st.integers(0, 2**32 - 1)), n, draw(st.floats(4.0, 14.0)))
    d = 10.0 ** np.array(draw(st.lists(st.floats(0.0, 8.0), min_size=n, max_size=n)))
    return d[:, None] * q * d


_SCALED_SLOPPY = _scaled_sloppy()


class TestSearchAgreement:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_Q_EPS, _SLOPPY, _SCALED_SLOPPY))
    def test_dp_brute_and_ordered_agree(self, q):
        dp = _search_or_none(best_order_dp, q)
        bf = _search_or_none(best_order_bruteforce, q)
        assert (dp is None) == (bf is None)
        if dp is None:
            return
        rtol = _cond_rtol(q)
        for res in (dp, bf):
            assert csep_ordered(q, res.ordering).value == res.value
        assert abs(dp.value - bf.value) <= rtol * bf.value

    @staticmethod
    def _check_block_diagonal(sizes):
        rng = np.random.default_rng(12)
        blocks = [rand_spd(rng, m) for m in sizes]
        n = sum(sizes)
        perm = rng.permutation(n)
        q = block_diag(*blocks)[np.ix_(perm, perm)]
        expected = sum(np.sqrt(best_order_bruteforce(b).value) for b in blocks) ** 2
        res = best_order_dp(q)
        assert abs(res.value - expected) <= _cond_rtol(q) * expected

    def test_block_diagonal_n16(self):
        self._check_block_diagonal((6, 6, 4))

    def test_block_diagonal_n20(self):
        assert DP_MAX == 20  # the guard's upper end
        self._check_block_diagonal((6, 6, 4, 4))
