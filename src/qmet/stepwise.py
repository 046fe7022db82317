"""The stepwise separable bound and its ordering optimization.

A sequential protocol estimates one parameter per step, spending a
fraction gamma_j of the probes on step j while the not-yet-estimated
parameters stay unknown.  For an estimation order sigma the optimal
resource split has the closed form

    C_sep = (sum_j sqrt(A_j))^2,      A_j = det Q_{j+1..n} / det Q_{j..n},

where Q_{j..n} are trailing submatrices of the order-permuted QFIM and
A_j equals [Q_{j..n}^{-1}]_{11}, the single-parameter bound of step j.
The optimal fractions are gamma_j proportional to sqrt(A_j).

The bound depends on the order.  Orderings here are 1-based tuples of
parameter labels, first-estimated first, matching all user-facing
surfaces.  Two search routines find the minimizing order: brute-force
enumeration, and a Bellman-Held-Karp bitmask recursion whose additive
cost of estimating parameter j just before an already-arranged subset I
is sqrt(A_j) = 1/sqrt(det Q_{I+j} / det Q_I), with I+j the subset I with
j added; the determinant ratio is the squared Cholesky pivot of j after
the block I.  Squaring the optimal accumulated cost recovers the bound.
The recursion reads every det Q_S from one table of subset
log-determinants, built by doubling: the subsets whose largest index is
t are the subsets of 0..t-1 with t added, so each natural-order Cholesky
factor is its parent's plus one row.  The subsets, their members and the
subset less each member come from a lattice built once per n and cached,
so a search does no subset bookkeeping of its own; the step costs of all
(subset, member) pairs are one vectorized pass per block of at most
``DP_PAIR_BUDGET`` pairs, a single block up to n = 12.

The order routines read only the validated matrix of a QFIM (the ``q`` of
a :class:`linalg.Qfim`), never its natural-order factor; ``csep_cholesky``
and ``brackets`` read the factor.
"""

import functools
from dataclasses import dataclass
from itertools import permutations
from math import comb

import numpy as np

from .errors import SingularQfim, TooManyParameters
from .linalg import (
    _cholesky,
    pivot_determinant,
    pivot_tol,
    qfim,
    qfim_matrix,
    weights,
)

BRUTE_FORCE_MAX = 8
DP_MAX = 20
DP_PAIR_BUDGET = 1 << 15  # (subset, member) pairs per block of the search; n <= 12 is one block


@dataclass(frozen=True)
class StepwiseResult:
    """Optimized stepwise bound for one estimation order."""

    value: float
    gammas: np.ndarray
    ordering: tuple
    step_terms: np.ndarray

    def to_json(self):
        return {
            "value": self.value,
            "ordering": list(self.ordering),
            "gammas": [float(g) for g in self.gammas],
            "step_terms": [float(a) for a in self.step_terms],
        }


@dataclass(frozen=True)
class Brackets:
    """Order-independent envelope of the stepwise bound."""

    harmonic_lower: float
    geometric_lower: float
    upper: float


@dataclass(frozen=True)
class DpTables:
    """Memoization tables of the ordering search, as arrays indexed by bitmask.

    A mask has bit k set for label k+1.  ``cost[mask]`` is the optimal
    accumulated cost over that subset: the sum, along its best ordering,
    of sqrt(w_j) sqrt(det Q_I / det Q_{I+j}) for each j appended after the
    subset I before it (inf when no ordering of it is feasible).  Every
    det Q_S comes from one log-determinant table built by doubling, one
    Cholesky row per subset, and every (subset, member) pair from the
    cached subset lattice.  ``choice[mask]`` is the 0-based index of the
    parameter estimated first within the subset, or -1 where there is no
    choice.  ``expansions`` counts (subset, candidate) pairs, n * 2^(n-1).
    """

    cost: np.ndarray
    choice: np.ndarray
    expansions: int


def _validate_ordering(order, n):
    order = tuple(map(int, order))
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"ordering {order} is not a permutation of 1..{n}")
    return order


def _step_terms(q, idx):
    """A_j of the 0-based ordering ``idx``, or None when the ordering is singular.

    One Cholesky factorization of the reverse-permuted matrix gives every
    trailing block at once: its k-th squared pivot is
    det Q_{n-k..n} / det Q_{n-k+1..n}, so A = 1 / diag(L)^2 read backwards.
    The ordering is singular under the pivot rule of ``linalg._cholesky``,
    whose tolerance :func:`pivot_tol` the ordering search shares.
    """
    rev = idx[::-1]
    try:
        piv = _cholesky(q[rev[:, None], rev]).diagonal() ** 2
    except SingularQfim:
        return None
    return 1.0 / piv[::-1]


def csep_ordered(q, order=None, w=None):
    """Stepwise bound, optimal fractions and per-step terms for one ordering.

    ``order`` lists 1-based parameter labels, first estimated first
    (default: natural order 1..n).  ``w`` is the weight vector of
    :func:`linalg.weights`, W = diag(w); the weight of the parameter
    estimated at step j multiplies that step's variance term.
    """
    q = qfim_matrix(q)
    n = q.shape[0]
    order = _validate_ordering(order if order is not None else range(1, n + 1), n)
    idx = np.array(order) - 1
    wd = weights(w, n)[idx]
    a = _step_terms(q, idx)
    if a is None:
        raise SingularQfim("a Cholesky pivot of the permuted QFIM is at or below tolerance")
    roots = np.sqrt(wd * a)
    total = roots.sum()
    return StepwiseResult(
        value=float(total**2),
        gammas=roots / total,
        ordering=order,
        step_terms=a,
    )


def csep_cholesky(q):
    """Stepwise bound of the reversed order (n, ..., 1) as (Tr L^-1)^2, Q = L L^T."""
    return float(np.sum(1.0 / np.diag(qfim(q).L)) ** 2)


def brackets(q):
    """Order-independent bracket n^3/TrQ <= n^2 det(Q)^(-1/n) <= C_sep <= n Tr[Q^-1].

    Both outer bounds saturate simultaneously iff Q is a positive multiple
    of the identity.  One factorization Q = L L^T gives det Q as the
    product of squared pivots and Tr[Q^-1] = ||L^-1||_F^2.
    """
    qf = qfim(q)
    n = qf.n
    return Brackets(
        harmonic_lower=float(n**3 / np.trace(qf.q)),
        geometric_lower=float(n**2 * pivot_determinant(qf.L) ** (-1.0 / n)),
        upper=float(n * np.sum(qf.linv**2)),
    )


def best_order_bruteforce(q, w=None):
    """Minimum stepwise bound over all n! orderings.

    Ties keep the lexicographically smallest ordering.  Orderings that hit
    a singular trailing block are skipped rather than raised, so the search
    survives matrices that are singular only along some directions.
    """
    q = qfim_matrix(q)
    n = q.shape[0]
    if n > BRUTE_FORCE_MAX:
        raise TooManyParameters(
            f"brute force is guarded at n <= {BRUTE_FORCE_MAX}, got n = {n}"
        )
    wd = weights(w, n)
    best_order, best_value = None, np.inf
    for perm in permutations(range(1, n + 1)):
        idx = np.array(perm) - 1
        a = _step_terms(q, idx)
        value = np.inf if a is None else float(np.sum(np.sqrt(wd[idx] * a)) ** 2)
        if value < best_value:
            best_order, best_value = perm, value
    if best_order is None:
        raise SingularQfim("no ordering has positive trailing determinants")
    return csep_ordered(q, best_order, w)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _subset_logdets(q):
    """log det Q_S of every parameter subset S, as an array indexed by bitmask.

    Built by doubling: the masks [2^t, 2^(t+1)) are the masks below 2^t
    with member t added last, so the natural-order Cholesky factor of each
    is its parent's factor plus one row, and its log-determinant is the
    parent's plus the log of one squared pivot.  ``schur[s]`` carries, for
    every mask s below 2^t, the Schur complement of Q_S in the trailing
    block Q_{t.., t..}: its [0, 0] entry is the pivot of t, its first row
    over that pivot's square root is the new row of the factor, and
    subtracting that row's outer product leaves the Schur complement of
    the grown mask.  Step t costs O(2^t (n - t)^2).  A pivot at or below
    zero makes its mask, and every mask grown from it, -inf or NaN,
    without a warning.
    """
    n = q.shape[0]
    ld = np.empty(1 << n)
    ld[0] = 0.0
    schur = q[None]
    for t in range(n):
        half = 1 << t
        piv = schur[:, 0, 0]
        ld[half:2 * half] = ld[:half] + np.log(piv)
        row = schur[:, 0, 1:] / np.sqrt(piv)[:, None]
        rest = schur[:, 1:, 1:]
        schur = np.empty((2 * half,) + rest.shape[1:])
        schur[:half] = rest
        np.subtract(rest, row[:, :, None] * row[:, None, :], out=schur[half:])
    return ld


@functools.cache
def _lattice(n):
    """The subset lattice of n parameters: every nonempty mask and its members.

    Returns ``(masks, members, blocks)``.  ``masks`` lists the masks by
    population count (layer) and ascending within a layer; ``members``
    lists, flat and in the same order, the 0-based members of each mask in
    ascending order, one int8 per (subset, member) pair.  Layer k is built
    from layer k-1 by recursion on the top bit: the masks of layer k whose
    largest member is t are the (k-1)-subsets of 0..t-1 with t added, and
    those are the first C(t, k-1) masks of layer k-1.  ``blocks`` splits
    the pairs into runs of whole layers of at most :data:`DP_PAIR_BUDGET`
    pairs, a larger layer into runs of its rows; each block is a tuple of
    (k, first mask, end mask, first pair, end pair) segments, one per layer.
    """
    masks = np.empty((1 << n) - 1, dtype=np.intp)
    members = np.empty(n << (n - 1), dtype=np.int8)
    last_masks, last_members = np.zeros(1, dtype=np.intp), np.zeros((1, 0), dtype=np.int8)
    blocks, run, run_pairs = [], [], 0
    mask_at = pair_at = 0
    for k in range(1, n + 1):
        count = comb(n, k)
        layer = masks[mask_at:mask_at + count]
        layer_members = members[pair_at:pair_at + count * k].reshape(count, k)
        row = 0
        for t in range(k - 1, n):
            c = comb(t, k - 1)
            np.bitwise_or(last_masks[:c], 1 << t, out=layer[row:row + c])
            layer_members[row:row + c, :-1] = last_members[:c]
            layer_members[row:row + c, -1] = t
            row += c
        last_masks, last_members = layer, layer_members
        pairs = count * k
        if run and run_pairs + pairs > DP_PAIR_BUDGET:
            blocks.append(tuple(run))
            run, run_pairs = [], 0
        if pairs > DP_PAIR_BUDGET:
            rows = DP_PAIR_BUDGET // k
            for lo in range(0, count, rows):
                hi = min(lo + rows, count)
                blocks.append(((k, mask_at + lo, mask_at + hi, pair_at + lo * k, pair_at + hi * k),))
        else:
            run.append((k, mask_at, mask_at + count, pair_at, pair_at + pairs))
            run_pairs += pairs
        mask_at += count
        pair_at += pairs
    if run:
        blocks.append(tuple(run))
    masks.flags.writeable = members.flags.writeable = False  # shared by every search
    return masks, members, tuple(blocks)


@functools.lru_cache(maxsize=4)
def _block_pairs(n, b):
    """The (subset, member, subset less member) pairs of block ``b`` of the n-lattice.

    Returns ``(src, j, prev, segments)``: for each pair its mask S, its
    member j and the mask S \\ {j}, as intp arrays, and per layer segment
    (k, the masks of its rows, its pair range within the block, the offset
    of each row's first pair).  The four blocks used last are kept, so a
    lattice of one block (n <= 12) is derived once, while the 328 blocks
    of n = 20 are derived again on every search and the memory kept stays
    within four blocks of the pair budget.
    """
    masks, members, blocks = _lattice(n)
    block = blocks[b]
    base = block[0][3]
    src = np.concatenate([np.repeat(masks[m0:m1], k) for k, m0, m1, _, _ in block])
    j = members[base:block[-1][4]].astype(np.intp)
    segments = tuple(
        (k, masks[m0:m1], p0 - base, p1 - base, np.arange(0, p1 - p0, k))
        for k, m0, m1, p0, p1 in block
    )
    prev = src ^ np.left_shift(1, j)
    for shared in (src, j, prev):
        shared.flags.writeable = False
    return src, j, prev, segments


def dp_tables(q, w=None):
    """Held-Karp tables over parameter subsets, one population-count layer at a time.

    cost(S) = min_{j in S} cost(S \\ {j}) + sqrt(w_j) / sqrt(schur(j | S \\ {j}))
    with schur(j | I) = det Q_{I+j} / det Q_I, the squared Cholesky pivot
    of appending j after the block I, read off the log-determinant table
    of :func:`_subset_logdets`.  That table is built by doubling over the
    largest member t, each subset's natural-order factor being its
    parent's plus one row, so no subset is factorized from scratch.  A
    Schur complement at or below :func:`pivot_tol` makes the candidate
    infeasible, and so does a non-finite log-determinant; ties keep the
    smallest j.

    No layer is searched for: the subsets, their members and the masks
    S \\ {j} come from the lattice of :func:`_lattice`, built once per n,
    block by block (:func:`_block_pairs`).  The step cost of every
    (S, j in S) pair of a block is one vectorized pass, since it depends on
    the log-determinants alone; each layer then costs one gather of the
    costs of S \\ {j}, one add, a row argmin and two stores.  A block holds
    at most ``DP_PAIR_BUDGET`` pairs, so n <= 12 is a single pass and the
    scratch memory at n = 20 stays bounded.
    """
    q = qfim_matrix(q)
    n = q.shape[0]
    if n > DP_MAX:
        raise TooManyParameters(f"DP is guarded at n <= {DP_MAX}, got n = {n}")
    root_w = np.sqrt(weights(w, n))
    cost = np.full(1 << n, np.inf)
    cost[0] = 0.0
    choice = np.full(1 << n, -1, dtype=np.intp)
    ld = _subset_logdets(q)
    # non-finite log-determinants, the -inf log of a zero tolerance and any
    # overflow of exp all sit where the comparison below fails: infeasible
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_tol = np.log(pivot_tol(q))
        for b in range(len(_lattice(n)[2])):
            src, j, prev, segments = _block_pairs(n, b)
            log_schur = ld[src] - ld[prev]
            # an infeasible step is inf, and so is any cost plus it
            step = np.where(log_schur > log_tol, root_w[j] * np.exp(-0.5 * log_schur), np.inf)
            for k, masks, lo, hi, rows in segments:
                # cost(S \ {j}) is final: it lies in the layer below
                vals = cost[prev[lo:hi]]
                vals += step[lo:hi]
                best = vals.reshape(-1, k).argmin(axis=1)  # first minimum: the smallest j
                best += rows
                best_vals = vals[best]
                cost[masks] = best_vals
                choice[masks] = np.where(np.isfinite(best_vals), j[lo:hi][best], -1)
    return DpTables(cost=cost, choice=choice, expansions=n * 2 ** (n - 1))


def best_order_dp(q, w=None):
    """Minimum stepwise bound via the bitmask recursion; equals brute force.

    The optimal estimation order is reconstructed by unwinding the choice
    table from the full set: each recorded choice is the parameter
    estimated first within its subset.
    """
    tables = dp_tables(q, w)
    full = tables.cost.size - 1
    if not np.isfinite(tables.cost[full]):
        raise SingularQfim("no ordering has positive Schur complements")
    order = []
    mask = full
    while mask:
        j = int(tables.choice[mask])
        order.append(j + 1)
        mask ^= 1 << j
    return csep_ordered(q, tuple(order), w)
