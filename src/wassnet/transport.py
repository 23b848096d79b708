"""Exact discrete optimal transport, mixture-level W2 bounds, empirical W2.

The transportation LP is solved exactly (vertex solutions, no
regularization).  Problems with a single row or column have only the
product plan; every other instance is one ``scipy.optimize.milp`` call
without integrality, which HiGHS (1.12 in scipy 1.17) solves with its
serial dual simplex.  The solver backs both the MW2 distance between
Gaussian mixtures, over the fully priced matrix of pairwise Gaussian W2
costs, and empirical W2 estimates between sample clouds of unequal size.
Equal-size uniform empirical problems take the assignment-problem fast
path, and in one dimension the sorted matching.  The assignment solver is
given a cost matrix shifted by row and column potentials (minimum
reductions, then a few Sinkhorn scaling sweeps): a dual warm start that
changes no optimal permutation.  Each assignment is solved in one (n, n)
buffer, and a batch of them runs on two threads, one buffer each.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.optimize import LinearConstraint, linear_sum_assignment, milp
from scipy.sparse import csc_array

from .config import TOL
from .errors import NumericalError, ParseError
from .stats import as_mixture, gaussian_w2_sq_matrix, \
    mixture_second_moment, _readonly

__all__ = [
    "TransportPlan",
    "solve_discrete_ot",
    "mw2",
    "empirical_w2",
    "relative_w2",
]

# dual warm start of the assignment path (see empirical_w2): the number of
# Sinkhorn scaling sweeps and the entropic scale as a share of the mean
# reduced cost
_SINKHORN_SWEEPS = 10
_SINKHORN_EPS_SHARE = 0.05

# rows of |x|^2 + |y|^2 added to the cross products at a time
_ROW_BLOCK = 64

# threads of one _empirical_w2_batch call, each reusing one (n, n) buffer:
# scipy's linear_sum_assignment releases the GIL, and two buffers are what
# one assignment solve held before the single-buffer path
_BATCH_WORKERS = 2


@dataclass(frozen=True)
class TransportPlan:
    """A coupling matrix between two discrete marginals and its cost."""

    plan: np.ndarray
    cost: float

    def __post_init__(self):
        p = np.asarray(self.plan, dtype=float)
        if p.ndim != 2:
            raise ParseError("transport plan must be a matrix")
        if np.any(p < -TOL.simplex_atol) or not np.all(np.isfinite(p)):
            raise ParseError("transport plan must be nonnegative and finite")
        if not (np.isfinite(self.cost) and self.cost >= -TOL.simplex_atol):
            raise ParseError("transport cost must be a finite nonnegative real")
        object.__setattr__(self, "plan", _readonly(np.maximum(p, 0.0)))
        object.__setattr__(self, "cost", float(max(self.cost, 0.0)))


def _validate_marginals(cost, a, b):
    cost = np.asarray(cost, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if cost.ndim != 2 or cost.shape != (a.size, b.size):
        raise ParseError("cost must be an (M, N) matrix matching marginals")
    if not np.all(np.isfinite(cost)) or np.any(cost < 0.0):
        raise ParseError("costs must be finite and nonnegative")
    if np.any(a < -TOL.simplex_atol) or np.any(b < -TOL.simplex_atol):
        raise ParseError("marginals must be nonnegative")
    sa, sb = float(a.sum()), float(b.sum())
    if abs(sa - sb) > TOL.marginal_atol:
        raise ParseError(
            f"marginal sums differ: {sa} vs {sb} (tolerance "
            f"{TOL.marginal_atol})")
    if sa <= 0.0:
        raise ParseError("marginals must carry positive total mass")
    return cost, np.maximum(a, 0.0), np.maximum(b, 0.0)


def _constraint_matrix(m, n):
    """Row-sum then column-sum equality rows over the flat plan, in CSC.

    Column ``k = i n + j`` holds a 1 in row ``i`` and, unless ``j = n - 1``,
    a 1 in row ``m + j``: the last column-sum row is implied by the others
    and is left out.  Built from index arithmetic, with sorted int32 row
    indices (``m n`` stays far below 2**30 under the empirical entry cap).
    """
    cols = np.arange(n)
    indptr = np.empty(m * n + 1, dtype=np.int32)
    indptr[:-1] = (np.arange(m)[:, None] * (2 * n - 1) + 2 * cols).ravel()
    indptr[-1] = m * (2 * n - 1)
    indices = np.empty((m, 2 * n - 1), dtype=np.int32)
    indices[:, 0::2] = np.arange(m)[:, None]
    indices[:, 1::2] = m + cols[:-1]
    return csc_array((np.ones(indices.size), indices.ravel(), indptr),
                     shape=(m + n - 1, m * n))


def _transport_lp(cost, a, b):
    """Vertex optimum of the balanced transportation LP by HiGHS.

    ``milp`` without integrality passes the LP straight to HiGHS under its
    default options (``solver="choose"``, ``simplex_strategy=1``), which
    solve an LP by the serial dual simplex ("EKK dual simplex solver -
    serial" in the HiGHS log).  The simplex ends on a basic solution, so
    the plan is a vertex of the transportation polytope.
    """
    m, n = cost.shape
    rhs = np.concatenate([a, b[:-1]])
    res = milp(cost.ravel(), constraints=LinearConstraint(
        _constraint_matrix(m, n), rhs, rhs))
    if res.status != 0:
        raise NumericalError(f"transportation LP failed: {res.message}")
    return np.maximum(res.x, 0.0).reshape(m, n)


def solve_discrete_ot(cost, a, b) -> TransportPlan:
    """Exact optimum of the transportation LP min <plan, cost>.

    Marginals must be nonnegative with equal total mass (within 1e-9); the
    result is a vertex plan whose row/column sums reproduce the marginals.
    Zero-mass atoms are removed before the solve and reinserted as zero
    rows/columns.  A reduced problem with one row or one column has the
    product plan ``outer(a, b) / sum(a)`` as its only feasible point, which
    is returned in closed form.  Every other reduced problem goes to HiGHS
    through ``milp``, whose serial dual simplex ends on a basic (vertex)
    solution.
    """
    cost, a, b = _validate_marginals(cost, a, b)
    rows = np.flatnonzero(a > 0.0)
    cols = np.flatnonzero(b > 0.0)
    sub_a = a[rows]
    sub_b = b[cols]
    # force exact balance (validated above); adjust the largest atom
    diff = float(sub_a.sum() - sub_b.sum())
    sub_b = sub_b.copy()
    sub_b[int(np.argmax(sub_b))] += diff
    sub_cost = cost[np.ix_(rows, cols)]
    if rows.size == 1 or cols.size == 1:
        sub_plan = np.outer(sub_a, sub_b) / sub_a.sum()
    else:
        sub_plan = _transport_lp(sub_cost, sub_a, sub_b)
    plan = np.zeros_like(cost)
    plan[np.ix_(rows, cols)] = sub_plan
    if not np.allclose(plan.sum(axis=1), a, rtol=0.0, atol=TOL.marginal_atol):
        raise NumericalError("transport plan violates the row marginal")
    if not np.allclose(plan.sum(axis=0), b, rtol=0.0, atol=TOL.marginal_atol):
        raise NumericalError("transport plan violates the column marginal")
    return TransportPlan(plan, float(np.sum(sub_plan * sub_cost)))


def _pairwise_sq_dists(xs, ys, out=None):
    """Squared Euclidean distances in the expanded form, clamped at zero.

    Builds ``(|x|^2 + |y|^2) - 2 x.y`` in ``out``, a C-contiguous (n, m)
    float array (allocated when None), and returns it.  ``-2 X Y^T`` is
    written first, ``|x|^2 + |y|^2`` is added to it ``_ROW_BLOCK`` rows at
    a time, and the sum is clamped at 0, so no other (n, m) array is
    alive.  Scaling by -2 is exact and ``a + (-b)`` is ``a - b`` in IEEE
    arithmetic, so every entry is bit for bit the two-array form
    ``(|x|^2 + |y|^2) - 2 (X Y^T)``.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if out is None:
        out = np.empty((xs.shape[0], ys.shape[0]))
    np.matmul(xs, ys.T, out=out)
    out *= -2.0
    sx = np.sum(xs * xs, axis=1)
    sy = np.sum(ys * ys, axis=1)
    for start in range(0, xs.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        out[rows] += np.add.outer(sx[rows], sy)
    return np.maximum(out, 0.0, out=out)


def mw2(p, q):
    """Mixture-level W2 upper bound: transport over pairwise Gaussian W2^2.

    Returns ``(distance, plan)`` with the full ``(N, m)`` plan.  The
    coupling set is restricted to mixtures of the given components, so the
    value always upper-bounds the true W2 between the mixtures and
    vanishes iff the component-wise coupling can be made perfect (in
    particular mw2(p, p) = 0).  Every arc is priced by one
    :func:`gaussian_w2_sq_matrix` call, the all-pairs case of
    :func:`~wassnet.stats.gaussian_w2_sq_pairs`, which decomposes the
    components of ``q`` and no component of ``p``, and the plan is one
    :func:`solve_discrete_ot` call on that matrix.
    """
    pm = as_mixture(p)
    qm = as_mixture(q)
    if pm.dim != qm.dim:
        raise ParseError("mixtures must share the ambient dimension")
    plan = solve_discrete_ot(
        gaussian_w2_sq_matrix(pm.components, qm.components), pm.weights,
        qm.weights)
    return math.sqrt(max(plan.cost, 0.0)), plan


def _subtract_minima(cost):
    """Subtract the row minima and then the column minima, in place.

    Returns both vectors.  Afterwards every entry is nonnegative and every
    row and every column holds a zero (each row's zero lies in a column
    whose minimum is 0).
    """
    row_min = cost.min(axis=1)
    cost -= row_min[:, None]
    col_min = cost.min(axis=0)
    cost -= col_min
    return row_min, col_min


def _sinkhorn_potentials(cost):
    """Row and column potentials ``(f, g)`` from a few Sinkhorn sweeps.

    ``cost`` must be nonnegative with a zero in every row and column.  With
    ``eps = _SINKHORN_EPS_SHARE * mean(cost)`` and ``K = exp(-cost / eps)``,
    built in place over ``cost`` (whose entries are lost), each sweep sets
    ``u = 1 / (K v)`` and then ``v = 1 / (K^T u)`` from ``v = 1``; the
    potentials are ``f = eps log u`` and ``g = eps log v``.  Returns None
    when ``eps`` is not a positive float whose reciprocal is finite (all
    costs zero, or too small or too large to scale; ``cost`` is then left
    as it was), or when a potential is not finite.  Every row and column
    of ``K`` holds a 1 and no entry exceeds 1, so a sweep widens the range
    of ``v`` by at most a factor ``n`` at either end: after ten sweeps
    ``u`` and ``v`` lie within ``n^(+-11)``, far inside the float range.
    """
    with np.errstate(over="ignore"):
        eps = _SINKHORN_EPS_SHARE * float(cost.mean())
    if not (0.0 < eps < math.inf and math.isfinite(1.0 / eps)):
        return None
    kernel = np.multiply(cost, -1.0 / eps, out=cost)
    np.exp(kernel, out=kernel)
    v = np.ones(cost.shape[1])
    for _ in range(_SINKHORN_SWEEPS):
        u = 1.0 / (kernel @ v)
        v = 1.0 / (u @ kernel)
    f = eps * np.log(u)
    g = eps * np.log(v)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        return None
    return f, g


def _check_entry_cap(n: int, m: int, dim: int, advice: str):
    """Raise :class:`ParseError`, ending with ``advice``, if the empirical
    W2 of ``n`` against ``m`` samples in ``dim`` dimensions would build a
    cost matrix above ``TOL.empirical_cost_cap`` entries.  Equal counts in
    one dimension take the sorted matching, which builds none."""
    if n * m > TOL.empirical_cost_cap and not (n == m and dim == 1):
        raise ParseError(
            f"cost matrix would hold {n * m} entries, above the cap "
            f"{TOL.empirical_cost_cap}; {advice}")


def _checked_samples(xs, ys):
    """``(xs, ys)`` as float arrays, once their shapes, finiteness and the
    entry cap have been checked; see :func:`empirical_w2`."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[0] < 1 or ys.shape[0] < 1:
        raise ParseError("sample sets must be nonempty (n, d) arrays")
    if xs.shape[1] != ys.shape[1]:
        raise ParseError("sample sets must share the ambient dimension")
    _check_entry_cap(xs.shape[0], ys.shape[0], xs.shape[1],
                     "subsample the inputs")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ParseError("samples must be finite")
    return xs, ys


def _takes_assignment(xs, ys) -> bool:
    """Whether checked samples take the assignment path (equal counts,
    more than one dimension)."""
    return xs.shape[0] == ys.shape[0] and xs.shape[1] > 1


def _assignment_w2(xs, ys, cost):
    """W2 of equal-count samples by the warm-started assignment, solved in
    the caller's C-contiguous (n, n) float buffer ``cost``; see
    :func:`empirical_w2`."""
    _pairwise_sq_dists(xs, ys, out=cost)
    row_min, col_min = _subtract_minima(cost)
    potentials = _sinkhorn_potentials(cost)
    # the sweeps built their kernel over the distances: rebuild them and
    # replay the two reductions
    _pairwise_sq_dists(xs, ys, out=cost)
    cost -= row_min[:, None]
    cost -= col_min
    if potentials is not None:
        cost -= potentials[0][:, None]
        cost -= potentials[1]
        _subtract_minima(cost)
    rows, cols = linear_sum_assignment(cost)
    sq = np.sum(np.square(xs[rows] - ys[cols]), axis=1)
    return math.sqrt(float(sq.mean()))


def _matching_or_lp_w2(xs, ys):
    """W2 of checked samples that take no assignment: the sorted matching
    for equal counts in one dimension, the transportation LP for unequal
    counts; see :func:`empirical_w2`."""
    n, m = xs.shape[0], ys.shape[0]
    if n == m:
        rows = np.arange(n)
        cols = np.empty(n, dtype=np.intp)
        cols[np.argsort(xs[:, 0], kind="stable")] = np.argsort(
            ys[:, 0], kind="stable")
        sq = np.sum(np.square(xs[rows] - ys[cols]), axis=1)
        return math.sqrt(float(sq.mean()))
    plan = solve_discrete_ot(_pairwise_sq_dists(xs, ys), np.full(n, 1.0 / n),
                             np.full(m, 1.0 / m))
    # re-evaluate the objective with direct differences on the plan support,
    # which is exact where the expanded cost form carries rounding noise
    ii, jj = np.nonzero(plan.plan)
    sq = np.sum(np.square(xs[ii] - ys[jj]), axis=1)
    return math.sqrt(float(np.dot(plan.plan[ii, jj], sq)))


def empirical_w2(xs, ys) -> float:
    """Exact W2 between the uniform empirical measures of two sample sets.

    Equal sample counts reduce to an assignment problem, solved exactly by
    scipy's shortest augmenting path method.  That method starts from zero
    dual potentials and does no reduction of its own, so it is given a
    cost matrix already shifted by good potentials, the dual warm start of
    Jonker and Volgenant (1987).  The squared distances first have their
    row minima and then their column minima subtracted in place.  Then
    ``_SINKHORN_SWEEPS`` (10) Sinkhorn scaling sweeps at the entropic scale
    ``eps = _SINKHORN_EPS_SHARE`` (0.05) times the mean reduced cost give
    row potentials ``f_i = eps log u_i`` and column potentials
    ``g_j = eps log v_j`` (Cuturi 2013; :func:`_sinkhorn_potentials`),
    which are subtracted from row ``i`` and column ``j``, and the row and
    then column minima are subtracted once more.

    Why the optimum is unchanged: every shift subtracts ``a_i`` from row
    ``i`` and ``b_j`` from column ``j``, and a permutation ``s`` uses each
    row and each column exactly once, so its cost
    ``sum_i c_{i s(i)}`` becomes ``sum_i c_{i s(i)} - sum_i a_i -
    sum_j b_j``: every permutation's cost moves by the same constant, and
    the set of optimal permutations is the same for the shifted matrix.
    This needs neither converged nor dual-feasible potentials, so the
    Sinkhorn sweeps only have to be close enough to shorten the search.
    In floating point each shifted entry is rounded, as the minimum
    reductions alone already round it, so only permutations whose costs
    tie to within that rounding can be told apart differently.
    The final reduction leaves every entry nonnegative with a zero in
    every row and column.  When ``eps`` is not a positive float with a
    finite reciprocal (for example every reduced cost is zero) or some
    potential is not finite, the Sinkhorn shift is skipped and the matrix
    reduced by the minima alone is solved.  The value is recomputed from
    direct differences on the returned permutation.

    One (n, n) buffer holds every matrix of the solve, and nothing else
    of that size is alive.  The distances are built into it
    (:func:`_pairwise_sq_dists`), reduced, and the row and column minima
    are kept; the Sinkhorn kernel is then built in place over the reduced
    costs.  After the sweeps the distances are rebuilt in the buffer, the
    two saved minimum vectors are subtracted again, and the potentials and
    the last reduction follow.  The rebuilt and replayed matrix is bit for
    bit the reduced matrix the sweeps started from: the rebuild repeats
    the same floating-point operations on the same inputs, and
    subtracting the saved vector ``r`` is the very operation the first
    reduction did once it had computed ``r`` as the row minima (likewise
    the column minima ``c``, computed after ``r`` was subtracted).  So
    the solver sees exactly the matrix it saw when the kernel had a
    buffer of its own.

    In one dimension the sorted matching is an optimal permutation and no
    cost matrix is built (monotone rearrangement; Santambrogio 2015,
    Section 2.2).  For ``x1 <= x2`` and ``y1 <= y2``,
    ``(x1 - y2)^2 + (x2 - y1)^2 - (x1 - y1)^2 - (x2 - y2)^2 =
    2 (x2 - x1)(y2 - y1) >= 0``, so swapping the partners of two crossing
    pairs never raises the cost and removes at least one inversion of the
    permutation; from any optimal permutation, finitely many swaps reach
    the one that pairs the k-th smallest x with the k-th smallest y, which
    is therefore optimal too.  Its value is computed as on the assignment
    path, from direct differences in row order.  This path builds no cost
    matrix, so the entry cap below does not apply to it.

    Unequal counts go through the transportation LP.  Other instances
    whose cost matrix would exceed the configured entry cap are rejected
    with advice to subsample, and samples that are not all finite are
    rejected on every path, each with :class:`ParseError`.
    :func:`_empirical_w2_batch` returns the same values for a list of
    pairs, two assignments at a time.
    """
    xs, ys = _checked_samples(xs, ys)
    if _takes_assignment(xs, ys):
        n = xs.shape[0]
        return _assignment_w2(xs, ys, np.empty((n, n)))
    return _matching_or_lp_w2(xs, ys)


def _empirical_w2_batch(pairs) -> list:
    """``[empirical_w2(xs, ys) for xs, ys in pairs]``, the same values in
    the same order, with the assignments solved two at a time.

    Every pair is checked, the entry cap included, before anything is
    allocated.  Pairs that take no assignment are solved first, on the
    calling thread.  The calling thread then allocates one flat buffer per
    worker, ``_BATCH_WORKERS`` (2) of them or one per assignment if there
    are fewer, each large enough for the largest assignment, and worker
    ``w`` solves assignments ``w``, ``w + 2``, ... in an (n, n) view of
    buffer ``w`` by :func:`_assignment_w2`.  Each value is computed by the
    same operations as in :func:`empirical_w2`, so it is the same float.
    A worker allocates nothing of size n² itself: buffers freed by worker
    threads would be kept by their per-thread heaps.  An exception in a
    worker stops both workers before their next solve and is raised here.
    The workers call no public function of the package, so a wrapper put
    around one by a profiler never runs on a worker thread.
    """
    checked = [_checked_samples(xs, ys) for xs, ys in pairs]
    values = [None] * len(checked)
    square = []
    for k, (xs, ys) in enumerate(checked):
        if _takes_assignment(xs, ys):
            square.append(k)
        else:
            values[k] = _matching_or_lp_w2(xs, ys)
    if not square:
        return values
    size = max(checked[k][0].shape[0] for k in square) ** 2
    buffers = [np.empty(size)
               for _ in range(min(_BATCH_WORKERS, len(square)))]
    errors = []

    def work(w):
        try:
            for k in square[w::len(buffers)]:
                if errors:
                    return
                xs, ys = checked[k]
                n = xs.shape[0]
                values[k] = _assignment_w2(
                    xs, ys, buffers[w][:n * n].reshape(n, n))
        except BaseException as exc:
            # handed to the calling thread, which raises it after the joins
            errors.append(exc)

    workers = [threading.Thread(target=work, args=(w,))
               for w in range(len(buffers))]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    return values


def relative_w2(w2_value: float, reference) -> float:
    """W2 divided by the root second moment of the reference distribution."""
    if not w2_value >= 0.0:
        raise ParseError("w2_value must be nonnegative")
    second = mixture_second_moment(reference)
    if second <= 0.0:
        raise ParseError("reference distribution has zero second moment")
    return float(w2_value / math.sqrt(second))
