"""Exact discrete optimal transport, mixture-level W2 bounds, empirical W2.

The transportation LP is solved exactly (vertex solutions, no
regularization).  Problems with a single row or column have only the
product plan.  Otherwise the nearest-column plan, which sends each row's
whole mass to its cheapest column, is taken whenever its column sums
match the column marginal to rounding (``4 M eps`` times the total mass
for ``M`` rows, not the looser marginal tolerance): every plan with
the given row sums costs at least ``sum_i a_i min_j c_ij``, and this plan
attains that bound, so it is optimal; its support has one arc per row, a
forest, so it is a vertex.  A caller that holds a one-arc-per-row plan of
its own (``compress_gmm``'s cluster map, through ``mw2``) has it tried
next: it is taken when it is feasible to the same rounding and dual
potentials, found by a negative-cycle test on the columns, prove it
optimal.  Only when no such plan applies does one ``scipy.optimize.milp``
call without integrality run, which HiGHS (1.12 in scipy 1.17) solves
with its serial dual simplex.  The solver backs both
the MW2 distance between Gaussian mixtures and empirical W2 estimates
between sample clouds.  MW2 prices its Gaussian costs lazily: unpriced
arcs carry the W2 of the coordinate marginals, which reads only
diagonals, and a priced arc roots its column component only, so
``compress_gmm`` decomposes none of the components it compresses.  Equal-size uniform empirical problems take the
assignment-problem fast path, and in one dimension the sorted matching.
The assignment solver is given a cost matrix shifted by row and column
potentials (minimum reductions, then a few Sinkhorn scaling sweeps): a
dual warm start that changes no optimal permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import LinearConstraint, linear_sum_assignment, milp
from scipy.sparse import csc_array

from .config import TOL
from .errors import NumericalError, ParseError
from .stats import GaussianW2Costs, as_mixture, mixture_second_moment, \
    _readonly

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


def _one_arc_plan(targets, a, b):
    """The plan that holds ``a_i`` at ``(i, targets[i])``, or None when its
    column sums miss ``b`` by more than rounding.

    Rounding is ``4 M eps sum(a)`` per column for ``M`` rows: the error of
    summing the same masses in another order.  The marginal tolerance
    (1e-9) would be too loose here, since an atom lighter than it could
    then sit in a column that cannot take it.
    """
    rounding = 4.0 * a.size * np.finfo(float).eps * a.sum()
    if np.any(np.abs(np.bincount(targets, a, b.size) - b) > rounding):
        return None
    plan = np.zeros((a.size, b.size))
    plan[np.arange(a.size), targets] = a
    return plan


def _certifies(cost, targets) -> bool:
    """Whether dual potentials prove the one-arc-per-row plan optimal.

    The plan sends every row ``i`` (all of positive mass) to column
    ``s(i) = targets[i]``.  It is optimal if there are potentials ``u``,
    ``v`` with ``u_i + v_j <= c_ij`` everywhere and equality on its arcs
    (complementary slackness): then every plan ``P`` with the same
    marginals has ``<P, c> >= sum_i a_i u_i + sum_j b_j v_j =
    sum_i a_i (u_i + v_s(i)) = sum_i a_i c_is(i)``, the plan's cost.
    Equality on the arcs fixes ``u_i = c_is(i) - v_s(i)``, which leaves
    ``v_j - v_s(i) <= c_ij - c_is(i)`` for all ``i, j``, that is
    ``v_j <= v_k + W_kj`` with ``W_kj = min_{i: s(i)=k} (c_ij - c_ik)``
    (``+inf`` for a column no row is sent to).  Such difference
    constraints are solvable iff the graph on the columns with arc
    lengths ``W`` has no negative cycle: the shortest-path lengths from a
    source joined to every column by a zero-length arc then satisfy them,
    and summing the constraints around a negative cycle gives ``0 < 0``.
    One Floyd-Warshall pass finds the shortest walks between all columns;
    there is a negative cycle iff some column then reaches itself at a
    negative length.  ``W_kk = 0`` for a column with rows, so the diagonal
    starts at 0.

    The comparisons are plain float comparisons without a tolerance.  Each
    length tracked by the pass is a rounded sum of at most ``m`` arc
    lengths, for ``m`` columns, so a negative cycle can be missed only when its exact length
    lies within that rounding of zero; the plan is then optimal up to a
    cost of that order, far below the feasibility and optimality
    tolerances of the simplex solver it replaces (1e-7 in HiGHS).
    """
    rows = np.arange(cost.shape[0])
    reduced = cost - cost[rows, targets][:, None]
    dist = np.full((cost.shape[1],) * 2, np.inf)
    np.minimum.at(dist, targets, reduced)
    for k in range(dist.shape[0]):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return bool(np.all(np.diagonal(dist) >= 0.0))


def _assigned_plan(assignment, rows, cols, n, cost, a, b):
    """The plan of ``assignment`` (a column in ``range(n)`` per row) on the
    problem ``(cost, a, b)`` of the positive rows ``rows`` and columns
    ``cols``, when it is feasible to rounding and certified optimal; else
    None."""
    column = np.full(n, -1)
    column[cols] = np.arange(cols.size)
    targets = column[assignment[rows]]
    if np.any(targets < 0):
        return None
    plan = _one_arc_plan(targets, a, b)
    if plan is None or not _certifies(cost, targets):
        return None
    return plan


def solve_discrete_ot(cost, a, b, *, assignment=None) -> TransportPlan:
    """Exact optimum of the transportation LP min <plan, cost>.

    Marginals must be nonnegative with equal total mass (within 1e-9); the
    result is a vertex plan whose row/column sums reproduce the marginals.
    Zero-mass atoms are removed before the solve and reinserted as zero
    rows/columns.  A reduced problem with one row or one column has the
    product plan ``outer(a, b) / sum(a)`` as its only feasible point, which
    is returned in closed form.

    Otherwise the nearest-column plan, which holds ``a_i`` at
    ``(i, argmin_j c_ij)`` (ties go to the lowest column index), is
    returned when its column sums match ``b`` to rounding, within
    ``4 M eps sum(a)`` per column for ``M`` positive rows
    (:func:`_one_arc_plan`).  Any plan with row sums ``a`` costs
    ``sum_ij P_ij c_ij >= sum_i a_i min_j c_ij``, which this plan attains,
    so it is optimal.

    When it is infeasible and an ``assignment`` is given (one column index
    per row, such as the cluster map of :func:`compress_gmm`), the plan
    that holds ``a_i`` at ``(i, assignment[i])`` is tried next.  It is
    returned when its column sums pass the same rounding check and dual
    potentials prove it optimal (:func:`_certifies`, a negative-cycle test
    on the columns).  A row of zero mass is dropped with its entry of the
    assignment; a row of positive mass assigned to a column of zero mass
    refuses the plan.

    Either plan has one arc per row: every row node of its support has
    degree 1, so the support has no cycle and is a forest, and a feasible
    plan with an acyclic support is a vertex.  Only when neither plan
    applies does the problem go to HiGHS through ``milp``, whose serial
    dual simplex ends on a basic (vertex) solution.
    """
    cost, a, b = _validate_marginals(cost, a, b)
    if assignment is not None:
        assignment = np.asarray(assignment)
        if (assignment.shape != a.shape
                or not np.issubdtype(assignment.dtype, np.integer)
                or np.any((assignment < 0) | (assignment >= b.size))):
            raise ParseError("assignment must give each row a column index")
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
        sub_plan = _one_arc_plan(np.argmin(sub_cost, axis=1), sub_a, sub_b)
        if sub_plan is None and assignment is not None:
            sub_plan = _assigned_plan(assignment, rows, cols, b.size,
                                      sub_cost, sub_a, sub_b)
        if sub_plan is None:
            sub_plan = _transport_lp(sub_cost, sub_a, sub_b)
    plan = np.zeros_like(cost)
    plan[np.ix_(rows, cols)] = sub_plan
    if not np.allclose(plan.sum(axis=1), a, rtol=0.0, atol=TOL.marginal_atol):
        raise NumericalError("transport plan violates the row marginal")
    if not np.allclose(plan.sum(axis=0), b, rtol=0.0, atol=TOL.marginal_atol):
        raise NumericalError("transport plan violates the column marginal")
    return TransportPlan(plan, float(np.sum(sub_plan * sub_cost)))


def _pairwise_sq_dists(xs, ys):
    """Squared Euclidean distances in the expanded form, clamped at zero.

    ``|x|^2 + |y|^2 - 2 x.y`` is built in place in one (n, m) buffer; the
    cross products are the only other (n, m) array alive.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    d2 = np.add.outer(np.sum(xs * xs, axis=1), np.sum(ys * ys, axis=1))
    cross = xs @ ys.T
    cross *= 2.0
    d2 -= cross
    return np.maximum(d2, 0.0, out=d2)


def mw2(p, q, *, assignment=None):
    """Mixture-level W2 upper bound: transport over pairwise Gaussian W2^2.

    Returns ``(distance, plan)`` with the full ``(N, m)`` plan.  The
    coupling set is restricted to mixtures of the given components, so the
    value always upper-bounds the true W2 between the mixtures and
    vanishes iff the component-wise coupling can be made perfect (in
    particular mw2(p, p) = 0).

    A vertex plan uses at most ``N + m - 1`` of the ``N m`` arcs, so exact
    Gaussian costs are computed only where the plan needs them (delayed
    pricing).  Every arc starts at a cheap lower bound ``L <= C`` on its
    exact cost ``C``, the W2 of the coordinate marginals, which reads only
    the two diagonals (:meth:`GaussianW2Costs.tighten`); identical pairs
    start exact.  Each row's and each column's cheapest arc is priced
    exactly, and the transportation LP is solved on ``C~``: ``C`` where
    priced and ``L`` elsewhere (:func:`solve_discrete_ot`: the LP
    runs only when the plan that sends each row to its cheapest column of
    ``C~`` is infeasible).  While the plan's support holds an arc that is
    not priced, those arcs are priced and the LP solved again.
    At the end ``C~ <= C`` entrywise gives ``opt(C~) <= opt(C) <= <P, C>
    = <P, C~> = opt(C~)``, so the plan ``P`` is optimal for the exact
    costs and the value is the full-matrix MW2.  Each priced entry is
    computed as :func:`gaussian_w2_sq_matrix` computes it, from the root
    of its column component (:meth:`GaussianW2Costs.price`): only the
    components of ``q`` with an arc to price are decomposed, and no
    component of ``p``.

    ``assignment``, one component index of ``q`` per component of ``p``,
    is a candidate plan handed to every :func:`solve_discrete_ot` call:
    where the nearest-column plan is infeasible, that plan is taken when
    dual potentials certify it optimal for ``C~``, and HiGHS runs only
    when they do not.  It changes which optimal plan may be returned, and
    the value only by rounding.  :func:`compress_gmm` passes its cluster
    map, which moment matching makes feasible.
    """
    pm = as_mixture(p)
    qm = as_mixture(q)
    if pm.dim != qm.dim:
        raise ParseError("mixtures must share the ambient dimension")
    costs = GaussianW2Costs(pm.components, qm.components)
    costs.tighten()
    first = np.zeros_like(costs.exact)
    first[np.arange(pm.size), np.argmin(costs.values, axis=1)] = True
    first[np.argmin(costs.values, axis=0), np.arange(qm.size)] = True
    costs.price(first)
    plan = solve_discrete_ot(costs.values, pm.weights, qm.weights,
                             assignment=assignment)
    while not np.all(costs.exact[plan.plan > 0.0]):
        costs.price(plan.plan > 0.0)
        plan = solve_discrete_ot(costs.values, pm.weights, qm.weights,
                                 assignment=assignment)
    return math.sqrt(max(plan.cost, 0.0)), plan


def _subtract_minima(cost):
    """Subtract the row minima and then the column minima, in place.

    Afterwards every entry is nonnegative and every row and every column
    holds a zero (each row's zero lies in a column whose minimum is 0).
    """
    cost -= cost.min(axis=1)[:, None]
    cost -= cost.min(axis=0)


def _sinkhorn_potentials(cost):
    """Row and column potentials ``(f, g)`` from a few Sinkhorn sweeps.

    ``cost`` must be nonnegative with a zero in every row and column.  With
    ``eps = _SINKHORN_EPS_SHARE * mean(cost)`` and ``K = exp(-cost / eps)``
    (built in place in one buffer, freed on return), each sweep sets
    ``u = 1 / (K v)`` and then ``v = 1 / (K^T u)`` from ``v = 1``; the
    potentials are ``f = eps log u`` and ``g = eps log v``.  Returns None
    when ``eps`` is not a positive float whose reciprocal is finite (all
    costs zero, or too small or too large to scale), or when a potential
    is not finite.  Every row and column of ``K`` holds a 1 and no entry
    exceeds 1, so a sweep widens the range of ``v`` by at most a factor
    ``n`` at either end: after ten sweeps ``u`` and ``v`` lie within
    ``n^(+-11)``, far inside the float range.
    """
    with np.errstate(over="ignore"):
        eps = _SINKHORN_EPS_SHARE * float(cost.mean())
    if not (0.0 < eps < math.inf and math.isfinite(1.0 / eps)):
        return None
    kernel = np.multiply(cost, -1.0 / eps)
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
    reduced by the minima alone is solved.  The Sinkhorn kernel is one
    extra ``(n, n)`` buffer, freed before the solve.  The value is
    recomputed from direct differences on the returned permutation.

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
    with advice to subsample.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[0] < 1 or ys.shape[0] < 1:
        raise ParseError("sample sets must be nonempty (n, d) arrays")
    if xs.shape[1] != ys.shape[1]:
        raise ParseError("sample sets must share the ambient dimension")
    n, m = xs.shape[0], ys.shape[0]
    sorted_matching = n == m and xs.shape[1] == 1
    if n * m > TOL.empirical_cost_cap and not sorted_matching:
        raise ParseError(
            f"cost matrix would hold {n * m} entries, above the cap "
            f"{TOL.empirical_cost_cap}; subsample the inputs")
    if n == m:
        # uniform equal marginals: the optimum is a permutation
        if sorted_matching:
            rows = np.arange(n)
            cols = np.empty(n, dtype=np.intp)
            cols[np.argsort(xs[:, 0], kind="stable")] = np.argsort(
                ys[:, 0], kind="stable")
        else:
            cost = _pairwise_sq_dists(xs, ys)
            _subtract_minima(cost)
            potentials = _sinkhorn_potentials(cost)
            if potentials is not None:
                cost -= potentials[0][:, None]
                cost -= potentials[1]
                _subtract_minima(cost)
            rows, cols = linear_sum_assignment(cost)
        sq = np.sum(np.square(xs[rows] - ys[cols]), axis=1)
        return math.sqrt(float(sq.mean()))
    plan = solve_discrete_ot(_pairwise_sq_dists(xs, ys), np.full(n, 1.0 / n),
                             np.full(m, 1.0 / m))
    # re-evaluate the objective with direct differences on the plan support,
    # which is exact where the expanded cost form carries rounding noise
    ii, jj = np.nonzero(plan.plan)
    sq = np.sum(np.square(xs[ii] - ys[jj]), axis=1)
    return math.sqrt(float(np.dot(plan.plan[ii, jj], sq)))


def relative_w2(w2_value: float, reference) -> float:
    """W2 divided by the root second moment of the reference distribution."""
    if not w2_value >= 0.0:
        raise ParseError("w2_value must be nonnegative")
    second = mixture_second_moment(reference)
    if second <= 0.0:
        raise ParseError("reference distribution has zero second moment")
    return float(w2_value / math.sqrt(second))
