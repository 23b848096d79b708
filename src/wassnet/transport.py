"""Exact discrete optimal transport, mixture-level W2 bounds, empirical W2.

The transportation LP is solved exactly (vertex solutions, no
regularization) by the HiGHS dual simplex; problems with a single row or
column have only the product plan and skip the solver.  The solver backs
both the MW2 distance between Gaussian mixtures and empirical W2 estimates
between sample clouds.  Equal-size uniform empirical problems take the
assignment-problem fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_array

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


def _transport_lp(cost, a, b):
    """Vertex optimum of the balanced transportation LP by HiGHS dual simplex.

    The last column constraint is implied by the others and is left out.
    """
    m, n = cost.shape
    var = np.arange(m * n)
    a_eq = coo_array((np.ones(2 * m * n),
                      (np.concatenate([var // n, m + var % n]),
                       np.concatenate([var, var]))),
                     shape=(m + n, m * n)).tocsr()[:-1]
    res = linprog(cost.ravel(), A_eq=a_eq,
                  b_eq=np.concatenate([a, b[:-1]]), bounds=(0.0, None),
                  method="highs-ds")
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
    is returned in closed form; any other is solved by the HiGHS dual
    simplex, which ends on a basic (vertex) solution.
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


def mw2(p, q):
    """Mixture-level W2 upper bound: transport over pairwise Gaussian W2^2.

    Returns ``(distance, plan)``.  The cost matrix comes from
    :func:`gaussian_w2_sq_matrix` in one pass: one square root per
    component of ``p`` and one stacked ``eigh`` per row.  The coupling set
    is restricted to mixtures of the given components, so the value always
    upper-bounds the true W2 between the mixtures and vanishes iff the
    component-wise coupling can be made perfect (in particular
    mw2(p, p) = 0).
    """
    pm = as_mixture(p)
    qm = as_mixture(q)
    if pm.dim != qm.dim:
        raise ParseError("mixtures must share the ambient dimension")
    cost = gaussian_w2_sq_matrix(pm.components, qm.components)
    plan = solve_discrete_ot(cost, pm.weights, qm.weights)
    return math.sqrt(max(plan.cost, 0.0)), plan


def empirical_w2(xs, ys) -> float:
    """Exact W2 between the uniform empirical measures of two sample sets.

    Equal sample counts reduce to an assignment problem, solved exactly by
    scipy's shortest augmenting path method.  That method starts from zero
    dual potentials, so the cost matrix first has its row minima and then
    its column minima subtracted in place, the reduction Jonker and
    Volgenant apply before augmenting: a dual warm start.  Every
    permutation's cost moves by the same constant, so the optimal
    permutations do not change, and the value is recomputed from direct
    differences on the returned permutation.  Unequal counts go through
    the transportation LP.  Instances whose cost matrix would exceed the
    configured entry cap are rejected with advice to subsample.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[0] < 1 or ys.shape[0] < 1:
        raise ParseError("sample sets must be nonempty (n, d) arrays")
    if xs.shape[1] != ys.shape[1]:
        raise ParseError("sample sets must share the ambient dimension")
    n, m = xs.shape[0], ys.shape[0]
    if n * m > TOL.empirical_cost_cap:
        raise ParseError(
            f"cost matrix would hold {n * m} entries, above the cap "
            f"{TOL.empirical_cost_cap}; subsample the inputs")
    cost = _pairwise_sq_dists(xs, ys)
    if n == m:
        # uniform equal marginals: the optimum is a permutation
        cost -= cost.min(axis=1)[:, None]
        cost -= cost.min(axis=0)[None, :]
        rows, cols = linear_sum_assignment(cost)
        sq = np.sum(np.square(xs[rows] - ys[cols]), axis=1)
        return math.sqrt(float(sq.mean()))
    plan = solve_discrete_ot(cost, np.full(n, 1.0 / n), np.full(m, 1.0 / m))
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
