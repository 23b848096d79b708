"""Tests for exact discrete optimal transport, MW2, and empirical W2."""

import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassnet import (Gaussian, GaussianMixture, compress_gmm, snn, stats,
                     transport)
from wassnet.config import TOL
from wassnet.errors import ParseError
from wassnet.priortune import gp_realize, parse_gp_spec
from wassnet.stats import gaussian_w2_sq_matrix
from wassnet.transport import (
    TransportPlan,
    empirical_w2,
    mw2,
    relative_w2,
    solve_discrete_ot,
)

from oracles import (_transport_constraints, assignment_oracle, discrete_w2,
                     empirical_w2_assignment_oracle, gaussian_w2_pair_oracle,
                     lp_transport_oracle, mw2_full_oracle,
                     pairwise_sq_dists_oracle, sample_stratified,
                     stratified_w2_batches, transport_lp_linprog_oracle,
                     vertex_enumeration_oracle)


def _random_instance(rng, max_side=8, max_cells=None):
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    if max_cells is not None:
        while m * n > max_cells:
            m = int(rng.integers(1, max_side + 1))
            n = int(rng.integers(1, max_side + 1))
    cost = rng.random((m, n)) * float(rng.choice([0.1, 1.0, 50.0]))
    a = rng.random(m) + 1e-3
    b = rng.random(n) + 1e-3
    a /= a.sum()
    b /= b.sum()
    return cost, a, b


def _network_gp_pairs(rng):
    """Four 1000-sample pairs of a zero-mean network and its GP target,
    the shapes tune-prior's final evaluation solves (6 to 10 points)."""
    def zero_mean(n_in, n_out, var):
        return snn.StochasticLinear(
            np.zeros((n_out, n_in)), np.full((n_out, n_in), var),
            np.zeros(n_out), np.full(n_out, var), ntk_scaling=True)

    templates = (
        lambda v: snn.SnnModel(1, (zero_mean(1, 8, v),
                                   snn.Activation("tanh"),
                                   zero_mean(8, 1, v))),
        lambda v: snn.SnnModel(1, (zero_mean(1, 16, v),
                                   snn.Activation("relu"),
                                   zero_mean(16, 16, v),
                                   snn.Activation("relu"),
                                   zero_mean(16, 1, v))))
    pairs = []
    for k, n_points in enumerate((6, 10, 8, 7)):
        model = templates[k % 2](float(rng.uniform(0.3, 3.0)))
        points = rng.uniform(-1.0, 1.0, size=(n_points, 1))
        gp = gp_realize(parse_gp_spec("rbf:ls=0.5,var=1.0", points))
        pairs.append((snn.sample_network(model, points, 1000, k),
                      gp.sample(1000, rng)))
    return pairs


_DEGENERATE_CASES = ("identical", "duplicates", "two", "tiny", "huge",
                     "outlier")


def _degenerate_pair(case):
    """A 200-point (or 2-point) 3-D pair that strains the Sinkhorn sweeps."""
    rng = np.random.default_rng(17)
    xs = rng.normal(size=(200, 3))
    ys = rng.normal(size=(200, 3)) + 0.5
    if case == "identical":
        # every reduced cost is zero: eps = 0 skips the shift
        xs = np.tile(rng.normal(size=3), (200, 1))
        ys = np.tile(rng.normal(size=3), (200, 1))
    elif case == "duplicates":
        xs = np.repeat(xs[:50], 4, axis=0)
        ys = np.concatenate([xs[rng.permutation(200)[:100]], ys[:100]])
    elif case == "two":
        xs, ys = xs[:2], ys[:2]
    elif case == "tiny":
        xs, ys = 1e-150 * xs, 1e-150 * ys
    elif case == "huge":
        xs, ys = 1e150 * xs, 1e150 * ys
    else:
        # the outlier's row of the kernel is 0 but for its zero cost
        xs[0] = 1e4
    return xs, ys


class TestTransportPlan:
    def test_marginals_and_cost_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cost, a, b = _random_instance(rng)
            plan = solve_discrete_ot(cost, a, b)
            np.testing.assert_allclose(plan.plan.sum(axis=1), a, atol=1e-9,
                                       rtol=0.0)
            np.testing.assert_allclose(plan.plan.sum(axis=0), b, atol=1e-9,
                                       rtol=0.0)
            inner = float(np.sum(plan.plan * cost))
            assert abs(plan.cost - inner) <= 1e-9 * (1.0 + abs(inner))

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ParseError):
            TransportPlan(np.ones(3), 1.0)
        with pytest.raises(ParseError):
            TransportPlan(np.array([[0.5, -0.5], [0.0, 1.0]]), 1.0)
        with pytest.raises(ParseError):
            TransportPlan(np.full((2, 2), np.nan), 1.0)
        with pytest.raises(ParseError):
            TransportPlan(np.ones((2, 2)) / 4, -1.0)

    def test_plan_is_readonly(self):
        plan = solve_discrete_ot(np.array([[3.0]]), [1.0], [1.0])
        with pytest.raises(ValueError):
            plan.plan[0, 0] = 0.0


_TRANSPORT_LP = transport._transport_lp


def _count_lp_calls(monkeypatch):
    """Route ``_transport_lp`` through a counter; returns the call list."""
    calls = []

    def counting(cost, a, b):
        calls.append(cost.shape)
        return _TRANSPORT_LP(cost, a, b)

    monkeypatch.setattr(transport, "_transport_lp", counting)
    return calls


_SOLVE_DISCRETE_OT = transport.solve_discrete_ot


def _count_solves(monkeypatch):
    """Route ``solve_discrete_ot`` through a counter; returns the list of
    the cost shapes it was called with."""
    calls = []

    def counting(cost, *args, **kwargs):
        calls.append(np.shape(cost))
        return _SOLVE_DISCRETE_OT(cost, *args, **kwargs)

    monkeypatch.setattr(transport, "solve_discrete_ot", counting)
    return calls


def _cluster_instance(rng):
    """Rows grouped into clusters and one column per cluster holding the
    cluster's mass, as a compression couples a mixture to its result."""
    m, n = int(rng.integers(4, 65)), int(rng.integers(2, 6))
    m = max(m, n)  # every cluster holds a row
    labels = np.concatenate([np.arange(n), rng.integers(0, n, size=m - n)])
    a = rng.dirichlet(np.ones(m))
    b = np.bincount(labels, weights=a, minlength=n)
    pts = rng.normal(size=(m, 2))
    centres = np.stack([a[labels == k] @ pts[labels == k] / b[k]
                        for k in range(n)])
    cost = np.sum((pts[:, None] - centres[None]) ** 2, axis=-1)
    return cost + rng.random((m, n)) * 0.01, a, b


def _positive_subproblem(cost, a, b):
    """The LP that solve_discrete_ot poses: zero-mass atoms removed, the
    column mass balanced on its largest atom."""
    rows, cols = np.flatnonzero(a > 0.0), np.flatnonzero(b > 0.0)
    sub_a, sub_b = a[rows], b[cols].copy()
    sub_b[int(np.argmax(sub_b))] += float(sub_a.sum() - sub_b.sum())
    return cost[np.ix_(rows, cols)], sub_a, sub_b


class TestSolveDiscreteOt:
    def test_single_atom_pair(self):
        plan = solve_discrete_ot(np.array([[3.0]]), [1.0], [1.0])
        np.testing.assert_array_equal(plan.plan, [[1.0]])
        assert plan.cost == pytest.approx(3.0, abs=0.0)

    def test_permutation_cost_zero(self):
        cost = 1.0 - np.eye(3)
        plan = solve_discrete_ot(cost, np.full(3, 1 / 3), np.full(3, 1 / 3))
        assert plan.cost == 0.0
        np.testing.assert_allclose(plan.plan, np.eye(3) / 3, atol=1e-15)

    def test_matches_lp_oracle_on_200_instances(self):
        # exactness sweep against the LP oracle on small problems, and
        # against solver-free oracles wherever one applies
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            cost, a, b = _random_instance(rng, max_side=7, max_cells=30)
            got = solve_discrete_ot(cost, a, b)
            worst = max(worst, abs(got.cost - lp_transport_oracle(cost, a, b)))
            if max(cost.shape) <= 3:
                worst = max(worst, abs(
                    got.cost - vertex_enumeration_oracle(cost, a, b)))
        assert worst <= 1e-9

    def test_matches_vertex_enumeration_on_200_tiny_instances(self):
        # every shape up to 3 x 3, including the closed-form single row
        # and single column
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(200):
            cost, a, b = _random_instance(rng, max_side=3)
            got = solve_discrete_ot(cost, a, b)
            worst = max(worst, abs(
                got.cost - vertex_enumeration_oracle(cost, a, b)))
        assert worst <= 1e-9

    def test_uniform_square_matches_assignment(self):
        rng = np.random.default_rng(19)
        for n in range(1, 13):
            cost = rng.random((n, n)) * float(rng.choice([0.1, 1.0, 50.0]))
            uniform = np.full(n, 1.0 / n)
            got = solve_discrete_ot(cost, uniform, uniform)
            assert abs(got.cost - assignment_oracle(cost)) <= 1e-9

    def test_single_row_or_column_is_the_product_plan(self):
        # the only feasible plan with one row (or column) is outer(a, b)
        rng = np.random.default_rng(31)
        b = rng.dirichlet(np.ones(5))
        cost = rng.random((1, 5))
        plan = solve_discrete_ot(cost, [1.0], b)
        np.testing.assert_allclose(plan.plan, b[None, :], atol=1e-15)
        assert plan.cost == pytest.approx(float(cost[0] @ b), rel=1e-15)
        col = solve_discrete_ot(cost.T, b, [1.0])
        np.testing.assert_allclose(col.plan, b[:, None], atol=1e-15)

    def test_matches_lp_oracle_on_rectangular_instance(self):
        rng = np.random.default_rng(5)
        m, n = 60, 35
        cost = rng.random((m, n))
        a = rng.random(m)
        a /= a.sum()
        b = rng.random(n)
        b /= b.sum()
        got = solve_discrete_ot(cost, a, b)
        ref = lp_transport_oracle(cost, a, b)
        assert abs(got.cost - ref) <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        cost, a, b = _random_instance(rng)
        first = solve_discrete_ot(cost, a, b)
        second = solve_discrete_ot(cost.copy(), a.copy(), b.copy())
        np.testing.assert_array_equal(first.plan, second.plan)
        assert first.cost == second.cost

    def test_zero_mass_atoms_removed_and_reinserted(self):
        rng = np.random.default_rng(29)
        cost = rng.random((4, 3))
        a = np.array([0.5, 0.0, 0.25, 0.25])
        b = np.array([0.2, 0.0, 0.8])
        plan = solve_discrete_ot(cost, a, b)
        assert np.all(plan.plan[1, :] == 0.0)
        assert np.all(plan.plan[:, 1] == 0.0)
        ref = lp_transport_oracle(cost, a, b)
        assert abs(plan.cost - ref) <= 1e-9

    def test_mismatched_marginal_mass_rejected(self):
        cost = np.ones((2, 2))
        with pytest.raises(ParseError):
            solve_discrete_ot(cost, [0.5, 0.5], [0.5, 0.6])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ParseError):
            solve_discrete_ot(np.ones((2, 3)), [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ParseError):
            solve_discrete_ot(np.full((2, 2), -1.0), [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ParseError):
            solve_discrete_ot(np.ones((2, 2)), [1.5, -0.5], [0.5, 0.5])
        with pytest.raises(ParseError):
            solve_discrete_ot(np.ones((2, 2)), [0.0, 0.0], [0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_property_vertex_optimality(self, seed):
        rng = np.random.default_rng(seed)
        cost, a, b = _random_instance(rng, max_side=6)
        plan = solve_discrete_ot(cost, a, b)
        ref = lp_transport_oracle(cost, a, b)
        assert abs(plan.cost - ref) <= 1e-9
        # vertex plans have at most M + N - 1 strictly positive entries
        assert int(np.count_nonzero(plan.plan > 1e-13)) <= a.size + b.size - 1

    def test_constraint_matrix_matches_oracle(self):
        for m, n in ((2, 2), (2, 7), (8, 5), (5, 8), (64, 5), (40, 39)):
            got = transport._constraint_matrix(m, n)
            assert got.format == "csc"
            np.testing.assert_array_equal(
                got.toarray(), _transport_constraints(m, n)[:-1].toarray())

    def test_matches_parent_linprog_path(self, monkeypatch):
        # the milp solve must return the very plan linprog(highs-ds) did,
        # also on degenerate vertices such as a compression's cluster plans
        rng = np.random.default_rng(101)
        instances = []
        for shape in [(64, 5), (5, 64), (20, 20)] * 10 + [None] * 70:
            m, n = shape or rng.integers(2, 13, size=2)
            a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            instances.append((rng.random((m, n)) * 10.0, a, b))
        for _ in range(80):
            instances.append(_cluster_instance(rng))
        for _ in range(60):
            # tied costs and zero-mass atoms
            m, n = rng.integers(2, 10, size=2)
            a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            a[rng.random(m) < 0.3] = 0.0
            b[rng.random(n) < 0.3] = 0.0
            a[0] += 1.0 - a.sum()
            b[-1] += 1.0 - b.sum()
            cost = rng.integers(0, 3, size=(m, n)).astype(float)
            instances.append((cost, a, b))
        assert len(instances) >= 200
        # every instance with two or more positive rows and two or more
        # positive columns is posed to the LP, as the positive-mass
        # subproblem; the rest take the closed-form product plan
        posed = []

        def recording(*args):
            posed.append((args, _TRANSPORT_LP(*args)))
            return posed[-1][1]

        monkeypatch.setattr(transport, "_transport_lp", recording)
        solved = 0
        for inst in instances:
            sub = _positive_subproblem(*inst)
            posed.clear()
            solve_discrete_ot(*inst)
            if min(sub[0].shape) < 2:
                assert posed == []
                continue
            [(args, plan)] = posed
            for got, want in zip(args, sub):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(plan,
                                          transport_lp_linprog_oracle(*sub))
            solved += 1
        assert solved >= 200

    def test_infeasible_nearest_column_plan_runs_the_lp(self, monkeypatch):
        lp_calls = _count_lp_calls(monkeypatch)
        rng = np.random.default_rng(107)
        for k in range(100):
            m, n = (int(v) for v in rng.integers(2, 9, size=2))
            a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            cost = rng.random((m, n)) + 0.1
            # every row's cheapest column is column 0, which cannot take
            # all the mass, so the optimum lies above sum_i a_i min_j c_ij
            cost[:, 0] = 0.0
            got = solve_discrete_ot(cost, a, b)
            assert len(lp_calls) == k + 1
            assert got.cost > float(a @ cost.min(axis=1))
            assert abs(got.cost - lp_transport_oracle(cost, a, b)) <= 1e-9
            np.testing.assert_allclose(got.plan.sum(axis=0), b, rtol=0.0,
                                       atol=1e-9)

    def test_nearest_plan_needs_exact_feasibility(self, monkeypatch):
        # the third atom's cheapest column is already full; it is lighter
        # than the marginal tolerance, and the LP still charges it the far
        # column
        lp_calls = _count_lp_calls(monkeypatch)
        cost = np.array([[0.0, 1e6], [1e6, 0.0], [0.0, 1e6]])
        a = np.array([0.5, 0.5 - 5e-10, 5e-10])
        b = np.array([0.5, 0.5])
        got = solve_discrete_ot(cost, a, b)
        assert lp_calls == [(3, 2)]
        highs = _TRANSPORT_LP(cost, a, b)
        np.testing.assert_array_equal(got.plan, highs)
        assert got.cost == float(np.sum(highs * cost))
        assert math.isclose(got.cost, 5e-4, rel_tol=1e-6)

class TestMw2:
    def test_identical_mixture_is_exactly_zero(self):
        g = GaussianMixture(
            weights=np.array([0.3, 0.7]),
            components=(
                Gaussian(np.zeros(2), np.ones(2)),
                Gaussian(np.full(2, 5.0), np.full(2, 2.0)),
            ),
        )
        dist, plan = mw2(g, g)
        assert dist == 0.0
        np.testing.assert_allclose(plan.plan, np.diag(g.weights), atol=1e-12)

    def test_single_gaussians_reduce_to_closed_form(self):
        a = Gaussian(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        b = Gaussian(np.array([3.0, 4.0]), np.array([1.0, 1.0]))
        dist, plan = mw2(a, b)
        assert dist == pytest.approx(5.0, abs=1e-12)
        np.testing.assert_array_equal(plan.plan, [[1.0]])

    def test_two_component_vertex_oracle(self):
        # 2x2 transportation polytope: the optimum sits at one of the two
        # vertices t=0 or t=1/2 of plan = [[t, 1/2-t], [1/2-t, t]]
        p = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            components=(Gaussian(np.zeros(1), np.ones(1)),
                        Gaussian(np.array([10.0]), np.ones(1))),
        )
        q = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            components=(Gaussian(np.zeros(1), np.ones(1)),
                        Gaussian(np.array([-10.0]), np.ones(1))),
        )
        cost = np.array([[0.0, 100.0], [100.0, 400.0]])
        vertices = [
            0.0 * cost[0, 0] + 0.5 * cost[0, 1] + 0.5 * cost[1, 0],
            0.5 * cost[0, 0] + 0.5 * cost[1, 1],
        ]
        expected = math.sqrt(min(vertices))
        dist, _ = mw2(p, q)
        assert dist == pytest.approx(expected, abs=1e-12)

    def test_upper_bounds_empirical_w2(self):
        # the mixture-level coupling can only cost more than the true W2
        rng = np.random.default_rng(41)
        for _ in range(5):
            k_p, k_q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            dim = int(rng.integers(1, 3))

            def _mix(k):
                w = rng.random(k) + 0.2
                comps = tuple(
                    Gaussian(rng.normal(scale=3.0, size=dim),
                             rng.random(dim) + 0.3)
                    for _ in range(k))
                return GaussianMixture(weights=w / w.sum(), components=comps)

            p, q = _mix(k_p), _mix(k_q)
            bound, _ = mw2(p, q)
            est, se = stratified_w2_batches(p, q, 500, 4, rng)
            assert bound >= est - 3.0 * se

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParseError):
            mw2(Gaussian(np.zeros(1), np.ones(1)),
                Gaussian(np.zeros(2), np.ones(2)))

    @staticmethod
    def _component(rng, dim, kind):
        mean = rng.normal(scale=2.0, size=dim)
        if kind == "diag":
            return Gaussian(mean, rng.uniform(0.05, 2.0, size=dim))
        if kind == "atom":
            return Gaussian(mean, np.zeros(dim))
        rank = dim if kind == "full" else int(rng.integers(0, dim))
        f = rng.normal(size=(dim, rank))
        return Gaussian(mean, f @ f.T)

    def test_matches_full_pricing_oracle(self):
        rng = np.random.default_rng(53)
        kinds = ("full", "diag", "rank_deficient", "atom")
        sizes = [(1, 1), (1, 6), (12, 1)] + [
            (int(n), int(m)) for n, m in zip(rng.integers(1, 13, size=60),
                                             rng.integers(1, 7, size=60))]
        for n, m in sizes:
            dim = int(rng.integers(1, 5))
            ps, qs = ([self._component(rng, dim, kinds[int(k)])
                       for k in rng.integers(0, len(kinds), size=size)]
                      for size in (n, m))
            # duplicated components, within a mixture and across the two
            if n > 1:
                ps[-1] = ps[0]
            if m > 1:
                qs[-1] = ps[int(rng.integers(n))]
            p, q = (GaussianMixture(w / w.sum(), comps) for w, comps in
                    ((rng.random(n) + 0.1, ps), (rng.random(m) + 0.1, qs)))
            value, plan = mw2(p, q)
            expected, tol = mw2_full_oracle(p, q)
            assert abs(value ** 2 - expected) <= tol
            assert plan.plan.shape == (n, m)
            np.testing.assert_allclose(plan.plan.sum(axis=1), p.weights,
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(plan.plan.sum(axis=0), q.weights,
                                       rtol=0.0, atol=1e-12)
            assert mw2(p, p)[0] == 0.0

    @staticmethod
    def _well_conditioned(rng, dim):
        """A mixture of 2-8 components whose covariances have eigenvalues
        in [10^-1.5, 10^1.5], so condition number at most 1e3."""
        n = int(rng.integers(2, 9))
        u = np.linalg.qr(rng.normal(size=(n, dim, dim)))[0]
        lam = 10.0 ** rng.uniform(-1.5, 1.5, size=(n, 1, dim))
        w = rng.random(n) + 0.1
        return GaussianMixture(w / w.sum(), tuple(
            Gaussian(rng.normal(scale=2.0, size=dim), c)
            for c in (u * lam) @ u.swapaxes(1, 2)))

    def test_matches_full_pricing_oracle_tightly_when_well_conditioned(self):
        # the two ways of pricing agree far inside the oracle's general
        # tolerance, so a pricing error of 1e-6 relative fails here
        for seed in range(60):
            rng = np.random.default_rng((59, seed))
            dim = int(rng.integers(1, 5))
            p, q = (self._well_conditioned(rng, dim) for _ in range(2))
            value, _ = mw2(p, q)
            expected, _ = mw2_full_oracle(p, q)
            assert abs(value ** 2 - expected) <= 1e-10 * expected

    def test_identical_pair_is_zero_whatever_the_storage(self):
        # equal means and covariances, stored once as a variance vector and
        # once as a full matrix: an eigh of S^1/2 S S^1/2 gave 2.1e-8
        rng = np.random.default_rng(0)
        v = rng.random(2) + 0.1
        mean = rng.normal(size=2)
        a, b = Gaussian(mean, v), Gaussian(mean, np.diag(v))
        assert mw2(a, b)[0] == 0.0
        assert mw2(b, a)[0] == 0.0
        assert np.all(gaussian_w2_sq_matrix((a, b), (b, a)) == 0.0)

    @staticmethod
    def _five_clusters():
        """40 full components in 5 separated clusters."""
        rng = np.random.default_rng(61)
        centers = rng.normal(scale=50.0, size=(5, 3))
        comps = []
        for k in range(40):
            f = rng.normal(size=(3, 3))
            comps.append(Gaussian(centers[k % 5] + rng.normal(size=3),
                                  f @ f.T + 0.1 * np.eye(3)))
        w = rng.random(40) + 0.1
        return GaussianMixture(w / w.sum(), tuple(comps))

    @staticmethod
    def _record_priced(monkeypatch):
        """Route ``stats._products`` through a recorder; returns the list
        of the ``(row, column)`` arcs whose products it builds."""
        priced = []
        real = stats._products

        def recording(ps, roots, rows, cols):
            priced.extend(zip(rows.tolist(), cols.tolist()))
            return real(ps, roots, rows, cols)

        monkeypatch.setattr(stats, "_products", recording)
        return priced

    @staticmethod
    def _merged_arcs(assignment):
        """The arcs ``(i, s(i))`` of the rows in clusters of two or more."""
        sizes = np.bincount(assignment)
        return {(i, int(j)) for i, j in enumerate(assignment)
                if sizes[j] > 1}

    @staticmethod
    def _overlapping(seed):
        """12 overlapping 2-D Gaussians, full covariances."""
        rng = np.random.default_rng(seed)
        comps = []
        for _ in range(12):
            f = rng.normal(size=(2, 2)) * rng.uniform(0.1, 2.0)
            comps.append(Gaussian(rng.normal(size=2), f @ f.T))
        w = rng.random(12) + 0.1
        return GaussianMixture(w / w.sum(), tuple(comps))

    def test_prices_only_what_the_plan_needs(self, monkeypatch):
        # the bound needs one arc per row, its cluster's, and none for a
        # singleton cluster, whose arc is an identical pair
        mixtures = [self._five_clusters()] + [
            self._pushed(seed, int(12 + 8 * seed))() for seed in range(6)]
        singletons = 0
        for g in mixtures:
            priced = self._record_priced(monkeypatch)
            result = compress_gmm(g, 5, seed=0)
            monkeypatch.undo()
            arcs = self._merged_arcs(result.cluster_assignment)
            assert len(priced) == len(arcs)
            assert set(priced) == arcs
            singletons += g.size - len(arcs)
        assert singletons > 0

    def test_nearest_plan_skips_the_solver(self, monkeypatch):
        # compression prices its own cluster map, separated or
        # overlapping, and never solves a transport problem
        solves = _count_solves(monkeypatch)
        lp_calls = _count_lp_calls(monkeypatch)
        priced = self._record_priced(monkeypatch)
        for g in [self._five_clusters()] + [self._overlapping(seed)
                                            for seed in range(12)]:
            priced.clear()
            result = compress_gmm(g, 5 if g.size == 40 else 3, seed=0)
            assert set(priced) == self._merged_arcs(result.cluster_assignment)
            assert len(priced) == len(set(priced))
        assert solves == [] and lp_calls == []

    def test_compress_gmm_certifies_its_own_plan(self):
        # the bound is the cost of the cluster map, arc by arc, which is
        # at least the optimal MW2; on overlapping components the map is
        # not always an optimal plan, and there it is looser
        looser = 0
        for seed in range(12):
            g = self._overlapping(seed)
            result = compress_gmm(g, 3, seed=0)
            q = result.compressed.components
            arcs = sum(float(w) * gaussian_w2_pair_oracle(q[j], p)
                       for w, p, j in zip(g.weights, g.components,
                                          result.cluster_assignment))
            assert math.isclose(result.w2_bound, math.sqrt(arcs),
                                rel_tol=1e-12)
            expected, tol = mw2_full_oracle(g, result.compressed)
            assert result.w2_bound ** 2 >= expected - tol
            looser += result.w2_bound ** 2 > expected + tol
        assert looser >= 1

    def test_propagate_never_solves_a_transport_problem(self, monkeypatch,
                                                        table):
        # a 2-hidden-layer tanh net whose second layer compresses a
        # mixture of more than M components
        solves = _count_solves(monkeypatch)
        compressed = []
        real_compress = snn.compress_gmm
        monkeypatch.setattr(snn, "compress_gmm",
                            lambda g, m, seed: compressed.append(g.size)
                            or real_compress(g, m, seed))
        rng = np.random.default_rng(97)
        layers = []
        for n_in, n_out in ((1, 8), (8, 8), (8, 1)):
            layers.append(snn.StochasticLinear(
                rng.normal(size=(n_out, n_in)), np.full((n_out, n_in), 0.05),
                np.zeros(n_out), np.full(n_out, 0.05), ntk_scaling=True))
            if n_out > 1:
                layers.append(snn.Activation("tanh"))
        model = snn.SnnModel(1, tuple(layers))
        cfg = snn.PropagationConfig(table=table, signature_budget=10,
                                    compression_size=3, seed=0)
        _, ledger = snn.propagate(model, np.array([[-0.5], [0.5]]), cfg)
        assert any(size > 3 for size in compressed)
        assert ledger.final_bound > 0.0
        assert solves == []

    @staticmethod
    def _pushed(seed, n):
        """``n`` Gaussians pushed through one stochastic layer of 8
        neurons at 3 points, as a mixture: their covariances share one
        block pattern.  Fresh Gaussians on every call, none decomposed."""
        rng = np.random.default_rng(seed)
        layer = snn.StochasticLinear(rng.normal(size=(8, 2)),
                                     np.full((8, 2), 0.05), np.zeros(8),
                                     np.full(8, 0.05))
        locs = rng.normal(size=(n, 3 * 2))
        w = rng.random(n) + 0.1
        return lambda: GaussianMixture(w / w.sum(), stats._gaussians(
            *snn._push_atoms(locs, layer, 3)))

    def test_splits_each_component_pattern_once(self, monkeypatch):
        # mw2 prices against the compressed columns, merged clusters with
        # dense roots, so every product is dense and the pushed rows'
        # shared pattern is never looked up.  The signature step
        # decomposes the rows; their pattern is looked up on each call and
        # split once (one cache miss), also across calls
        pushed = self._pushed(67, 40)
        res = compress_gmm(pushed(), 5, seed=0)
        assert np.all(np.bincount(res.cluster_assignment) > 1)
        g = pushed()
        compressed = GaussianMixture(res.compressed.weights, tuple(
            Gaussian(c.mean, c.cov) for c in res.compressed.components))
        looked_up = Counter()
        real = stats._pattern_blocks

        def counting(n, packed):
            looked_up[packed] += 1
            return real(n, packed)

        monkeypatch.setattr(stats, "_pattern_blocks", counting)
        real.cache_clear()
        value, _ = mw2(g, compressed)
        row_pattern = np.packbits(g.components[0].cov != 0.0).tobytes()
        dense = np.packbits(np.ones((24, 24), dtype=bool)).tobytes()
        assert set(looked_up) == {dense}
        assert real.cache_info().misses == 1
        for _ in range(2):
            stats._eigen_bases(pushed().components)
        assert looked_up[row_pattern] == 2
        assert real.cache_info().misses == 2
        monkeypatch.undo()
        # the same bits as all-pairs pricing and one solve, unwrapped
        plan = solve_discrete_ot(gaussian_w2_sq_matrix(
            g.components, compressed.components), g.weights,
            compressed.weights)
        assert value == math.sqrt(max(plan.cost, 0.0))
        expected, tol = mw2_full_oracle(g, compressed)
        assert abs(value ** 2 - expected) <= tol

    def test_compress_gmm_decomposes_no_pushed_component(self, monkeypatch):
        # only the compressed columns with an arc to price are decomposed,
        # in one stacked call per mw2; a singleton cluster is a pushed
        # component and a column at once
        seen_singleton = False
        for seed in range(6):
            g = self._pushed(seed, int(12 + 8 * seed))()
            stacks = []
            real = stats._eigen_stack
            monkeypatch.setattr(stats, "_eigen_stack",
                                lambda mats: stacks.append(len(mats))
                                or real(mats))
            res = compress_gmm(g, 5, seed=seed)
            monkeypatch.undo()
            columns = {id(c) for c in res.compressed.components}
            assert not any("_basis" in vars(c) for c in g.components
                           if id(c) not in columns)
            decomposed = sum("_basis" in vars(c)
                             for c in res.compressed.components)
            assert 0 < decomposed <= res.compressed.size
            assert sum(stacks) == decomposed and len(stacks) <= 2
            seen_singleton |= bool(np.any(
                np.bincount(res.cluster_assignment) == 1))
            expected, tol = mw2_full_oracle(g, res.compressed)
            assert abs(res.w2_bound ** 2 - expected) <= tol
        assert seen_singleton

    def test_one_stack_against_a_one_component_target(self, monkeypatch):
        # tune_loss prices a network mixture against its GP target, one
        # Gaussian: every row prices its one arc in the first round, and
        # the whole column goes through one decomposition call
        rng = np.random.default_rng(89)
        layer = snn.StochasticLinear(rng.normal(size=(4, 1)),
                                     np.full((4, 1), 0.05), np.zeros(4),
                                     np.full(4, 0.05))
        locs = rng.normal(size=(12, 3))
        w = rng.random(12) + 0.1
        net = GaussianMixture(w / w.sum(), stats._gaussians(
            *snn._push_atoms(locs, layer, 3)))
        f = rng.normal(size=(12, 12))
        gp = Gaussian(np.zeros(12), f @ f.T)
        calls = []
        real = stats._psd_root_traces
        monkeypatch.setattr(stats, "_psd_root_traces",
                            lambda mats: calls.append(len(mats))
                            or real(mats))
        value, _ = mw2(net, gp)
        assert calls == [net.size]
        # the target is the column: it is rooted, no row is decomposed
        assert "_basis" in vars(gp)
        assert not any("_basis" in vars(c) for c in net.components)
        monkeypatch.undo()
        # the same bits as all-pairs pricing and one solve, unwrapped
        plan = solve_discrete_ot(gaussian_w2_sq_matrix(net.components, (gp,)),
                                 net.weights, [1.0])
        assert value == math.sqrt(max(plan.cost, 0.0))
        expected, tol = mw2_full_oracle(net, gp)
        assert abs(value ** 2 - expected) <= tol


class TestDiscreteW2:
    def test_matching_supports_give_zero(self):
        xs = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
        w = np.array([0.2, 0.5, 0.3])
        assert discrete_w2(xs, w, xs.copy(), w.copy()) == 0.0

    def test_two_point_translation(self):
        xs = np.array([[0.0], [1.0]])
        ys = xs + 5.0
        w = np.array([0.5, 0.5])
        assert discrete_w2(xs, w, ys, w) == pytest.approx(5.0, abs=1e-12)


class TestEmpiricalW2:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(50, 3))
        assert empirical_w2(xs, xs.copy()) == 0.0

    def test_permuted_samples_give_zero(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(64, 2))
        assert empirical_w2(xs, xs[rng.permutation(64)]) == 0.0

    def test_unit_gaussians_two_apart(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(1000, 1))
        ys = rng.normal(size=(1000, 1)) + 2.0
        assert empirical_w2(xs, ys) == pytest.approx(2.0, abs=0.15)

    def test_unequal_counts_match_lp_oracle(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(40, 2))
        ys = rng.normal(size=(25, 2)) + 1.0
        got = empirical_w2(xs, ys)
        cost = np.sum((xs[:, None, :] - ys[None, :, :]) ** 2, axis=-1)
        ref = lp_transport_oracle(cost, np.full(40, 1 / 40),
                                  np.full(25, 1 / 25))
        assert abs(got - math.sqrt(ref)) <= 1e-9

    def test_moment_difference_lower_bound(self):
        # root mean squared norms cannot differ by more than W2
        rng = np.random.default_rng(4)
        for _ in range(10):
            xs = rng.normal(scale=rng.random() + 0.5, size=(80, 2))
            ys = rng.normal(scale=rng.random() + 0.5, size=(60, 2)) \
                + rng.normal(size=2)
            gap = abs(math.sqrt(float(np.mean(np.sum(xs ** 2, axis=1))))
                      - math.sqrt(float(np.mean(np.sum(ys ** 2, axis=1)))))
            assert gap <= empirical_w2(xs, ys) + 1e-9

    def test_equal_counts_match_assignment_oracle(self):
        # the oracle's costs come from direct differences, not from the
        # expanded form |x|^2 + |y|^2 - 2 x.y the library reduces and solves
        rng = np.random.default_rng(11)
        for n in (50, 200, 500):
            for kind in ("shifted", "scaled", "anisotropic", "duplicates",
                         "near-duplicates"):
                d = int(rng.integers(1, 11))
                xs = rng.normal(size=(n, d))
                if kind == "shifted":
                    ys = rng.normal(size=(n, d)) + rng.normal(size=d)
                elif kind == "scaled":
                    ys = rng.uniform(0.2, 5.0) * rng.normal(size=(n, d))
                elif kind == "anisotropic":
                    ys = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
                else:
                    ys = rng.normal(size=(n, d)) + 0.5
                    half = rng.permutation(n)[:n // 2]
                    ys[:n // 2] = xs[half]
                    if kind == "near-duplicates":
                        ys[:n // 2] += 1e-9 * rng.normal(size=(n // 2, d))
                    ys = ys[rng.permutation(n)]
                cost = np.sum((xs[:, None, :] - ys[None, :, :]) ** 2, axis=-1)
                ref = math.sqrt(assignment_oracle(cost))
                assert math.isclose(empirical_w2(xs, ys), ref, rel_tol=1e-12,
                                    abs_tol=0.0), (n, kind, d)

    def test_one_dimension_sorted_matching_matches_assignment_path(self):
        # bit-identical values, on 1-d mixtures with overlapping and with
        # well separated modes
        rng = np.random.default_rng(12)
        for _ in range(60):
            p, q = (GaussianMixture(
                rng.dirichlet(np.ones(k)),
                tuple(Gaussian(rng.normal(scale=3.0, size=1),
                               rng.uniform(0.05, 2.0, size=1))
                      for _ in range(k)))
                for k in rng.integers(1, 5, size=2))
            xs = sample_stratified(p, 1000, rng)
            ys = sample_stratified(q, 1000, rng)
            assert empirical_w2(xs, ys) == \
                empirical_w2_assignment_oracle(xs, ys)

    def test_dual_warm_start_matches_parent_path(self):
        # the Sinkhorn shift leaves the optimal permutation alone: equal
        # values to the bit against the minimum-reduction path, on the
        # shapes tune-prior's final evaluation and criterion 5 solve
        rng = np.random.default_rng(16)
        for k, (xs, ys) in enumerate(_network_gp_pairs(rng)):
            assert empirical_w2(xs, ys) == \
                empirical_w2_assignment_oracle(xs, ys), (k, xs.shape)
        for dim in (2, 3, 2, 3):
            p, q = (GaussianMixture(
                rng.dirichlet(np.ones(k)),
                tuple(Gaussian(rng.normal(scale=2.0, size=dim),
                               a @ a.T + 0.2 * np.eye(dim))
                      for a in rng.normal(size=(k, dim, dim))))
                for k in rng.integers(1, 5, size=2))
            xs = sample_stratified(p, 1000, rng)
            ys = sample_stratified(q, 1000, rng)
            assert empirical_w2(xs, ys) == \
                empirical_w2_assignment_oracle(xs, ys), dim

    @pytest.mark.parametrize("case", _DEGENERATE_CASES)
    def test_dual_warm_start_degenerate_inputs(self, case):
        # RuntimeWarnings are errors under the test settings, so these
        # also check that the Sinkhorn sweeps neither overflow nor divide
        # by zero
        xs, ys = _degenerate_pair(case)
        assert empirical_w2(xs, ys) == empirical_w2_assignment_oracle(xs, ys)

    def test_assignment_solver_gets_reduced_costs(self, monkeypatch):
        # after the shift the solver sees a finite nonnegative matrix with
        # a zero in every row and every column
        seen = []
        solve = transport.linear_sum_assignment

        def recording(cost):
            seen.append(np.array(cost))
            return solve(cost)

        monkeypatch.setattr(transport, "linear_sum_assignment", recording)
        rng = np.random.default_rng(18)
        for d in (2, 6):
            xs = rng.normal(size=(300, d))
            empirical_w2(xs, 2.0 * rng.normal(size=(300, d)) + 1.0)
        empirical_w2(np.ones((20, 3)), np.zeros((20, 3)))
        assert len(seen) == 3
        for cost in seen:
            assert np.all(np.isfinite(cost)) and np.all(cost >= 0.0)
            assert np.all(np.any(cost == 0.0, axis=1))
            assert np.all(np.any(cost == 0.0, axis=0))

    def test_cost_cap_exceeded_rejected(self):
        xs = np.zeros((2001, 2))
        ys = np.zeros((2001, 2))
        with pytest.raises(ParseError, match="subsample"):
            empirical_w2(xs, ys)

    def test_one_dimension_above_the_cost_cap(self, monkeypatch):
        # the sorted matching builds no cost matrix, so the entry cap
        # does not apply to it
        def refuse(*args):
            raise AssertionError("built or solved an assignment problem")

        monkeypatch.setattr(transport, "_pairwise_sq_dists", refuse)
        monkeypatch.setattr(transport, "linear_sum_assignment", refuse)
        rng = np.random.default_rng(14)
        xs = rng.normal(size=(2001, 1))
        ys = rng.normal(loc=1.0, scale=2.0, size=(2001, 1))
        assert xs.size * ys.size > TOL.empirical_cost_cap
        expected = math.sqrt(float(np.mean(
            (np.sort(xs[:, 0]) - np.sort(ys[:, 0])) ** 2)))
        assert math.isclose(empirical_w2(xs, ys), expected, rel_tol=1e-12)

    def test_non_finite_samples_refused_on_every_path(self):
        rng = np.random.default_rng(15)
        # assignment (equal counts, 2-D), sorted matching (equal counts,
        # 1-D) and transportation LP (unequal counts)
        shapes = (((6, 2), (6, 2)), ((6, 1), (6, 1)), ((5, 2), (7, 2)))
        for bad in (np.nan, np.inf, -np.inf):
            for x_shape, y_shape in shapes:
                xs = rng.normal(size=x_shape)
                ys = rng.normal(size=y_shape)
                for side in (xs, ys):
                    clean = side[0, 0]
                    side[0, 0] = bad
                    with pytest.raises(ParseError, match="finite"):
                        empirical_w2(xs, ys)
                    with pytest.raises(ParseError, match="finite"):
                        transport._empirical_w2_batch(
                            [(rng.normal(size=(4, 2)),
                              rng.normal(size=(4, 2))), (xs, ys)])
                    side[0, 0] = clean

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ParseError):
            empirical_w2(np.zeros((0, 1)), np.zeros((3, 1)))
        with pytest.raises(ParseError):
            empirical_w2(np.zeros((3, 1)), np.zeros((3, 2)))
        with pytest.raises(ParseError):
            empirical_w2(np.zeros(3), np.zeros(3))


def _traced_peak(fn, *args):
    """Peak bytes traced by ``tracemalloc`` while ``fn(*args)`` runs, above
    what was traced before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestEmpiricalW2Batch:
    """``transport._empirical_w2_batch``, tune-prior's final evaluation."""

    def test_pairwise_sq_dists_matches_two_array_form(self):
        # bit for bit, with and without a caller's buffer, on row counts
        # below, at and off the row block
        rng = np.random.default_rng(19)
        for n, m, d in ((1, 1, 1), (5, 7, 3), (64, 9, 2), (130, 130, 8),
                        (200, 3, 1)):
            xs = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            ys = rng.normal(size=(m, d)) + 0.5
            expected = pairwise_sq_dists_oracle(xs, ys).view(np.uint64)
            got = transport._pairwise_sq_dists(xs, ys)
            assert np.array_equal(got.view(np.uint64), expected)
            buf = np.full(n * m + 3, np.nan)
            out = buf[:n * m].reshape(n, m)
            assert transport._pairwise_sq_dists(xs, ys, out=out) is out
            assert np.array_equal(out.view(np.uint64), expected)

    def test_matches_sequential_values_in_order(self):
        rng = np.random.default_rng(20)
        pairs = _network_gp_pairs(rng)
        pairs += [_degenerate_pair(case) for case in _DEGENERATE_CASES]
        pairs += [(rng.normal(size=(300, 1)), rng.normal(size=(300, 1))),
                  (rng.normal(size=(40, 3)), rng.normal(size=(30, 3))),
                  (rng.normal(size=(20, 1)), rng.normal(size=(25, 1)))]
        order = rng.permutation(len(pairs))
        pairs = [pairs[k] for k in order]
        expected = [empirical_w2(xs, ys) for xs, ys in pairs]
        for size in (1, 2, 3, 4):
            for start in range(0, len(pairs), size):
                chunk = pairs[start:start + size]
                assert transport._empirical_w2_batch(chunk) == \
                    expected[start:start + size], (size, start)
        assert transport._empirical_w2_batch([]) == []

    def test_many_pairs_under_frequent_thread_switches(self):
        # the workers write disjoint slots of one result list; a lost or
        # misplaced write would show as a None or a value out of order
        rng = np.random.default_rng(24)
        pairs = [(rng.normal(size=(30, 2)), rng.normal(size=(30, 2)))
                 for _ in range(41)]
        expected = [empirical_w2(xs, ys) for xs, ys in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert transport._empirical_w2_batch(pairs) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_surfaces(self, monkeypatch):
        solve = transport.linear_sum_assignment
        calls = []
        lock = threading.Lock()

        def third_fails(cost):
            with lock:
                calls.append(cost.shape)
                if len(calls) == 3:
                    raise RuntimeError("third solve fails")
            return solve(cost)

        monkeypatch.setattr(transport, "linear_sum_assignment", third_fails)
        rng = np.random.default_rng(21)
        pairs = [(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
                 for _ in range(4)]
        outcome = []

        def call():
            try:
                transport._empirical_w2_batch(pairs)
            except RuntimeError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(60.0)
        assert not caller.is_alive(), "the batch hung after a worker error"
        assert [str(exc) for exc in outcome] == ["third solve fails"]
        assert 3 <= len(calls) <= 4
        monkeypatch.setattr(transport, "linear_sum_assignment", solve)
        assert transport._empirical_w2_batch(pairs) == \
            [empirical_w2(xs, ys) for xs, ys in pairs]

    def test_over_cap_pair_refused_before_allocation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("solved a pair of a refused batch")

        monkeypatch.setattr(transport, "_assignment_w2", refuse)
        monkeypatch.setattr(transport, "_matching_or_lp_w2", refuse)
        rng = np.random.default_rng(22)
        n = 1000
        fine = (rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
        over = (np.zeros((2001, 2)), np.zeros((2001, 2)))

        def refused():
            with pytest.raises(ParseError, match="subsample"):
                transport._empirical_w2_batch(
                    [fine, (np.zeros((5, 1)), np.ones((6, 1))), over])

        assert _traced_peak(refused) < 0.1 * n * n * 8

    def test_one_buffer_per_solve(self):
        # one solve holds its (n, n) buffer and row-sized temporaries; the
        # two-array build held about twice that.  A batch holds one buffer
        # per worker.
        rng = np.random.default_rng(23)
        pairs = _network_gp_pairs(rng)
        n = 1000
        assert _traced_peak(empirical_w2, *pairs[0]) < 1.25 * n * n * 8
        assert _traced_peak(transport._empirical_w2_batch, pairs) \
            < 2.25 * n * n * 8


class TestRelativeW2:
    def test_contract_examples(self):
        assert relative_w2(0.0, Gaussian(np.zeros(1), np.ones(1))) == 0.0
        ref = Gaussian(np.zeros(1), np.array([4.0]))
        assert relative_w2(2.0, ref) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_reference(self):
        mix = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            components=(Gaussian(np.zeros(1), np.ones(1)),
                        Gaussian(np.array([3.0]), np.ones(1))),
        )
        # E|z|^2 = 0.5 * (0 + 1) + 0.5 * (9 + 1) = 5.5
        assert relative_w2(1.0, mix) == pytest.approx(1.0 / math.sqrt(5.5),
                                                      abs=1e-12)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ParseError):
            relative_w2(-0.1, Gaussian(np.zeros(1), np.ones(1)))
        with pytest.raises(ParseError):
            relative_w2(1.0, Gaussian(np.zeros(1), np.zeros(1)))
