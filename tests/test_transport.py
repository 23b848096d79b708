"""Tests for exact discrete optimal transport, MW2, and empirical W2."""

import math
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
                     empirical_w2_assignment_oracle, lp_transport_oracle,
                     mw2_full_oracle, sample_stratified,
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


_CERTIFIES = transport._certifies


def _record_verdicts(monkeypatch):
    """Route ``_certifies`` through a recorder; returns its verdicts."""
    verdicts = []

    def recording(cost, targets):
        verdicts.append(_CERTIFIES(cost, targets))
        return verdicts[-1]

    monkeypatch.setattr(transport, "_certifies", recording)
    return verdicts


def _cluster_instance(rng, spread=0.0):
    """:func:`_labelled_cluster_instance` without the labels."""
    return _labelled_cluster_instance(rng, spread)[:3]


def _labelled_cluster_instance(rng, spread=0.0):
    """Rows grouped into clusters and one column per cluster holding the
    cluster's mass, as compress_gmm couples a mixture to its compression;
    ``spread`` moves the clusters apart along the diagonal.  Returns
    ``(cost, a, b, labels)``, ``labels`` the cluster of each row."""
    m, n = int(rng.integers(4, 65)), int(rng.integers(2, 6))
    m = max(m, n)  # every cluster holds a row
    labels = np.concatenate([np.arange(n), rng.integers(0, n, size=m - n)])
    a = rng.dirichlet(np.ones(m))
    b = np.bincount(labels, weights=a, minlength=n)
    pts = rng.normal(size=(m, 2)) + spread * labels[:, None]
    centres = np.stack([a[labels == k] @ pts[labels == k] / b[k]
                        for k in range(n)])
    cost = np.sum((pts[:, None] - centres[None]) ** 2, axis=-1)
    return cost + rng.random((m, n)) * 0.01, a, b, labels


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
        # also on the degenerate vertices that mw2 and compression pose
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
        # an instance whose nearest-column plan is feasible never reaches
        # the LP, so both LP paths are compared directly on the
        # positive-mass subproblem that solve_discrete_ot would pose; where
        # solve_discrete_ot does reach the LP, it must pose that very one
        posed = []

        def recording(*args):
            posed.append(args)
            return _TRANSPORT_LP(*args)

        monkeypatch.setattr(transport, "_transport_lp", recording)
        solved = checked = 0
        for inst in instances:
            sub = _positive_subproblem(*inst)
            posed.clear()
            solve_discrete_ot(*inst)
            if posed:
                for got, want in zip(posed[0], sub):
                    np.testing.assert_array_equal(got, want)
                checked += 1
            if min(sub[0].shape) < 2:
                continue  # the closed-form product plan, no LP
            np.testing.assert_array_equal(_TRANSPORT_LP(*sub),
                                          transport_lp_linprog_oracle(*sub))
            solved += 1
        assert solved >= 200 and checked >= 100

    def test_nearest_column_plan_skips_the_lp(self, monkeypatch):
        # separated clusters, one column per cluster holding the cluster's
        # mass: each row's cheapest column is its own cluster, so the plan
        # that sends each row there is feasible and optimal
        lp_calls = _count_lp_calls(monkeypatch)
        rng = np.random.default_rng(103)
        for _ in range(200):
            cost, a, b = _cluster_instance(rng, spread=50.0)
            got = solve_discrete_ot(cost, a, b)
            assert lp_calls == []
            assert np.all(np.count_nonzero(got.plan, axis=1) == 1)
            np.testing.assert_array_equal(
                got.plan[np.arange(a.size), np.argmin(cost, axis=1)], a)
            np.testing.assert_allclose(got.plan.sum(axis=0), b, rtol=0.0,
                                       atol=1e-15)
            lower = float(a @ cost.min(axis=1))
            highs = _TRANSPORT_LP(cost, a, b)
            assert math.isclose(got.cost, lower, rel_tol=1e-12)
            assert math.isclose(got.cost, float(np.sum(highs * cost)),
                                rel_tol=1e-12)
            assert abs(got.cost - lp_transport_oracle(cost, a, b)) <= 1e-9

    def test_infeasible_nearest_column_plan_runs_the_lp(self, monkeypatch):
        lp_calls = _count_lp_calls(monkeypatch)
        rng = np.random.default_rng(107)
        for k in range(100):
            m, n = (int(v) for v in rng.integers(2, 9, size=2))
            a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            cost = rng.random((m, n)) + 0.1
            # every row's cheapest column is column 0, which cannot take
            # all the mass
            cost[:, 0] = 0.0
            got = solve_discrete_ot(cost, a, b)
            assert len(lp_calls) == k + 1
            assert abs(got.cost - lp_transport_oracle(cost, a, b)) <= 1e-9
            np.testing.assert_allclose(got.plan.sum(axis=0), b, rtol=0.0,
                                       atol=1e-9)

    def test_nearest_plan_needs_exact_feasibility(self, monkeypatch):
        # the third atom's cheapest column is already full; it is lighter
        # than the marginal tolerance, so only an exact feasibility check
        # sends it to the LP, which charges it the far column
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

    def test_nearest_column_ties_go_to_the_lowest_index(self, monkeypatch):
        lp_calls = _count_lp_calls(monkeypatch)
        rng = np.random.default_rng(109)
        ties = 0
        for _ in range(100):
            m, n = (int(v) for v in rng.integers(2, 9, size=2))
            cost = rng.integers(0, 3, size=(m, n)).astype(float)
            a = rng.dirichlet(np.ones(m))
            lowest = np.array([np.flatnonzero(row == row.min())[0]
                               for row in cost])
            ties += int(np.sum(np.sum(cost == cost.min(axis=1)[:, None],
                                      axis=1) > 1))
            b = np.bincount(lowest, weights=a, minlength=n)
            got = solve_discrete_ot(cost, a, b)
            np.testing.assert_array_equal(got.plan[np.arange(m), lowest], a)
            assert np.all(np.count_nonzero(got.plan, axis=1) == 1)
            assert abs(got.cost - lp_transport_oracle(cost, a, b)) <= 1e-9
        assert lp_calls == []
        assert ties >= 100


class TestAssignmentCertificate:
    """``solve_discrete_ot`` with an ``assignment``: the one-arc-per-row
    plan is returned without the LP only when it is feasible to rounding
    and dual potentials prove it optimal."""

    # every row's cheapest column is column 0, which takes only half the
    # mass; moving row i to column 1 costs i + 1 more, so rows 0 and 1
    # belong there
    COST = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0]])
    A = np.full(4, 0.25)
    B = np.array([0.5, 0.5])

    def test_optimal_assignment_skips_the_lp(self, monkeypatch):
        lp_calls = _count_lp_calls(monkeypatch)
        got = solve_discrete_ot(self.COST, self.A, self.B,
                                assignment=np.array([1, 1, 0, 0]))
        assert lp_calls == []
        np.testing.assert_array_equal(
            got.plan, [[0.0, 0.25], [0.0, 0.25], [0.25, 0.0], [0.25, 0.0]])
        assert got.cost == 0.75

    def test_non_optimal_assignment_is_refused(self, monkeypatch):
        # rows 1 and 2 in column 1 is feasible, but swapping rows 0 and 2
        # saves 0.5: W_01 + W_10 = 1 - 3 < 0
        lp_calls = _count_lp_calls(monkeypatch)
        got = solve_discrete_ot(self.COST, self.A, self.B,
                                assignment=np.array([0, 1, 1, 0]))
        assert lp_calls == [(4, 2)]
        assert got.cost == pytest.approx(0.75, rel=1e-12)
        assert abs(got.cost - lp_transport_oracle(
            self.COST, self.A, self.B)) <= 1e-12

    def test_negative_three_cycle_is_refused(self, monkeypatch):
        # the identity assignment is feasible and every two-column swap
        # costs more (each two-cycle of W has length 1), but moving mass
        # around the cycle 0 -> 1 -> 2 -> 0 saves (its length is -3), so
        # only a test over longer cycles refuses it
        lp_calls = _count_lp_calls(monkeypatch)
        cost = np.array([[5.0, 4.0, 7.0], [7.0, 5.0, 4.0], [4.0, 7.0, 5.0]])
        a = np.array([0.2, 0.3, 0.5])
        assert not transport._certifies(cost, np.arange(3))
        got = solve_discrete_ot(cost, a, a, assignment=np.arange(3))
        assert lp_calls == [(3, 3)]
        assert got.cost < float(a @ np.diagonal(cost))
        assert abs(got.cost - lp_transport_oracle(cost, a, a)) <= 1e-12

    def test_cluster_maps_are_certified_or_solved(self, monkeypatch):
        # overlapping clusters: where the nearest-column plan is
        # infeasible, a cluster map either comes back as its own plan,
        # certified, or goes to the LP; the value is the LP optimum
        # either way
        lp_calls = _count_lp_calls(monkeypatch)
        verdicts = _record_verdicts(monkeypatch)
        rng = np.random.default_rng(113)
        counts = Counter()
        for _ in range(150):
            cost, a, b, labels = _labelled_cluster_instance(rng, spread=3.0)
            lp_calls.clear()
            verdicts.clear()
            got = solve_discrete_ot(cost, a, b, assignment=labels)
            assert abs(got.cost - lp_transport_oracle(cost, a, b)) <= 1e-9
            assert len(lp_calls) == verdicts.count(False)
            if verdicts == [True]:
                np.testing.assert_array_equal(
                    got.plan[np.arange(a.size), labels], a)
                assert np.all(np.count_nonzero(got.plan, axis=1) == 1)
            counts.update(verdicts)
        assert counts[True] >= 20 and counts[False] >= 10

    def test_assignment_off_the_column_marginal_is_refused(self,
                                                          monkeypatch):
        # the optimal map of COST with a little mass moved between the
        # columns: column sums off by 1e-12, far above rounding
        lp_calls = _count_lp_calls(monkeypatch)
        b = self.B + np.array([1e-12, -1e-12])
        got = solve_discrete_ot(self.COST, self.A, b,
                                assignment=np.array([1, 1, 0, 0]))
        assert lp_calls == [(4, 2)]
        np.testing.assert_allclose(got.plan.sum(axis=0), b, rtol=0.0,
                                   atol=1e-15)
        # a map that leaves a column of positive mass empty
        got = solve_discrete_ot(self.COST, self.A, self.B,
                                assignment=np.array([0, 0, 0, 0]))
        assert len(lp_calls) == 2
        assert got.cost == pytest.approx(0.75, rel=1e-12)

    def test_zero_mass_rows_and_columns(self, monkeypatch):
        lp_calls = _count_lp_calls(monkeypatch)
        # a zero-mass row, assigned to a zero-mass column, is dropped
        cost = np.zeros((5, 3))
        cost[:4, :2] = self.COST
        a = np.append(self.A, 0.0)
        b = np.append(self.B, 0.0)
        got = solve_discrete_ot(cost, a, b,
                                assignment=np.array([1, 1, 0, 0, 2]))
        assert lp_calls == []
        assert got.cost == 0.75
        assert np.all(got.plan[4] == 0.0) and np.all(got.plan[:, 2] == 0.0)
        # a row of positive mass assigned to a zero-mass column refuses
        # the map
        got = solve_discrete_ot(cost, a, b,
                                assignment=np.array([1, 1, 0, 2, 2]))
        assert lp_calls == [(4, 2)]
        assert got.cost == pytest.approx(0.75, rel=1e-12)

    @pytest.mark.parametrize("assignment", [
        np.array([1, 1, 0]), np.array([1, 1, 0, 2]), np.array([1, 1, 0, -1]),
        np.array([1.0, 1.0, 0.0, 0.0]), np.array([[1, 1, 0, 0]])])
    def test_invalid_assignment_rejected(self, assignment):
        with pytest.raises(ParseError):
            solve_discrete_ot(self.COST, self.A, self.B,
                              assignment=assignment)


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
            expected, _ = mw2_full_oracle(p, q)
            assert math.isclose(value, expected, rel_tol=1e-12, abs_tol=0.0)
            assert plan.plan.shape == (n, m)
            np.testing.assert_allclose(plan.plan.sum(axis=1), p.weights,
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(plan.plan.sum(axis=0), q.weights,
                                       rtol=0.0, atol=1e-12)
            assert mw2(p, p)[0] == 0.0

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

    def test_prices_only_what_the_plan_needs(self, monkeypatch):
        # 40 full components in 5 separated clusters: the plan needs at
        # most N + m - 1 arcs, so exact costs on every arc would be waste
        g = self._five_clusters()
        priced = []
        real = stats._psd_root_traces

        def counting(mats):
            priced.append(len(mats))
            return real(mats)

        monkeypatch.setattr(stats, "_psd_root_traces", counting)
        result = compress_gmm(g, 5, seed=0)
        n, m = g.size, result.compressed.size
        assert m == 5
        assert 0 < sum(priced) <= 2 * (n + m - 1)
        assert sum(priced) < n * m
        monkeypatch.undo()
        expected, _ = mw2_full_oracle(g, result.compressed)
        assert math.isclose(result.w2_bound, expected, rel_tol=1e-12)

    def test_nearest_plan_skips_the_solver(self, monkeypatch):
        # each component's cheapest compressed column is its own
        # cluster's, and that plan is feasible, so no pricing round
        # reaches the LP
        g = self._five_clusters()
        lp_calls = _count_lp_calls(monkeypatch)
        result = compress_gmm(g, 5, seed=0)
        assert result.compressed.size == 5
        assert lp_calls == []
        monkeypatch.undo()
        expected, _ = mw2_full_oracle(g, result.compressed)
        assert math.isclose(result.w2_bound, expected, rel_tol=1e-12)

    def test_compress_gmm_certifies_its_own_plan(self, monkeypatch):
        # overlapping components: the nearest-column plan of C~ is
        # infeasible, and where dual potentials certify the cluster map
        # no pricing round reaches the LP; the value is the fully priced
        # MW2 whether or not they do
        lp_calls = _count_lp_calls(monkeypatch)
        verdicts = _record_verdicts(monkeypatch)
        no_lp = with_lp = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            comps = []
            for _ in range(12):
                f = rng.normal(size=(2, 2)) * rng.uniform(0.1, 2.0)
                comps.append(Gaussian(rng.normal(size=2), f @ f.T))
            w = rng.random(12) + 0.1
            g = GaussianMixture(w / w.sum(), tuple(comps))
            lp_calls.clear()
            verdicts.clear()
            result = compress_gmm(g, 3, seed=0)
            assert len(lp_calls) == verdicts.count(False)
            expected, _ = mw2_full_oracle(g, result.compressed)
            assert math.isclose(result.w2_bound, expected, rel_tol=1e-12)
            if verdicts and all(verdicts):
                no_lp += 1
            with_lp += bool(lp_calls)
        assert no_lp >= 3 and with_lp >= 3

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
        return lambda: GaussianMixture(w / w.sum(), Gaussian.stack(
            *snn._push_atoms(locs, layer, 3)))

    def test_splits_each_component_pattern_once(self, monkeypatch):
        # mw2 prices against the compressed columns, merged clusters with
        # dense roots, so every product is dense and the pushed rows'
        # shared pattern is never split.  The signature step decomposes
        # the rows; their pattern is split once, also across calls
        pushed = self._pushed(67, 40)
        res = compress_gmm(pushed(), 5, seed=0)
        assert np.all(np.bincount(res.cluster_assignment) > 1)
        g = pushed()
        compressed = GaussianMixture(res.compressed.weights, tuple(
            Gaussian(c.mean, c.cov) for c in res.compressed.components))
        split = Counter()
        real = stats._symmetric_blocks

        def counting(pattern):
            split[np.packbits(pattern != 0.0).tobytes()] += 1
            return real(pattern)

        monkeypatch.setattr(stats, "_symmetric_blocks", counting)
        stats._pattern_blocks.cache_clear()
        value, _ = mw2(g, compressed)
        row_pattern = np.packbits(g.components[0].cov != 0.0).tobytes()
        dense = np.packbits(np.ones((24, 24), dtype=bool)).tobytes()
        assert set(split) == {dense}
        assert stats._pattern_blocks.cache_info().misses == 0
        for _ in range(2):
            stats._eigen_bases(pushed().components)
        assert split[row_pattern] == 2
        assert stats._pattern_blocks.cache_info().misses == 1
        monkeypatch.undo()
        expected, _ = mw2_full_oracle(g, compressed)
        assert value == expected

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
            expected, _ = mw2_full_oracle(g, res.compressed)
            assert math.isclose(res.w2_bound, expected, rel_tol=1e-12)
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
        net = GaussianMixture(w / w.sum(), Gaussian.stack(
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
        expected, _ = mw2_full_oracle(net, gp)
        assert value == expected


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
        for k, n_points in enumerate((6, 10, 8, 7)):
            model = templates[k % 2](float(rng.uniform(0.3, 3.0)))
            points = rng.uniform(-1.0, 1.0, size=(n_points, 1))
            gp = gp_realize(parse_gp_spec("rbf:ls=0.5,var=1.0", points))
            xs = snn.sample_network(model, points, 1000, k)
            ys = gp.sample(1000, rng)
            assert empirical_w2(xs, ys) == \
                empirical_w2_assignment_oracle(xs, ys), (k, n_points)
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

    @pytest.mark.parametrize("case", ["identical", "duplicates", "two",
                                      "tiny", "huge", "outlier"])
    def test_dual_warm_start_degenerate_inputs(self, case):
        # RuntimeWarnings are errors under the test settings, so these
        # also check that the Sinkhorn sweeps neither overflow nor divide
        # by zero
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

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ParseError):
            empirical_w2(np.zeros((0, 1)), np.zeros((3, 1)))
        with pytest.raises(ParseError):
            empirical_w2(np.zeros((3, 1)), np.zeros((3, 2)))
        with pytest.raises(ParseError):
            empirical_w2(np.zeros(3), np.zeros(3))


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
