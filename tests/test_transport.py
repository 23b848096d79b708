"""Tests for exact discrete optimal transport, MW2, and empirical W2."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassnet import Gaussian, GaussianMixture, compress_gmm, snn, stats
from wassnet.errors import ParseError
from wassnet.stats import gaussian_w2_sq_matrix
from wassnet.transport import (
    TransportPlan,
    empirical_w2,
    mw2,
    relative_w2,
    solve_discrete_ot,
)

from oracles import (assignment_oracle, discrete_w2, lp_transport_oracle,
                     mw2_full_oracle, stratified_w2_batches,
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

    def test_prices_only_what_the_plan_needs(self, monkeypatch):
        # 40 full components in 5 separated clusters: the plan needs at
        # most N + m - 1 arcs, so exact costs on every arc would be waste
        rng = np.random.default_rng(61)
        centers = rng.normal(scale=50.0, size=(5, 3))
        comps = []
        for k in range(40):
            f = rng.normal(size=(3, 3))
            comps.append(Gaussian(centers[k % 5] + rng.normal(size=3),
                                  f @ f.T + 0.1 * np.eye(3)))
        w = rng.random(40) + 0.1
        g = GaussianMixture(w / w.sum(), tuple(comps))
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

    def test_splits_each_component_pattern_once(self, monkeypatch):
        # 40 components pushed through one stochastic layer share one
        # block pattern (8 neurons x 3 points); their decompositions in
        # mw2 split it once, not once per row.  The compressed columns are
        # merged clusters, so every product that pricing decomposes is
        # dense, which needs no split
        rng = np.random.default_rng(67)
        layer = snn.StochasticLinear(rng.normal(size=(8, 2)),
                                     np.full((8, 2), 0.05), np.zeros(8),
                                     np.full(8, 0.05))
        locs = rng.normal(size=(40, 3 * 2))
        w = rng.random(40) + 0.1

        def pushed():  # fresh Gaussians, none decomposed yet
            return GaussianMixture(w / w.sum(), Gaussian.stack(
                *snn._push_atoms(locs, layer, 3)))

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

        rounds = []
        real_price = stats.GaussianW2Costs.price

        def price(costs, mask):
            rounds.append(bool(np.any(mask & ~costs.exact)))
            return real_price(costs, mask)

        monkeypatch.setattr(stats, "_symmetric_blocks", counting)
        monkeypatch.setattr(stats.GaussianW2Costs, "price", price)
        mw2(g, compressed)
        row_pattern = np.packbits(g.components[0].cov != 0.0).tobytes()
        dense = np.packbits(np.ones((24, 24), dtype=bool)).tobytes()
        assert split[row_pattern] == 1
        assert set(split) == {row_pattern, dense}
        # the dense pattern: once for the columns, once per price round
        assert split[dense] <= 1 + sum(rounds)
        monkeypatch.undo()
        expected, _ = mw2_full_oracle(g, compressed)
        assert mw2(g, compressed)[0] == expected

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

    def test_cost_cap_exceeded_rejected(self):
        xs = np.zeros((2001, 1))
        ys = np.zeros((2001, 1))
        with pytest.raises(ParseError, match="subsample"):
            empirical_w2(xs, ys)

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
