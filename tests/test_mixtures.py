"""Tests for Gaussian-mixture compression and dropout-mixture operations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassnet import (DeterministicLinear, Gaussian, GaussianMixture,
                     PropagationConfig, SnnModel, as_mixture, gaussian_w2,
                     mixture_second_moment, mw2, propagate, relative_w2)
from wassnet.errors import ParseError
from wassnet.mixtures import (
    DiscreteDistribution,
    compress_dropout,
    compress_gmm,
)

from oracles import (discrete_w2, dropout_expansion_oracle,
                     stratified_w2_batches)


def _random_mixture(rng, size, dim, mean_scale=3.0):
    w = rng.random(size) + 0.15
    comps = tuple(
        Gaussian(rng.normal(scale=mean_scale, size=dim),
                 rng.random(dim) + 0.2)
        for _ in range(size))
    return GaussianMixture(w / w.sum(), comps)


class TestDiscreteDistribution:
    def test_roundtrip_and_moments(self):
        d = DiscreteDistribution(np.array([[1.0, 0.0], [0.0, 2.0]]),
                                 np.array([0.25, 0.75]))
        back = DiscreteDistribution.from_dict(d.to_dict())
        np.testing.assert_array_equal(back.locations, d.locations)
        np.testing.assert_array_equal(back.weights, d.weights)
        assert d.size == 2 and d.dim == 2
        mixture = as_mixture(d)
        np.testing.assert_array_equal(mixture.weights, d.weights)
        # the components share one read-only zero matrix
        zero = mixture.components[0].cov
        assert zero.shape == (2, 2) and not np.any(zero)
        assert not zero.flags.writeable
        assert all(c.cov is zero for c in mixture.components)
        np.testing.assert_array_equal(
            np.stack([c.mean for c in mixture.components]), d.locations)
        assert mixture_second_moment(mixture) == pytest.approx(
            0.25 * 1 + 0.75 * 4)

    @staticmethod
    def _zero_cov_mixture(d):
        """The atoms as an explicit zero-covariance mixture."""
        return GaussianMixture(d.weights, tuple(
            Gaussian(loc, np.zeros(d.dim)) for loc in d.locations))

    def test_mw2_coerces_atoms(self):
        rng = np.random.default_rng(8)
        d = DiscreteDistribution(rng.normal(size=(4, 3)),
                                 rng.dirichlet(np.ones(4)))
        f = rng.normal(size=(3, 3))
        gp = Gaussian(rng.normal(size=3), f @ f.T)
        value, plan = mw2(d, gp)
        ref_value, ref_plan = mw2(self._zero_cov_mixture(d), gp)
        assert value == ref_value
        np.testing.assert_array_equal(plan.plan, ref_plan.plan)
        assert mw2(gp, d)[0] == mw2(gp, self._zero_cov_mixture(d))[0]

    def test_relative_w2_accepts_propagated_atoms(self, table):
        model = SnnModel(1, (DeterministicLinear(np.array([[2.0], [-1.0]]),
                                                 np.array([0.5, 0.0])),))
        cfg = PropagationConfig(table=table, signature_budget=4,
                                compression_size=2, seed=0)
        approx, _ = propagate(model, np.array([[1.0], [3.0]]), cfg)
        assert isinstance(approx, DiscreteDistribution)
        value = relative_w2(0.5, approx)
        assert value == relative_w2(0.5, self._zero_cov_mixture(approx))
        assert value == pytest.approx(0.5 / math.sqrt(2.5 ** 2 + 1 + 6.5 ** 2
                                                      + 9))

    def test_validation(self):
        with pytest.raises(ParseError):
            DiscreteDistribution(np.zeros((2,)), np.array([1.0]))
        with pytest.raises(ParseError):
            DiscreteDistribution(np.zeros((2, 1)), np.array([0.5]))
        with pytest.raises(ParseError):
            DiscreteDistribution(np.zeros((2, 1)), np.array([0.9, 0.2]))
        with pytest.raises(ParseError):
            DiscreteDistribution(np.full((1, 1), np.inf), np.array([1.0]))
        with pytest.raises(ParseError):
            DiscreteDistribution(np.zeros((2, 1)), np.array([np.nan, 0.5]))
        with pytest.raises(ParseError):
            DiscreteDistribution.from_dict({"locations": [[0.0]]})
        with pytest.raises(ParseError):
            DiscreteDistribution.from_dict({"locations": [["a"]],
                                            "weights": [1.0]})
        with pytest.raises(ParseError):
            DiscreteDistribution.from_dict({"locations": [[0.0], [1.0, 2.0]],
                                            "weights": [0.5, 0.5]})


class TestCompressGmm:
    def test_identity_when_within_budget(self):
        rng = np.random.default_rng(0)
        g = _random_mixture(rng, 4, 2)
        res = compress_gmm(g, 4, seed=0)
        assert res.compressed is g
        assert res.w2_bound == 0.0
        np.testing.assert_array_equal(res.cluster_assignment, np.arange(4))
        assert compress_gmm(g, 9, seed=0).w2_bound == 0.0

    def test_single_cluster_matches_moments_and_forced_coupling(self):
        rng = np.random.default_rng(1)
        g = _random_mixture(rng, 6, 2)
        res = compress_gmm(g, 1, seed=3)
        q = res.compressed
        assert q.size == 1
        np.testing.assert_allclose(q.mean(), g.mean(), atol=1e-10)
        np.testing.assert_allclose(q.full_cov(), g.full_cov(), atol=1e-10)
        # with a single target the transport plan is forced, so the bound
        # must equal the mass-weighted component-to-target cost exactly
        forced = math.sqrt(sum(
            float(w) * gaussian_w2(c, q.components[0]) ** 2
            for w, c in zip(g.weights, g.components)))
        assert res.w2_bound == pytest.approx(forced, abs=1e-9)

    def test_separated_clusters_split_cleanly(self):
        rng = np.random.default_rng(2)
        comps = tuple(
            Gaussian(rng.normal(size=2) * 0.1 + off, rng.random(2) * 0.01 + 0.01)
            for off in (np.zeros(2), np.full(2, 100.0)) for _ in range(3))
        g = GaussianMixture(np.full(6, 1 / 6), comps)
        res = compress_gmm(g, 2, seed=0)
        a = res.cluster_assignment
        assert len({*a[:3]}) == 1 and len({*a[3:]}) == 1 and a[0] != a[3]
        coarse = compress_gmm(g, 1, seed=0)
        assert res.w2_bound < 0.02 * coarse.w2_bound

    def test_cluster_masses_match_assigned_weights(self):
        rng = np.random.default_rng(3)
        g = _random_mixture(rng, 8, 2)
        res = compress_gmm(g, 3, seed=5)
        for j in range(res.compressed.size):
            mass = g.weights[res.cluster_assignment == j].sum()
            assert res.compressed.weights[j] == pytest.approx(mass, abs=1e-12)
        assert res.compressed.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_moment_preservation_randomized(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            dim = int(rng.integers(1, 4))
            g = _random_mixture(rng, int(rng.integers(4, 9)), dim)
            m = int(rng.integers(1, 4))
            res = compress_gmm(g, m, seed=seed)
            np.testing.assert_allclose(res.compressed.mean(), g.mean(),
                                       atol=1e-10)
            np.testing.assert_allclose(res.compressed.full_cov(), g.full_cov(),
                                       atol=1e-10)

    def test_bound_dominates_sampled_w2_over_50_mixtures(self):
        rng = np.random.default_rng(5)
        for seed in range(50):
            g = _random_mixture(rng, int(rng.integers(5, 9)),
                                int(rng.integers(1, 3)))
            res = compress_gmm(g, int(rng.integers(1, 4)), seed=seed)
            est, se = stratified_w2_batches(g, res.compressed, 500, 4, rng)
            assert est <= res.w2_bound + 3.0 * se

    def test_bound_nonincreasing_in_cluster_count(self):
        rng = np.random.default_rng(6)
        for seed in range(15):
            g = _random_mixture(rng, int(rng.integers(6, 9)),
                                int(rng.integers(1, 3)))
            bounds = [compress_gmm(g, m, seed=seed).w2_bound
                      for m in (1, 2, 3, 4)]
            for tighter, looser in zip(bounds[1:], bounds[:-1]):
                assert tighter <= looser + 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        g = _random_mixture(rng, 7, 2)
        first = compress_gmm(g, 3, seed=11)
        second = compress_gmm(g, 3, seed=11)
        assert first.w2_bound == second.w2_bound
        np.testing.assert_array_equal(first.cluster_assignment,
                                      second.cluster_assignment)
        for c1, c2 in zip(first.compressed.components,
                          second.compressed.components):
            np.testing.assert_array_equal(c1.mean, c2.mean)
            np.testing.assert_array_equal(c1.cov, c2.cov)

    def test_duplicate_means_collapse_without_error(self):
        # more clusters than distinct means: redundant clusters are dropped
        comp = Gaussian(np.zeros(2), np.ones(2))
        g = GaussianMixture(np.full(4, 0.25), (comp,) * 4)
        res = compress_gmm(g, 3, seed=0)
        assert res.compressed.size <= 3
        assert res.w2_bound == pytest.approx(0.0, abs=1e-12)

    def test_single_gaussian_input(self):
        g = Gaussian(np.zeros(2), np.ones(2))
        res = compress_gmm(g, 2, seed=0)
        assert res.compressed.size == 1 and res.w2_bound == 0.0

    def test_invalid_target_size(self):
        g = Gaussian(np.zeros(1), np.ones(1))
        with pytest.raises(ParseError):
            compress_gmm(g, 0, seed=0)


def _expand(base, theta, blocks=1):
    """Full mask expansion: ``compress_dropout`` at its full budget 2^n."""
    out, bound = compress_dropout(base, theta, 2 ** (base.dim // blocks),
                                  blocks=blocks)
    assert bound == 0.0
    return out


def _exact_w2(base, theta, comp):
    """Exact W2 between the brute-force full expansion and ``comp``."""
    locations, weights = dropout_expansion_oracle(base.locations,
                                                  base.weights, theta)
    return discrete_w2(locations, weights, comp.locations, comp.weights)


class TestExpandDropout:
    def test_keep_probability_one_returns_base(self):
        base = DiscreteDistribution(np.array([[1.0, -2.0], [3.0, 0.5]]),
                                    np.array([0.4, 0.6]))
        out = _expand(base, 1.0)
        np.testing.assert_array_equal(out.locations, base.locations)
        np.testing.assert_array_equal(out.weights, base.weights)

    def test_keep_probability_zero_collapses_to_origin(self):
        base = DiscreteDistribution(np.array([[1.0, -2.0], [3.0, 0.5]]),
                                    np.array([0.4, 0.6]))
        out = _expand(base, 0.0)
        assert out.size == 2
        assert np.all(out.locations == 0.0)
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_dim_enumeration(self):
        base = DiscreteDistribution(np.array([[1.0, 2.0]]), np.array([1.0]))
        out = _expand(base, 0.5)
        got = {tuple(row) for row in out.locations}
        assert got == {(1.0, 2.0), (1.0, 0.0), (0.0, 2.0), (0.0, 0.0)}
        np.testing.assert_allclose(out.weights, 0.25)

    def test_weights_are_bernoulli_products(self):
        base = DiscreteDistribution(np.array([[1.0, 2.0, 3.0]]),
                                    np.array([1.0]))
        theta = 0.8
        out = _expand(base, theta)
        assert out.size == 8
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
        for loc, w in zip(out.locations, out.weights):
            kept = int(np.count_nonzero(loc))
            assert w == pytest.approx(theta ** kept * (1 - theta) ** (3 - kept),
                                      abs=1e-15)

    def test_mask_shared_across_blocks(self):
        base = DiscreteDistribution(np.array([[1.0, 2.0, 1.0, 2.0]]),
                                    np.array([1.0]))
        out = _expand(base, 0.5, blocks=2)
        got = {tuple(row) for row in out.locations}
        assert got == {(1.0, 2.0, 1.0, 2.0), (1.0, 0.0, 1.0, 0.0),
                       (0.0, 2.0, 0.0, 2.0), (0.0, 0.0, 0.0, 0.0)}

    def test_matches_brute_force_in_order(self):
        # same atoms in the same order (atom-major, masks counting up from
        # all-dropped), weights equal up to rounding; theta 0 and 1 leave
        # out the zero-weight outcomes
        rng = np.random.default_rng(8)
        for theta in (0.0, 1.0, 0.3, 0.9):
            for blocks in (1, 2, 3):
                n = int(rng.integers(1, 4))
                size = int(rng.integers(1, 4))
                w = rng.random(size) + 0.1
                base = DiscreteDistribution(
                    rng.normal(size=(size, n * blocks)), w / w.sum())
                out = _expand(base, theta, blocks=blocks)
                locations, weights = dropout_expansion_oracle(
                    base.locations, base.weights, theta, blocks)
                np.testing.assert_array_equal(out.locations, locations)
                np.testing.assert_allclose(out.weights, weights,
                                           rtol=1e-14, atol=0.0)

    def test_invalid_inputs(self):
        base = DiscreteDistribution(np.zeros((1, 3)), np.array([1.0]))
        with pytest.raises(ParseError):
            compress_dropout(base, 0.5, 8, blocks=2)
        with pytest.raises(ParseError):
            compress_dropout(np.zeros((1, 3)), 0.5, 8)
        for theta in (1.5, -0.1, float("nan")):
            with pytest.raises(ParseError, match="keep probability"):
                compress_dropout(base, theta, 1)
            with pytest.raises(ParseError, match="keep probability"):
                compress_dropout(base, theta, 8)


class TestCompressDropout:
    def test_full_budget_equals_expansion_with_zero_bound(self):
        rng = np.random.default_rng(0)
        base = DiscreteDistribution(rng.normal(size=(2, 3)), np.array([0.5, 0.5]))
        comp, bound = compress_dropout(base, 0.7, 8)
        assert bound == 0.0
        assert _exact_w2(base, 0.7, comp) <= 1e-12

    def test_no_budget_keeps_atoms_with_closed_form_bound(self):
        rng = np.random.default_rng(1)
        base = DiscreteDistribution(rng.normal(size=(3, 4)),
                                    np.array([0.5, 0.3, 0.2]))
        theta = 0.85
        comp, bound = compress_dropout(base, theta, 1)
        np.testing.assert_array_equal(comp.locations, base.locations)
        expected_sq = (1 - theta) * float(
            base.weights @ np.sum(base.locations ** 2, axis=1))
        assert bound ** 2 == pytest.approx(expected_sq, abs=1e-12)
        # the bound must dominate the exact W2 against the full expansion
        assert _exact_w2(base, theta, comp) <= bound + 1e-9

    def test_three_dim_single_atom_example(self):
        base = DiscreteDistribution(np.array([[10.0, 0.1, 0.1]]),
                                    np.array([1.0]))
        comp, bound = compress_dropout(base, 0.9, 2)
        # the dominant first dimension keeps its mask randomness
        got = {tuple(np.round(row, 12)) for row in comp.locations}
        assert got == {(10.0, 0.1, 0.1), (0.0, 0.1, 0.1)}
        assert bound ** 2 == pytest.approx(0.1 * (0.01 + 0.01), abs=1e-15)
        assert _exact_w2(base, 0.9, comp) <= bound + 1e-9

    def test_ranking_uses_mass_weighted_squared_magnitude(self):
        # dimension 0 wins on aggregate mass even though dimension 1 holds
        # the single largest coordinate
        base = DiscreteDistribution(np.array([[1.0, 0.0], [0.0, 2.0]]),
                                    np.array([0.9, 0.1]))
        theta = 0.6
        comp, bound = compress_dropout(base, theta, 2)
        assert bound ** 2 == pytest.approx((1 - theta) * 0.1 * 4.0, abs=1e-12)
        got = {tuple(row) for row in comp.locations}
        assert (0.0, 0.0) in got and (1.0, 0.0) in got

    def test_bound_dominates_exact_w2_randomized(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            n = int(rng.integers(2, 6))
            size = int(rng.integers(1, 4))
            w = rng.random(size) + 0.2
            base = DiscreteDistribution(rng.normal(size=(size, n), scale=2.0),
                                        w / w.sum())
            theta = float(rng.uniform(0.2, 0.95))
            m = 2 ** int(rng.integers(0, n))
            comp, bound = compress_dropout(base, theta, m)
            assert comp.size <= base.size * m
            assert _exact_w2(base, theta, comp) <= bound + 1e-9

    def test_bound_nonincreasing_in_budget(self):
        rng = np.random.default_rng(3)
        base = DiscreteDistribution(rng.normal(size=(3, 4)),
                                    np.full(3, 1 / 3))
        bounds = [compress_dropout(base, 0.8, m)[1] for m in (1, 2, 4, 8, 16)]
        for tighter, looser in zip(bounds[1:], bounds[:-1]):
            assert tighter <= looser + 1e-15
        assert bounds[-1] == 0.0

    def test_blocks_share_the_mask(self):
        base = DiscreteDistribution(np.array([[1.0, 2.0, 1.0, 2.0]]),
                                    np.array([1.0]))
        comp, bound = compress_dropout(base, 0.5, 2, blocks=2)
        got = {tuple(row) for row in comp.locations}
        # dimension 1 dominates (2^2 + 2^2 vs 1 + 1 across blocks)
        assert got == {(1.0, 2.0, 1.0, 2.0), (1.0, 0.0, 1.0, 0.0)}
        assert bound ** 2 == pytest.approx(0.5 * 2.0, abs=1e-12)

    def test_invalid_budgets(self):
        base = DiscreteDistribution(np.zeros((1, 3)), np.array([1.0]))
        with pytest.raises(ParseError):
            compress_dropout(base, 0.5, 3)
        with pytest.raises(ParseError):
            compress_dropout(base, 0.5, 16)
        with pytest.raises(ParseError):
            compress_dropout(base, 0.5, 0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_property_expansion_mass_and_support(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        size = int(rng.integers(1, 4))
        w = rng.random(size) + 0.1
        base = DiscreteDistribution(rng.normal(size=(size, n)), w / w.sum())
        theta = float(rng.uniform(0.05, 0.95))
        out = _expand(base, theta)
        assert out.size == size * 2 ** n
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-9)
