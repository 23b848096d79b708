"""Tests for 1-D quantizers, grid allocation, and Gaussian/mixture signatures."""

import itertools
import math

import numpy as np
import pytest

from wassnet import Gaussian, GaussianMixture, mixture_second_moment
from wassnet.errors import FixedPointError, ParseError
from wassnet.quantizer import (
    Quantizer1D,
    QuantizerTable,
    Signature,
    _centroid_map,
    activation_signature_w2_bound,
    allocate_grid,
    build_table,
    signature_of_gaussian,
    signature_of_mixture,
    solve_quantizer_1d,
)
from wassnet.stats import standard_truncated_moments

from oracles import sample_stratified, semidiscrete_w2_lp

# frozen values from an independent quadrature-driven fixed point (tol 1e-12)
N2_LOC = 0.7978845608028654          # sqrt(2/pi)
N2_W2SQ = 1.0 - 2.0 / math.pi        # 0.36338022763241865
N4_LOCS = (0.45278003, 1.51041761)
N4_W2SQ = 0.117481847829329
N8_W2SQ = 0.034547760788504


class TestSolveQuantizer1D:
    def test_n1_exact(self):
        q = solve_quantizer_1d(1)
        assert q.locations.tolist() == [0.0]
        assert q.w2sq == 1.0
        lo, hi, mass, _, _ = _centroid_map(q.locations)
        assert lo.tolist() == [-np.inf] and hi.tolist() == [np.inf]
        assert mass.tolist() == [1.0]

    def test_n2_closed_form(self):
        q = solve_quantizer_1d(2)
        np.testing.assert_allclose(q.locations, [-N2_LOC, N2_LOC], atol=1e-12)
        assert abs(q.w2sq - N2_W2SQ) < 1e-12

    def test_n4_frozen_oracle(self):
        q = solve_quantizer_1d(4)
        np.testing.assert_allclose(
            q.locations, [-N4_LOCS[1], -N4_LOCS[0], N4_LOCS[0], N4_LOCS[1]],
            atol=1e-6)
        assert abs(q.w2sq - N4_W2SQ) < 1e-9

    def test_n8_frozen_oracle(self):
        assert abs(solve_quantizer_1d(8).w2sq - N8_W2SQ) < 1e-9

    @pytest.mark.parametrize("n", [3, 5, 9, 17, 33, 128])
    def test_fixed_point_invariants(self, n):
        q = solve_quantizer_1d(n)
        loc = q.locations
        assert np.all(np.diff(loc) > 0)
        np.testing.assert_allclose(loc + loc[::-1], 0.0, atol=1e-12)
        # cells: Voronoi midpoints, outermost cells extending to +-inf
        mid = 0.5 * (loc[1:] + loc[:-1])
        lo, hi, mass, mean, var = _centroid_map(loc)
        np.testing.assert_array_equal(lo, np.r_[-np.inf, mid])
        np.testing.assert_array_equal(hi, np.r_[mid, np.inf])
        ref = standard_truncated_moments(lo, hi)
        for got, want in zip((mass, mean, var), ref):
            np.testing.assert_array_equal(got, want)
        # centroid condition: each location is its cell's truncated mean
        np.testing.assert_allclose(mean, loc, atol=1e-10)
        assert 0.0 < q.w2sq < 1.0

    def test_distortion_strictly_decreases_to_64(self):
        w2 = [solve_quantizer_1d(n).w2sq for n in range(1, 65)]
        assert all(b < a for a, b in zip(w2, w2[1:]))

    def test_nonconvergence_raises_with_residual(self):
        with pytest.raises(FixedPointError) as err:
            solve_quantizer_1d(16, tol=1e-30, max_iters=3)
        assert err.value.residual > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ParseError):
            solve_quantizer_1d(0)
        with pytest.raises(ParseError):
            solve_quantizer_1d(4, tol=0.0)
        with pytest.raises(ParseError):
            solve_quantizer_1d(4, max_iters=0)


class TestQuantizerTable:
    def test_build_and_lookup(self):
        tab = build_table(16)
        assert tab.n_max == 16
        for n in range(1, 17):
            assert tab.get(n).size == n
        w2 = [tab.get(n).w2sq for n in range(1, 17)]
        assert all(b < a for a, b in zip(w2, w2[1:]))
        with pytest.raises(ParseError):
            tab.get(0)
        with pytest.raises(ParseError):
            tab.get(17)

    def test_json_roundtrip_bitwise(self, tmp_path):
        tab = build_table(8)
        path = tmp_path / "table.json"
        tab.save(path)
        back = QuantizerTable.load(path)
        assert back.n_max == tab.n_max
        assert back.tol == tab.tol
        assert back.max_iters == tab.max_iters
        for n in range(1, 9):
            assert back.get(n).locations.tolist() == tab.get(n).locations.tolist()
            assert back.get(n).w2sq == tab.get(n).w2sq

    def test_malformed_tables_rejected(self):
        tab = build_table(3)
        data = tab.to_dict()
        bad = dict(data, version=2)
        with pytest.raises(ParseError):
            QuantizerTable.from_dict(bad)
        gap = dict(data, entries={k: v for k, v in data["entries"].items()
                                  if k != "2"})
        with pytest.raises(ParseError):
            QuantizerTable.from_dict(gap)
        swapped = dict(data, entries=dict(data["entries"]))
        swapped["entries"]["2"] = dict(swapped["entries"]["2"], w2sq=2.0)
        with pytest.raises(ParseError):
            QuantizerTable.from_dict(swapped)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            QuantizerTable.load(tmp_path / "absent.json")


class TestAllocateGrid:
    def test_symmetric_axes_split_budget(self, table):
        alloc = allocate_grid(np.array([1.0, 1.0]), 4, table)
        assert alloc.per_axis_sizes == (2, 2)
        assert alloc.total == 4

    def test_skewed_axes_favor_large_eigenvalue(self, table):
        alloc = allocate_grid(np.array([100.0, 0.01]), 4, table)
        assert alloc.per_axis_sizes == (4, 1)

    def test_single_axis_takes_full_budget(self, table):
        assert allocate_grid(np.array([1.0]), 7, table).per_axis_sizes == (7,)

    def test_degenerate_axes_pinned(self, table):
        alloc = allocate_grid(np.array([1.0, 1e-30]), 8, table)
        assert alloc.per_axis_sizes == (8,)
        assert alloc.degenerate_axes == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle(self, table, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 4))
        lam = np.sort(rng.uniform(0.01, 10.0, size=r))[::-1]
        budget = int(rng.integers(2, 13))
        alloc = allocate_grid(lam, budget, table)
        w2 = [None] + [table.get(n).w2sq for n in range(1, budget + 1)]
        best = math.inf
        for combo in itertools.product(range(1, budget + 1), repeat=r):
            if np.prod(combo) > budget:
                continue
            best = min(best, sum(l * w2[n] for l, n in zip(lam, combo)))
        assert abs(alloc.objective - best) < 1e-12 * max(1.0, best)
        assert alloc.total <= budget
        expected = sum(lam[i] * w2[n] for i, n in
                       enumerate(alloc.per_axis_sizes))
        assert abs(alloc.objective - expected) < 1e-12 * max(1.0, best)

    def test_invalid_inputs(self, table):
        with pytest.raises(ParseError):
            allocate_grid(np.array([]), 4, table)
        with pytest.raises(ParseError):
            allocate_grid(np.array([1.0, 2.0]), 4, table)  # not nonincreasing
        with pytest.raises(ParseError):
            allocate_grid(np.array([1.0]), 0, table)
        with pytest.raises(ParseError):
            allocate_grid(np.array([1.0]), table.n_max + 1, table)
        with pytest.raises(ParseError):
            allocate_grid(np.array([-1.0]), 4, table)


def random_full_gaussian(rng, dim):
    f = rng.normal(size=(dim, dim))
    return Gaussian(rng.normal(size=dim) * 2.0, f @ f.T + 0.3 * np.eye(dim))


class TestSignatureOfGaussian:
    def test_scaled_1d_example(self, table):
        g = Gaussian(np.array([3.0]), np.array([4.0]))
        sig, w2sq = signature_of_gaussian(g, 2, table)
        np.testing.assert_allclose(
            np.sort(sig.locations[:, 0]),
            [3.0 - 2.0 * N2_LOC, 3.0 + 2.0 * N2_LOC], atol=1e-12)
        np.testing.assert_allclose(sig.weights, [0.5, 0.5], atol=1e-15)
        assert abs(w2sq - 4.0 * N2_W2SQ) < 1e-12

    def test_standard_2d_example(self, table):
        sig, w2sq = signature_of_gaussian(Gaussian(np.zeros(2), np.eye(2)),
                                          4, table)
        assert sig.size == 4
        got = {(round(x, 6), round(y, 6)) for x, y in sig.locations}
        c = round(N2_LOC, 6)
        assert got == {(-c, -c), (-c, c), (c, -c), (c, c)}
        np.testing.assert_allclose(sig.weights, 0.25, atol=1e-15)
        assert abs(w2sq - 2.0 * N2_W2SQ) < 1e-12

    def test_degenerate_covariance_single_atom(self, table):
        g = Gaussian(np.array([1.0, -2.0]), np.zeros((2, 2)))
        sig, w2sq = signature_of_gaussian(g, 8, table)
        assert sig.size == 1
        np.testing.assert_allclose(sig.locations[0], [1.0, -2.0])
        assert w2sq == 0.0

    def test_rank_deficient_grid_spans_support(self, table):
        u = np.array([2.0, 1.0]) / math.sqrt(5.0)
        g = Gaussian(np.zeros(2), 4.0 * np.outer(u, u))
        sig, w2sq = signature_of_gaussian(g, 5, table)
        assert sig.size == 5
        # atoms stay on the support line span{u}
        coords = sig.locations @ np.array([-u[1], u[0]])
        np.testing.assert_allclose(coords, 0.0, atol=1e-12)
        assert abs(w2sq - 4.0 * table.get(5).w2sq) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 2.0, 7.0])
    def test_scaling_covariance(self, table, s):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(3, 3))
        cov = f @ f.T
        _, base = signature_of_gaussian(Gaussian(np.zeros(3), cov), 12, table)
        _, scaled = signature_of_gaussian(Gaussian(np.zeros(3), s * s * cov),
                                          12, table)
        assert abs(scaled - s * s * base) < 1e-12 * max(1.0, scaled)

    def test_budget_monotone(self, table):
        g = random_full_gaussian(np.random.default_rng(5), 2)
        vals = [signature_of_gaussian(g, b, table)[1]
                for b in (1, 2, 4, 8, 16, 32, 64)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]

    def test_cell_sum_matches_exact_value(self, table):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3):
            g = random_full_gaussian(rng, dim)
            sig, exact = signature_of_gaussian(g, 18, table)
            cell_sum = sig.cells[0].w2sq_total
            assert abs(cell_sum - exact) < 1e-9 * max(1.0, exact)
            assert abs(sig.w2_bound - math.sqrt(exact)) < 1e-9

    def test_exactness_against_empirical_ot(self, table):
        rng = np.random.default_rng(42)
        g = random_full_gaussian(rng, 2)
        sig, w2sq = signature_of_gaussian(g, 16, table)
        samples = g.sample(5000, rng)
        emp = semidiscrete_w2_lp(samples, sig.locations, sig.weights)
        assert abs(emp * emp - w2sq) <= 0.05 * w2sq

    def test_pruning_reassigns_negligible_cells(self):
        # a synthetic table whose 3-point entry has far-out cells drives the
        # outer cell masses below the pruning floor
        fake = QuantizerTable((
            Quantizer1D(np.array([0.0]), 1.0),
            Quantizer1D(np.array([-N2_LOC, N2_LOC]), N2_W2SQ),
            Quantizer1D(np.array([-17.0, 0.0, 17.0]), 0.3),
        ), tol=1e-12, max_iters=10)
        sig, _ = signature_of_gaussian(Gaussian(np.zeros(1), np.ones(1)),
                                       3, fake)
        assert sig.size == 1
        assert sig.locations[0, 0] == 0.0
        assert abs(float(sig.weights.sum()) - 1.0) < 1e-15
        assert sig.cells[0].pruned_mass > 0.0
        # the surviving cell still accounts for (essentially) all variance
        assert sig.cells[0].w2sq_total >= 0.999


class TestSignatureOfMixture:
    def test_single_component_reduces_to_gaussian(self, table):
        g = random_full_gaussian(np.random.default_rng(3), 2)
        gm = GaussianMixture(np.array([1.0]), (g,))
        sig_g, w2sq = signature_of_gaussian(g, 9, table)
        sig_m, bound = signature_of_mixture(gm, 9, table)
        np.testing.assert_allclose(sig_m.locations, sig_g.locations)
        np.testing.assert_allclose(sig_m.weights, sig_g.weights)
        assert abs(bound - math.sqrt(w2sq)) < 1e-9

    def test_two_separated_components(self, table):
        gm = GaussianMixture(
            np.array([0.5, 0.5]),
            (Gaussian(np.array([-5.0]), np.array([1.0])),
             Gaussian(np.array([5.0]), np.array([1.0]))))
        sig, bound = signature_of_mixture(gm, 2, table)
        assert sig.size == 4
        expected = sorted([-5.0 - N2_LOC, -5.0 + N2_LOC,
                           5.0 - N2_LOC, 5.0 + N2_LOC])
        np.testing.assert_allclose(np.sort(sig.locations[:, 0]), expected,
                                   atol=1e-12)
        np.testing.assert_allclose(sig.weights, 0.25, atol=1e-15)
        assert abs(bound * bound - N2_W2SQ) < 1e-12

    def test_zero_weight_component_contributes_nothing(self, table):
        gm = GaussianMixture(
            np.array([1.0, 0.0]),
            (Gaussian(np.array([0.0]), np.array([1.0])),
             Gaussian(np.array([99.0]), np.array([1.0]))))
        sig, bound = signature_of_mixture(gm, 2, table)
        assert sig.size == 2
        assert np.max(np.abs(sig.locations)) < 5.0
        assert abs(bound * bound - N2_W2SQ) < 1e-12

    def test_bound_dominates_empirical_ot(self, table):
        rng = np.random.default_rng(17)
        gm = GaussianMixture(
            np.array([0.5, 0.5]),
            (Gaussian(np.array([-5.0]), np.array([1.0])),
             Gaussian(np.array([5.0]), np.array([1.0]))))
        sig, bound = signature_of_mixture(gm, 2, table)
        w2 = np.array([semidiscrete_w2_lp(sample_stratified(gm, 1000, rng),
                                          sig.locations, sig.weights)
                       for _ in range(5)])
        se = w2.std(ddof=1) / math.sqrt(len(w2))
        assert bound >= w2.mean() - 3.0 * se

    def _conditional_mc_check(self, gm, budget, table, rng, n_samples=200_000):
        sig, _ = signature_of_mixture(gm, budget, table)
        cc = sig.cells[0]
        comp = gm.components[0]
        x = comp.sample(n_samples, rng)
        r = cc.transform.shape[1]
        basis = comp.eigen()
        whitened = (x - comp.mean) @ basis.eigenvectors[:, :r]
        whitened = whitened / np.sqrt(basis.eigenvalues[:r])
        # per-axis Voronoi index -> flat C-order cell id
        sizes = cc.grid_sizes
        flat = np.zeros(x.shape[0], dtype=int)
        for l, n_l in enumerate(sizes):
            edges = np.unique(cc.lo[:, l])[1:]  # drop -inf, keep boundaries
            flat = flat * n_l + np.searchsorted(edges, whitened[:, l])
        atoms = sig.locations
        d2 = np.sum(np.square(x - atoms[flat]), axis=1)
        for cell in range(sig.size):
            mask = flat == cell
            if mask.sum() < 200:
                continue
            vals = d2[mask]
            se = vals.std(ddof=1) / math.sqrt(mask.sum())
            assert abs(vals.mean() - cc.distortion[cell]) <= 3.0 * se

    def test_cell_conditional_distortion_matches_mc_1d(self, table):
        rng = np.random.default_rng(23)
        gm = GaussianMixture(np.array([1.0]),
                             (Gaussian(np.array([1.0]), np.array([2.25])),))
        self._conditional_mc_check(gm, 5, table, rng)

    def test_cell_conditional_distortion_matches_mc_2d(self, table):
        rng = np.random.default_rng(29)
        f = rng.normal(size=(2, 2))
        gm = GaussianMixture(np.array([1.0]),
                             (Gaussian(np.array([0.5, -1.0]),
                                       f @ f.T + 0.4 * np.eye(2)),))
        self._conditional_mc_check(gm, 6, table, rng)

    def test_budget_doubling_reaches_epsilon(self, table):
        rng = np.random.default_rng(31)
        for _ in range(2):
            means = rng.normal(scale=4.0, size=(2, 2))
            covs = []
            for _ in range(2):
                f = rng.normal(scale=0.5, size=(2, 2))
                covs.append(f @ f.T)
            gm = GaussianMixture(np.array([0.5, 0.5]),
                                 tuple(Gaussian(m, c)
                                       for m, c in zip(means, covs)))
            eps = 0.05 * math.sqrt(mixture_second_moment(gm))
            bounds = [signature_of_mixture(gm, b, table)[1]
                      for b in (2, 4, 8, 16, 32, 64, 128)]
            assert all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))
            assert bounds[-1] < eps


class TestActivationRefinement:
    def _mix(self, mean, var):
        return GaussianMixture(
            np.array([1.0]), (Gaussian(np.atleast_1d(np.asarray(mean, float)),
                                       np.atleast_1d(np.asarray(var, float))),))

    def test_tanh_equals_unrefined(self, table):
        gm = self._mix([-10.0], [0.01])
        sig, bound = signature_of_mixture(gm, 2, table)
        assert activation_signature_w2_bound(sig, "tanh", gm) == bound

    def test_relu_dead_zone_vanishes(self, table):
        gm = self._mix([-10.0], [0.01])
        sig, bound = signature_of_mixture(gm, 2, table)
        refined = activation_signature_w2_bound(sig, "relu", gm)
        assert 0.0 <= refined < 1e-4
        assert refined < bound

    def test_relu_active_zone_keeps_bound(self, table):
        gm = self._mix([10.0], [0.01])
        sig, bound = signature_of_mixture(gm, 2, table)
        assert activation_signature_w2_bound(sig, "relu", gm) == bound

    def test_refined_never_exceeds_unrefined(self, table):
        rng = np.random.default_rng(37)
        for _ in range(10):
            gm = GaussianMixture(
                np.array([0.5, 0.5]),
                (random_full_gaussian(rng, 2), random_full_gaussian(rng, 2)))
            sig, bound = signature_of_mixture(gm, 8, table)
            refined = activation_signature_w2_bound(sig, "relu", gm)
            assert refined <= bound + 1e-15

    def test_mixed_components_refine_partially(self, table):
        gm = GaussianMixture(
            np.array([0.5, 0.5]),
            (Gaussian(np.array([-20.0, -20.0]), 0.01 * np.eye(2)),
             Gaussian(np.array([3.0, 3.0]), np.eye(2))))
        sig, bound = signature_of_mixture(gm, 4, table)
        refined = activation_signature_w2_bound(sig, "relu", gm)
        # the negative component's mass drops out; the active one remains
        active_part = math.sqrt(0.5 * sig.cells[1].w2sq_total)
        assert refined < bound
        assert abs(refined - active_part) < 1e-6

    def test_unknown_activation_rejected(self, table):
        gm = self._mix([0.0], [1.0])
        sig, _ = signature_of_mixture(gm, 2, table)
        with pytest.raises(ParseError):
            activation_signature_w2_bound(sig, "gelu", gm)


class TestSignatureContainer:
    def test_validation(self, table):
        def signature(locations, weights, cells=()):
            return Signature(locations, weights, np.array([1.0]), cells)

        with pytest.raises(ParseError):
            signature(np.zeros((2, 1)), np.array([0.6, 0.3]))  # sums to 0.9
        with pytest.raises(ParseError):
            signature(np.zeros((2, 1)), np.array([1.2, -0.2]))
        with pytest.raises(ParseError):
            signature(np.zeros((2,)), np.array([1.0]))  # not (M, n)
        # one cell block of two atoms cannot cover three
        sig, _ = signature_of_gaussian(
            Gaussian(np.zeros(1), np.ones(1)), 2, table)
        with pytest.raises(ParseError):
            signature(np.zeros((3, 1)), np.full(3, 1 / 3), sig.cells)
        # the bound is derived from the cell blocks
        ok = signature(sig.locations, sig.weights, sig.cells)
        assert ok.w2_bound == math.sqrt(sig.cells[0].w2sq_total)
