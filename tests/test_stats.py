"""Tests for the probabilistic primitives (moments, eigen, Gaussian W2)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassnet import (Gaussian, GaussianMixture, NumericalError, ParseError,
                     gaussian_w2, gaussian_w2_sq_matrix, mixture_second_moment,
                     psd_sqrt, standard_truncated_moments, symmetric_eig)
from wassnet import mw2, stats
from wassnet.quantizer import _active_mask
from wassnet.stats import (_eigen_bases, _eigen_stack, _pattern_groups,
                           gaussian_w2_sq_pairs)

from oracles import (gaussian_w2_pair_oracle, identical_pairs,
                     is_diagonal_matrix, marginal_lower_bound_oracle,
                     pattern_blocks_oracle,
                     price_by_columns_oracle, price_by_rows_oracle,
                     quad_truncated_moments,
                     quantile_coupling_w2_1d,
                     root_trace_by_eigenvectors_oracle,
                     row_rooted_rounding_bound)


def random_gaussian(rng, dim, diagonal=False, degenerate=False):
    mean = rng.normal(size=dim)
    if diagonal:
        return Gaussian(mean, rng.uniform(0.05, 2.0, size=dim))
    r = dim - 1 if degenerate and dim > 1 else dim
    f = rng.normal(size=(dim, r))
    return Gaussian(mean, f @ f.T)


def undecomposed(gs):
    """Copies of Gaussians of one dimension made by the pipeline's
    builder, which decomposes none of them."""
    return list(stats._gaussians(np.stack([g.mean for g in gs]),
                                 np.stack([g.cov for g in gs])))


def truncated_moments(mu, var, lo, hi):
    """(mass, mean, variance) of N(mu, var) on [lo, hi], computed by
    ``standard_truncated_moments`` on the standardised window."""
    s = math.sqrt(var)
    mass, mean, v = standard_truncated_moments((lo - mu) / s, (hi - mu) / s)
    return float(mass), float(mu + s * mean), float(var * v)


def std_normal_cdf(x):
    """Standard normal CDF as the mass of the window (-inf, x]."""
    return standard_truncated_moments(-np.inf, x)[0]


class TestStdNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_saturation(self):
        assert std_normal_cdf(40.0) == 1.0
        assert std_normal_cdf(-40.0) == 0.0

    def test_value_at_one(self):
        # adaptive quadrature of the normal density over (-inf, 1]
        assert abs(std_normal_cdf(1.0) - 0.8413447460685429) < 1e-15

    def test_symmetry_and_monotonicity(self):
        x = np.linspace(-8, 8, 2001)
        np.testing.assert_allclose(std_normal_cdf(x) + std_normal_cdf(-x), 1.0,
                                   atol=1e-15)
        # nondecreasing everywhere; strictly increasing where float64 can
        # still resolve the tail (saturation at the extremes is documented)
        assert np.all(np.diff(std_normal_cdf(x)) >= 0)
        inner = np.linspace(-7, 7, 2001)
        assert np.all(np.diff(std_normal_cdf(inner)) > 0)


class TestTruncatedMoments:
    def test_no_truncation(self):
        assert standard_truncated_moments(-np.inf, np.inf) == (1.0, 0.0, 1.0)
        assert truncated_moments(0.3, 1.7, -np.inf, np.inf) == (1.0, 0.3, 1.7)

    def test_half_line(self):
        # oracle: quadrature of z^k phi(z) over [0, inf)
        mass, mean, var = standard_truncated_moments(0.0, np.inf)
        assert abs(mass - 0.5) < 1e-15
        assert abs(mean - 0.7978845608028654) < 1e-12
        assert abs(var - 0.36338022763241865) < 1e-12

    def test_finite_window_against_quadrature(self):
        t = truncated_moments(2.0, 4.0, 1.0, 3.0)
        oracle = quad_truncated_moments(2.0, 4.0, 1.0, 3.0)
        for got, want in zip(t, oracle):
            assert abs(got - want) < 1e-10

    def test_random_windows_against_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            mu = rng.uniform(-3, 3)
            var = rng.uniform(0.05, 4.0)
            s = math.sqrt(var)
            lo = mu + rng.uniform(-4, 2) * s
            hi = lo + rng.uniform(0.1, 5.0) * s
            kind = rng.integers(3)
            if kind == 1:
                lo = -np.inf
            elif kind == 2:
                hi = np.inf
            t = truncated_moments(mu, var, lo, hi)
            oracle = quad_truncated_moments(
                mu, var, lo if np.isfinite(lo) else mu - 14 * s,
                hi if np.isfinite(hi) else mu + 14 * s)
            for got, want in zip(t, oracle):
                assert abs(got - want) < 1e-9

    def test_negligible_mass_signal(self):
        # a window whose mass underflows is empty: mass, mean and variance 0
        assert standard_truncated_moments(40.0, 41.0) == (0.0, 0.0, 0.0)
        assert standard_truncated_moments(-np.inf, -40.0) == (0.0, 0.0, 0.0)
        mass, mean, var = standard_truncated_moments(
            np.array([40.0, 0.0]), np.array([41.0, np.inf]))
        assert mass[0] == mean[0] == var[0] == 0.0
        assert mass[1] == 0.5

    def test_preconditions(self):
        # windows with lo >= hi hold no mass and are reported empty, not NaN
        for lo, hi in ((1.0, 1.0), (2.0, 1.0), (-1.0, -2.0), (np.inf, np.inf)):
            assert standard_truncated_moments(lo, hi) == (0.0, 0.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(mu=st.floats(-5, 5), var=st.floats(0.01, 9.0),
           e1=st.floats(-4, 4), e2=st.floats(-4, 4))
    def test_law_of_total_expectation(self, mu, var, e1, e2):
        # a partition of R: masses sum to 1, mass-weighted means average to mu
        s = math.sqrt(var)
        cuts = sorted({mu + e1 * s, mu + e2 * s})
        edges = [-np.inf] + cuts + [np.inf]
        total_mass = 0.0
        total_mean = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            if not lo < hi:
                continue
            mass, mean, _ = truncated_moments(mu, var, lo, hi)
            total_mass += mass
            total_mean += mass * mean
        assert abs(total_mass - 1.0) < 1e-12
        assert abs(total_mean - mu) < 1e-9

    def test_symmetric_window_shrinks_variance(self):
        for half in (0.3, 1.0, 2.5):
            _, _, var = truncated_moments(1.0, 2.0, 1.0 - half, 1.0 + half)
            assert var <= 2.0


class TestGaussianW2:
    def test_identity(self):
        g = Gaussian([0.0], [1.0])
        assert gaussian_w2(g, g) == 0.0

    def test_one_dimensional(self):
        a = Gaussian([0.0], [1.0])
        b = Gaussian([2.0], [4.0])
        w = gaussian_w2(a, b)
        assert abs(w - math.sqrt(5.0)) < 1e-12
        assert abs(w - quantile_coupling_w2_1d(0, 1, 2, 4)) < 1e-7

    def test_pure_mean_shift(self):
        a = Gaussian([0.0, 0.0], np.eye(2))
        b = Gaussian([3.0, 4.0], np.eye(2))
        assert abs(gaussian_w2(a, b) - 5.0) < 1e-12

    def test_diagonal_matches_full(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m1, m2 = rng.normal(size=(2, 3))
            v1, v2 = rng.uniform(0.1, 2.0, size=(2, 3))
            d = gaussian_w2(Gaussian(m1, v1), Gaussian(m2, v2))
            f = gaussian_w2(Gaussian(m1, np.diag(v1)), Gaussian(m2, np.diag(v2)))
            assert abs(d - f) < 1e-10

    def test_marginal_decomposition_for_diagonals(self):
        # for diagonal Gaussians, W2^2 equals the sum of per-dimension W2^2
        rng = np.random.default_rng(5)
        for _ in range(10):
            m1, m2 = rng.normal(size=(2, 4))
            v1, v2 = rng.uniform(0.1, 2.0, size=(2, 4))
            total = gaussian_w2(Gaussian(m1, v1), Gaussian(m2, v2)) ** 2
            per_dim = sum(
                gaussian_w2(Gaussian([m1[i]], [v1[i]]), Gaussian([m2[i]], [v2[i]])) ** 2
                for i in range(4))
            assert abs(total - per_dim) < 1e-10

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            a, b, c = (random_gaussian(rng, dim, degenerate=bool(rng.integers(2)))
                       for _ in range(3))
            assert gaussian_w2(a, c) <= gaussian_w2(a, b) + gaussian_w2(b, c) + 1e-9

    def test_moment_closeness(self):
        # |E_p[|x|^2]^0.5 - E_q[|x|^2]^0.5| <= W2(p, q)
        rng = np.random.default_rng(13)
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            p = random_gaussian(rng, dim)
            q = random_gaussian(rng, dim)
            gap = abs(math.sqrt(mixture_second_moment(p))
                      - math.sqrt(mixture_second_moment(q)))
            assert gap <= gaussian_w2(p, q) + 1e-9

    def test_degenerate_covariances(self):
        a = Gaussian([0.0, 0.0], np.zeros((2, 2)))
        b = Gaussian([1.0, 1.0], np.zeros(2))
        assert abs(gaussian_w2(a, b) - math.sqrt(2.0)) < 1e-12

    def test_non_psd_rejected(self):
        # the covariance is refused when the Gaussian is built, so no
        # such Gaussian reaches gaussian_w2
        with pytest.raises(NumericalError):
            Gaussian([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))


def mixed_component(rng, dim, kind):
    """A Gaussian of one of five covariance kinds used by the cost tests."""
    mean = rng.normal(size=dim)
    if kind == "diag":
        return Gaussian(mean, rng.uniform(0.05, 2.0, size=dim))
    if kind == "diag_zeros":
        return Gaussian(mean, rng.uniform(0.05, 2.0, size=dim)
                        * (rng.uniform(size=dim) < 0.5))
    if kind == "blocks":  # interleaved blocks with exact zeros between them
        lab = rng.integers(0, 3, size=dim)
        f = rng.normal(size=(dim, dim)) * (lab[:, None] == lab[None, :])
        return Gaussian(mean, f @ f.T)
    rank = dim if kind == "full" else int(rng.integers(0, dim))
    f = rng.normal(size=(dim, rank))
    return Gaussian(mean, f @ f.T)


KINDS = ("diag", "diag_zeros", "full", "rank_deficient", "blocks")


class TestGaussianW2SqMatrix:
    """The batched cost matrix against the per-pair formula."""

    def test_matches_pair_oracle(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(80):
            dim = int(rng.integers(1, 9))
            ps, qs = ([mixed_component(rng, dim, KINDS[int(k)])
                       for k in rng.integers(0, len(KINDS), size=n)]
                      for n in rng.integers(1, 6, size=2))
            # duplicates: a column repeated as a row, and a row rebuilt
            # from its mean and covariance as a column
            ps.append(qs[int(rng.integers(len(qs)))])
            d = ps[int(rng.integers(len(ps)))]
            qs.append(Gaussian(d.mean, d.cov))
            cost = gaussian_w2_sq_matrix(ps, qs)
            oracle = np.array([[max(gaussian_w2_pair_oracle(a, b), 0.0)
                                for b in qs] for a in ps])
            np.testing.assert_allclose(cost, oracle, rtol=1e-12, atol=1e-12)
            # the oracle prices diagonal pairs by their commuting closed form
            seen |= {(is_diagonal_matrix(a.cov), is_diagonal_matrix(b.cov))
                     for a in ps for b in qs}
        assert seen == {(True, True), (True, False), (False, True),
                        (False, False)}

    def test_identical_components_are_exactly_zero(self):
        rng = np.random.default_rng(37)
        comps = [mixed_component(rng, 4, kind) for kind in KINDS]
        cost = gaussian_w2_sq_matrix(comps, comps[::-1])
        assert np.all(cost[np.arange(5), np.arange(5)[::-1]] == 0.0)
        assert np.all(np.delete(cost.ravel(), np.arange(4, 21, 4)) > 0.0)

    def test_gaussian_w2_is_the_one_pair_case(self):
        rng = np.random.default_rng(41)
        a, b = (mixed_component(rng, 3, "full") for _ in range(2))
        cost = gaussian_w2_sq_matrix((a,), (b,))
        assert cost.shape == (1, 1)
        assert gaussian_w2(a, b) == math.sqrt(cost[0, 0])

    def test_rank_two_equal_covariances_price_only_the_mean(self):
        """``N(0, S)`` against ``N(1e-3 * 1, S)`` with ``S`` of rank 2 in
        dimension 16: ``W2^2`` is exactly ``|1e-3 * 1|^2 = 1.6e-5``.  The
        traces and the fidelity each carry rounding of order ``n eps tr
        S``, so the priced cost must be that close (``4 n eps tr S``).
        Without the eigenvalue floor of ``_psd_root_traces``, the roots of
        the product's 14 zero eigenvalues, computed as rounding noise,
        undercut the exact value by up to 2.7e-6 on these matrices."""
        rng = np.random.default_rng(0)
        eps = np.finfo(float).eps
        for _ in range(200):
            f = rng.normal(size=(16, 2))
            s = f @ f.T
            cost = gaussian_w2_sq_matrix((Gaussian(np.zeros(16), s),),
                                         (Gaussian(np.full(16, 1e-3), s),))
            assert abs(cost[0, 0] - 1.6e-5) <= 4 * 16 * eps * np.trace(s)

    def test_non_psd_rejected_as_row_or_column(self):
        # neither side can hold an indefinite covariance: it is refused
        # when its Gaussian is built, alone or in a stack
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError):
            Gaussian([0.0, 0.0], bad)
        with pytest.raises(NumericalError):
            Gaussian.stack(np.zeros((2, 2)), np.stack([np.eye(2), bad]))

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError):
            gaussian_w2_sq_matrix((Gaussian([0.0], [1.0]),),
                                  (Gaussian([0.0, 0.0], [1.0, 1.0]),))


class TestMarginalLowerBound:
    """The exact costs of ``gaussian_w2_sq_matrix`` against the W2 of the
    coordinate marginals (:func:`marginal_lower_bound_oracle`), a lower
    bound that is exact for diagonal pairs."""

    @staticmethod
    def _lower_and_exact(ps, qs):
        scale = np.add.outer([g.cov_trace() for g in ps],
                             [g.cov_trace() for g in qs])
        return (marginal_lower_bound_oracle(ps, qs),
                gaussian_w2_sq_matrix(ps, qs), scale)

    def test_below_exact_cost(self):
        rng = np.random.default_rng(43)
        strict = 0
        for _ in range(60):
            dim = int(rng.integers(1, 7))
            ps, qs = ([mixed_component(rng, dim, k)
                       for k in rng.choice(KINDS, size=n)]
                      for n in rng.integers(1, 5, size=2))
            lower, exact, scale = self._lower_and_exact(ps, qs)
            assert np.all(lower <= exact + 1e-12 * scale)
            strict += int(np.sum(lower < exact - 1e-6 * scale))
        assert strict > 0  # the bound is not the exact cost in general

    def test_exact_for_diagonal_pairs(self):
        # diagonals in any order: the coordinates are independent
        rng = np.random.default_rng(47)
        for dim in range(1, 7):
            p, q = (Gaussian(rng.normal(size=dim),
                             rng.uniform(0.0, 2.0, size=dim))
                    for _ in range(2))
            lower, exact, scale = self._lower_and_exact((p,), (q,))
            np.testing.assert_allclose(lower, exact, rtol=0.0,
                                       atol=1e-12 * scale[0, 0])

    def test_strictly_below_for_rotated_pairs(self):
        # a diagonal covariance against a rotation of another: the
        # marginals do not see the rotation, the exact cost does
        rng = np.random.default_rng(53)
        for dim in range(2, 7):
            rot = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            a, b = (rng.uniform(0.5, 2.0, size=dim) for _ in range(2))
            mean = rng.normal(size=dim)
            p = Gaussian(mean, a)
            q = Gaussian(mean, rot @ np.diag(b) @ rot.T)
            lower, exact, scale = self._lower_and_exact((p,), (q,))
            assert lower[0, 0] < exact[0, 0] - 1e-6 * scale[0, 0]

    def test_at_least_the_trace_bound(self):
        # |m_i - m_j|^2 + (sqrt(tr S_i) - sqrt(tr S_j))^2 <= marginal bound
        # <= exact cost
        rng = np.random.default_rng(59)
        for _ in range(40):
            dim = int(rng.integers(1, 7))
            ps, qs = ([mixed_component(rng, dim, k)
                       for k in rng.choice(KINDS, size=n)]
                      for n in rng.integers(1, 5, size=2))
            lower, exact, scale = self._lower_and_exact(ps, qs)
            root_tr = [np.sqrt([g.cov_trace() for g in gs])
                       for gs in (ps, qs)]
            mean_sq = np.array([[np.sum(np.square(p.mean - q.mean))
                                 for q in qs] for p in ps])
            trace_bound = mean_sq + np.square(np.subtract.outer(*root_tr))
            assert np.all(lower >= trace_bound - 1e-12 * scale)
            assert np.all(exact >= trace_bound - 1e-12 * scale)


class TestStackedPrice:
    """``gaussian_w2_sq_pairs`` against column-by-column pricing: the same
    bits, whichever pairs are priced together and however they are cut
    into stacks.  Against the row-by-row pricing it replaced, which roots
    the other side of each pair, up to rounding."""

    @staticmethod
    def _components(rng, n, m, dim):
        kinds = KINDS + ("atom",)
        ps, qs = ([Gaussian(rng.normal(size=dim), np.zeros(dim))
                   if k == "atom" else mixed_component(rng, dim, k)
                   for k in rng.choice(kinds, size=size)]
                  for size in (n, m))
        # identical pairs, also between distinct objects
        ps[-1] = qs[0]
        d = qs[-1]
        ps[0] = Gaussian(d.mean, d.cov)
        return ps, qs

    @staticmethod
    def _all_pairs(n, m):
        return np.indices((n, m)).reshape(2, -1)

    @staticmethod
    def _assert_same_bits(ps, qs, rows, cols):
        got = gaussian_w2_sq_pairs(ps, qs, rows, cols)
        want = price_by_columns_oracle(ps, qs, rows, cols)
        assert got.tobytes() == want.tobytes()

    def test_all_pairs_and_random_masks(self):
        # all pairs in row-major order, and random subsets in random order
        rng = np.random.default_rng(71)
        for _ in range(40):
            n, m = (int(k) for k in rng.integers(2, 8, size=2))
            ps, qs = self._components(rng, n, m, int(rng.integers(1, 7)))
            self._assert_same_bits(ps, qs, *self._all_pairs(n, m))
            for _ in range(3):
                rows, cols = np.nonzero(rng.random((n, m)) < 0.4)
                order = rng.permutation(rows.size)
                self._assert_same_bits(ps, qs, rows[order], cols[order])

    def test_rows_priced_within_the_root_perturbation_bound(self):
        """Against the row-by-row pricing, within
        :func:`row_rooted_rounding_bound` per entry: ``2 (2 n sqrt(delta)
        + 1e-12 f)``, where ``delta = n eps |S_i|_2 |S_j|_2`` and ``f =
        sqrt(tr S_i tr S_j)``.

        Both sides compute the same fidelity, the nuclear norm of ``S_j^1/2
        S_i^1/2``, from products whose norm is at most ``|S_i|_2 |S_j|_2``;
        ``TestRootTraces`` derives ``2 n sqrt(n eps |M|_2) + 1e-12 tr`` for
        two root traces of one such product, and ``f`` bounds the trace by
        Cauchy-Schwarz.  The fidelity enters a cost twice.
        """
        rng = np.random.default_rng(73)
        for _ in range(60):
            n, m = (int(k) for k in rng.integers(2, 8, size=2))
            dim = int(rng.integers(1, 9))
            ps, qs = self._components(rng, n, m, dim)
            rows, cols = self._all_pairs(n, m)
            got = gaussian_w2_sq_pairs(ps, qs, rows, cols)
            want = price_by_rows_oracle(ps, qs, rows, cols)
            assert np.all(np.abs(got - want)
                          <= row_rooted_rounding_bound(ps, qs).ravel())

    def test_split_into_calls_as_one_call(self):
        # a pair's value does not depend on which pairs are priced with it
        rng = np.random.default_rng(73)
        for _ in range(20):
            ps, qs = self._components(rng, 6, 5, 4)
            rows, cols = self._all_pairs(6, 5)
            full = gaussian_w2_sq_pairs(ps, qs, rows, cols)
            for _ in range(4):
                sub = np.flatnonzero(rng.random(rows.size) < 0.3)
                sub = rng.permutation(sub)
                part = gaussian_w2_sq_pairs(ps, qs, rows[sub], cols[sub])
                assert part.tobytes() == full[sub].tobytes()

    def test_stacks_stay_within_the_byte_bound(self, monkeypatch):
        # 160^2 products are 200 KiB each, so the 21 pairs of a 3 x 7
        # call take two stacks of the 4 MiB bound; a bound of three 6 x 6
        # products cuts columns across stacks
        rng = np.random.default_rng(79)
        real = stats._psd_root_traces
        big = ([mixed_component(rng, 160, k)
                for k in ("full", "rank_deficient", "blocks", "full",
                          "blocks", "full", "diag")[:size]]
               for size in (3, 7))
        small = self._components(rng, 5, 4, 6)
        for (ps, qs), bound in ((big, stats._PRICE_STACK_BYTES),
                                (small, 3 * 6 * 6 * 8)):
            sizes = []

            def recording(mats):
                sizes.append(len(mats))
                assert mats.nbytes <= bound
                return real(mats)

            rows, cols = self._all_pairs(len(ps), len(qs))
            monkeypatch.setattr(stats, "_PRICE_STACK_BYTES", bound)
            monkeypatch.setattr(stats, "_psd_root_traces", recording)
            got = gaussian_w2_sq_pairs(ps, qs, rows, cols)
            monkeypatch.undo()
            assert len(sizes) > 1
            assert sum(sizes) == int(np.sum(
                ~identical_pairs(ps, qs, rows, cols)))
            want = price_by_columns_oracle(ps, qs, rows, cols)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bound", [None, 3 * 5 * 5 * 8])
    def test_one_root_per_column(self, monkeypatch, bound):
        # one stack for the whole call under the default bound; under a
        # bound of three products, a column cut by a stack boundary keeps
        # its one root
        rng = np.random.default_rng(83)
        ps, qs = self._components(rng, 6, 5, 5)
        rows, cols = self._all_pairs(6, 5)
        todo = ~identical_pairs(ps, qs, rows, cols)
        rooted, stacks = [], []
        real_root, real_traces = stats._root_of, stats._psd_root_traces
        monkeypatch.setattr(stats, "_root_of",
                            lambda b: rooted.append(id(b)) or real_root(b))
        monkeypatch.setattr(stats, "_psd_root_traces",
                            lambda mats: stacks.append(len(mats))
                            or real_traces(mats))
        if bound is not None:
            monkeypatch.setattr(stats, "_PRICE_STACK_BYTES", bound)
        gaussian_w2_sq_pairs(ps, qs, rows, cols)
        assert sorted(rooted) == sorted(
            {id(qs[j].eigen()) for j in np.unique(cols[todo])})
        if bound is None:
            assert stacks == [int(todo.sum())]
        else:
            assert max(stacks) == 3 and sum(stacks) == int(todo.sum())
            # some column has pairs in more than one stack
            stack_of = np.repeat(np.arange(len(stacks)), stacks)
            assert any(np.unique(stack_of[cols[todo] == j]).size > 1
                       for j in np.unique(cols[todo]))

    def test_price_computes_no_eigenvectors(self, monkeypatch):
        # once the columns are decomposed, pricing needs the products'
        # eigenvalues only, and no row is ever decomposed
        rng = np.random.default_rng(89)
        ps, qs = self._components(rng, 5, 4, 6)
        ps = undecomposed(ps)  # none shared with qs
        rows, cols = self._all_pairs(5, 4)
        _eigen_bases(qs)
        real = np.linalg.eigvalsh
        calls = []

        def no_eigh(*args, **kwargs):
            raise AssertionError("pricing called np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(a.shape) or real(a))
        got = gaussian_w2_sq_pairs(ps, qs, rows, cols)
        monkeypatch.undo()
        assert calls
        assert not any("_basis" in vars(g) for g in ps)
        want = price_by_columns_oracle(ps, qs, rows, cols)
        assert got.tobytes() == want.tobytes()

    def test_decomposes_each_priced_column_once_and_no_row(self,
                                                           monkeypatch):
        # the columns with a pair to price go through one stacked
        # decomposition; the other columns and the rows are not decomposed
        rng = np.random.default_rng(91)
        ps, qs = self._components(rng, 6, 5, 5)
        ps, qs = undecomposed(ps), undecomposed(qs)
        stacked = []
        real = stats._eigen_stack
        monkeypatch.setattr(stats, "_eigen_stack",
                            lambda mats: stacked.append(len(mats))
                            or real(mats))
        mask = np.zeros((6, 5), dtype=bool)
        mask[:, :3] = True
        mask[0, 4] = True
        rows, cols = np.nonzero(mask)
        gaussian_w2_sq_pairs(ps, qs, rows, cols)
        priced = np.unique(cols[~identical_pairs(ps, qs, rows, cols)])
        assert stacked == [priced.size]
        assert {j for j, g in enumerate(qs) if "_basis" in vars(g)} \
            == set(priced.tolist())
        assert not any("_basis" in vars(g) for g in ps)


class TestRootTraces:
    """``_psd_root_traces``, which sums the roots of the eigenvalues,
    against the eigenvector-weighted trace it replaced."""

    @staticmethod
    def _stack(rng, kind, n):
        """One to five ``n x n`` PSD matrices of one kind at scales 1e-3
        to 1e3: ``full`` has every eigenvalue in [1, 10] times the scale,
        ``blocks`` is ``full`` with exact zeros between interleaved blocks
        of one pattern, and ``rank_deficient`` has rank below ``n``."""
        k = int(rng.integers(1, 6))
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1, 1))
        if kind == "rank_deficient":
            f = rng.normal(size=(k, n, int(rng.integers(0, n))))
            return scale * (f @ f.swapaxes(1, 2))
        if kind == "blocks":
            lab = rng.integers(0, 3, size=n)
            q = np.stack([_block_orthogonal(rng, lab) for _ in range(k)])
        else:
            q = np.linalg.qr(rng.normal(size=(k, n, n)))[0]
        lam = rng.uniform(1.0, 10.0, size=(k, 1, n))
        mats = (q * lam) @ q.swapaxes(1, 2)
        return scale * 0.5 * (mats + mats.swapaxes(1, 2))

    @pytest.mark.parametrize("kind", ["full", "blocks"])
    def test_well_conditioned_stacks_agree_to_1e_12(self, kind):
        rng = np.random.default_rng(97)
        for _ in range(100):
            mats = self._stack(rng, kind, int(rng.integers(1, 17)))
            np.testing.assert_allclose(
                stats._psd_root_traces(mats),
                root_trace_by_eigenvectors_oracle(mats), rtol=1e-12,
                atol=0.0)

    def test_rank_deficient_within_the_root_perturbation_bound(self):
        """Both traces within ``2 n sqrt(delta) + 1e-12 tr``, where
        ``delta = n eps |M|_2``.

        LAPACK's symmetric eigensolvers are backward stable: the computed
        eigenvalues are the exact ones of ``M + E`` with ``|E|_2`` of
        order ``n eps |M|_2``, taken here as ``delta``, so by Weyl's
        inequality each lies within ``delta`` of an exact eigenvalue
        ``lambda_k``, in sorted order.  Clipping at 0 is 1-Lipschitz and
        ``|sqrt(x) - sqrt(y)| <= sqrt(|x - y|)`` for ``x, y >= 0``, so
        each clipped root lies within ``sqrt(delta)`` of ``sqrt(
        lambda_k)``, and a sum of ``n`` roots within ``n sqrt(delta)`` of
        ``tr(M^1/2)``.  The eigenvector-weighted trace weighs root ``b``
        by ``sum_a V_ab^2``, which is 1 to working precision for
        orthonormal computed eigenvectors, so it obeys the same bound up
        to a relative rounding term.  The two traces are then within
        twice the bound of each other.  Where ``M`` is singular the
        square root turns an eigenvalue error of order ``eps`` into a
        trace error of order ``sqrt(eps)``, which is why the relative
        test above needs well-conditioned matrices.
        """
        rng = np.random.default_rng(101)
        eps = np.finfo(float).eps
        for _ in range(200):
            n = int(rng.integers(1, 17))
            mats = self._stack(rng, "rank_deficient", n)
            got = stats._psd_root_traces(mats)
            want = root_trace_by_eigenvectors_oracle(mats)
            delta = n * eps * np.linalg.norm(mats, ord=2, axis=(1, 2))
            assert np.all(np.abs(got - want)
                          <= 2.0 * n * np.sqrt(delta) + 1e-12 * want)


def _block_orthogonal(rng, labels):
    """A random orthogonal matrix that is zero between indices of
    different labels: an orthogonal block per label."""
    q = np.zeros((labels.size, labels.size))
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        q[np.ix_(idx, idx)] = np.linalg.qr(
            rng.normal(size=(idx.size, idx.size)))[0]
    return q


class TestMixtureSecondMoment:
    def test_single_standard(self):
        assert abs(mixture_second_moment(Gaussian([0.0, 0.0], np.eye(2))) - 2.0) < 1e-15

    def test_two_atoms(self):
        mix = GaussianMixture([0.5, 0.5],
                              (Gaussian([1.0], [0.0]), Gaussian([-1.0], [0.0])))
        assert abs(mixture_second_moment(mix) - 1.0) < 1e-15

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(17)
        comps = tuple(random_gaussian(rng, 2) for _ in range(3))
        mix = GaussianMixture(rng.dirichlet(np.ones(3)), comps)
        samples = mix.sample(10**6, rng)
        sq = np.sum(samples ** 2, axis=1)
        se = sq.std() / 1000.0
        assert abs(mixture_second_moment(mix) - sq.mean()) < 3 * se


class TestSymmetricEig:
    def test_identity(self):
        basis = symmetric_eig(np.eye(3))
        np.testing.assert_allclose(basis.eigenvalues, np.ones(3))
        assert np.all(_active_mask(basis.eigenvalues))

    def test_diagonal(self):
        basis = symmetric_eig(np.diag([1.0, 4.0]))
        np.testing.assert_allclose(basis.eigenvalues, [4.0, 1.0])
        # eigenvectors form a signed permutation
        np.testing.assert_allclose(np.abs(basis.eigenvectors), [[0, 1], [1, 0]])

    def test_rank_one(self):
        u = np.array([1.2, -0.8, 1.2])
        u = 2.0 * u / np.linalg.norm(u)
        basis = symmetric_eig(np.outer(u, u))
        assert abs(basis.eigenvalues[0] - 4.0) < 1e-12
        assert _active_mask(basis.eigenvalues).tolist() == [True, False, False]
        np.testing.assert_allclose(basis.eigenvalues[1:], 0.0, atol=1e-12)

    def test_block_structure_reconstruction(self):
        # interleaved blocks exercise the connected-component split: blocks
        # of different sizes, two equal-size blocks (one batched eigh call)
        # and a fully dense matrix (one block)
        rng = np.random.default_rng(23)
        cases = (
            (np.array([0, 2, 4]), np.array([1, 3]), np.array([5])),
            (np.array([0, 3, 4]), np.array([1, 2, 5])),
            (np.arange(6),),
        )
        for blocks in cases:
            cov = np.zeros((6, 6))
            for idx in blocks:
                f = rng.normal(size=(len(idx), len(idx)))
                cov[np.ix_(idx, idx)] = f @ f.T
            basis = symmetric_eig(cov)
            vecs = basis.eigenvectors
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-10)
            rebuilt = (vecs * basis.eigenvalues) @ vecs.T
            assert np.linalg.norm(rebuilt - cov) <= 1e-8 * np.linalg.norm(cov)
            assert np.all(np.diff(basis.eigenvalues) <= 1e-12)
            # each eigenvector lives on exactly one block
            for col in vecs.T:
                support = np.flatnonzero(col != 0.0)
                assert sum(np.isin(support, idx).all() for idx in blocks) == 1

    @settings(max_examples=150, deadline=None)
    @given(labels=st.lists(st.integers(0, 5), min_size=1, max_size=30),
           shape=st.sampled_from(("dense", "chain", "random")),
           zero_diag=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_block_labelling_matches_connected_components(
            self, labels, shape, zero_diag, seed):
        # interleaved blocks given by `labels`, each dense, a chain in a
        # random order or a random graph; zero diagonal entries at random
        rng = np.random.default_rng(seed)
        labels = np.array(labels)
        n = labels.size
        same = labels[:, None] == labels[None, :]
        if shape == "chain":
            link = np.zeros((n, n), dtype=bool)
            for lab in np.unique(labels):
                members = rng.permutation(np.flatnonzero(labels == lab))
                link[members[:-1], members[1:]] = True
        elif shape == "random":
            link = same & (rng.uniform(size=(n, n)) < 0.3)
        else:
            link = same
        link = link | link.T
        np.fill_diagonal(link, rng.uniform(size=n) >= zero_diag)
        a = np.where(link, rng.normal(size=(n, n)), 0.0)
        a = a + a.T
        expected = pattern_blocks_oracle(a != 0.0)
        [(sel, got)] = _pattern_groups([a])
        assert sel == [0]
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)

    def test_rejects_asymmetric(self):
        with pytest.raises(ParseError):
            symmetric_eig(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ParseError):
                symmetric_eig(np.array([[1.0, bad], [bad, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError):
            symmetric_eig(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_stacked_decomposition_matches_one_matrix_path(self):
        # one stack mixing sparsity patterns: interleaved blocks, the same
        # pattern twice, dense, diagonal, zero, rank-deficient and with
        # tied eigenvalues across blocks; each matrix must decompose as
        # symmetric_eig decomposes it alone, in value and in layout
        # (column-major eigenvectors, which later products round by)
        rng = np.random.default_rng(41)
        n = 6
        mats = []
        for blocks in ((np.array([0, 2, 4]), np.array([1, 3]), np.array([5])),
                       (np.array([0, 2, 4]), np.array([1, 3]), np.array([5])),
                       (np.array([0, 3, 4]), np.array([1, 2, 5])),
                       (np.arange(n),),
                       tuple(np.array([i]) for i in range(n))):
            cov = np.zeros((n, n))
            for idx in blocks:
                f = rng.normal(size=(len(idx), max(1, len(idx) - 1)))
                cov[np.ix_(idx, idx)] = f @ f.T
            mats.append(0.5 * (cov + cov.T))
        mats.append(np.zeros((n, n)))
        tied = np.zeros((n, n))
        tied[np.ix_([0, 1], [0, 1])] = [[2.0, 1.0], [1.0, 2.0]]
        tied[np.ix_([2, 3], [2, 3])] = [[2.0, 1.0], [1.0, 2.0]]
        mats.append(tied)
        order = rng.permutation(len(mats))
        mats = [mats[k] for k in order]
        for m, basis in zip(mats, _eigen_stack(mats)):
            one = symmetric_eig(m)
            assert np.array_equal(basis.eigenvalues, one.eigenvalues)
            assert np.array_equal(basis.eigenvectors, one.eigenvectors)
            assert basis.eigenvectors.flags.f_contiguous
            assert one.eigenvectors.flags.f_contiguous
            assert not basis.eigenvalues.flags.writeable
            assert not basis.eigenvectors.flags.writeable

    def test_psd_sqrt(self):
        rng = np.random.default_rng(29)
        f = rng.normal(size=(4, 2))
        cov = f @ f.T
        root = psd_sqrt(cov)
        np.testing.assert_allclose(root @ root, cov, atol=1e-10)


class TestContainers:
    def test_gaussian_roundtrip(self):
        # a diagonal matrix is written as its variances, any other in full
        for cov, form in ((np.array([[1.0, 0.3], [0.3, 2.0]]), "full"),
                          (np.diag([1.0, 0.0]), "diag"),
                          (np.array([1.0, 2.0]), "diag"),
                          (np.zeros((2, 2)), "diag")):
            g = Gaussian([0.1, -0.2], cov)
            d = g.to_dict()
            assert list(d["cov"]) == [form]
            again = Gaussian.from_dict(json.loads(json.dumps(d)))
            np.testing.assert_array_equal(again.mean, g.mean)
            np.testing.assert_array_equal(again.cov, g.cov)
            assert again.cov.shape == (2, 2)

    def test_mixture_roundtrip(self):
        mix = GaussianMixture([0.25, 0.75],
                              (Gaussian([0.0], [1.0]), Gaussian([2.0], [0.5])))
        again = GaussianMixture.from_dict(json.loads(json.dumps(mix.to_dict())))
        np.testing.assert_array_equal(again.weights, mix.weights)
        assert again.components[1].cov[0, 0] == 0.5

    def test_mixture_loads_with_one_stacked_decomposition(self, monkeypatch):
        rng = np.random.default_rng(53)
        k, n = 64, 24
        f = rng.normal(size=(k, n, n))
        covs = f @ np.swapaxes(f, 1, 2)
        means = rng.normal(size=(k, n))
        variances = rng.uniform(0.0, 2.0, size=(3, n))
        d = {"weights": [1.0 / (k + 3)] * (k + 3), "components": [
            {"mean": m.tolist(), "cov": {"full": c.tolist()}}
            for m, c in zip(means, covs)]}
        # variance vectors among the matrices: one stack per form, and
        # the components keep their order
        for at, v in zip((0, 30, 66), variances):
            d["components"].insert(at, {"mean": v.tolist(),
                                        "cov": {"diag": v.tolist()}})
        calls = []
        eigen_stack = stats._eigen_stack
        monkeypatch.setattr(stats, "_eigen_stack",
                            lambda mats: calls.append(len(mats))
                            or eigen_stack(mats))
        mix = GaussianMixture.from_dict(json.loads(json.dumps(d)))
        assert sorted(calls) == [3, k]
        monkeypatch.setattr(stats, "_eigen_stack", eigen_stack)
        for g, c in zip(mix.components, d["components"]):
            one = Gaussian.from_dict(c)
            np.testing.assert_array_equal(g.mean, one.mean)
            np.testing.assert_array_equal(g.cov, one.cov)
            np.testing.assert_array_equal(g.eigen().eigenvalues,
                                          one.eigen().eigenvalues)
            np.testing.assert_array_equal(g.eigen().eigenvectors,
                                          one.eigen().eigenvectors)

    def test_mixture_validation(self):
        g = Gaussian([0.0], [1.0])
        with pytest.raises(ParseError):
            GaussianMixture([0.4, 0.4], (g, g))
        with pytest.raises(ParseError):
            GaussianMixture([], ())
        with pytest.raises(ParseError):
            GaussianMixture([0.5, 0.5], (g, Gaussian([0.0, 0.0], np.eye(2))))

    def test_gaussian_validation(self):
        with pytest.raises(ParseError):
            Gaussian([0.0, 0.0], np.array([[1.0, 0.5], [0.1, 1.0]]))
        with pytest.raises(ParseError):
            Gaussian([0.0], [-1.0])

    def test_covariance_that_is_not_psd_is_refused_at_every_door(self):
        # eigenvalues 3 and -1; one of -1e-13, within eig_clip_rtol of 2,
        # is clipped to 0
        bad = [[1.0, 2.0], [2.0, 1.0]]
        for build in (lambda: Gaussian([0.0, 0.0], bad),
                      lambda: Gaussian.stack(np.zeros((2, 2)),
                                             np.stack([np.eye(2), bad])),
                      lambda: GaussianMixture.from_dict({
                          "weights": [1], "components": [
                              {"mean": [0, 0], "cov": {"full": bad}}]})):
            with pytest.raises(NumericalError):
                build()
        near = Gaussian([0.0, 0.0], [[1.0, 1.0 + 1e-13], [1.0 + 1e-13, 1.0]])
        assert near.eigen().eigenvalues[1] == 0.0
        # the pair mw2 once priced at 2.0 with the indefinite side as its
        # row can no longer be formed
        with pytest.raises(NumericalError):
            mw2(Gaussian([0.0, 0.0], bad), Gaussian([1.0, 1.0], [0.0, 0.0]))

    def test_eigen_is_cached(self):
        rng = np.random.default_rng(43)
        for g in (random_gaussian(rng, 3), random_gaussian(rng, 3, True)):
            assert g.eigen() is g.eigen()
            assert _eigen_bases([g, g])[1] is g.eigen()
        a, b = random_gaussian(rng, 4), random_gaussian(rng, 4)
        bases = _eigen_bases([a, b, a])
        assert bases[0] is bases[2] is a.eigen()
        assert bases[1] is b.eigen()

    def test_stack_matches_constructor(self):
        # full matrices asymmetric within tolerance, variance vectors with
        # negatives within the floor: the stack stores what the
        # constructor stores, read-only and detached from the input
        rng = np.random.default_rng(47)
        k, n = 5, 4
        means = rng.normal(size=(k, n))
        f = rng.normal(size=(k, n, n))
        full = f @ np.swapaxes(f, 1, 2)
        full[:, 0, 1] += 1e-14
        diag = rng.uniform(0.0, 2.0, (k, n))
        diag[:, 0] = -1e-12
        for covs in (full, diag):
            before = covs.copy()
            stacked = Gaussian.stack(means, covs)
            assert len(stacked) == k
            for m, c, g in zip(means, covs, stacked):
                want = Gaussian(m, c)
                assert np.array_equal(g.mean, want.mean)
                assert np.array_equal(g.cov, want.cov)
                if covs.ndim == 2:  # stored as the clipped diagonal matrix
                    assert np.array_equal(g.cov, np.diag(np.maximum(c, 0.0)))
                assert not g.mean.flags.writeable
                assert not g.cov.flags.writeable
            assert np.array_equal(covs, before)
            means[0, 0] += 1.0
            assert stacked[0].mean[0] != means[0, 0]

    def test_stack_rejects_what_the_constructor_rejects(self):
        good_m, good_c = np.zeros(2), np.eye(2)
        bad = [
            (np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]])),  # asymmetric
            (np.zeros(2), np.array([[1.0, np.nan], [np.nan, 1.0]])),
            (np.zeros(2), np.array([[np.inf, 0.0], [0.0, 1.0]])),
            (np.zeros(2), np.array([[-np.inf, 0.0], [0.0, 1.0]])),
            (np.array([np.nan, 0.0]), np.eye(2)),
            (np.zeros(2), np.eye(3)),  # shape mismatch
            (np.zeros(2), np.ones((2, 3))),
        ]
        bad_diag = [
            (np.zeros(2), np.array([-1.0, 1.0])),  # negative variance
            (np.zeros(2), np.array([np.nan, 1.0])),
            (np.zeros(2), np.array([np.inf, 1.0])),
            (np.array([0.0, np.inf]), np.ones(2)),
            (np.zeros(2), np.ones(3)),  # length mismatch
        ]
        for (m, c), (gm, gc) in ([(case, (good_m, good_c)) for case in bad]
                                 + [(case, (good_m, np.ones(2)))
                                    for case in bad_diag]):
            with pytest.raises(ParseError):
                Gaussian(m, c)
            if c.shape != gc.shape:
                with pytest.raises(ParseError):
                    Gaussian.stack(m[None], c[None])
                continue
            with pytest.raises(ParseError):
                Gaussian.stack(np.stack([gm, m, gm]), np.stack([gc, c, gc]))
        assert Gaussian.stack(np.zeros((0, 2)), np.zeros((0, 2, 2))) == ()
        with pytest.raises(ParseError):
            Gaussian.stack(np.zeros(2), np.eye(2)[None])  # means not (K, n)
        with pytest.raises(ParseError):
            Gaussian.stack(np.zeros((2, 2)), np.eye(2)[None])  # K mismatch
        with pytest.raises(ParseError):
            Gaussian.stack(np.zeros((1, 2)), np.zeros((1, 2, 2, 2)))

    def test_mixture_moments_match_sampling(self):
        rng = np.random.default_rng(31)
        mix = GaussianMixture(
            [0.3, 0.7],
            (Gaussian([1.0, 0.0], np.eye(2)),
             Gaussian([-1.0, 2.0], np.array([[0.5, 0.2], [0.2, 0.8]]))))
        samples = mix.sample(200_000, rng)
        np.testing.assert_allclose(samples.mean(axis=0), mix.mean(), atol=0.02)
        np.testing.assert_allclose(np.cov(samples.T), mix.full_cov(), atol=0.03)
