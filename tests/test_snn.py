"""Tests for network models, certified propagation, and Monte Carlo sampling.

Closed-form layer pushforwards and spectral bounds are checked against
vectorized Monte Carlo oracles computed in-test; certified ledger bounds are
checked against empirical 2-Wasserstein estimates between exact network
samples and samples of the returned approximation.
"""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from wassnet import snn, stats
from wassnet.config import TOL
from wassnet.errors import ParseError
from wassnet.snn import (Activation, BoundLedger, DeterministicLinear,
                         Dropout, LedgerRecord, PropagationConfig, SnnModel,
                         StochasticLinear, expected_spectral_bound,
                         propagate, push_point_through_stochastic_linear,
                         sample_network)
from wassnet.stats import (DiscreteDistribution, Gaussian, GaussianMixture,
                           _eigen_bases)
from wassnet.transport import empirical_w2

from oracles import mc_mean_se, push_point_oracle, sample_network_oracle


def _vi_net(rng, widths, activation="tanh", weight_var=0.3, bias_var=0.1,
            dropout=None, ntk=True):
    """Random mean-field network over the given width sequence."""
    layers = []
    for i in range(len(widths) - 1):
        n_in, n_out = widths[i], widths[i + 1]
        layers.append(StochasticLinear(
            rng.normal(0.0, 1.0, (n_out, n_in)),
            np.full((n_out, n_in), weight_var),
            rng.normal(0.0, 0.5, n_out),
            np.full(n_out, bias_var),
            ntk_scaling=ntk))
        if i < len(widths) - 2:
            layers.append(Activation(activation))
            if dropout is not None:
                layers.append(Dropout(dropout))
    return SnnModel(widths[0], tuple(layers))


def _empirical_batches(model, approx, points, n, k, seed):
    """Mean and SE of empirical W2 between fresh network and approx samples."""
    rng = np.random.default_rng(seed)
    vals = []
    for b in range(k):
        net_samples = sample_network(model, points, n, seed * 1000 + b)
        approx_samples = approx.sample(n, rng)
        vals.append(empirical_w2(net_samples, approx_samples))
    return mc_mean_se(vals)


class TestLayerAndModelValidation:
    def test_stochastic_linear_shape_mismatch(self):
        with pytest.raises(ParseError):
            StochasticLinear(np.ones((2, 3)), np.ones((2, 2)),
                             np.zeros(2), np.zeros(2))

    def test_stochastic_linear_negative_variance(self):
        with pytest.raises(ParseError):
            StochasticLinear(np.ones((1, 1)), -np.ones((1, 1)),
                             np.zeros(1), np.zeros(1))

    def test_stochastic_linear_bad_bias(self):
        with pytest.raises(ParseError):
            StochasticLinear(np.ones((2, 3)), np.ones((2, 3)),
                             np.zeros(3), np.zeros(3))

    def test_nonfinite_parameters(self):
        with pytest.raises(ParseError):
            DeterministicLinear(np.array([[np.inf]]), np.zeros(1))
        with pytest.raises(ParseError):
            StochasticLinear(np.array([[np.nan]]), np.ones((1, 1)),
                             np.zeros(1), np.zeros(1))

    def test_dropout_bounds(self):
        with pytest.raises(ParseError):
            Dropout(0.0)
        with pytest.raises(ParseError):
            Dropout(1.5)
        assert Dropout(1.0).keep_prob == 1.0

    def test_unknown_activation(self):
        with pytest.raises(ParseError):
            Activation("softplus")

    def test_model_needs_a_linear_layer(self):
        with pytest.raises(ParseError):
            SnnModel(2, (Activation("relu"),))

    def test_model_final_layer_must_be_linear(self):
        lin = DeterministicLinear(np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ParseError):
            SnnModel(2, (lin, Activation("tanh")))

    def test_model_rejects_adjacent_activations(self):
        lin = DeterministicLinear(np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ParseError):
            SnnModel(2, (lin, Activation("tanh"), Activation("relu"), lin))

    def test_model_dimension_chaining(self):
        a = DeterministicLinear(np.ones((3, 2)), np.zeros(3))
        b = DeterministicLinear(np.ones((4, 5)), np.zeros(4))
        with pytest.raises(ParseError):
            SnnModel(2, (a, b))

    def test_model_json_roundtrip(self):
        rng = np.random.default_rng(0)
        model = SnnModel(2, (
            StochasticLinear(rng.normal(size=(3, 2)), np.full((3, 2), 0.2),
                             rng.normal(size=3), np.full(3, 0.05),
                             ntk_scaling=True),
            Activation("relu"),
            Dropout(0.8),
            DeterministicLinear(rng.normal(size=(1, 3)), rng.normal(size=1)),
        ))
        d = model.to_dict()
        back = SnnModel.from_dict(d)
        assert back.to_dict() == d
        assert [type(l).__name__ for l in back.layers] == \
            [type(l).__name__ for l in model.layers]
        assert back.layers[0].ntk_scaling is True

    def test_model_from_dict_rejects_unknown_type(self):
        with pytest.raises(ParseError):
            SnnModel.from_dict({"input_dim": 1, "layers": [{"type": "conv"}]})

    def test_model_from_dict_rejects_missing_fields(self):
        with pytest.raises(ParseError):
            SnnModel.from_dict({"layers": []})
        with pytest.raises(ParseError):
            SnnModel.from_dict({"input_dim": 1,
                                "layers": [{"type": "linear"}]})


class TestExpectedSpectralBound:
    def test_zero_variance_equals_mean_spectral_norm(self):
        layer = StochasticLinear(np.array([[3.0, 4.0]]), np.zeros((1, 2)),
                                 np.zeros(1), np.zeros(1))
        assert expected_spectral_bound(layer, 1) == pytest.approx(5.0,
                                                                  abs=1e-12)

    def test_zero_mean_equals_frobenius_of_std(self):
        layer = StochasticLinear(np.zeros((2, 2)), np.full((2, 2), 0.49),
                                 np.zeros(2), np.zeros(2))
        assert expected_spectral_bound(layer, 1) == pytest.approx(
            2.0 * 0.7, abs=1e-12)

    def test_deterministic_layer_uses_spectral_norm(self):
        layer = DeterministicLinear(np.diag([3.0, 4.0]), np.zeros(2))
        assert expected_spectral_bound(layer, 1) == 4.0
        assert expected_spectral_bound(layer, 4) == 8.0

    def test_scaling_divides_by_sqrt_fan_in(self):
        layer = StochasticLinear(np.array([[3.0, 4.0, 0.0, 0.0]]),
                                 np.full((1, 4), 0.25), np.zeros(1),
                                 np.zeros(1), ntk_scaling=True)
        expected = 0.5 * (math.sqrt(4 * 0.25) + 5.0)
        assert expected_spectral_bound(layer, 1) == pytest.approx(expected,
                                                                  abs=1e-12)

    def test_input_set_factor_is_sqrt_d(self):
        layer = StochasticLinear(np.ones((2, 2)), np.full((2, 2), 0.1),
                                 np.zeros(2), np.zeros(2))
        one = expected_spectral_bound(layer, 1)
        assert expected_spectral_bound(layer, 9) == pytest.approx(3.0 * one,
                                                                  rel=1e-12)

    def test_dominates_monte_carlo_expected_norm(self):
        # independent oracle: E[||W||_2^2]^(1/2) over 100k realizations
        rng = np.random.default_rng(42)
        mean = rng.normal(0.0, 1.0, (3, 3))
        var = rng.uniform(0.05, 0.5, (3, 3))
        layer = StochasticLinear(mean, var, np.zeros(3), np.zeros(3))
        draws = mean + np.sqrt(var) * rng.standard_normal((100_000, 3, 3))
        top = np.linalg.svd(draws, compute_uv=False)[:, 0]
        est, se = mc_mean_se(np.square(top))
        assert expected_spectral_bound(layer, 1) >= math.sqrt(est + 3 * se)

    def test_bias_does_not_enter(self):
        base = StochasticLinear(np.ones((2, 2)), np.full((2, 2), 0.1),
                                np.zeros(2), np.zeros(2))
        shifted = StochasticLinear(np.ones((2, 2)), np.full((2, 2), 0.1),
                                   np.array([5.0, -2.0]), np.array([9.0, 1.0]))
        assert expected_spectral_bound(base, 1) == \
            expected_spectral_bound(shifted, 1)

    def test_norms_are_kept_on_the_layer_and_freed_with_it(self,
                                                          monkeypatch):
        # one norm per layer object, whatever the input-set size; the
        # cached norms live in the layer's own __dict__
        rng = np.random.default_rng(3)
        stoch = StochasticLinear(rng.normal(size=(3, 2)),
                                 np.full((3, 2), 0.1), np.zeros(3),
                                 np.zeros(3), ntk_scaling=True)
        det = DeterministicLinear(rng.normal(size=(2, 3)), np.zeros(2))
        want = [expected_spectral_bound(layer, d)
                for layer in (StochasticLinear(*(
                    getattr(stoch, f.name) for f in dataclasses.fields(
                        stoch))), DeterministicLinear(det.weight, det.bias))
                for d in (1, 4)]
        calls = []
        real = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        got = [expected_spectral_bound(layer, d)
               for layer in (stoch, det) for d in (1, 4)] + [
            expected_spectral_bound(stoch, 1)]
        monkeypatch.undo()
        assert got == want + want[:1]
        assert len(calls) == 2
        assert "_norms" in vars(stoch) and "_spectral_norm" in vars(det)
        refs = [weakref.ref(stoch), weakref.ref(det)]
        del stoch, det
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_invalid_inputs(self):
        layer = DeterministicLinear(np.ones((1, 1)), np.zeros(1))
        with pytest.raises(ParseError):
            expected_spectral_bound(layer, 0)
        with pytest.raises(ParseError):
            expected_spectral_bound(Activation("relu"), 1)


class TestPushPoint:
    def test_scalar_closed_form(self):
        layer = StochasticLinear(np.array([[2.0, -1.0]]),
                                 np.array([[0.5, 0.25]]),
                                 np.array([0.3]), np.array([0.1]))
        g = push_point_through_stochastic_linear(np.array([1.0, 2.0]), layer)
        assert g.mean[0] == pytest.approx(2.0 - 2.0 + 0.3, abs=1e-15)
        assert g.cov[0, 0] == pytest.approx(0.5 + 1.0 + 0.1, abs=1e-15)
        assert g.cov.shape == (1, 1)

    def test_zero_variance_gives_point_mass(self):
        layer = StochasticLinear(np.array([[1.0, 1.0], [1.0, -1.0]]),
                                 np.zeros((2, 2)), np.array([0.5, 0.0]),
                                 np.zeros(2))
        g = push_point_through_stochastic_linear(np.array([2.0, 3.0]), layer)
        assert np.allclose(g.mean, [5.5, -1.0], atol=0)
        assert np.all(g.cov == 0.0)

    def test_scaled_layer_scales_bias_too(self):
        layer = StochasticLinear(np.array([[2.0, -1.0, 0.0, 0.0]]),
                                 np.full((1, 4), 0.25), np.array([1.0]),
                                 np.array([0.36]), ntk_scaling=True)
        g = push_point_through_stochastic_linear(
            np.array([1.0, 2.0, 0.0, 0.0]), layer)
        s = 0.5
        assert g.mean[0] == pytest.approx(s * 1.0, abs=1e-15)
        assert g.cov[0, 0] == pytest.approx(
            s * s * (0.25 * 5.0 + 0.36), abs=1e-15)

    def test_duplicate_blocks_are_perfectly_correlated(self):
        layer = StochasticLinear(np.array([[2.0, -1.0]]),
                                 np.array([[0.5, 0.25]]),
                                 np.array([0.3]), np.array([0.1]))
        g = push_point_through_stochastic_linear(
            np.array([1.0, 2.0, 1.0, 2.0]), layer, d=2)
        cov = g.cov
        assert cov[0, 0] == pytest.approx(1.6, abs=1e-15)
        assert cov[0, 1] == pytest.approx(cov[0, 0], abs=1e-15)
        assert g.mean[0] == g.mean[1]

    def test_block_covariance_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        mean = rng.normal(size=(2, 3))
        var = rng.uniform(0.1, 0.6, (2, 3))
        bm = rng.normal(size=2)
        bv = rng.uniform(0.05, 0.3, 2)
        layer = StochasticLinear(mean, var, bm, bv)
        points = rng.normal(size=(2, 3))
        g = push_point_through_stochastic_linear(points.reshape(-1), layer,
                                                 d=2)
        n = 200_000
        w = mean + np.sqrt(var) * rng.standard_normal((n, 2, 3))
        b = bm + np.sqrt(bv) * rng.standard_normal((n, 2))
        z = np.einsum("nij,aj->nai", w, points) + b[:, None, :]
        z = z.reshape(n, 4)
        mc_mean = z.mean(axis=0)
        mc_cov = np.cov(z.T)
        # mean SE is sqrt(var/n); covariance entries fluctuate at O(1/sqrt(n))
        assert np.allclose(mc_mean, g.mean, atol=4 * np.sqrt(
            np.diag(g.cov).max() / n) * 3)
        assert np.allclose(mc_cov, g.cov, atol=0.05)
        # different neurons are exactly independent
        assert g.cov[0, 1] == 0.0
        assert g.cov[0, 3] == 0.0

    @pytest.mark.parametrize("ntk", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_stacked_push_matches_per_point_oracle(self, d, ntk):
        # duplicate atoms, an atom with two equal blocks, and the zero
        # atom: with zero bias variance on some neurons its blocks vanish
        # and the covariance pattern splits further than n_out blocks
        rng = np.random.default_rng(10 * d + ntk)
        n_in, n_out = 3, 5
        bias_var = rng.uniform(0.05, 0.3, n_out)
        bias_var[::2] = 0.0
        layer = StochasticLinear(rng.normal(size=(n_out, n_in)),
                                 rng.uniform(0.0, 0.5, (n_out, n_in)),
                                 rng.normal(size=n_out), bias_var,
                                 ntk_scaling=ntk)
        locs = rng.normal(size=(6, d * n_in))
        locs[3] = locs[1]
        locs[4, n_in:] = np.tile(locs[4, :n_in], d - 1)
        locs[5] = 0.0
        if d > 1:
            locs[2, :n_in] = 0.0  # one zero block in an atom
        means, covs = snn._push_atoms(locs, layer, d)
        comps = Gaussian.stack(means, covs)
        bases = _eigen_bases(comps)
        for k, (g, basis) in enumerate(zip(comps, bases)):
            want = push_point_oracle(locs[k], layer, d)
            assert np.array_equal(g.mean, want.mean)
            assert np.array_equal(g.cov, want.cov)
            if d == 1:  # variances, stored as the clipped diagonal matrix
                assert np.array_equal(g.cov, np.diag(np.maximum(covs[k], 0.0)))
            one = want.eigen()  # decomposed on its own
            assert np.array_equal(basis.eigenvalues, one.eigenvalues)
            assert np.array_equal(basis.eigenvectors, one.eigenvectors)
            assert basis is g.eigen()
            single = push_point_through_stochastic_linear(locs[k], layer, d)
            assert np.array_equal(single.mean, want.mean)
            assert np.array_equal(single.cov, want.cov)

    def test_dimension_mismatch(self):
        layer = StochasticLinear(np.ones((1, 2)), np.ones((1, 2)),
                                 np.zeros(1), np.zeros(1))
        with pytest.raises(ParseError):
            push_point_through_stochastic_linear(np.ones(3), layer)
        with pytest.raises(ParseError):
            push_point_through_stochastic_linear(np.ones(2), layer, d=2)


class TestPropagate:
    def test_deterministic_network_is_exact(self, table):
        w1 = np.array([[1.0, 2.0], [0.5, -1.0]])
        w2 = np.array([[1.0, 1.0]])
        model = SnnModel(2, (
            DeterministicLinear(w1, np.array([0.1, 0.2])),
            Activation("tanh"),
            DeterministicLinear(w2, np.array([-0.3])),
        ))
        cfg = PropagationConfig(table=table, signature_budget=8,
                                compression_size=4, seed=0)
        pts = np.array([[1.0, -0.5]])
        approx, ledger = propagate(model, pts, cfg)
        expected = w2 @ np.tanh(w1 @ pts[0] + [0.1, 0.2]) + [-0.3]
        assert isinstance(approx, DiscreteDistribution)
        assert approx.size == 1
        assert np.allclose(approx.locations[0], expected, atol=1e-12)
        assert ledger.final_bound == 0.0
        assert ledger.audit() == 0.0
        assert len(ledger.records) == 2

    def test_single_stochastic_layer_is_exact(self, table):
        layer = StochasticLinear(np.array([[2.0, -1.0]]),
                                 np.array([[0.5, 0.25]]),
                                 np.array([0.3]), np.array([0.1]))
        cfg = PropagationConfig(table=table, signature_budget=8,
                                compression_size=4, seed=0)
        approx, ledger = propagate(SnnModel(2, (layer,)),
                                   np.array([[1.0, 2.0]]), cfg)
        assert isinstance(approx, GaussianMixture)
        assert approx.size == 1
        assert approx.components[0].mean[0] == pytest.approx(0.3, abs=1e-15)
        assert approx.components[0].cov[0, 0] == pytest.approx(1.6, abs=1e-15)
        assert ledger.final_bound == 0.0

    def test_deterministic_map_of_gaussian_stays_exact(self, table):
        sl = StochasticLinear(np.array([[1.0], [2.0]]),
                              np.array([[0.5], [0.3]]),
                              np.zeros(2), np.array([0.1, 0.2]))
        dl = DeterministicLinear(np.array([[1.0, 1.0], [1.0, -1.0]]),
                                 np.array([0.0, 1.0]))
        cfg = PropagationConfig(table=table, signature_budget=8,
                                compression_size=4, seed=0)
        approx, ledger = propagate(SnnModel(1, (sl, dl)),
                                   np.array([[2.0]]), cfg)
        assert ledger.final_bound == 0.0
        g = approx.components[0]
        inner_var = np.diag([0.5 * 4 + 0.1, 0.3 * 4 + 0.2])
        w = dl.weight
        assert np.allclose(g.mean, w @ np.array([2.0, 4.0]) + dl.bias,
                           atol=1e-12)
        assert np.allclose(g.cov, w @ inner_var @ w.T, atol=1e-12)

    def test_activation_before_first_linear_is_exact(self, table):
        layer = StochasticLinear(np.array([[1.0, 1.0]]), np.zeros((1, 2)),
                                 np.zeros(1), np.zeros(1))
        cfg = PropagationConfig(table=table, signature_budget=4,
                                compression_size=2, seed=0)
        approx, ledger = propagate(SnnModel(2, (Activation("relu"), layer)),
                                   np.array([[-3.0, 2.0]]), cfg)
        assert ledger.final_bound == 0.0
        assert approx.components[0].mean[0] == pytest.approx(2.0, abs=1e-15)

    def test_bound_dominates_empirical_distance(self, table):
        rng = np.random.default_rng(7)
        model = _vi_net(rng, (1, 16, 1))
        cfg = PropagationConfig(table=table, signature_budget=10,
                                compression_size=5, seed=3)
        points = np.array([[0.7]])
        approx, ledger = propagate(model, points, cfg)
        assert isinstance(approx, GaussianMixture)
        est, se = _empirical_batches(model, approx, points, 500, 4, seed=11)
        assert est + 3 * se <= ledger.final_bound

    def test_bound_sound_across_random_architectures(self, table):
        # randomized soundness sweep: VI and dropout nets, relu and tanh
        rng = np.random.default_rng(2024)
        for trial in range(30):
            widths = [int(rng.integers(1, 4))]
            for _ in range(int(rng.integers(1, 3))):
                widths.append(int(rng.integers(2, 33)))
            widths.append(int(rng.integers(1, 3)))
            activation = "relu" if trial % 2 else "tanh"
            dropout = 0.9 if trial % 3 == 0 else None
            model = _vi_net(rng, widths, activation=activation,
                            weight_var=float(rng.uniform(0.05, 0.4)),
                            bias_var=float(rng.uniform(0.01, 0.2)),
                            dropout=dropout)
            cfg = PropagationConfig(table=table,
                                    signature_budget=int(rng.integers(4, 12)),
                                    compression_size=int(rng.integers(2, 6)),
                                    seed=trial)
            points = rng.normal(size=(1, widths[0]))
            approx, ledger = propagate(model, points, cfg)
            ledger.audit()
            net_samples = sample_network(model, points, 500, 7_000 + trial)
            approx_samples = approx.sample(500, np.random.default_rng(trial))
            est = empirical_w2(net_samples, approx_samples)
            assert est <= ledger.final_bound, \
                f"trial {trial}: estimate {est} above bound " \
                f"{ledger.final_bound} for widths {widths}"

    def test_bound_sound_for_multi_point_sets(self, table):
        rng = np.random.default_rng(5)
        model = _vi_net(rng, (2, 12, 1))
        cfg = PropagationConfig(table=table, signature_budget=8,
                                compression_size=4, seed=1)
        points = np.array([[0.5, -1.0], [1.5, 0.25]])
        approx, ledger = propagate(model, points, cfg)
        assert approx.dim == 2
        est, se = _empirical_batches(model, approx, points, 500, 4, seed=21)
        assert est + 3 * se <= ledger.final_bound

    def test_bound_nonincreasing_in_signature_budget(self, table):
        rng = np.random.default_rng(7)
        model = _vi_net(rng, (1, 16, 1))
        points = np.array([[0.7]])
        previous = None
        for budget in (2, 4, 8, 16, 32, 64, 128):
            cfg = PropagationConfig(table=table, signature_budget=budget,
                                    compression_size=4, seed=3)
            _, ledger = propagate(model, points, cfg)
            if previous is not None:
                assert ledger.final_bound <= previous + 1e-12
            previous = ledger.final_bound

    def test_bound_nonincreasing_in_compression_size(self, table):
        rng = np.random.default_rng(9)
        model = _vi_net(rng, (1, 8, 8, 1))
        points = np.array([[0.4]])
        previous = None
        for size in (1, 2, 3, 4):
            cfg = PropagationConfig(table=table, signature_budget=4,
                                    compression_size=size, seed=3)
            _, ledger = propagate(model, points, cfg)
            if previous is not None:
                assert ledger.final_bound <= previous + 1e-12
            previous = ledger.final_bound

    def test_duplicated_points_match_single_point_marginals(self, table):
        rng = np.random.default_rng(7)
        model = _vi_net(rng, (1, 6, 1))
        cfg = PropagationConfig(table=table, signature_budget=6,
                                compression_size=4, seed=3)
        single, _ = propagate(model, np.array([[0.7]]), cfg)
        for d in (2, 3):
            stacked, _ = propagate(model, np.full((d, 1), 0.7), cfg)
            mean, cov = stacked.mean(), stacked.full_cov()
            for block in range(d):
                assert np.allclose(mean[block:block + 1], single.mean(),
                                   atol=1e-9)
                assert np.allclose(cov[block:block + 1, block:block + 1],
                                   single.full_cov(), atol=1e-9)

    def test_dead_zone_net_charges_the_plain_signature_bound(
            self, table, monkeypatch):
        # hidden pre-activations near -5 with standard deviation near 0.14:
        # every first-layer component lies deep in the ReLU dead zone, and
        # the activation step still charges the full signature bound
        # (Lipschitz constant 1), here 0.136 (D=1) and 0.257 (D=2) of
        # final bound
        dead = SnnModel(1, (
            StochasticLinear(np.zeros((2, 1)), np.full((2, 1), 0.01),
                             np.full(2, -5.0), np.full(2, 0.01)),
            Activation("relu"),
            StochasticLinear(np.ones((1, 2)), np.full((1, 2), 0.01),
                             np.zeros(1), np.full(1, 0.01)),
        ))
        cfg = PropagationConfig(table=table, signature_budget=10,
                                compression_size=5, seed=0)
        charged = []
        original = snn.signature_of_mixture

        def recording(*args):
            out = original(*args)
            charged.append(out[1])
            return out

        monkeypatch.setattr(snn, "signature_of_mixture", recording)
        for points in (np.array([[1.0]]), np.array([[1.0], [0.5]])):
            charged.clear()
            _, ledger = propagate(dead, points, cfg)
            assert len(charged) == 1
            assert ledger.records[1].signature_term == charged[0]
            assert ledger.final_bound > 0.1

    def test_full_dropout_enumeration_is_exact(self, table):
        # width 2 and compression size 4 cover all 2^2 masks: zero error
        dl_in = DeterministicLinear(np.array([[1.0], [2.0]]), np.zeros(2))
        dl_out = DeterministicLinear(np.array([[1.0, 1.0]]), np.zeros(1))
        model = SnnModel(1, (dl_in, Dropout(0.8), dl_out))
        cfg = PropagationConfig(table=table, signature_budget=4,
                                compression_size=4, seed=0)
        approx, ledger = propagate(model, np.array([[1.0]]), cfg)
        assert ledger.final_bound == 0.0
        assert isinstance(approx, DiscreteDistribution)
        atoms = {(round(l[0], 12), round(w, 12))
                 for l, w in zip(approx.locations, approx.weights)}
        assert atoms == {(3.0, 0.64), (1.0, 0.16), (2.0, 0.16), (0.0, 0.04)}

    def test_truncated_dropout_bound_is_sound(self, table):
        rng = np.random.default_rng(31)
        model = _vi_net(rng, (1, 12, 1), dropout=0.85)
        cfg = PropagationConfig(table=table, signature_budget=8,
                                compression_size=4, seed=5)
        points = np.array([[0.9]])
        approx, ledger = propagate(model, points, cfg)
        assert ledger.records[-1].compression_term > 0.0
        est, se = _empirical_batches(model, approx, points, 500, 4, seed=33)
        assert est + 3 * se <= ledger.final_bound

    @pytest.mark.parametrize("d", [1, 2])
    def test_overflowing_push_is_refused_before_any_decomposition(
            self, table, d, monkeypatch):
        # an input of 1e200 squares past the float range: the pushed
        # covariances hold inf, which is refused as soon as they are built
        rng = np.random.default_rng(7)
        model = _vi_net(rng, (1, 3, 1))
        points = np.linspace(1e200, 2e200, d)[:, None]

        def decomposing(mats):
            raise AssertionError("an overflowing covariance was decomposed")

        monkeypatch.setattr(stats, "_eigen_stack", decomposing)
        cfg = PropagationConfig(table=table, signature_budget=4,
                                compression_size=2, seed=0)
        with np.errstate(over="ignore"):
            with pytest.raises(ParseError, match="covariance must be finite"):
                propagate(model, points, cfg)

    @pytest.mark.parametrize("d", [1, 2])
    def test_builds_no_gaussian_through_the_outside_checks(self, table, d,
                                                          monkeypatch):
        # pushes, merged clusters and images under a deterministic layer
        # are PSD by construction and skip the checks of outside data
        rng = np.random.default_rng(11 + d)
        net = _vi_net(rng, (1, 4, 4, 3))
        model = SnnModel(1, net.layers + (DeterministicLinear(
            rng.normal(size=(2, 3)), np.zeros(2)),))
        calls = []
        real = stats._validated
        monkeypatch.setattr(stats, "_validated",
                            lambda *a: calls.append(1) or real(*a))
        cfg = PropagationConfig(table=table, signature_budget=4,
                                compression_size=2, seed=0)
        approx, _ = propagate(model, np.linspace(-1.0, 1.0, d)[:, None], cfg)
        assert isinstance(approx, GaussianMixture) and approx.size > 1
        assert calls == []

    def test_atom_cap_rejects_oversized_signature(self, table):
        rng = np.random.default_rng(1)
        model = _vi_net(rng, (1, 4, 1))
        cfg = PropagationConfig(table=table, signature_budget=200_001,
                                compression_size=5, seed=0)
        with pytest.raises(ParseError, match="cap"):
            propagate(model, np.array([[1.0]]), cfg)

    def test_atom_cap_rejects_oversized_dropout_expansion(self, table):
        dl_in = DeterministicLinear(np.ones((20, 1)), np.zeros(20))
        dl_out = DeterministicLinear(np.ones((1, 20)), np.zeros(1))
        model = SnnModel(1, (dl_in, Dropout(0.5), dl_out))
        cfg = PropagationConfig(table=table, signature_budget=2,
                                compression_size=131_072, seed=0)
        with pytest.raises(ParseError, match="cap"):
            propagate(model, np.array([[1.0]]), cfg)

    @pytest.mark.parametrize("d", [1, 2])
    def test_covariance_cap_counts_the_pushed_bytes(self, table, d,
                                                     monkeypatch):
        # the pre-flight count is exactly the size of the largest
        # (A, D n, D n) covariance stack that pushed Gaussians share (for
        # D = 1 too, whose variances are stored as diagonal matrices): a
        # cap at that size passes, one byte less fails
        rng = np.random.default_rng(5)
        model = _vi_net(rng, (1, 6, 6, 1))
        points = np.linspace(-1.0, 1.0, d)[:, None]
        cfg = PropagationConfig(table=table, signature_budget=4,
                                compression_size=2, seed=0)
        sizes = []
        real = snn._gaussians

        def recording(means, covs):
            comps = real(means, covs)
            shared = comps[0].cov.base
            assert shared.shape == (len(comps),) + comps[0].cov.shape
            assert all(g.cov.base is shared for g in comps)
            sizes.append(shared.nbytes)
            return comps

        monkeypatch.setattr(snn, "_gaussians", recording)
        propagate(model, points, cfg)
        top = max(sizes)
        assert top > sizes[0]  # the largest stack is a later layer's
        monkeypatch.setattr(snn, "TOL",
                            dataclasses.replace(TOL, cov_bytes_cap=top))
        propagate(model, points, cfg)
        monkeypatch.setattr(snn, "TOL",
                            dataclasses.replace(TOL, cov_bytes_cap=top - 1))
        with pytest.raises(ParseError, match="cap"):
            propagate(model, points, cfg)

    def test_covariance_cap_rejects_before_allocating(self, table):
        # 100 points through a width-400 layer: one pushed covariance of
        # (100 * 400)^2 doubles is 12.8 GB
        rng = np.random.default_rng(6)
        model = _vi_net(rng, (1, 400, 1))
        points = np.linspace(-1.0, 1.0, 100)[:, None]
        assert 8 * (100 * 400) ** 2 > TOL.cov_bytes_cap
        cfg = PropagationConfig(table=table)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="cap"):
                propagate(model, points, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_covariance_cap_counts_one_point_matrices(self, table,
                                                      monkeypatch):
        # one point through a width-6000 layer: its variances take 48 KB,
        # but the diagonal matrix that stores them takes 288 MB
        rng = np.random.default_rng(6)
        model = _vi_net(rng, (1, 6000, 1))
        assert 8 * 6000 ** 2 > TOL.cov_bytes_cap

        def no_push(*args):
            raise AssertionError("pushed past the covariance cap")

        monkeypatch.setattr(snn, "_push_atoms", no_push)
        with pytest.raises(ParseError, match="cap"):
            propagate(model, np.array([[0.5]]), PropagationConfig(table=table))

    def test_invalid_inputs(self, table):
        rng = np.random.default_rng(1)
        model = _vi_net(rng, (2, 3, 1))
        cfg = PropagationConfig(table=table, signature_budget=4,
                                compression_size=2, seed=0)
        with pytest.raises(ParseError):
            propagate(model, np.array([[1.0, 2.0, 3.0]]), cfg)
        with pytest.raises(ParseError):
            propagate("model", np.array([[1.0, 2.0]]), cfg)
        with pytest.raises(ParseError):
            propagate(model, np.array([[1.0, 2.0]]), "config")
        with pytest.raises(ParseError):
            PropagationConfig(table=table, signature_budget=0,
                              compression_size=2)
        with pytest.raises(ParseError):
            PropagationConfig(table=table, signature_budget=2,
                              compression_size=0)
        with pytest.raises(ParseError):
            PropagationConfig(table="table", signature_budget=2,
                              compression_size=2)
        with pytest.raises(ParseError):
            PropagationConfig(table=table, signature_budget=2,
                              compression_size=2, seed=-1)


class TestLedger:
    def _ledger(self):
        records = (
            LedgerRecord(1, 2.0, 0.0, 0.0, 0.0),
            LedgerRecord(2, 1.5, 0.4, 0.2, 1.5 * (0.0 + 0.2 + 0.4)),
        )
        return BoundLedger(records, 1)

    def test_audit_replays_recursion(self):
        ledger = self._ledger()
        assert ledger.audit() == ledger.final_bound

    def test_audit_detects_tampering(self):
        records = (
            LedgerRecord(1, 2.0, 0.5, 0.0, 1.0),
            LedgerRecord(2, 1.5, 0.4, 0.2, 99.0),
        )
        with pytest.raises(ParseError, match="k=2"):
            BoundLedger(records, 1).audit()

    def test_json_roundtrip(self):
        ledger = self._ledger()
        back = BoundLedger.from_dict(ledger.to_dict())
        assert back.records == ledger.records
        assert back.input_set_size == 1
        assert back.to_dict() == ledger.to_dict()

    def test_older_ledger_with_lipschitz_key_replays(self):
        # ledgers written before the always-1 Lipschitz slot was removed
        # store "lipschitz": 1.0 in every record
        ledger = self._ledger()
        old = ledger.to_dict()
        for rec in old["records"]:
            rec["lipschitz"] = 1.0
        back = BoundLedger.from_dict(old)
        assert back.records == ledger.records
        assert back.audit() == old["final_bound"]

    def test_record_rejects_negative_terms(self):
        with pytest.raises(ParseError):
            LedgerRecord(1, -1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ParseError):
            LedgerRecord(1, 1.0, 0.0, 0.0, np.inf)

    def test_empty_ledger_bound_is_zero(self):
        assert BoundLedger((), 1).final_bound == 0.0

    def test_propagated_ledger_fields(self, table):
        rng = np.random.default_rng(7)
        model = _vi_net(rng, (1, 16, 1))
        cfg = PropagationConfig(table=table, signature_budget=10,
                                compression_size=5, seed=3)
        _, ledger = propagate(model, np.array([[0.7]]), cfg)
        d = ledger.to_dict()
        assert d["input_set_size"] == 1
        assert d["final_bound"] == ledger.final_bound
        assert [r["k"] for r in d["records"]] == [1, 2]
        assert set(d["records"][0]) == {"k", "spectral_term", "signature_term",
                                        "compression_term", "accumulated"}
        assert d["records"][0]["accumulated"] == 0.0
        assert d["records"][1]["signature_term"] > 0.0


class TestSampleNetwork:
    def test_deterministic_network_repeats_forward_pass(self):
        w1 = np.array([[1.0, 2.0], [0.5, -1.0]])
        model = SnnModel(2, (
            DeterministicLinear(w1, np.array([0.1, 0.2])),
            Activation("tanh"),
            DeterministicLinear(np.array([[1.0, 1.0]]), np.array([-0.3])),
        ))
        pts = np.array([[1.0, -0.5]])
        samples = sample_network(model, pts, 16, 0)
        expected = np.array([[1.0, 1.0]]) @ np.tanh(w1 @ pts[0]
                                                    + [0.1, 0.2]) + [-0.3]
        assert np.allclose(samples, expected[None, :], atol=1e-12)
        assert np.ptp(samples, axis=0).max() == 0.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        model = _vi_net(rng, (1, 6, 1), dropout=0.8)
        pts = np.array([[0.7]])
        a = sample_network(model, pts, 50, 99)
        b = sample_network(model, pts, 50, 99)
        assert np.array_equal(a, b)
        c = sample_network(model, pts, 50, 100)
        assert not np.array_equal(a, c)

    def test_duplicate_points_share_all_randomness(self):
        rng = np.random.default_rng(7)
        model = _vi_net(rng, (1, 6, 1), dropout=0.8)
        samples = sample_network(model, np.array([[0.7], [0.7]]), 64, 5)
        assert np.array_equal(samples[:, :1], samples[:, 1:])

    def test_moments_match_exact_pushforward(self):
        layer = StochasticLinear(np.array([[2.0, -1.0]]),
                                 np.array([[0.5, 0.25]]),
                                 np.array([0.3]), np.array([0.1]))
        model = SnnModel(2, (layer,))
        samples = sample_network(model, np.array([[1.0, 2.0]]), 20_000, 3)
        # closed form: mean 0.3, variance 1.6
        se_mean = math.sqrt(1.6 / 20_000)
        assert abs(samples.mean() - 0.3) <= 4 * se_mean
        se_var = 1.6 * math.sqrt(2.0 / 20_000)
        assert abs(samples.var(ddof=1) - 1.6) <= 4 * se_var

    def test_dropout_keep_frequency(self):
        model = SnnModel(1, (
            DeterministicLinear(np.ones((1, 1)), np.zeros(1)),
            Dropout(0.7),
            DeterministicLinear(np.ones((1, 1)), np.zeros(1)),
        ))
        samples = sample_network(model, np.array([[1.0]]), 20_000, 8)
        kept = samples.mean()
        se = math.sqrt(0.7 * 0.3 / 20_000)
        assert abs(kept - 0.7) <= 4 * se

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(12):
            d_in = int(rng.integers(1, 4))
            width = int(rng.integers(1, 7))
            act = ("relu", "tanh")[trial % 2]
            keep = float(rng.uniform(0.5, 0.95))
            stoch = _vi_net(rng, (d_in, width, width, 2), act, dropout=keep,
                            ntk=bool(trial % 3))
            det = DeterministicLinear(rng.normal(size=(width, d_in)),
                                      rng.normal(size=width))
            # dropout between stochastic layers, after a deterministic
            # one, and ahead of the first linear layer
            models = (stoch, SnnModel(d_in, (det, Activation(act),
                                             Dropout(keep))
                                      + stoch.layers[2:]),
                      SnnModel(d_in, (Dropout(keep),) + stoch.layers))
            pts = rng.normal(size=(int(rng.integers(1, 6)), d_in))
            for model in models:
                for n in (1, 7, 300):
                    seed = int(rng.integers(2 ** 31))
                    assert np.array_equal(
                        sample_network(model, pts, n, seed),
                        sample_network_oracle(model, pts, n, seed)), \
                        (trial, n)

    # seeds of one, one, two, three and five 32-bit words, which
    # default_rng hashes into its state by SeedSequence
    EDGE_SEEDS = (0, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 130 + 5)

    def test_sample_network_matches_oracle_at_edge_seeds(self):
        rng = np.random.default_rng(23)
        net = _vi_net(rng, (2, 4, 3, 2), dropout=0.8)
        plain = _vi_net(rng, (2, 4, 3, 2), "relu")
        det = SnnModel(2, (
            DeterministicLinear(rng.normal(size=(3, 2)), rng.normal(size=3)),
            Activation("tanh"),
            DeterministicLinear(rng.normal(size=(2, 3)), rng.normal(size=2))))
        models = (
            net,
            # a mask ahead of the first layer, then two masks in a row
            SnnModel(2, (Dropout(0.6),) + net.layers),
            SnnModel(2, net.layers[:3] + (Dropout(0.9),) + net.layers[3:]),
            # no mask: every weight and bias comes from one normal call
            plain,
            # no random draw at all
            det)
        pts = rng.normal(size=(3, 2))
        for seed in self.EDGE_SEEDS:
            for model in models:
                for n in (1, 40):
                    assert np.array_equal(
                        sample_network(model, pts, n, seed),
                        sample_network_oracle(model, pts, n, seed)), \
                        (seed, n)

    def test_sample_network_rows_are_a_prefix(self):
        rng = np.random.default_rng(29)
        model = _vi_net(rng, (1, 5, 5, 1), "relu", dropout=0.7)
        pts = np.array([[0.4], [-1.2]])
        for seed in (3, 2 ** 64 + 1):
            full = sample_network(model, pts, 300, seed)
            for k in (1, 17, 299):
                assert np.array_equal(full[:k],
                                      sample_network(model, pts, k, seed))

    def test_sample_network_refuses_counts_beyond_one_index_word(
            self, monkeypatch):
        # 7 draws and 1 output double per sample: the count is refused
        # before they are allocated once they pass TOL.cov_bytes_cap
        model = _vi_net(np.random.default_rng(2), (1, 2, 1))
        pts = np.array([[1.0]])
        with pytest.raises(ParseError, match="bytes of draws and output"):
            sample_network(model, pts, 2 ** 32 + 1, 0)
        monkeypatch.setattr(snn, "TOL",
                            dataclasses.replace(TOL, cov_bytes_cap=6400))
        assert sample_network(model, pts, 100, 0).shape == (100, 1)
        with pytest.raises(ParseError, match="cap 6400"):
            sample_network(model, pts, 101, 0)

    def test_sample_network_refuses_output_beyond_the_cap(self, monkeypatch):
        # a net without random draws still allocates its output, n rows
        # of 2 points times 3 outputs
        model = SnnModel(1, (DeterministicLinear(np.ones((3, 1)),
                                                 np.zeros(3)),))
        pts = np.array([[1.0], [2.0]])
        with pytest.raises(ParseError, match="bytes of draws and output"):
            sample_network(model, pts, TOL.cov_bytes_cap // 48 + 1, 0)
        monkeypatch.setattr(snn, "TOL",
                            dataclasses.replace(TOL, cov_bytes_cap=4800))
        assert sample_network(model, pts, 100, 0).shape == (100, 6)
        with pytest.raises(ParseError, match="cap 4800"):
            sample_network(model, pts, 101, 0)

    def test_keep_probability_one_keeps_every_unit(self):
        # ndtri(1) = inf: no normal reaches the threshold, so no unit drops
        model = SnnModel(2, (
            DeterministicLinear(np.array([[1.0, -2.0], [0.5, 3.0],
                                          [-1.0, 0.25]]),
                                np.array([0.1, -0.2, 0.3])),
            Dropout(1.0),
            DeterministicLinear(np.array([[1.0, 1.0, 1.0]]), np.zeros(1)),
        ))
        pts = np.array([[1.0, -0.5], [0.3, 2.0]])
        samples = sample_network(model, pts, 500, 4)
        expected = (pts @ model.layers[0].weight.T
                    + model.layers[0].bias).sum(axis=1)
        assert np.ptp(samples, axis=0).max() == 0.0
        assert np.allclose(samples[0], expected, atol=1e-12)

    def test_refuses_non_finite_points(self):
        model = _vi_net(np.random.default_rng(1), (2, 3, 1))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ParseError, match="finite"):
                sample_network(model, np.array([[1.0, bad]]), 10, 0)

    def test_invalid_inputs(self):
        rng = np.random.default_rng(1)
        model = _vi_net(rng, (2, 3, 1))
        with pytest.raises(ParseError):
            sample_network(model, np.array([[1.0]]), 10, 0)
        with pytest.raises(ParseError):
            sample_network(model, np.array([[1.0, 2.0]]), 0, 0)
        with pytest.raises(ParseError):
            sample_network("model", np.array([[1.0, 2.0]]), 10, 0)
        with pytest.raises(ParseError):
            sample_network(model, np.array([[1.0, 2.0]]), 10, -1)
