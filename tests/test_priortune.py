"""Tests for GP targets and certified prior tuning.

The tuner's 1-D optimum is checked against a dense parameter-scan oracle;
descent, reversion, reproducibility, and the triangle-inequality certificate
are checked on small networks with Monte Carlo cross-checks.
"""

import math

import numpy as np
import pytest

from wassnet.errors import NumericalError, ParseError
from wassnet.priortune import (GpTarget, LossParts, PriorParams, TuneReport,
                               apply_params, gp_realize, params_for_template,
                               parse_gp_spec, tune, tune_loss)
from wassnet.snn import (Activation, PropagationConfig, SnnModel,
                         StochasticLinear, sample_network)
from wassnet.transport import empirical_w2
from wassnet.config import TOL

from oracles import mc_mean_se


def _zero_mean_layer(n_in, n_out, ntk=False):
    return StochasticLinear(np.zeros((n_out, n_in)), np.ones((n_out, n_in)),
                            np.zeros(n_out), np.ones(n_out), ntk_scaling=ntk)


@pytest.fixture(scope="module")
def cfg(table):
    return PropagationConfig(table=table, signature_budget=8,
                             compression_size=2, seed=0)


@pytest.fixture(scope="module")
def scalar_template():
    # single stochastic 1 -> 1 layer with deterministic zero bias
    return SnnModel(1, (StochasticLinear(np.zeros((1, 1)), np.ones((1, 1)),
                                         np.zeros(1), np.zeros(1)),))


class TestGpTarget:
    def test_gram_matrix_closed_form(self):
        target = GpTarget(0.5, 2.0, np.array([[0.0], [1.0]]))
        gram = target.gram()
        off = 2.0 * math.exp(-1.0 / (2 * 0.25))
        assert gram == pytest.approx(np.array([[2.0, off], [off, 2.0]]),
                                     abs=1e-15)

    def test_restrict(self):
        target = GpTarget(1.0, 1.0, np.arange(6.0).reshape(-1, 1))
        sub = target.restrict([0, 3])
        assert sub.size == 2
        assert np.array_equal(sub.points.ravel(), [0.0, 3.0])

    def test_validation(self):
        with pytest.raises(ParseError):
            GpTarget(0.0, 1.0, np.array([[0.0]]))
        with pytest.raises(ParseError):
            GpTarget(1.0, -1.0, np.array([[0.0]]))
        with pytest.raises(ParseError):
            GpTarget(1.0, 1.0, np.array([[np.nan]]))
        with pytest.raises(ParseError):
            GpTarget(1.0, 1.0, np.zeros((0, 1)))


class TestParseGpSpec:
    def test_valid_spec(self):
        target = parse_gp_spec("rbf:ls=0.5,var=1.25", np.array([[0.0]]))
        assert target.lengthscale == 0.5
        assert target.signal_variance == 1.25

    def test_malformed_specs_mention_grammar(self):
        for bad in ("matern:ls=1,var=1", "rbf:ls=0.5", "rbf:ls=x,var=1", ""):
            with pytest.raises(ParseError, match="rbf:ls="):
                parse_gp_spec(bad, np.array([[0.0]]))


class TestGpRealize:
    def test_single_point_unit_variance(self):
        g = gp_realize(GpTarget(0.5, 1.0, np.array([[0.3]])))
        assert g.dim == 1
        assert g.cov[0, 0] == pytest.approx(1.0 + TOL.gp_jitter,
                                                   abs=1e-16)
        assert np.all(g.mean == 0.0)

    def test_coincident_points_give_rank_one_plus_jitter(self):
        g = gp_realize(GpTarget(0.5, 1.0, np.array([[0.3], [0.3]])))
        eigenvalues = np.sort(np.linalg.eigvalsh(g.cov))
        assert eigenvalues[0] == pytest.approx(TOL.gp_jitter, rel=1e-3)
        assert eigenvalues[1] == pytest.approx(2.0, rel=1e-9)

    def test_large_lengthscale_saturates_off_diagonals(self):
        g = gp_realize(GpTarget(1e8, 3.0, np.array([[0.0], [1.0], [2.0]])))
        assert np.allclose(g.cov, 3.0, atol=1e-6)

    def test_escalation_failure_raises(self, monkeypatch):
        target = GpTarget(0.5, 1.0, np.array([[0.0]]))
        monkeypatch.setattr(GpTarget, "gram",
                            lambda self: np.array([[-1.0]]))
        with pytest.raises(NumericalError):
            gp_realize(target)

    def test_requires_target(self):
        with pytest.raises(ParseError):
            gp_realize("rbf")

    def test_realized_once_per_target(self, monkeypatch):
        target = GpTarget(0.5, 1.0, np.array([[0.0], [0.4], [1.1]]))
        fresh = gp_realize(GpTarget(0.5, 1.0, target.points))
        grams = []
        gram = GpTarget.gram
        monkeypatch.setattr(GpTarget, "gram",
                            lambda self: grams.append(1) or gram(self))
        g = gp_realize(target)
        assert gp_realize(target) is g
        assert len(grams) == 1
        np.testing.assert_array_equal(g.cov, fresh.cov)
        # a restricted target is a new target, realized on its own
        sub = gp_realize(target.restrict([0, 2]))
        assert len(grams) == 2 and sub.dim == 2


class TestPriorParams:
    def test_validation(self):
        with pytest.raises(ParseError):
            PriorParams(np.array([np.nan]))
        with pytest.raises(ParseError):
            PriorParams(np.array([800.0]))  # exp overflows
        with pytest.raises(ParseError):
            PriorParams(np.zeros((0,)))

    def test_roundtrip(self):
        p = PriorParams(np.array([0.5, -1.0]), False)
        back = PriorParams.from_dict(p.to_dict())
        assert np.array_equal(back.log_variances, p.log_variances)
        assert back.include_biases is False
        assert set(p.to_dict()) == {"log_variances", "include_biases"}

    def test_with_values_preserves_flags(self):
        p = PriorParams(np.array([0.0]), False)
        q = p.with_values(np.array([1.0]))
        assert q.include_biases is False


class TestParameterPlumbing:
    def _template(self):
        return SnnModel(1, (_zero_mean_layer(1, 4, ntk=True),
                            Activation("tanh"), _zero_mean_layer(4, 1)))

    def test_group_counts(self):
        template = self._template()
        params = params_for_template(template)
        assert params.size == 4 and params.include_biases is True
        assert np.array_equal(params.log_variances, np.zeros(4))
        assert params_for_template(template, include_biases=False).size == 2

    def test_apply_sets_exponentiated_variances(self):
        template = self._template()
        params = PriorParams(np.log([0.5, 2.0, 3.0, 4.0]))
        model = apply_params(template, params)
        assert np.allclose(model.layers[0].weight_var, 0.5, atol=1e-15)
        assert np.allclose(model.layers[0].bias_var, 2.0, atol=1e-15)
        assert np.allclose(model.layers[2].weight_var, 3.0, atol=1e-12)
        assert np.allclose(model.layers[2].bias_var, 4.0, atol=1e-15)
        assert model.layers[0].ntk_scaling is True
        assert np.all(model.layers[0].weight_mean == 0.0)

    def test_apply_keeps_template_biases_when_excluded(self):
        template = self._template()
        params = PriorParams(np.log([0.25, 9.0]), include_biases=False)
        model = apply_params(template, params)
        assert np.allclose(model.layers[0].bias_var,
                           template.layers[0].bias_var, atol=0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ParseError):
            apply_params(self._template(), PriorParams(np.zeros(3)))

    def test_template_without_stochastic_layers_rejected(self):
        from wassnet.snn import DeterministicLinear
        model = SnnModel(1, (DeterministicLinear(np.ones((1, 1)),
                                                 np.zeros(1)),))
        with pytest.raises(ParseError):
            params_for_template(model)


class TestTuneLoss:
    def test_exact_match_gives_zero_loss(self, cfg):
        # one point at x=1: output variance exp(psi) must hit the GP variance
        template = SnnModel(1, (StochasticLinear(
            np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1), np.ones(1)),))
        target = GpTarget(0.5, 1.0, np.array([[1.0]]))
        v = 1.0 + TOL.gp_jitter - math.exp(-40.0)
        params = PriorParams(np.array([math.log(v), -40.0]))
        parts = tune_loss(params, template, target, cfg, 0.0)
        assert parts.loss <= 1e-12
        assert parts.bound_term == 0.0

    def test_decomposition_is_exact(self, cfg, scalar_template):
        target = GpTarget(0.5, 1.0, np.array([[1.0], [0.0]]))
        params = PriorParams(np.array([0.3]), include_biases=False)
        beta = 0.25
        parts = tune_loss(params, scalar_template, target, cfg, beta)
        assert parts.loss == parts.mw2_term + beta * parts.bound_term
        assert parts.mw2_term >= 0.0 and parts.bound_term >= 0.0

    def test_central_difference_slope_is_reproducible(self, cfg,
                                                      scalar_template):
        # frozen seeds make the finite-difference slope a deterministic number
        target = GpTarget(0.5, 1.0, np.linspace(-1.0, 1.0, 4).reshape(-1, 1))
        h = TOL.fd_step

        def slope():
            up = tune_loss(PriorParams(np.array([0.5 + h]),
                                       include_biases=False),
                           scalar_template, target, cfg, 0.01).loss
            down = tune_loss(PriorParams(np.array([0.5 - h]),
                                         include_biases=False),
                             scalar_template, target, cfg, 0.01).loss
            return (up - down) / (2 * h)

        assert slope() == slope()

    def test_rejects_bad_inputs(self, cfg, scalar_template):
        target = GpTarget(0.5, 1.0, np.array([[1.0]]))
        params = PriorParams(np.array([0.0]), include_biases=False)
        with pytest.raises(ParseError):
            tune_loss(params, scalar_template, target, cfg, -0.1)
        two_output = SnnModel(1, (_zero_mean_layer(1, 2),))
        with pytest.raises(ParseError):
            tune_loss(params_for_template(two_output), two_output, target,
                      cfg, 0.01)


class TestTune:
    def test_recovers_scan_oracle_optimum(self, cfg, scalar_template):
        # dense 1-D scan over the single tuned log-variance is the oracle
        points = np.linspace(-1.5, 1.5, 5).reshape(-1, 1)
        target = GpTarget(0.5, 1.0, points)
        grid = np.linspace(-5.0, 2.0, 701)
        losses = [tune_loss(PriorParams(np.array([t]), include_biases=False),
                            scalar_template, target, cfg, 0.01).loss
                  for t in grid]
        oracle = min(losses)
        report = tune(scalar_template, target, cfg, beta=0.01, steps=40,
                      step_size=0.2, seed=1, include_biases=False,
                      eval_samples=200, eval_batches=2)
        assert not report.reverted
        assert abs(report.final_loss - oracle) <= 0.1 * oracle

    def test_final_loss_never_worse_than_initial(self, cfg):
        template = SnnModel(1, (_zero_mean_layer(1, 4), Activation("tanh"),
                                _zero_mean_layer(4, 1)))
        points = np.linspace(-1.0, 1.0, 6).reshape(-1, 1)
        target = GpTarget(0.5, 1.0, points)
        for seed in (0, 1, 2):
            report = tune(template, target, cfg, beta=0.01, steps=4,
                          step_size=0.3, batch=3, seed=seed,
                          eval_samples=100, eval_batches=2)
            assert report.final_loss <= report.initial_loss
            if report.reverted:
                assert report.final_loss == report.initial_loss

    def test_reverts_when_descent_ends_higher(self, cfg, scalar_template):
        # start at the optimum: a huge step can only make things worse
        points = np.linspace(-1.5, 1.5, 5).reshape(-1, 1)
        target = GpTarget(0.5, 1.0, points)
        init = PriorParams(np.array([-1.4975]), include_biases=False)
        report = tune(scalar_template, target, cfg, beta=0.01, steps=1,
                      step_size=50.0, seed=0, include_biases=False,
                      init=init, eval_samples=100, eval_batches=2)
        assert report.reverted
        assert report.final_loss == report.initial_loss
        assert np.array_equal(report.params.log_variances,
                              init.log_variances)

    def test_bit_reproducible(self, cfg):
        template = SnnModel(1, (_zero_mean_layer(1, 4), Activation("tanh"),
                                _zero_mean_layer(4, 1)))
        target = GpTarget(0.5, 1.0, np.linspace(-1, 1, 6).reshape(-1, 1))
        kwargs = dict(beta=0.01, steps=5, step_size=0.15, batch=3, seed=7,
                      eval_samples=200, eval_batches=2)
        a = tune(template, target, cfg, **kwargs)
        b = tune(template, target, cfg, **kwargs)
        assert a.to_dict() == b.to_dict()
        assert np.array_equal(a.params.log_variances, b.params.log_variances)

    def test_tuned_prior_beats_isotropic_prior(self, cfg):
        # unscaled isotropic priors saturate tanh; tuning must improve the fit
        template = SnnModel(1, (_zero_mean_layer(1, 8), Activation("tanh"),
                                _zero_mean_layer(8, 1)))
        points = np.linspace(-1.5, 1.5, 8).reshape(-1, 1)
        target = GpTarget(0.5, 1.0, points)
        report = tune(template, target, cfg, beta=0.01, steps=12,
                      step_size=0.15, batch=4, seed=4, eval_samples=500,
                      eval_batches=4)
        gp = gp_realize(target)
        denominator = math.sqrt(gp.cov_trace())
        baseline = apply_params(template, params_for_template(template))
        rng = np.random.default_rng(9)
        values = [empirical_w2(sample_network(baseline, points, 500, 300 + b),
                               gp.sample(500, rng)) for b in range(4)]
        untuned, untuned_se = mc_mean_se(values)
        assert report.relative_empirical + 3 * report.relative_empirical_se \
            < (untuned - 3 * untuned_se) / denominator

    def test_certificate_dominates_empirical_distance(self, cfg):
        template = SnnModel(1, (_zero_mean_layer(1, 8), Activation("tanh"),
                                _zero_mean_layer(8, 1)))
        target = GpTarget(0.5, 1.0, np.linspace(-1.5, 1.5, 8).reshape(-1, 1))
        report = tune(template, target, cfg, beta=0.01, steps=12,
                      step_size=0.15, batch=4, seed=4, eval_samples=500,
                      eval_batches=4)
        assert report.relative_empirical <= report.relative_formal \
            + 3 * report.relative_empirical_se

    def test_history_records_every_step(self, cfg, scalar_template):
        target = GpTarget(0.5, 1.0, np.linspace(-1, 1, 5).reshape(-1, 1))
        report = tune(scalar_template, target, cfg, beta=0.01, steps=6,
                      step_size=0.1, seed=2, include_biases=False,
                      eval_samples=100, eval_batches=2)
        assert len(report.history) == 6
        assert all(np.isfinite(h.loss) for h in report.history)
        assert all(h.loss == h.mw2_term + 0.01 * h.bound_term
                   for h in report.history)

    def test_preconditions(self, cfg, scalar_template):
        target = GpTarget(0.5, 1.0, np.array([[0.0], [1.0]]))
        with pytest.raises(ParseError):
            tune(scalar_template, target, cfg, steps=0)
        with pytest.raises(ParseError):
            tune(scalar_template, target, cfg, steps=2, batch=3)
        with pytest.raises(ParseError):
            tune(scalar_template, target, cfg, steps=2, step_size=0.0)
        with pytest.raises(ParseError):
            tune(scalar_template, target, cfg, steps=2, seed=-1)
        with pytest.raises(ParseError):
            tune(scalar_template, "target", cfg, steps=2)
        biased = SnnModel(1, (StochasticLinear(np.ones((1, 1)),
                                               np.ones((1, 1)),
                                               np.zeros(1), np.ones(1)),))
        with pytest.raises(ParseError):
            tune(biased, target, cfg, steps=1)

    def test_over_cap_evaluation_refused_before_descent(
            self, cfg, scalar_template, monkeypatch):
        # two points make 2-D samples, so 2001 of them need an assignment
        # problem above the entry cap: refused with the other arguments
        def refuse(*args, **kwargs):
            raise AssertionError("descended or sampled before refusing")

        monkeypatch.setattr("wassnet.priortune.tune_loss", refuse)
        monkeypatch.setattr("wassnet.priortune.sample_network", refuse)
        target = GpTarget(0.5, 1.0, np.array([[0.0], [1.0]]))
        assert 2001 ** 2 > TOL.empirical_cost_cap
        with pytest.raises(ParseError, match="eval_samples"):
            tune(scalar_template, target, cfg, steps=1, eval_samples=2001)

    def test_one_point_evaluation_has_no_cap(self, cfg, scalar_template,
                                             monkeypatch):
        # one point makes 1-D samples, which take the sorted matching
        monkeypatch.setattr(
            "wassnet.priortune.tune_loss",
            lambda *args, **kwargs: LossParts(1.0, 1.0, 0.0))
        target = GpTarget(0.5, 1.0, np.array([[0.5]]))
        report = tune(scalar_template, target, cfg, steps=1,
                      eval_samples=2001, eval_batches=2)
        assert report.relative_empirical > 0.0

    def test_gradient_is_clipped(self, cfg, scalar_template, monkeypatch):
        # slope 1000 in the one log-variance: the step uses TOL.grad_clip
        monkeypatch.setattr(
            "wassnet.priortune.tune_loss",
            lambda params, *args: LossParts(
                5000.0 + 1000.0 * params.log_variances[0],
                5000.0 + 1000.0 * params.log_variances[0], 0.0))
        target = GpTarget(0.5, 1.0, np.array([[1.0], [0.0]]))
        report = tune(scalar_template, target, cfg, steps=1, step_size=0.1,
                      include_biases=False, eval_samples=10, eval_batches=2)
        assert not report.reverted
        assert math.isclose(report.params.log_variances[0],
                            -0.1 * TOL.grad_clip, rel_tol=1e-12)

    def test_non_finite_initial_loss_blames_block(self, cfg, scalar_template,
                                                  monkeypatch):
        target = GpTarget(0.5, 1.0, np.array([[1.0], [0.0]]))
        monkeypatch.setattr(
            "wassnet.priortune.tune_loss",
            lambda *args, **kwargs: LossParts(math.inf, math.inf, 0.0))
        init = PriorParams(np.array([0.0]), include_biases=False)
        with pytest.raises(NumericalError, match="layer 1 weights"):
            tune(scalar_template, target, cfg, steps=1, init=init,
                 include_biases=False)


class TestTuneReport:
    def _report(self):
        history = (LossParts(1.0, 0.9, 10.0),)
        params = PriorParams(np.array([0.0]))
        return TuneReport(history, params, 1.0, 0.5, 0.4, 0.01, 0.6,
                          0.01, 0.05, False)

    def test_roundtrip(self):
        report = self._report()
        back = TuneReport.from_dict(report.to_dict())
        assert back.to_dict() == report.to_dict()

    def test_older_report_with_step_decay_loads(self):
        # reports written while the constant step decay was stored
        report = self._report()
        older = dict(report.to_dict(), step_decay=0.99)
        assert "step_decay" not in report.to_dict()
        assert TuneReport.from_dict(older).to_dict() == report.to_dict()

    def test_validation(self):
        params = PriorParams(np.array([0.0]))
        with pytest.raises(ParseError):
            TuneReport((), params, 1.0, 0.5, 0.4, 0.01, 0.6, 0.01, 0.05,
                       False)
        with pytest.raises(ParseError):
            TuneReport((LossParts(np.inf, 0.0, 0.0),), params, 1.0, 0.5,
                       0.4, 0.01, 0.6, 0.01, 0.05, False)
        with pytest.raises(ParseError):
            TuneReport((LossParts(1.0, 0.9, 10.0),), params, np.nan, 0.5,
                       0.4, 0.01, 0.6, 0.01, 0.05, False)
