"""Fitting mean-field Gaussian weight priors to a Gaussian-process target.

Given a network template with zero-mean stochastic layers and a zero-mean RBF
Gaussian process evaluated at a finite input set, ``tune`` descends the
per-group log-variances of the weight prior on the certified objective

    loss = MW2(approximation, GP) + beta * ledger bound,

whose two terms add up to an upper bound on the 2-Wasserstein distance
between the true network output distribution and the GP (triangle
inequality).  Gradients are central finite differences with all
clustering/signature seeds frozen within each step, so each step descends a
smooth surrogate of the piecewise-smooth objective.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import TOL
from .errors import NumericalError, ParseError
from .snn import (PropagationConfig, SnnModel, StochasticLinear, propagate,
                  sample_network)
from .stats import Gaussian, _readonly
from .transport import empirical_w2, mw2, relative_w2

__all__ = [
    "GpTarget",
    "PriorParams",
    "LossParts",
    "TuneReport",
    "parse_gp_spec",
    "gp_realize",
    "params_for_template",
    "apply_params",
    "tune_loss",
    "tune",
]

_GRANULARITIES = ("layer", "parameter")


@dataclass(frozen=True)
class GpTarget:
    """Zero-mean RBF Gaussian process evaluated at a finite input set."""

    lengthscale: float
    signal_variance: float
    points: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.lengthscale) and self.lengthscale > 0.0):
            raise ParseError("lengthscale must be positive")
        if not (np.isfinite(self.signal_variance)
                and self.signal_variance > 0.0):
            raise ParseError("signal variance must be positive")
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1 or not np.all(np.isfinite(pts)):
            raise ParseError("evaluation points must be a finite 2-D array")
        object.__setattr__(self, "lengthscale", float(self.lengthscale))
        object.__setattr__(self, "signal_variance",
                           float(self.signal_variance))
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def gram(self) -> np.ndarray:
        """RBF Gram matrix without jitter."""
        sq = np.sum(np.square(self.points[:, None, :]
                              - self.points[None, :, :]), axis=2)
        return self.signal_variance * np.exp(
            -sq / (2.0 * self.lengthscale ** 2))

    def restrict(self, indices) -> "GpTarget":
        return GpTarget(self.lengthscale, self.signal_variance,
                        self.points[np.asarray(indices, dtype=int)])


def parse_gp_spec(spec: str, points) -> GpTarget:
    """Parse a target string of the form ``rbf:ls=<float>,var=<float>``."""
    m = re.fullmatch(r"rbf:ls=([^,]+),var=(.+)", spec.strip())
    if m is None:
        raise ParseError(
            f"malformed GP spec {spec!r}; expected 'rbf:ls=<float>,var=<float>'")
    try:
        ls, var = float(m.group(1)), float(m.group(2))
    except ValueError as exc:
        raise ParseError(
            f"malformed GP spec {spec!r}; expected 'rbf:ls=<float>,var=<float>'"
        ) from exc
    return GpTarget(ls, var, points)


def gp_realize(target: GpTarget) -> Gaussian:
    """The finite-dimensional law of the GP: ``N(0, K + jitter I)``.

    The jitter starts at the configured value and escalates over three
    decades until the covariance admits a Cholesky factorization.
    """
    if not isinstance(target, GpTarget):
        raise ParseError("gp_realize expects a GpTarget")
    gram = target.gram()
    eye = np.eye(target.size)
    for decade in range(3):
        cov = gram + (TOL.gp_jitter * 10.0 ** decade) * eye
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            continue
        return Gaussian(np.zeros(target.size), cov)
    raise NumericalError(
        "GP covariance is not positive definite even after jitter escalation")


@dataclass(frozen=True)
class PriorParams:
    """Log-variances of the mean-field prior, one entry per tuned group.

    With ``granularity='layer'`` each stochastic layer contributes one weight
    group and (if ``include_biases``) one bias group; ``'parameter'`` tunes
    every variance entry individually.
    """

    log_variances: np.ndarray
    granularity: str = "layer"
    include_biases: bool = True

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.log_variances, dtype=float))
        if v.ndim != 1 or v.size < 1:
            raise ParseError("log-variances must be a nonempty vector")
        with np.errstate(over="ignore"):
            exp_finite = np.all(np.isfinite(np.exp(v)))
        if not np.all(np.isfinite(v)) or not exp_finite:
            raise ParseError("every log-variance must have a finite exponential")
        if self.granularity not in _GRANULARITIES:
            raise ParseError(
                f"granularity must be one of {_GRANULARITIES}")
        object.__setattr__(self, "log_variances", _readonly(v))
        object.__setattr__(self, "include_biases", bool(self.include_biases))

    @property
    def size(self) -> int:
        return self.log_variances.shape[0]

    def with_values(self, values) -> "PriorParams":
        return PriorParams(values, self.granularity, self.include_biases)

    def to_dict(self) -> dict:
        return {
            "log_variances": self.log_variances.tolist(),
            "granularity": self.granularity,
            "include_biases": self.include_biases,
        }

    @staticmethod
    def from_dict(d: dict) -> "PriorParams":
        try:
            return PriorParams(np.asarray(d["log_variances"], dtype=float),
                               str(d["granularity"]),
                               bool(d["include_biases"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed prior parameters: {exc}") from exc


def _param_groups(template: SnnModel, granularity: str,
                  include_biases: bool) -> list:
    """(label, slot count) of every tuned group, in template order.

    Each stochastic layer contributes its weight group and then, with
    ``include_biases``, its bias group.
    """
    if granularity not in _GRANULARITIES:
        raise ParseError(f"granularity must be one of {_GRANULARITIES}")
    groups = []
    ordinal = 0
    for layer in template.layers:
        if not isinstance(layer, StochasticLinear):
            continue
        ordinal += 1
        n_w = layer.n_out * layer.n_in if granularity == "parameter" else 1
        groups.append((f"layer {ordinal} weights", n_w))
        if include_biases:
            n_b = layer.n_out if granularity == "parameter" else 1
            groups.append((f"layer {ordinal} biases", n_b))
    if not groups:
        raise ParseError("template has no stochastic layers to tune")
    return groups


def _group_layout(template: SnnModel, params: PriorParams):
    """Group labels and the offsets that split ``params`` into its groups."""
    labels, counts = zip(*_param_groups(template, params.granularity,
                                        params.include_biases))
    if params.size != sum(counts):
        raise ParseError(
            f"parameter vector has {params.size} entries but the template "
            f"exposes {sum(counts)} tuned groups")
    return labels, np.cumsum(counts)[:-1]


def _fill(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """One shared value or one value per entry, in the shape of ``like``."""
    if values.size == 1:
        return np.full_like(like, values[0])
    return values.reshape(like.shape)


def params_for_template(template: SnnModel, granularity: str = "layer",
                        include_biases: bool = True,
                        init_log_variance: float = 0.0) -> PriorParams:
    """Isotropic initialization sized to the template's tuned groups."""
    total = sum(n for _, n in _param_groups(template, granularity,
                                            include_biases))
    return PriorParams(np.full(total, float(init_log_variance)),
                       granularity, include_biases)


def apply_params(template: SnnModel, params: PriorParams) -> SnnModel:
    """Instantiate the template with variances ``exp(log_variances)``."""
    if not isinstance(template, SnnModel):
        raise ParseError("apply_params expects an SnnModel template")
    _, offsets = _group_layout(template, params)
    variances = iter(np.split(np.exp(params.log_variances), offsets))
    layers = []
    for layer in template.layers:
        if isinstance(layer, StochasticLinear):
            weight_var = _fill(next(variances), layer.weight_var)
            bias_var = (_fill(next(variances), layer.bias_var)
                        if params.include_biases else layer.bias_var)
            layer = StochasticLinear(layer.weight_mean, weight_var,
                                     layer.bias_mean, bias_var,
                                     layer.ntk_scaling)
        layers.append(layer)
    return SnnModel(template.input_dim, tuple(layers))


class LossParts(NamedTuple):
    """Certified objective value and its two nonnegative terms."""

    loss: float
    mw2_term: float
    bound_term: float

    def to_dict(self) -> dict:
        return {"loss": self.loss, "mw2_term": self.mw2_term,
                "bound_term": self.bound_term}


def tune_loss(params: PriorParams, template: SnnModel, target: GpTarget,
              cfg: PropagationConfig, beta: float) -> LossParts:
    """Certified objective at one parameter vector.

    Instantiates the template, propagates it over the target's evaluation
    points, and returns ``MW2(approximation, GP) + beta * ledger bound``
    together with both terms.
    """
    if not (np.isfinite(beta) and beta >= 0.0):
        raise ParseError("beta must be finite and nonnegative")
    if template.output_dim != 1:
        raise ParseError("prior tuning targets a single-output GP")
    model = apply_params(template, params)
    approx, ledger = propagate(model, target.points, cfg)
    mw2_term, _ = mw2(approx, gp_realize(target))
    bound_term = ledger.final_bound
    return LossParts(mw2_term + beta * bound_term, mw2_term, bound_term)


@dataclass(frozen=True)
class TuneReport:
    """Descent history, final parameters, and final distance estimates.

    ``relative_formal`` is the triangle-inequality bound
    ``(mw2_term + bound_term) / sqrt(GP second moment)``;
    ``relative_empirical`` is a Monte Carlo estimate of the same relative
    distance between network and GP samples.
    """

    history: tuple
    params: PriorParams
    initial_loss: float
    final_loss: float
    relative_empirical: float
    relative_empirical_se: float
    relative_formal: float
    beta: float
    step_size: float
    step_decay: float
    reverted: bool

    def __post_init__(self):
        history = tuple(LossParts(*h) for h in self.history)
        if not history:
            raise ParseError("tune history must be nonempty")
        for parts in history:
            if not all(np.isfinite(v) for v in parts):
                raise ParseError("tune history contains a non-finite loss")
        scalars = (self.initial_loss, self.final_loss,
                   self.relative_empirical, self.relative_empirical_se,
                   self.relative_formal)
        if not all(np.isfinite(v) for v in scalars):
            raise ParseError("tune report values must be finite")
        object.__setattr__(self, "history", history)
        object.__setattr__(self, "reverted", bool(self.reverted))

    def to_dict(self) -> dict:
        return {
            "history": [h.to_dict() for h in self.history],
            "params": self.params.to_dict(),
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
            "relative_empirical": self.relative_empirical,
            "relative_empirical_se": self.relative_empirical_se,
            "relative_formal": self.relative_formal,
            "beta": self.beta,
            "step_size": self.step_size,
            "step_decay": self.step_decay,
            "reverted": self.reverted,
        }

    @staticmethod
    def from_dict(d: dict) -> "TuneReport":
        try:
            history = tuple(LossParts(float(h["loss"]), float(h["mw2_term"]),
                                      float(h["bound_term"]))
                            for h in d["history"])
            return TuneReport(history, PriorParams.from_dict(d["params"]),
                              float(d["initial_loss"]), float(d["final_loss"]),
                              float(d["relative_empirical"]),
                              float(d["relative_empirical_se"]),
                              float(d["relative_formal"]), float(d["beta"]),
                              float(d["step_size"]), float(d["step_decay"]),
                              bool(d["reverted"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed tune report: {exc}") from exc


def _require_zero_mean(template: SnnModel):
    for layer in template.layers:
        if isinstance(layer, StochasticLinear) and (
                np.any(layer.weight_mean != 0.0)
                or np.any(layer.bias_mean != 0.0)):
            raise ParseError(
                "prior tuning requires zero-mean stochastic layers")


def _blame_parameter_block(params: PriorParams, template: SnnModel) -> str:
    """The group holding the largest log-variance (the first on ties)."""
    labels, offsets = _group_layout(template, params)
    peaks = [float(np.max(v))
             for v in np.split(params.log_variances, offsets)]
    worst = int(np.argmax(peaks))
    return f"{labels[worst]} (log-variance {peaks[worst]})"


def tune(template: SnnModel, target: GpTarget, cfg: PropagationConfig,
         beta: float = TOL.beta_default, steps: int = 20,
         step_size: float = TOL.step_size_default, batch: int = None,
         seed: int = 0, granularity: str = "layer",
         include_biases: bool = True, init: PriorParams = None,
         eval_samples: int = 1000, eval_batches: int = 4,
         grad_clip: float = 10.0) -> TuneReport:
    """Mini-batch finite-difference descent of the certified objective.

    Each step draws a random batch of evaluation points, freezes the
    propagation seed, and takes a central-difference gradient step on the
    log-variances with geometrically decaying step size.  Gradient entries
    are clipped to ``[-grad_clip, grad_clip]``: the bound term can be orders
    of magnitude steeper than the fit term early on, and clipping keeps a
    fixed step size stable across that range.  The returned parameters are
    guaranteed no worse than the initialization on the full point set (the
    tuner reverts if the stochastic descent ended higher).
    """
    if not isinstance(target, GpTarget):
        raise ParseError("tune expects a GpTarget")
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ParseError("steps must be a positive integer")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ParseError("seed must be a nonnegative integer")
    if not (np.isfinite(step_size) and step_size > 0.0):
        raise ParseError("step size must be positive")
    if batch is None:
        batch = target.size
    if not (isinstance(batch, (int, np.integer)) and 1 <= batch
            <= target.size):
        raise ParseError("batch must lie in [1, number of evaluation points]")
    if not (isinstance(eval_batches, (int, np.integer)) and eval_batches >= 2
            and isinstance(eval_samples, (int, np.integer))
            and eval_samples >= 2):
        raise ParseError("evaluation needs at least 2 batches of 2 samples")
    if not (np.isfinite(grad_clip) and grad_clip > 0.0):
        raise ParseError("gradient clip must be positive")
    _require_zero_mean(template)

    if init is None:
        params = params_for_template(template, granularity, include_biases)
    else:
        params = init
    initial = tune_loss(params, template, target, cfg, beta)
    if not np.isfinite(initial.loss):
        raise NumericalError(
            "non-finite loss at initialization; suspect "
            + _blame_parameter_block(params, template))

    psi = params.log_variances.copy()
    history = []
    h = TOL.fd_step
    for step in range(int(steps)):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), step)))
        idx = np.sort(rng.choice(target.size, size=int(batch),
                                 replace=False))
        sub_target = target.restrict(idx)
        cfg_step = replace(cfg, seed=int(rng.integers(2 ** 31)))
        center = tune_loss(params.with_values(psi), template, sub_target,
                           cfg_step, beta)
        if not np.isfinite(center.loss):
            raise NumericalError(
                f"non-finite loss at step {step}; suspect "
                + _blame_parameter_block(params.with_values(psi), template))
        history.append(center)
        grad = np.zeros_like(psi)
        for i in range(psi.shape[0]):
            up, down = psi.copy(), psi.copy()
            up[i] += h
            down[i] -= h
            loss_up = tune_loss(params.with_values(up), template, sub_target,
                                cfg_step, beta).loss
            loss_down = tune_loss(params.with_values(down), template,
                                  sub_target, cfg_step, beta).loss
            grad[i] = (loss_up - loss_down) / (2.0 * h)
        if not np.all(np.isfinite(grad)):
            raise NumericalError(
                f"non-finite gradient at step {step}; try a smaller step size")
        grad = np.clip(grad, -grad_clip, grad_clip)
        psi = psi - step_size * (TOL.step_decay ** step) * grad

    final_params = params.with_values(psi)
    final = tune_loss(final_params, template, target, cfg, beta)
    reverted = not np.isfinite(final.loss) or final.loss > initial.loss
    if reverted:
        final_params, final = params, initial

    model = apply_params(template, final_params)
    gp = gp_realize(target)
    eval_rng = np.random.default_rng(
        np.random.SeedSequence((int(seed), int(steps))))
    estimates = []
    for _ in range(int(eval_batches)):
        net_samples = sample_network(model, target.points, int(eval_samples),
                                     int(eval_rng.integers(2 ** 31)))
        gp_samples = gp.sample(int(eval_samples), eval_rng)
        estimates.append(empirical_w2(net_samples, gp_samples))
    est = float(np.mean(estimates))
    se = float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))
    return TuneReport(
        history=tuple(history),
        params=final_params,
        initial_loss=initial.loss,
        final_loss=final.loss,
        relative_empirical=relative_w2(est, gp),
        relative_empirical_se=relative_w2(se, gp),
        relative_formal=relative_w2(final.mw2_term + final.bound_term, gp),
        beta=float(beta),
        step_size=float(step_size),
        step_decay=TOL.step_decay,
        reverted=reverted,
    )
