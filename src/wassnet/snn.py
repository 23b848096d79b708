"""Stochastic-network models, certified mixture propagation, and sampling.

A network is an ordered list of layers (stochastic/deterministic linear,
elementwise activation, dropout).  ``propagate`` pushes a finite input set
through the network, maintaining either an exact atom set or a Gaussian
mixture, and accumulates a ledger whose final entry certifies the
2-Wasserstein distance between the true output distribution and the returned
approximation.  ``sample_network`` draws exact Monte Carlo realizations for
cross-checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .config import TOL
from .errors import ParseError
from .mixtures import compress_dropout, compress_gmm
from .quantizer import (_ACTIVATIONS, QuantizerTable,
                        activation_signature_w2_bound, signature_of_mixture)
from .stats import (DiscreteDistribution, Gaussian, GaussianMixture,
                    _gaussians, _readonly)

__all__ = [
    "StochasticLinear",
    "DeterministicLinear",
    "Dropout",
    "Activation",
    "SnnModel",
    "PropagationConfig",
    "LedgerRecord",
    "BoundLedger",
    "expected_spectral_bound",
    "push_point_through_stochastic_linear",
    "propagate",
    "sample_network",
]


@dataclass(frozen=True)
class StochasticLinear:
    """Affine layer with independent Gaussian weights and biases (mean field).

    With ``ntk_scaling`` the layer computes ``(W z + b) / sqrt(n_in)``;
    otherwise ``W z + b``.
    """

    weight_mean: np.ndarray
    weight_var: np.ndarray
    bias_mean: np.ndarray
    bias_var: np.ndarray
    ntk_scaling: bool = False

    def __post_init__(self):
        wm = np.atleast_2d(np.asarray(self.weight_mean, dtype=float))
        wv = np.atleast_2d(np.asarray(self.weight_var, dtype=float))
        bm = np.atleast_1d(np.asarray(self.bias_mean, dtype=float))
        bv = np.atleast_1d(np.asarray(self.bias_var, dtype=float))
        if wm.ndim != 2 or wm.shape != wv.shape:
            raise ParseError("weight mean and variance shapes must match")
        if bm.shape != (wm.shape[0],) or bv.shape != (wm.shape[0],):
            raise ParseError("bias vectors must have one entry per output")
        if not (np.all(np.isfinite(wm)) and np.all(np.isfinite(wv))
                and np.all(np.isfinite(bm)) and np.all(np.isfinite(bv))):
            raise ParseError("layer parameters must be finite")
        if np.any(wv < 0.0) or np.any(bv < 0.0):
            raise ParseError("variances must be nonnegative")
        object.__setattr__(self, "weight_mean", _readonly(wm))
        object.__setattr__(self, "weight_var", _readonly(wv))
        object.__setattr__(self, "bias_mean", _readonly(bm))
        object.__setattr__(self, "bias_var", _readonly(bv))
        object.__setattr__(self, "ntk_scaling", bool(self.ntk_scaling))

    @property
    def n_in(self) -> int:
        return self.weight_mean.shape[1]

    @property
    def n_out(self) -> int:
        return self.weight_mean.shape[0]

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.n_in) if self.ntk_scaling else 1.0

    @functools.cached_property
    def _norms(self) -> tuple:
        """``(sqrt(sum of weight variances), ||weight_mean||_2)``, which
        :func:`expected_spectral_bound` reads; kept on the layer."""
        return (math.sqrt(float(np.sum(self.weight_var))),
                float(np.linalg.norm(self.weight_mean, 2)))


@dataclass(frozen=True)
class DeterministicLinear:
    """Plain affine layer ``z -> W z + b``."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.weight, dtype=float))
        b = np.atleast_1d(np.asarray(self.bias, dtype=float))
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ParseError("weight must be (n_out, n_in) with matching bias")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ParseError("layer parameters must be finite")
        object.__setattr__(self, "weight", _readonly(w))
        object.__setattr__(self, "bias", _readonly(b))

    @property
    def n_in(self) -> int:
        return self.weight.shape[1]

    @property
    def n_out(self) -> int:
        return self.weight.shape[0]

    @functools.cached_property
    def _spectral_norm(self) -> float:
        """``||weight||_2``, which :func:`expected_spectral_bound` reads;
        kept on the layer."""
        return float(np.linalg.norm(self.weight, 2))


@dataclass(frozen=True)
class Dropout:
    """Independent keep/drop mask; each neuron is kept with ``keep_prob``."""

    keep_prob: float

    def __post_init__(self):
        if not (0.0 < self.keep_prob <= 1.0):
            raise ParseError("keep probability must lie in (0, 1]")
        object.__setattr__(self, "keep_prob", float(self.keep_prob))


@dataclass(frozen=True)
class Activation:
    """Elementwise nonlinearity; both supported kinds are 1-Lipschitz,
    which the ledger recursion relies on (see :class:`BoundLedger`)."""

    kind: str

    def __post_init__(self):
        if self.kind not in _ACTIVATIONS:
            raise ParseError(
                f"unknown activation {self.kind!r}; "
                f"supported: {', '.join(_ACTIVATIONS)}")

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        return np.tanh(z)


def _is_linear(layer) -> bool:
    return isinstance(layer, (StochasticLinear, DeterministicLinear))


@dataclass(frozen=True)
class SnnModel:
    """Ordered layer list with chained dimensions and a linear final layer."""

    input_dim: int
    layers: tuple

    def __post_init__(self):
        if not (isinstance(self.input_dim, (int, np.integer))
                and self.input_dim >= 1):
            raise ParseError("input dimension must be a positive integer")
        layers = tuple(self.layers)
        if not any(_is_linear(l) for l in layers):
            raise ParseError("model needs at least one linear layer")
        if not _is_linear(layers[-1]):
            raise ParseError("the final layer must be linear")
        cur = int(self.input_dim)
        prev_was_activation = False
        for layer in layers:
            if isinstance(layer, Activation):
                if prev_was_activation:
                    raise ParseError("activation layers must not be adjacent")
                prev_was_activation = True
                continue
            prev_was_activation = False
            if _is_linear(layer):
                if layer.n_in != cur:
                    raise ParseError(
                        f"layer expects {layer.n_in} inputs but receives {cur}")
                cur = layer.n_out
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "layers", layers)

    @property
    def output_dim(self) -> int:
        for layer in reversed(self.layers):
            if _is_linear(layer):
                return layer.n_out
        raise ParseError("model has no linear layer")

    def to_dict(self) -> dict:
        out = []
        for layer in self.layers:
            if isinstance(layer, StochasticLinear):
                out.append({
                    "type": "stochastic_linear",
                    "weight_mean": layer.weight_mean.tolist(),
                    "weight_var": layer.weight_var.tolist(),
                    "bias_mean": layer.bias_mean.tolist(),
                    "bias_var": layer.bias_var.tolist(),
                    "ntk": layer.ntk_scaling,
                })
            elif isinstance(layer, DeterministicLinear):
                out.append({
                    "type": "linear",
                    "weight": layer.weight.tolist(),
                    "bias": layer.bias.tolist(),
                })
            elif isinstance(layer, Activation):
                out.append({"type": "activation", "kind": layer.kind})
            else:
                out.append({"type": "dropout", "keep_prob": layer.keep_prob})
        return {"input_dim": self.input_dim, "layers": out}

    @staticmethod
    def from_dict(d: dict) -> "SnnModel":
        try:
            layers = []
            for spec in d["layers"]:
                kind = spec["type"]
                if kind == "stochastic_linear":
                    layers.append(StochasticLinear(
                        np.asarray(spec["weight_mean"], dtype=float),
                        np.asarray(spec["weight_var"], dtype=float),
                        np.asarray(spec["bias_mean"], dtype=float),
                        np.asarray(spec["bias_var"], dtype=float),
                        bool(spec.get("ntk", False))))
                elif kind == "linear":
                    layers.append(DeterministicLinear(
                        np.asarray(spec["weight"], dtype=float),
                        np.asarray(spec["bias"], dtype=float)))
                elif kind == "activation":
                    layers.append(Activation(spec["kind"]))
                elif kind == "dropout":
                    layers.append(Dropout(float(spec["keep_prob"])))
                else:
                    raise ParseError(f"unknown layer type {kind!r}")
            return SnnModel(int(d["input_dim"]), tuple(layers))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed model object: {exc}") from exc


@dataclass(frozen=True)
class PropagationConfig:
    """Approximation knobs for :func:`propagate`.

    ``signature_budget`` caps the grid size per mixture component;
    ``compression_size`` is the mixture size after each compression step.
    """

    table: QuantizerTable
    signature_budget: int = 10
    compression_size: int = 5
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.table, QuantizerTable):
            raise ParseError("config needs a quantizer table")
        if not (isinstance(self.signature_budget, (int, np.integer))
                and self.signature_budget >= 1):
            raise ParseError("signature budget must be a positive integer")
        if not (isinstance(self.compression_size, (int, np.integer))
                and self.compression_size >= 1):
            raise ParseError("compression size must be a positive integer")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ParseError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class LedgerRecord:
    """Per-linear-layer bound terms and the accumulated certified distance."""

    k: int
    spectral_term: float
    signature_term: float
    compression_term: float
    accumulated: float

    def __post_init__(self):
        vals = (self.spectral_term, self.signature_term,
                self.compression_term, self.accumulated)
        if not all(np.isfinite(v) and v >= 0.0 for v in vals):
            raise ParseError("ledger terms must be finite and nonnegative")

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "spectral_term": self.spectral_term,
            "signature_term": self.signature_term,
            "compression_term": self.compression_term,
            "accumulated": self.accumulated,
        }


@dataclass(frozen=True)
class BoundLedger:
    """Certified error recursion across the linear layers of one propagation.

    The accumulated column satisfies, exactly and auditable by replay,
    ``acc_k = spectral_k * (acc_{k-1} + compression_k + signature_k)`` with
    ``acc_0 = 0``.  The recursion carries no Lipschitz factor because every
    supported activation is 1-Lipschitz, and it is only sound for that
    constant.  ``compression_k`` also holds dropout bounds taken after the
    activation, which no activation constant may scale, and ``signature_k``
    may hold a bound taken before a dropout that precedes the activation,
    which the activation constant would have to scale.  ``from_dict``
    ignores a stored ``lipschitz`` key (always 1.0 in older ledgers).
    """

    records: tuple
    input_set_size: int

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.input_set_size < 1:
            raise ParseError("input-set size must be positive")

    @property
    def final_bound(self) -> float:
        return self.records[-1].accumulated if self.records else 0.0

    def audit(self) -> float:
        """Replay the recursion; raise if any stored value deviates."""
        acc = 0.0
        for rec in self.records:
            acc = rec.spectral_term * (acc + rec.compression_term
                                       + rec.signature_term)
            if acc != rec.accumulated:
                raise ParseError(
                    f"ledger record k={rec.k} does not reproduce the "
                    f"recursion: {acc} != {rec.accumulated}")
        return acc

    def to_dict(self) -> dict:
        return {
            "input_set_size": self.input_set_size,
            "final_bound": self.final_bound,
            "records": [r.to_dict() for r in self.records],
        }

    @staticmethod
    def from_dict(d: dict) -> "BoundLedger":
        try:
            recs = tuple(LedgerRecord(
                int(r["k"]), float(r["spectral_term"]),
                float(r["signature_term"]), float(r["compression_term"]),
                float(r["accumulated"]))
                for r in d["records"])
            return BoundLedger(recs, int(d["input_set_size"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed ledger object: {exc}") from exc


def expected_spectral_bound(layer, d: int) -> float:
    """Upper bound on ``sqrt(D) * E[||W||^2]^(1/2)`` of the layer map.

    The root expected squared spectral norm is bounded by the Frobenius norm
    of the standard deviations plus the spectral norm of the mean (a
    translation argument); the ``sqrt(D)`` factor extends the bound to a
    weight matrix shared across a stacked input set of size ``D``.  The
    norms are computed once per layer object and kept on it.
    """
    if d < 1:
        raise ParseError("input-set size must be positive")
    if isinstance(layer, DeterministicLinear):
        return math.sqrt(d) * layer._spectral_norm
    if not isinstance(layer, StochasticLinear):
        raise ParseError("spectral bounds apply to linear layers")
    s = layer.scale
    frob, spec = layer._norms
    return math.sqrt(d) * (s * frob + s * spec)


def _push_atoms(locations: np.ndarray, layer: StochasticLinear, d: int):
    """Exact output moments of a stochastic affine layer at ``A`` points.

    ``locations`` is ``(A, d * n_in)``, each row ``d`` input blocks
    (block-major).  One weight draw is shared by all blocks of a point, so
    outputs of the same neuron correlate across blocks: ``cov[(a,i),(b,i)]
    = s^2 (sum_j var_ij x_aj x_bj + bias_var_i)``, while different neurons
    are independent (mean-field), which leaves a direct sum of ``n_out``
    ``d x d`` blocks.  All points go through one matmul and one einsum.
    Returns means ``(A, d * n_out)`` and, for ``d = 1``, variances
    ``(A, n_out)``, else covariances ``(A, d * n_out, d * n_out)``: the
    arguments of :func:`~wassnet.stats._gaussians`.  Each is PSD, as a
    direct sum of blocks ``X diag(v_i) X^T + bias_var_i 1 1^T`` with
    ``v_i, bias_var_i >= 0``.  The ``d = 1`` variances come from one matmul,
    not the einsum, whose other summation order would move them by a few
    ulps.
    """
    s = layer.scale
    n_atoms, n_out = locations.shape[0], layer.n_out
    blocks = locations.reshape(n_atoms, d, layer.n_in)
    mean = (s * (blocks @ layer.weight_mean.T + layer.bias_mean)).reshape(
        n_atoms, d * n_out)
    if d == 1:
        var = s * s * (np.square(blocks) @ layer.weight_var.T
                       + layer.bias_var)
        return mean, var.reshape(n_atoms, n_out)
    # per-neuron block covariance x_a diag(v_i) x_b^T + bias_var_i
    cross = np.einsum("kaj,ij,kbj->kiab", blocks, layer.weight_var, blocks)
    cross = s * s * (cross + layer.bias_var[:, None, None])
    cov = np.zeros((n_atoms, d * n_out, d * n_out))
    i = np.arange(n_out)
    # entry (a n_out + i, b n_out + i) of atom k is block (k, i, a, b)
    cov.reshape(n_atoms, d, n_out, d, n_out)[:, :, i, :, i] = \
        np.moveaxis(cross, 1, 0)
    return mean, cov


def push_point_through_stochastic_linear(point, layer: StochasticLinear,
                                         d: int = 1) -> Gaussian:
    """Exact output Gaussian of a stochastic affine layer at a stacked point.

    ``point`` stacks ``d`` input blocks (block-major).  The one-point case
    of the stacked push that :func:`propagate` runs on all atoms of a layer
    at once: outputs of the same neuron correlate across blocks, different
    neurons are independent, and ``d = 1`` returns a Gaussian with a
    diagonal covariance matrix.
    """
    point = np.asarray(point, dtype=float).reshape(-1)
    if not isinstance(layer, StochasticLinear):
        raise ParseError("expected a stochastic linear layer")
    if d < 1 or point.shape[0] != d * layer.n_in:
        raise ParseError(
            f"point has {point.shape[0]} entries, expected {d} blocks "
            f"of {layer.n_in}")
    return _gaussians(*_push_atoms(point[None], layer, d))[0]


def _atoms_through_deterministic(atoms: DiscreteDistribution,
                                 layer: DeterministicLinear,
                                 d: int) -> DiscreteDistribution:
    blocks = atoms.locations.reshape(atoms.size, d, layer.n_in)
    out = blocks @ layer.weight.T + layer.bias
    return DiscreteDistribution(out.reshape(atoms.size, d * layer.n_out),
                                atoms.weights)


def _gaussian_through_deterministic(g: Gaussian, layer: DeterministicLinear,
                                    d: int) -> Gaussian:
    """The image of ``g`` under the layer, ``N(W m + b, W S W^T)``, PSD
    since ``S`` is."""
    w = np.kron(np.eye(d), layer.weight)
    mean = w @ g.mean + np.tile(layer.bias, d)
    return _gaussians(mean[None], (w @ g.cov @ w.T)[None])[0]


def _block_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence((int(seed), int(k))).generate_state(1)[0])


def _checked_points(model: SnnModel, points) -> np.ndarray:
    """``points`` as a float ``(D, input_dim)`` array, once its shape and
    finiteness have been checked."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != model.input_dim:
        raise ParseError(
            f"points must be (D, {model.input_dim}); got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ParseError("points must be finite")
    return pts


def propagate(model: SnnModel, points, cfg: PropagationConfig):
    """Push a finite input set through the network with a certified ledger.

    Returns ``(approximation, ledger)`` where the approximation is a
    GaussianMixture (stochastic output layer) or a DiscreteDistribution
    (deterministic/dropout-only path), over the stacked block-major output
    space of all input points.  The ledger's final bound certifies the
    2-Wasserstein distance to the network's true output distribution.

    The first linear layer maps the deterministic input exactly.  Before any
    later stochastic linear, activation, or dropout layer acting on a
    mixture, the mixture is compressed (transport-bounded) and replaced by
    its signature atoms (quantization-bounded); dropout support growth
    beyond ``2^ceil(log2(compression_size))`` outcomes is truncated with its
    closed-form bound.  All bounds compose through the ledger recursion;
    both supported activations (and the identity) have Lipschitz constant
    1, which is what lets dropout- and compression-errors share one ledger
    slot.  A stochastic linear layer pushes all atoms at once; if their
    covariances would take more than ``TOL.cov_bytes_cap`` bytes,
    :class:`ParseError` is raised before they are allocated.
    """
    if not isinstance(model, SnnModel):
        raise ParseError("propagate expects an SnnModel")
    if not isinstance(cfg, PropagationConfig):
        raise ParseError("propagate expects a PropagationConfig")
    pts = _checked_points(model, points)
    d = pts.shape[0]

    atoms = DiscreteDistribution(pts.reshape(1, -1), np.array([1.0]))
    mixture = None  # exactly one of atoms/mixture is the live state
    acc = 0.0
    pending_compression = 0.0
    pending_signature = 0.0
    records = []
    k = 0

    def reduce_to_atoms():
        """Compress the mixture, replace it by signature atoms and return
        the signature's W2 bound."""
        nonlocal mixture, atoms, pending_compression
        res = compress_gmm(mixture, cfg.compression_size,
                           _block_seed(cfg.seed, k))
        predicted = res.compressed.size * cfg.signature_budget
        if predicted > TOL.atom_cap:
            raise ParseError(
                f"signature would hold up to {predicted} atoms, above the cap "
                f"{TOL.atom_cap}; lower the signature budget or the "
                "compression size")
        atoms, w2_bound = signature_of_mixture(
            res.compressed, cfg.signature_budget, cfg.table)
        pending_compression += res.w2_bound
        mixture = None
        return w2_bound

    for layer in model.layers:
        if isinstance(layer, Activation):
            if mixture is not None:
                pending_signature += activation_signature_w2_bound(
                    reduce_to_atoms(), layer.kind)
            blocks = atoms.locations  # elementwise, blocks need no reshaping
            atoms = DiscreteDistribution(layer.apply(blocks), atoms.weights)
        elif isinstance(layer, Dropout):
            if mixture is not None:
                pending_signature += reduce_to_atoms()
            n = atoms.dim // d
            mask_budget = 2 ** min(
                n, max(0, int(math.ceil(math.log2(cfg.compression_size)))))
            if atoms.size * mask_budget > TOL.atom_cap:
                raise ParseError(
                    f"dropout expansion would hold {atoms.size * mask_budget} "
                    f"atoms, above the cap {TOL.atom_cap}; lower the "
                    "signature budget or the compression size")
            atoms, drop_bound = compress_dropout(
                atoms, layer.keep_prob, mask_budget, blocks=d)
            pending_compression += drop_bound
        else:  # DeterministicLinear or StochasticLinear
            k += 1
            spectral = expected_spectral_bound(layer, d)
            if isinstance(layer, StochasticLinear):
                if mixture is not None:
                    pending_signature += reduce_to_atoms()
                width = d * layer.n_out
                cov_bytes = 8 * atoms.size * width * width
                if cov_bytes > TOL.cov_bytes_cap:
                    raise ParseError(
                        f"layer {k} would hold {cov_bytes} bytes of "
                        f"covariance for {atoms.size} components, above the "
                        f"cap {TOL.cov_bytes_cap}; lower the signature "
                        "budget, the compression size or the input count")
                comps = _gaussians(*_push_atoms(atoms.locations, layer, d))
                mixture = GaussianMixture(atoms.weights, comps)
                atoms = None
            elif mixture is not None:
                comps = tuple(_gaussian_through_deterministic(g, layer, d)
                              for g in mixture.components)
                mixture = GaussianMixture(mixture.weights, comps)
            else:
                atoms = _atoms_through_deterministic(atoms, layer, d)
            acc = spectral * (acc + pending_compression + pending_signature)
            records.append(LedgerRecord(k, spectral, pending_signature,
                                        pending_compression, acc))
            pending_compression = pending_signature = 0.0

    ledger = BoundLedger(tuple(records), d)
    return (mixture if mixture is not None else atoms), ledger


def sample_network(model: SnnModel, points, n_samples: int, seed: int):
    """Joint Monte Carlo draws of the network output over the input set.

    Row ``i`` is the network output for one weight realization per
    stochastic layer (shared by all input points) and one mask per dropout
    layer.  Every draw is a standard normal, taken row-major from one
    ``default_rng(seed).standard_normal((n_samples, total))`` array: row
    ``i`` holds sample ``i``'s draws in layer order, the weights and then
    the biases of each stochastic layer and one column per unit of each
    dropout layer.  A unit is kept when its normal lies below
    ``ndtri(keep_prob)``, which happens with probability exactly
    ``keep_prob`` as ``P(Z < Phi^-1(p)) = p``; ``ndtri(1) = inf`` keeps
    every unit.  A generator keeps nothing between calls when it draws
    float64 standard normals, so the first ``k`` rows are the stream's
    first ``k * total`` values and do not depend on ``n_samples``.  Rows
    are the stacked block-major outputs.  The forward pass runs once for
    all samples as stacked matmuls.  Each weight and bias is built in
    place over its draws, and each matmul's result is shifted and scaled
    in place, so of the arrays that grow with the sample count the pass
    holds, besides the draws, a layer's input and output activations and
    a dropout mask (one byte per unit, less than the activation it
    multiplies).  An activation has one row per sample from the first
    layer that draws on, and one row before it.  If the draws and the
    output, or three times the largest activation, would take more than
    ``TOL.cov_bytes_cap`` bytes, :class:`ParseError` is raised before
    anything of that size is allocated.
    """
    if not isinstance(model, SnnModel):
        raise ParseError("sample_network expects an SnnModel")
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 1):
        raise ParseError("sample count must be a positive integer")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ParseError("seed must be a nonnegative integer")
    pts = _checked_points(model, points)
    n, d = int(n_samples), pts.shape[0]
    # columns of each draw (a dropout mask is as wide as its input) and
    # the largest activation in rows times units per point
    sizes, width, act = [], model.input_dim, model.input_dim
    for layer in model.layers:
        if isinstance(layer, StochasticLinear):
            sizes += [layer.weight_mean.size, layer.n_out]
        elif isinstance(layer, Dropout):
            sizes.append(width)
        if _is_linear(layer):
            width = layer.n_out
        act = max(act, (n if sizes else 1) * width)
    total = sum(sizes)
    for what, n_bytes in (
            ("draws and output", 8 * n * (total + d * model.output_dim)),
            ("forward-pass activations", 3 * 8 * d * act)):
        if n_bytes > TOL.cov_bytes_cap:
            raise ParseError(
                f"{n} samples would hold {n_bytes} bytes of {what}, above "
                f"the cap {TOL.cov_bytes_cap}; lower the sample count")
    draws = np.random.default_rng(seed).standard_normal((n, total))
    cols = iter(np.split(draws, np.cumsum(sizes)[:-1], axis=1))
    z = pts[None]
    for layer in model.layers:
        if isinstance(layer, StochasticLinear):
            # updated as (n, n_out n_in) columns: numpy would copy a 3-d
            # view of them to update it in place
            w, b = next(cols), next(cols)
            w *= np.sqrt(layer.weight_var).ravel()
            w += layer.weight_mean.ravel()
            b *= np.sqrt(layer.bias_var)
            b += layer.bias_mean
            z = z @ w.reshape(n, layer.n_out, -1).transpose(0, 2, 1)
            z += b[:, None, :]
            z *= layer.scale
        elif isinstance(layer, DeterministicLinear):
            z = z @ layer.weight.T
            z += layer.bias
        elif isinstance(layer, Activation):
            z = layer.apply(z)
        else:
            z = z * (next(cols) < ndtri(layer.keep_prob))[:, None, :]
    out = np.empty((n, pts.shape[0] * model.output_dim))
    # a net without random draws gives one row, repeated for every sample
    out[:] = z.reshape(z.shape[0], -1)
    return out
