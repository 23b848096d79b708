"""Compression of Gaussian mixtures and of dropout-induced discrete mixtures.

Gaussian mixtures are reduced by seeded k-means++ / Lloyd clustering of the
component means followed by per-cluster moment matching, certified by the
mixture-level transport bound.  Dropout layers turn an atom set (a
:class:`~wassnet.stats.DiscreteDistribution`, re-exported here) into a
mixture of masked copies; that mixture is expanded explicitly on the
heaviest mask dimensions and the discarded mask randomness is charged with
a closed-form W2 bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import ParseError
from .stats import DiscreteDistribution, Gaussian, GaussianMixture, as_mixture
from .transport import _pairwise_sq_dists, mw2

__all__ = [
    "DiscreteDistribution",
    "CompressionResult",
    "compress_gmm",
    "compress_dropout",
]


@dataclass(frozen=True)
class CompressionResult:
    """A reduced mixture, its certified W2 bound, and the cluster map."""

    compressed: GaussianMixture
    w2_bound: float
    cluster_assignment: np.ndarray

    def __post_init__(self):
        assign = np.array(self.cluster_assignment, dtype=int)
        if assign.ndim != 1:
            raise ParseError("cluster assignment must map component to cluster")
        if not (np.isfinite(self.w2_bound) and self.w2_bound >= 0.0):
            raise ParseError("w2 bound must be a finite nonnegative real")
        assign.setflags(write=False)
        object.__setattr__(self, "w2_bound", float(self.w2_bound))
        object.__setattr__(self, "cluster_assignment", assign)


def _kmeanspp_centers(means, weights, m, rng):
    """Seeded k-means++ over component means, weighted by mixture mass.

    Centers are drawn sequentially from one stream, so runs with the same
    seed and growing ``m`` share their center prefix (nested initialization).
    """
    idx = int(rng.choice(means.shape[0], p=weights))
    centers = [means[idx]]
    d2 = np.sum(np.square(means - centers[0]), axis=1)
    for _ in range(1, m):
        scores = weights * d2
        total = float(scores.sum())
        if total <= 0.0:
            idx = int(rng.choice(means.shape[0], p=weights))
        else:
            idx = int(rng.choice(means.shape[0], p=scores / total))
        centers.append(means[idx])
        d2 = np.minimum(d2, np.sum(np.square(means - centers[-1]), axis=1))
    return np.stack(centers)


def _lloyd_assign(means, weights, centers, max_iters):
    """Mass-weighted Lloyd iterations; returns the final assignment.

    An empty cluster is re-seeded at the component mean farthest from its
    own centroid (deterministic: stable sort, lowest index on ties); when
    duplicate means leave nothing to re-seed with, the cluster stays empty
    and is dropped by the caller.
    """
    n, m = means.shape[0], centers.shape[0]
    prev = None
    assign = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        d2 = _pairwise_sq_dists(means, centers)
        assign = np.argmin(d2, axis=1)
        for j in range(m):
            if np.any(assign == j):
                continue
            own = d2[np.arange(n), assign]
            order = np.argsort(-own, kind="stable")
            pick = next((int(i) for i in order if own[i] > 0.0), None)
            if pick is None:
                continue
            centers[j] = means[pick]
            d2[:, j] = np.sum(np.square(means - centers[j]), axis=1)
            assign = np.argmin(d2, axis=1)
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        for j in range(m):
            member = assign == j
            if np.any(member):
                w = weights[member]
                centers[j] = (w @ means[member]) / float(w.sum())
    return assign


def _moment_matched(mixture, assign, cluster_ids):
    """Replace each cluster by the Gaussian matching its mass, mean, cov.

    A singleton cluster keeps its component object; the merged Gaussians
    are built by one :meth:`Gaussian.stack`.
    """
    members = [np.flatnonzero(assign == j) for j in cluster_ids]
    masses = np.array([float(mixture.weights[m].sum()) for m in members])
    means = np.stack([c.mean for c in mixture.components])
    merged_means, merged_covs = [], []
    for member, mass in zip(members, masses):
        if member.size == 1:
            continue
        mu = (mixture.weights[member] @ means[member]) / mass
        cov = np.zeros((mixture.dim, mixture.dim))
        for i in member:
            d = means[i] - mu
            cov += mixture.weights[i] * (
                mixture.components[i].cov + np.outer(d, d))
        merged_means.append(mu)
        merged_covs.append(cov / mass)
    merged = iter(Gaussian.stack(merged_means, merged_covs)
                  if merged_means else ())
    comps = tuple(mixture.components[int(m[0])] if m.size == 1
                  else next(merged) for m in members)
    return GaussianMixture(masses, comps)


def compress_gmm(g, m: int, seed: int) -> CompressionResult:
    """Reduce a Gaussian mixture to at most ``m`` components.

    Mixtures already within the budget are returned unchanged with bound 0.
    Otherwise the component means are clustered by seeded k-means++ followed
    by mass-weighted Lloyd iterations (converged assignments or 200 rounds),
    each cluster is replaced by its moment-matched Gaussian, and the returned
    bound is the mixture-level transport bound between input and result.
    The cluster map is handed to :func:`mw2` as a candidate plan: moment
    matching gives each cluster its members' mass, so the plan is feasible
    to rounding, and it is taken without an LP whenever dual potentials
    certify it optimal.  The input mixture is the row side of ``mw2``, so
    none of its components is decomposed; the compressed components are
    the columns, and ``mw2`` decomposes those with an arc to price, where
    the signature step finds them decomposed (``Gaussian.eigen``).  A
    singleton cluster keeps its component object, which is a column too.
    """
    g = as_mixture(g)
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ParseError("target size must be a positive integer")
    if g.size <= m:
        return CompressionResult(g, 0.0, np.arange(g.size))
    means = np.stack([c.mean for c in g.components])
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_centers(means, g.weights, int(m), rng)
    assign = _lloyd_assign(means, g.weights, centers, TOL.lloyd_max_iters)
    cluster_ids = [j for j in range(int(m)) if np.any(assign == j)]
    relabel = {j: k for k, j in enumerate(cluster_ids)}
    compact = np.array([relabel[j] for j in assign], dtype=int)
    compressed = _moment_matched(g, assign, cluster_ids)
    bound, _ = mw2(g, compressed, assignment=compact)
    return CompressionResult(compressed, bound, compact)


def compress_dropout(base: DiscreteDistribution, theta: float, m: int,
                     blocks: int = 1):
    """Keep mask randomness only on the ``log2(m)`` heaviest dimensions.

    Dimensions are ranked by the mass-weighted squared magnitude of the atom
    coordinates (summed over blocks); the rest are forced to "keep".  Each
    atom spawns ``m`` masked copies (atom-major), one per keep/drop outcome
    on the active dimensions in binary counting order (the lowest active
    dimension is the most significant bit), weighted by the Bernoulli
    product ``theta^kept * (1-theta)^dropped``; outcomes of weight exactly
    zero (``theta`` 0 or 1) are omitted.  With ``blocks > 1`` an atom stacks
    that many equal-length segments and one mask is shared by all of them,
    so the mask length is ``n = dim / blocks`` and ``m = 2^n`` gives the
    full expansion.  Returns ``(compressed, w2_bound)`` where the bound
    charges the discarded mask randomness: ``bound^2 = (1-theta) * sum_j
    pi_j * sum_{d inactive} c_{j,d}^2``.
    """
    if not isinstance(base, DiscreteDistribution):
        raise ParseError("base must be a DiscreteDistribution")
    if not (0.0 <= theta <= 1.0):
        raise ParseError("keep probability must lie in [0, 1]")
    theta = float(theta)
    if blocks < 1 or base.dim % blocks != 0:
        raise ParseError("atom dimension is not divisible by blocks")
    n = base.dim // blocks
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ParseError("target support factor must be a positive integer")
    k = int(m).bit_length() - 1
    if 2 ** k != int(m):
        raise ParseError("target support factor must be a power of two")
    if k > n:
        raise ParseError(
            f"target support factor 2^{k} exceeds the 2^{n} mask outcomes")
    sq = np.square(base.locations).reshape(base.size, blocks, n)
    scores = base.weights @ sq.sum(axis=1)
    order = np.argsort(-scores, kind="stable")
    active = sorted(int(d) for d in order[:k])
    inactive = [d for d in range(n) if d not in active]
    discarded = float(base.weights @ sq[:, :, inactive].sum(axis=(1, 2))) \
        if inactive else 0.0
    bound = math.sqrt((1.0 - theta) * discarded)
    if k == 0:
        return base, bound
    bits = np.array(np.meshgrid(*([np.array([0.0, 1.0])] * k),
                                indexing="ij")).reshape(k, -1).T
    kept = bits.sum(axis=1)
    mask_w = theta ** kept * (1.0 - theta) ** (k - kept)
    masks = np.ones((bits.shape[0], n))
    masks[:, active] = bits
    masks = np.tile(masks, (1, blocks))
    locations = (base.locations[:, None, :] * masks).reshape(-1, base.dim)
    weights = (base.weights[:, None] * mask_w).reshape(-1)
    keep = weights > 0.0
    return DiscreteDistribution(locations[keep], weights[keep]), bound
