"""Exact probabilistic primitives.

Gaussian, Gaussian-mixture and atom-set containers with one coercion of all
three to a mixture, moments of the standard normal truncated to intervals,
symmetric eigendecomposition with negative-eigenvalue clipping, the
closed-form 2-Wasserstein distance between Gaussians, and mixture second
moments.  Covariances are decomposed into eigenvectors once each, for their
roots and spectra, and a sparsity pattern is split into its blocks once.
One function prices the squared Gaussian W2 of any list of index pairs,
the all-pairs cost matrix and the single distance among them.  It takes
the root of one side only, the column side of each pair (its fidelity
term is symmetric in the pair), and the eigenvalues of a product, for
which it computes no eigenvectors.

All values are immutable after construction and safe to share across threads.
A Gaussian stores its covariance as a matrix; a 1-d variance vector is
accepted as the input form of a diagonal one.  Degenerate (rank-deficient)
covariances are first-class citizens because the propagation pipeline
produces them routinely, e.g. for duplicated input points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.special import ndtr

from .config import TOL
from .errors import NumericalError, ParseError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` from fields that are
    already validated and read-only, without running ``__post_init__``."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _simplex_weights(w: np.ndarray, what: str) -> np.ndarray:
    """Validated simplex weights, renormalized by their exact sum.

    Entries may fall below zero by at most ``TOL.simplex_atol`` (they are
    clipped to zero) and must sum to 1 within 1e-9.
    """
    if np.any(w < -TOL.simplex_atol):
        raise ParseError(f"negative {what} weight")
    w = np.maximum(w, 0.0)
    total = float(w.sum())
    if not abs(total - 1.0) <= 1e-9:  # also rejects NaN and inf weights
        raise ParseError(f"{what} weights sum to {total}, not 1")
    return _readonly(w / total)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _validated(means: np.ndarray, covs: np.ndarray):
    """Outside stacked Gaussian parameters, checked for :func:`_gaussians`.

    ``means`` is ``(K, n)``; ``covs`` holds ``K`` variance vectors ``(K,
    n)`` or ``K`` matrices ``(K, n, n)``, each finite and symmetric within
    ``cov_symmetry_rtol * max(max|S|, 1)``.  A variance below
    ``-eig_clip_rtol * max(max v, 1)`` of its vector raises
    :class:`ParseError`, smaller negatives are clipped to 0.  Needs one
    scratch array of the stack's size at a time.
    """
    k, n = means.shape
    if covs.ndim == 2:
        if covs.shape != (k, n):
            raise ParseError("variance vector length does not match mean")
        floor = -TOL.eig_clip_rtol * np.maximum(
            covs.max(axis=1, initial=0.0), 1.0)
        if (covs < floor[:, None]).any():
            raise ParseError("negative variance beyond tolerance")
        return means, np.maximum(covs, 0.0)
    if covs.ndim != 3:
        raise ParseError("cov must be a variance vector or a square matrix")
    if covs.shape != (k, n, n):
        raise ParseError("covariance shape does not match mean")
    scale = np.abs(covs).reshape(k, n * n).max(axis=1, initial=0.0)
    if not np.isfinite(scale).all():
        raise ParseError("covariance must be finite")
    diff = covs - covs.swapaxes(1, 2)
    asym = np.abs(diff, out=diff).reshape(k, n * n).max(axis=1, initial=0.0)
    if (asym > TOL.cov_symmetry_rtol * np.maximum(scale, 1.0)).any():
        raise ParseError("covariance is not symmetric within tolerance")
    return means, covs


def _gaussians(means: np.ndarray, covs: np.ndarray) -> tuple:
    """One Gaussian per row of ``means`` ``(K, n)``, from covariances that
    are PSD: ``K`` variance vectors ``(K, n)``, laid out as diagonal
    matrices, or ``K`` matrices ``(K, n, n)``, replaced by ``(S + S^T) /
    2``, since a product such as ``X D X^T`` need not round symmetric.
    Only finiteness is checked, which a push that overflows fails with
    :class:`ParseError`; outside data comes in through
    :meth:`Gaussian.stack`.  The Gaussians share read-only storage.
    """
    for what, a in (("mean", means), ("covariance", covs)):
        if not np.isfinite(a).all():
            raise ParseError(f"{what} must be finite")
    means = _readonly(means)
    k, n = means.shape
    if covs.ndim == 2:
        var, covs = covs, np.zeros((k, n, n))
        covs[:, np.arange(n), np.arange(n)] = var
    else:
        covs = np.add(covs, covs.swapaxes(1, 2))
        covs *= 0.5
    covs.setflags(write=False)
    return tuple(_trusted(Gaussian, mean=m, cov=c)
                 for m, c in zip(means, covs))


@dataclass(frozen=True)
class Gaussian:
    """Multivariate normal ``N(mean, cov)``.

    ``cov`` is stored as a symmetric positive-semidefinite matrix.  It may
    be given as a 1-d variance vector, which is stored as its diagonal
    matrix: the form a mean-field layer yields at one input point.
    Symmetry is required within a relative tolerance and then enforced
    exactly; tiny negative variances are clipped to zero.  The covariance
    is then decomposed (:meth:`eigen`, kept on the Gaussian), and one with
    an eigenvalue below ``-eig_clip_rtol * max|lambda|`` raises
    :class:`NumericalError`, so every Gaussian is PSD.  :meth:`stack`
    builds many Gaussians with the same checks at once.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1:
            raise ParseError("mean must be a vector")
        g, = Gaussian.stack(mean[None],
                            np.asarray(self.cov, dtype=float)[None])
        object.__setattr__(self, "mean", g.mean)
        object.__setattr__(self, "cov", g.cov)
        vars(self)["_basis"] = g.eigen()

    @staticmethod
    def stack(means, covs) -> tuple:
        """One Gaussian per row of ``means``, checked as the constructor
        checks one.

        ``covs`` holds covariance matrices ``(K, n, n)`` or variance vectors
        ``(K, n)``, which become diagonal matrices.  Every check runs once
        over the whole stack (:func:`_validated`), the Gaussians are built
        by :func:`_gaussians`, sharing its read-only storage, and their
        covariances are decomposed in one :func:`_eigen_bases` call, which
        raises :class:`NumericalError` on one that is not PSD.
        """
        means = np.asarray(means, dtype=float)
        if means.ndim != 2:
            raise ParseError("means must be a (K, n) array")
        gs = _gaussians(*_validated(means, np.asarray(covs, dtype=float)))
        _eigen_bases(gs)
        return gs

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def cov_trace(self) -> float:
        return float(np.trace(self.cov))

    def eigen(self) -> "EigenBasis":
        """Sorted, clipped eigendecomposition of ``cov``; the same object
        on every call.  :func:`_eigen_bases` fills it for many Gaussians
        in one stacked decomposition."""
        return self._basis

    @cached_property
    def _basis(self) -> "EigenBasis":
        return _eigen_stack([self.cov])[0]

    def factor(self) -> np.ndarray:
        """Matrix ``F`` with ``cov = F F^T`` (columns span the support)."""
        basis = self.eigen()
        keep = basis.eigenvalues > 0.0
        return basis.eigenvectors[:, keep] * np.sqrt(basis.eigenvalues[keep])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        f = self.factor()
        z = rng.standard_normal((n, f.shape[1]))
        return self.mean + z @ f.T

    def to_dict(self) -> dict:
        """The mean, and the covariance as ``{"diag": variances}`` when it
        is diagonal, else as ``{"full": rows}``."""
        variances = np.diagonal(self.cov)
        # diagonal: no nonzero entry off the diagonal
        if np.count_nonzero(self.cov) == np.count_nonzero(variances):
            cov = {"diag": variances.tolist()}
        else:
            cov = {"full": self.cov.tolist()}
        return {"mean": self.mean.tolist(), "cov": cov}

    @staticmethod
    def from_dict(d: dict) -> "Gaussian":
        try:
            cov = d["cov"]
            return Gaussian(d["mean"],
                            cov["diag"] if "diag" in cov else cov["full"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed Gaussian object: {exc}") from exc


@dataclass(frozen=True)
class GaussianMixture:
    """Simplex-weighted list of Gaussians of a common dimension.

    Weights must be nonnegative and sum to 1 within tolerance; they are
    renormalized by their exact sum on construction.
    """

    weights: np.ndarray
    components: tuple

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).reshape(-1)
        comps = tuple(self.components)
        if len(comps) == 0:
            raise ParseError("mixture needs at least one component")
        if w.shape[0] != len(comps):
            raise ParseError("weight count does not match component count")
        w = _simplex_weights(w, "mixture")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ParseError("mixture components have mismatched dimensions")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)

    @property
    def size(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def mean(self) -> np.ndarray:
        means = np.stack([c.mean for c in self.components])
        return self.weights @ means

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(self.size, size=n, p=self.weights)
        out = np.empty((n, self.dim))
        for k in range(self.size):
            take = idx == k
            if np.any(take):
                out[take] = self.components[k].sample(int(take.sum()), rng)
        return out

    def to_dict(self) -> dict:
        return {"weights": self.weights.tolist(),
                "components": [c.to_dict() for c in self.components]}

    @staticmethod
    def from_dict(d: dict) -> "GaussianMixture":
        """The mixture of :meth:`to_dict`'s object.  Every component is
        parsed first; then the components with one shape of mean and of
        covariance (for a valid mixture, one group per covariance form)
        are checked and decomposed by one :meth:`Gaussian.stack`."""
        try:
            weights = np.asarray(d["weights"], dtype=float)
            parsed = []
            for c in d["components"]:
                cov = c["cov"]
                parsed.append((
                    np.atleast_1d(np.asarray(c["mean"], dtype=float)),
                    np.asarray(cov["diag"] if "diag" in cov else cov["full"],
                               dtype=float)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed mixture object: {exc}") from exc
        groups = {}
        for k, (mean, cov) in enumerate(parsed):
            if mean.ndim != 1:
                raise ParseError("mean must be a vector")
            groups.setdefault((mean.shape, cov.shape), []).append(k)
        comps = [None] * len(parsed)
        for ks in groups.values():
            built = Gaussian.stack(np.stack([parsed[k][0] for k in ks]),
                                   np.stack([parsed[k][1] for k in ks]))
            for k, g in zip(ks, built):
                comps[k] = g
        return GaussianMixture(weights, tuple(comps))


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported distribution: atom locations and simplex weights."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.array(self.locations, dtype=float)
        w = np.array(self.weights, dtype=float).reshape(-1)
        if loc.ndim != 2 or loc.shape[0] < 1:
            raise ParseError("locations must be a nonempty (N, d) array")
        if not np.all(np.isfinite(loc)):
            raise ParseError("atom locations must be finite")
        if w.shape[0] != loc.shape[0]:
            raise ParseError("weight count does not match atom count")
        object.__setattr__(self, "locations", _readonly(loc))
        object.__setattr__(self, "weights", _simplex_weights(w, "atom"))

    @property
    def size(self) -> int:
        return self.locations.shape[0]

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    def to_dict(self) -> dict:
        return {"locations": self.locations.tolist(),
                "weights": self.weights.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "DiscreteDistribution":
        try:
            return DiscreteDistribution(
                np.asarray(d["locations"], dtype=float),
                np.asarray(d["weights"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed discrete distribution: {exc}") from exc


def as_mixture(g) -> GaussianMixture:
    """A Gaussian, mixture or atom set as a Gaussian mixture.

    Mixtures pass through, a Gaussian becomes a one-component mixture, and
    an atom set a zero-covariance mixture with one component per atom; its
    components share one read-only zero matrix.
    """
    if isinstance(g, GaussianMixture):
        return g
    if isinstance(g, DiscreteDistribution):
        zero = np.zeros((g.dim, g.dim))
        zero.setflags(write=False)
        return GaussianMixture(g.weights, tuple(
            _trusted(Gaussian, mean=m, cov=zero) for m in g.locations))
    return GaussianMixture(np.array([1.0]), (g,))


@dataclass(frozen=True)
class EigenBasis:
    """Sorted eigendecomposition of a symmetric PSD matrix.

    Eigenvalues are nonincreasing with negatives (within tolerance) clipped
    to zero.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _readonly(self.eigenvectors))


# ---------------------------------------------------------------------------
# scalar normal machinery
# ---------------------------------------------------------------------------

def _std_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def standard_truncated_moments(lo, hi):
    """Vectorized (mass, mean, variance) of N(0,1) truncated to ``[lo, hi]``.

    Accepts arrays of any matching shape; bounds may be ``±inf`` and must
    satisfy ``lo <= hi`` elementwise.  Entries whose mass underflows to zero
    get mean/variance ``0`` instead of NaN and are reported with mass ``0``
    — callers decide how to treat empty cells.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    # complement form keeps precision in the right tail
    mass = np.where(a > 0.0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
    pa = _std_pdf(a)
    pb = _std_pdf(b)
    with np.errstate(invalid="ignore"):
        apa = np.where(np.isinf(a), 0.0, a * pa)
        bpb = np.where(np.isinf(b), 0.0, b * pb)
    full = mass > 0.0
    safe = np.where(full, mass, 1.0)
    ratio = (pa - pb) / safe
    var = 1.0 + (apa - bpb) / safe - ratio * ratio
    return (np.where(full, mass, 0.0), np.where(full, ratio, 0.0),
            np.where(full, np.maximum(var, 0.0), 0.0))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

# 128 patterns: a key holds n^2 bits and its blocks n indices, so the
# cache holds at most 16 n^2 + 1024 n bytes, about twice one n x n
# covariance, per dimension n.  The pushed components of a layer share a
# pattern, but the 96 ops of a deep benchmark pool (seeds 1-3) meet 62 to
# 79 patterns of dimension 16 to 64 (under 14 KB of keys); a wide pool
# meets 8, of dimension up to 1536 (1.1 MB).
@functools.lru_cache(maxsize=128)
def _pattern_blocks(n: int, packed: bytes):
    """Connected components of the ``n x n`` sparsity pattern whose bits
    ``np.packbits`` packed into ``packed``, grouped by size.

    Returns a tuple of ``(k, s)`` index arrays, one per block size ``s``,
    each row one block's indices in increasing order and the rows in
    order of their lowest index.  Exact zeros produced by mean-field
    propagation make large covariances block-diagonal, which turns one
    O(n^3) eigendecomposition into many small ones.  The returned arrays
    are read-only and shared between calls.
    """
    link = np.unpackbits(np.frombuffer(packed, dtype=np.uint8),
                         count=n * n).reshape(n, n)
    # components are labelled in order of their lowest index
    _, labels = connected_components(link, directed=False)
    order = np.argsort(labels, kind="stable")  # blocks contiguous, in order
    block_size = np.bincount(labels)[labels[order]]
    blocks = tuple(order[block_size == s].reshape(-1, s)
                   for s in np.unique(block_size))
    for idx in blocks:
        idx.setflags(write=False)
    return blocks


def _pattern_groups(mats):
    """The matrices of a sequence grouped by sparsity pattern.

    Returns ``(sel, blocks)`` per distinct pattern, in order of first
    appearance: the indices of the matrices that are nonzero exactly where
    the pattern is, and the pattern's :func:`_pattern_blocks`.  Each
    matrix's pattern is packed once, and a pattern is split once.
    """
    groups = {}
    for k, m in enumerate(mats):
        groups.setdefault(np.packbits(m != 0.0).tobytes(), []).append(k)
    return [(sel, _pattern_blocks(mats[sel[0]].shape[0], key))
            for key, sel in groups.items()]


def _block_eigh(mats, blocks, vectors: bool = True):
    """Eigendecomposition of equal-size symmetric matrices, block by block.

    Every matrix in ``mats`` (a sequence of 2-d arrays) must be zero
    outside the ``blocks`` of :func:`_pattern_blocks`.  Each block is
    decomposed on its own, one stacked ``eigh`` call per block size; only
    the blocks are copied out of the matrices.  Returns the unsorted
    eigenvalues, one row per matrix, and ``(idx, vecs)`` per block size:
    the ``(k, s)`` block indices and the ``(len(mats), k, s, s)``
    eigenvectors.  With ``vectors=False`` each
    block size takes one ``eigvalsh`` call instead and the list is empty.
    """
    lam = np.empty((len(mats), mats[0].shape[0]))
    out = []
    try:
        for idx in blocks:
            ix = (idx[:, :, None], idx[:, None, :])
            stack = np.stack([m[ix] for m in mats])
            if vectors:
                w, v = np.linalg.eigh(stack)
                out.append((idx, v))
            else:
                w = np.linalg.eigvalsh(stack)
            lam[:, idx] = w
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}",
                             payload=mats) from exc
    return lam, out


def _clip_negative(lam: np.ndarray, payload) -> np.ndarray:
    """Eigenvalues (last axis, one matrix per row) with negatives clipped to 0.

    A negative eigenvalue below ``-eig_clip_rtol * max|lambda|`` of its matrix
    raises :class:`NumericalError` with ``payload`` attached.
    """
    scale = np.abs(lam).max(axis=-1, keepdims=True, initial=0.0)
    if (lam < -TOL.eig_clip_rtol * scale).any():
        raise NumericalError("matrix has a negative eigenvalue beyond tolerance",
                             payload=payload)
    return np.maximum(lam, 0.0)


def _eigen_stack(mats):
    """Sorted, clipped eigendecompositions of equal-size symmetric matrices.

    ``mats`` is a sequence of ``K`` exactly symmetric ``(n, n)`` arrays.
    The matrices are grouped by sparsity pattern (:func:`_pattern_groups`)
    and each group goes through one :func:`_block_eigh`, so a pattern is
    split into its blocks once however many matrices share it.  Each
    matrix's block spectra are then merged on their own: eigenvalues
    nonincreasing by a stable sort, and negatives within ``eig_clip_rtol *
    max|lambda|`` of zero clipped to 0 (anything more negative raises
    :class:`NumericalError`).  A matrix decomposes the same, bit for bit,
    in any stack, since every ``eigh`` call sees the same blocks.  Returns
    one :class:`EigenBasis` per matrix, views into read-only ``(K, n)``
    eigenvalues and ``(K, n, n)`` eigenvectors; each matrix of eigenvectors
    is column-major (the layout that sorting the columns by fancy indexing
    gave, which later matrix products round by).
    """
    n = mats[0].shape[0]
    lam = np.empty((len(mats), n))
    vecs = np.zeros((len(mats), n, n)).transpose(0, 2, 1)
    for sel, blocks in _pattern_groups(mats):
        group = [mats[k] for k in sel]
        w, vec_blocks = _block_eigh(group, blocks)
        order = np.argsort(-w, axis=1, kind="stable")
        rank = np.argsort(order, axis=1)  # sorted column of each eigenpair
        lam[sel] = _clip_negative(w[np.arange(len(sel))[:, None], order],
                                  payload=group)
        rows = np.asarray(sel)[:, None, None, None]
        for idx, v in vec_blocks:
            # entry p of block eigenvector q lands in row idx[p] of the
            # sorted column rank[idx[q]]
            vecs[rows, idx[None, :, :, None], rank[:, idx][:, :, None, :]] = v
    lam.setflags(write=False)
    vecs.setflags(write=False)
    return [_trusted(EigenBasis, eigenvalues=l, eigenvectors=v)
            for l, v in zip(lam, vecs)]


def _eigen_bases(gs) -> list:
    """``g.eigen()`` of each Gaussian of a common dimension in ``gs``.

    The covariances not decomposed yet go through one :func:`_eigen_stack`
    call, and each result is cached on its Gaussian (the slot of
    ``Gaussian._basis``), so later ``eigen()`` calls return it.
    """
    todo = list({id(g): g for g in gs if "_basis" not in vars(g)}.values())
    if todo:
        for g, basis in zip(todo, _eigen_stack([g.cov for g in todo])):
            vars(g)["_basis"] = basis
    return [g.eigen() for g in gs]


def symmetric_eig(cov: np.ndarray) -> EigenBasis:
    """Eigendecomposition of a symmetric matrix with PSD clipping.

    Eigenvalues are returned nonincreasing.  Negative eigenvalues within
    ``eig_clip_rtol * max|lambda|`` of zero are clipped to 0; anything more
    negative raises :class:`NumericalError` with the matrix attached.  The
    decomposition that :class:`Gaussian` checks and keeps.
    """
    a = np.asarray(cov, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParseError("expected a square matrix")
    return Gaussian(np.zeros(len(a)), a).eigen()


def psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via clipped eigendecomposition."""
    return _root_of(symmetric_eig(cov))


def _root_of(basis: EigenBasis) -> np.ndarray:
    """The symmetrised root ``V diag(sqrt(lambda)) V^T`` of a decomposition."""
    root = (basis.eigenvectors * np.sqrt(basis.eigenvalues)) @ basis.eigenvectors.T
    return 0.5 * (root + root.T)


# ---------------------------------------------------------------------------
# Wasserstein and moments
# ---------------------------------------------------------------------------

# Bytes of products that one stack of gaussian_w2_sq_pairs holds: 4 MiB,
# 1/64 of TOL.cov_bytes_cap.  A stack holds 128 products of 64^2 doubles,
# the largest matrices of the deep benchmark (D n <= 64), whose largest
# compression on seeds 1-3 prices 64 arcs; the 640^2 products of the
# 1-64-64-1 D10 ladder row (3.3 MB each) are priced one at a time.
# Building and decomposing a stack keeps about three stacks' worth alive:
# the gathered row covariances and column roots, and one product buffer.
_PRICE_STACK_BYTES = TOL.cov_bytes_cap // 64


def gaussian_w2_sq_pairs(ps, qs, rows, cols) -> np.ndarray:
    """Closed-form ``W2^2(ps[i], qs[j])`` of each pair ``(i, j)`` of the
    equal-length index arrays ``rows`` and ``cols``.

    ``W2^2(p_i, q_j) = |m_i - m_j|^2 + tr(S_i + S_j - 2 (S_j^1/2 S_i
    S_j^1/2)^1/2)``, clipped at 0.  An identical pair (equal means and
    equal covariances) is exactly 0 and is not priced.  The value of a
    pair does not depend on which other pairs are priced with it.

    The fidelity of a pair is taken from the column side:
    ``tr((S_i^1/2 S_j S_i^1/2)^1/2) = tr((S_j^1/2 S_i S_j^1/2)^1/2)``
    (Bhatia, Jain & Lim, *On the Bures-Wasserstein distance between
    positive definite matrices*, 2019).  Proof: with ``X = S_j^1/2
    S_i^1/2``, the two inner matrices are ``X^T X`` and ``X X^T``.  Both
    have the squared singular values of ``X`` as their nonzero
    eigenvalues, so the traces of their roots are both ``sum_k
    sigma_k(X)``, the nuclear norm of ``X``.  So only the columns of the
    pairs to price are decomposed, through one stacked
    :func:`_eigen_bases` call, which splits each sparsity pattern into its
    blocks once and caches each decomposition on its Gaussian
    (``Gaussian.eigen``), and each is rooted once (:func:`_root_of`,
    equal to :func:`psd_sqrt` of its covariance).  In ``compress_gmm``
    the columns are the few compressed components, whose decompositions
    the signature step needs anyway, and the rows the many pushed ones,
    which are never decomposed.

    The products ``S_j^1/2 S_i S_j^1/2`` are built in the order of the
    pairs, in stacks of at most ``_PRICE_STACK_BYTES`` (at least one
    product per stack), each from the row covariances of its own pairs
    (:func:`_products`), so the products alive at once take about three
    times that bound, however many pairs there are.  Each stack goes to
    one :func:`_psd_root_traces` call, which computes only the
    eigenvalues (one ``eigvalsh`` per block size of each sparsity
    pattern); the fidelity is ``sum_k sqrt(max(lambda_k, 0))``, the trace
    of the clipped root.

    Degenerate covariances are fine, and every covariance is PSD by
    construction (:class:`Gaussian`, :func:`_gaussians`).
    """
    ps, qs = tuple(ps), tuple(qs)
    if len({g.dim for g in ps + qs}) > 1:
        raise ParseError("dimension mismatch")
    rows, cols = np.asarray(rows), np.asarray(cols)
    p_mean = np.stack([g.mean for g in ps])[rows]
    q_mean = np.stack([g.mean for g in qs])[cols]
    same = np.all(p_mean == q_mean, axis=-1)
    for k in np.flatnonzero(same):
        same[k] = np.array_equal(ps[rows[k]].cov, qs[cols[k]].cov)
    out = np.zeros(rows.size)
    todo = np.flatnonzero(~same)
    if not todo.size:
        return out
    rows, cols = rows[todo], cols[todo]
    priced = np.unique(cols).tolist()
    roots = dict(zip(priced, map(_root_of,
                                 _eigen_bases([qs[j] for j in priced]))))
    fidelity = np.empty(todo.size)
    step = max(1, _PRICE_STACK_BYTES // ps[0].cov.nbytes)
    for lo in range(0, todo.size, step):
        fidelity[lo:lo + step] = _psd_root_traces(_products(
            ps, roots, rows[lo:lo + step], cols[lo:lo + step]))
    p_tr = np.array([g.cov_trace() for g in ps])
    q_tr = np.array([g.cov_trace() for g in qs])
    mean_sq = np.sum(np.square(p_mean[todo] - q_mean[todo]), axis=-1)
    out[todo] = np.maximum(mean_sq + (
        p_tr[rows] + q_tr[cols] - 2.0 * fidelity), 0.0)
    return out


def _products(ps, roots, rows, cols) -> np.ndarray:
    """The symmetrised ``S_j^1/2 S_i S_j^1/2`` of each pair ``(i, j)`` of
    ``rows`` and ``cols`` as one stack, with ``S_i`` the covariance of
    ``ps[i]`` and ``S_j^1/2`` the array ``roots[j]``.

    Three stacks of the result's size are alive at most: the gathered
    roots, the gathered row covariances and one product buffer, which
    becomes the result.
    """
    root = np.stack([roots[j] for j in cols.tolist()])
    covs = np.stack([ps[i].cov for i in rows.tolist()])
    half = np.matmul(root, covs)
    np.matmul(half, root, out=covs)
    np.add(covs, covs.swapaxes(1, 2), out=half)
    half *= 0.5
    return half


def gaussian_w2_sq_matrix(ps, qs) -> np.ndarray:
    """Closed-form squared 2-Wasserstein distances between two lists of Gaussians.

    The all-pairs case of :func:`gaussian_w2_sq_pairs`, which holds the
    formula: one square root per column component, the eigenvalues of the
    products of all pairs in stacks bounded in bytes (one ``eigvalsh`` per
    block size of each sparsity pattern), and an exact 0 for identical
    pairs.
    """
    ps, qs = tuple(ps), tuple(qs)
    rows, cols = np.indices((len(ps), len(qs))).reshape(2, -1)
    return gaussian_w2_sq_pairs(ps, qs, rows, cols).reshape(len(ps), len(qs))


def _psd_root_traces(mats: np.ndarray) -> np.ndarray:
    """``tr(M^1/2)`` of each symmetric PSD matrix ``M`` in a stack.

    Matrices with the same sparsity pattern go through one
    :func:`_block_eigh` with the blocks :func:`_eigen_stack` would use,
    but only their eigenvalues are computed: one ``eigvalsh`` call per
    block size, so a stack of dense matrices is one call.  The split keeps
    exact zeros exact instead of turning them into rounding noise that the
    square root would amplify.  The root ``V diag(sqrt(max(lambda, 0)))
    V^T`` has trace ``sum_k sqrt(max(lambda_k, 0))``, since ``V`` is
    orthogonal and a trace is invariant under a change of basis; that sum
    is returned, and no eigenvector is formed.  An eigenvalue below
    ``-eig_clip_rtol * max|lambda|`` of its matrix raises
    :class:`NumericalError`.

    Eigenvalues at or below ``n * eps * max lambda`` of their ``n x n``
    matrix are set to 0 before the roots are taken.  The symmetric
    eigensolver is backward stable: its eigenvalues are exact for some
    ``M + E`` with ``||E||_2`` of order ``n * eps * ||M||_2``, so by Weyl's
    inequality each lies that close to an eigenvalue of ``M``.  A zero
    eigenvalue of a rank-deficient product can thus come back as some
    ``delta`` of that order, and its root adds ``sqrt(delta)``, far more
    than rounding, to the trace: for ``N(0, S)`` against ``N(1e-3 * 1,
    S)`` with ``S`` of rank 2 in dimension 16, ``W2^2`` (exactly 1.6e-5)
    came out up to 2.7e-6 too low.  An eigenvalue under the floor cannot
    be told from 0, and zeroing it lowers the trace, which enters ``W2^2``
    as ``-2 tr``; so the floor can only raise a priced cost, the safe side
    for the upper bounds built from it.
    """
    out = np.empty(len(mats))
    for sel, blocks in _pattern_groups(mats):
        group = [mats[k] for k in sel]
        lam = _clip_negative(_block_eigh(group, blocks, vectors=False)[0],
                             payload=group)
        floor = lam.shape[1] * np.finfo(float).eps * lam.max(axis=1)
        lam[lam <= floor[:, None]] = 0.0
        out[sel] = np.sqrt(lam).sum(axis=1)
    return out


def gaussian_w2(a: Gaussian, b: Gaussian) -> float:
    """Closed-form 2-Wasserstein distance between Gaussians.

    The one-pair case of :func:`gaussian_w2_sq_pairs`: one square root of
    ``S_b``, the eigenvalues of the symmetrised ``S_b^1/2 S_a S_b^1/2``, and
    an exact 0 for identical Gaussians.
    """
    return math.sqrt(float(gaussian_w2_sq_pairs((a,), (b,), [0], [0])[0]))


def mixture_second_moment(g) -> float:
    """``E[|z|^2]`` of a Gaussian mixture: sum of pi_i (|m_i|^2 + tr S_i)."""
    g = as_mixture(g)
    total = 0.0
    for w, c in zip(g.weights, g.components):
        total += float(w) * (float(np.sum(np.square(c.mean))) + c.cov_trace())
    return total
