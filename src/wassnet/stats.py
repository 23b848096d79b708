"""Exact probabilistic primitives.

Gaussian, Gaussian-mixture and atom-set containers with one coercion of all
three to a mixture, moments of the standard normal truncated to intervals,
symmetric eigendecomposition with negative-eigenvalue clipping, the
closed-form 2-Wasserstein distance between Gaussians, and mixture second
moments.

All values are immutable after construction and safe to share across threads.
Covariances may be stored full (2-d array) or diagonal (1-d variance vector);
degenerate (rank-deficient) covariances are first-class citizens because the
propagation pipeline produces them routinely, e.g. for duplicated input
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .config import TOL
from .errors import NumericalError, ParseError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


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

@dataclass(frozen=True)
class Gaussian:
    """Multivariate normal with full or diagonal covariance.

    ``cov`` is a 1-d variance vector (diagonal variant) or a full symmetric
    positive-semidefinite matrix.  Symmetry is required within a relative
    tolerance and then enforced exactly; tiny negative variances are clipped
    to zero.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _readonly(np.atleast_1d(self.mean))
        cov = np.array(self.cov, dtype=float)
        if mean.ndim != 1:
            raise ParseError("mean must be a vector")
        if not np.all(np.isfinite(mean)):
            raise ParseError("mean must be finite")
        n = mean.shape[0]
        if cov.ndim == 1:
            if cov.shape[0] != n:
                raise ParseError("variance vector length does not match mean")
            scale = float(np.max(cov, initial=0.0))
            if not math.isfinite(scale):
                raise ParseError("covariance must be finite")
            floor = -TOL.eig_clip_rtol * max(scale, 1.0)
            if np.any(cov < floor):
                raise ParseError("negative variance beyond tolerance")
            cov = np.maximum(cov, 0.0)
        elif cov.ndim == 2:
            if cov.shape != (n, n):
                raise ParseError("covariance shape does not match mean")
            scale = float(np.max(np.abs(cov), initial=0.0))
            if not math.isfinite(scale):
                raise ParseError("covariance must be finite")
            asym = float(np.max(np.abs(cov - cov.T), initial=0.0))
            if asym > TOL.cov_symmetry_rtol * max(scale, 1.0):
                raise ParseError("covariance is not symmetric within tolerance")
            cov = 0.5 * (cov + cov.T)
        else:
            raise ParseError("cov must be a variance vector or a square matrix")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.cov.ndim == 1

    def full_cov(self) -> np.ndarray:
        return np.diag(self.cov) if self.is_diagonal else np.array(self.cov)

    def cov_trace(self) -> float:
        return float(np.sum(self.cov) if self.is_diagonal else np.trace(self.cov))

    def eigen(self) -> "EigenBasis":
        if self.is_diagonal:
            order = np.argsort(-self.cov, kind="stable")
            lam = self.cov[order]
            vecs = np.zeros((self.dim, self.dim))
            vecs[order, np.arange(self.dim)] = 1.0
            return EigenBasis(lam, vecs)
        return symmetric_eig(self.cov)

    def factor(self) -> np.ndarray:
        """Matrix ``F`` with ``cov = F F^T`` (columns span the support)."""
        if self.is_diagonal:
            return np.diag(np.sqrt(self.cov))
        basis = self.eigen()
        keep = basis.eigenvalues > 0.0
        return basis.eigenvectors[:, keep] * np.sqrt(basis.eigenvalues[keep])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.is_diagonal:
            z = rng.standard_normal((n, self.dim))
            return self.mean + z * np.sqrt(self.cov)
        f = self.factor()
        z = rng.standard_normal((n, f.shape[1]))
        return self.mean + z @ f.T

    def to_dict(self) -> dict:
        cov = {"diag": self.cov.tolist()} if self.is_diagonal \
            else {"full": self.cov.tolist()}
        return {"mean": self.mean.tolist(), "cov": cov}

    @staticmethod
    def from_dict(d: dict) -> "Gaussian":
        try:
            cov = d["cov"]
            if "diag" in cov:
                return Gaussian(np.asarray(d["mean"], dtype=float),
                                np.asarray(cov["diag"], dtype=float))
            return Gaussian(np.asarray(d["mean"], dtype=float),
                            np.asarray(cov["full"], dtype=float))
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

    def full_cov(self) -> np.ndarray:
        m_bar = self.mean()
        out = np.zeros((self.dim, self.dim))
        for w, c in zip(self.weights, self.components):
            d = c.mean - m_bar
            out += w * (c.full_cov() + np.outer(d, d))
        return 0.5 * (out + out.T)

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
        try:
            comps = tuple(Gaussian.from_dict(c) for c in d["components"])
            return GaussianMixture(np.asarray(d["weights"], dtype=float), comps)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed mixture object: {exc}") from exc


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
    an atom set a zero-covariance mixture with one component per atom.
    """
    if isinstance(g, GaussianMixture):
        return g
    if isinstance(g, DiscreteDistribution):
        zero = np.zeros(g.dim)
        return GaussianMixture(g.weights, tuple(Gaussian(loc, zero)
                                                for loc in g.locations))
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

def _symmetric_blocks(a: np.ndarray):
    """Connected components of the sparsity pattern, grouped by size.

    Returns ``(k, s)`` index arrays, one per block size ``s``, each row one
    block's indices in increasing order.  Exact zeros produced by mean-field
    propagation make large covariances block-diagonal, which turns one
    O(n^3) eigendecomposition into many small ones.
    """
    n = a.shape[0]
    link = a != 0.0
    if np.all(link):
        return [np.arange(n)[None, :]]
    # min-label propagation over the edges plus self-loops, with pointer
    # jumping; each node ends labelled by the lowest index in its block
    rows, cols = np.nonzero(link | np.eye(n, dtype=bool))
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    lab = np.arange(n)
    while True:
        new = np.minimum.reduceat(lab[cols], starts)
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    # consecutive labels in order of each block's lowest index
    _, labels = np.unique(lab, return_inverse=True)
    order = np.argsort(labels, kind="stable")  # blocks contiguous, in order
    block_size = np.bincount(labels)[labels[order]]
    return [order[block_size == s].reshape(-1, s)
            for s in np.unique(block_size)]


def _block_eigh(stack: np.ndarray, pattern: np.ndarray):
    """Eigendecomposition of stacked symmetric matrices, block by block.

    Every matrix in ``stack`` must be zero wherever ``pattern`` is.  Each
    block of the pattern (:func:`_symmetric_blocks`) is decomposed on its
    own, one stacked ``eigh`` call per block size.  Returns the unsorted
    eigenvalues, one row per matrix, and ``(idx, vecs)`` per block size:
    the ``(k, s)`` block indices and the ``(len(stack), k, s, s)``
    eigenvectors.
    """
    lam = np.empty(stack.shape[:2])
    blocks = []
    try:
        for idx in _symmetric_blocks(pattern):
            w, v = np.linalg.eigh(stack[:, idx[:, :, None], idx[:, None, :]])
            lam[:, idx] = w
            blocks.append((idx, v))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}",
                             payload=stack) from exc
    return lam, blocks


def _clip_negative(lam: np.ndarray, payload) -> np.ndarray:
    """Eigenvalues (last axis, one matrix per row) with negatives clipped to 0.

    A negative eigenvalue below ``-eig_clip_rtol * max|lambda|`` of its matrix
    raises :class:`NumericalError` with ``payload`` attached.
    """
    scale = np.max(np.abs(lam), axis=-1, keepdims=True, initial=0.0)
    if np.any(lam < -TOL.eig_clip_rtol * scale):
        raise NumericalError("matrix has a negative eigenvalue beyond tolerance",
                             payload=payload)
    return np.maximum(lam, 0.0)


def symmetric_eig(cov: np.ndarray) -> EigenBasis:
    """Eigendecomposition of a symmetric matrix with PSD clipping.

    Eigenvalues are returned nonincreasing.  Negative eigenvalues within
    ``eig_clip_rtol * max|lambda|`` of zero are clipped to 0; anything more
    negative raises :class:`NumericalError` with the matrix attached.
    """
    a = np.asarray(cov, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParseError("expected a square matrix")
    n = a.shape[0]
    asym = float(np.max(np.abs(a - a.T), initial=0.0))
    scale0 = float(np.max(np.abs(a), initial=0.0))
    if asym > TOL.cov_symmetry_rtol * max(scale0, 1.0):
        raise ParseError("matrix is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    lam, blocks = _block_eigh(a[None], a)
    lam = lam[0]
    vecs = np.zeros((n, n))
    for idx, v in blocks:
        vecs[idx[:, :, None], idx[:, None, :]] = v[0]
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    vecs = vecs[:, order]
    lam = _clip_negative(lam, payload=a)
    return EigenBasis(lam, vecs)


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

class GaussianW2Costs:
    """Squared 2-Wasserstein distances between two lists of Gaussians,
    computed exactly only where asked.

    Entry ``(i, j)`` of ``values`` is ``W2^2(p_i, q_j) = |m_i - m_j|^2
    + tr(S_i + S_j - 2 (S_i^1/2 S_j S_i^1/2)^1/2)`` where ``exact[i, j]``
    is set, and a lower bound on it elsewhere.  Construction makes the
    free entries exact: identical pairs (equal means and equal
    covariances, whatever their storage) are exactly 0, and two diagonal
    covariances commute, so their pair costs ``|m_i - m_j|^2
    + |sqrt(s_i) - sqrt(s_j)|^2``.  Every other entry starts at
    ``|m_i - m_j|^2``, which :meth:`tighten` raises to the spectral bound
    and :meth:`price` replaces by the exact cost.

    Each row component is decomposed once (``Gaussian.eigen``: one
    :func:`symmetric_eig` of a full covariance, a sort of a diagonal one),
    which yields both its spectrum and its root ``S_i^1/2``, equal to
    :func:`psd_sqrt` of its full covariance.  An exact entry is computed
    row by row: the products of the root with the row's requested column
    covariances are symmetrised and decomposed together, one stacked
    ``eigh`` when they are dense (see :func:`_psd_root_traces`), and the
    fidelity term is the trace of the clipped root ``V diag(sqrt(max(
    lambda, 0))) V^T``.  The value of an entry does not depend on which
    other entries are priced with it.  Degenerate covariances are fine; a
    product with an eigenvalue below ``-eig_clip_rtol * max|lambda|`` (a
    covariance that is not PSD within tolerance) raises
    :class:`NumericalError`.
    """

    def __init__(self, ps, qs):
        ps, qs = tuple(ps), tuple(qs)
        if len({g.dim for g in ps + qs}) > 1:
            raise ParseError("dimension mismatch")
        self._ps, self._qs = ps, qs
        p_mean = np.stack([g.mean for g in ps])
        q_mean = np.stack([g.mean for g in qs])
        self._mean_sq = np.sum(
            np.square(p_mean[:, None, :] - q_mean[None, :, :]), axis=-1)
        self.values = self._mean_sq.copy()
        p_diag = np.array([g.is_diagonal for g in ps])
        q_diag = np.array([g.is_diagonal for g in qs])
        p_idx, q_idx = np.flatnonzero(p_diag), np.flatnonzero(q_diag)
        if p_idx.size and q_idx.size:
            p_sd = np.sqrt(np.stack([ps[i].cov for i in p_idx]))
            q_sd = np.sqrt(np.stack([qs[j].cov for j in q_idx]))
            self.values[np.ix_(p_idx, q_idx)] += np.sum(
                np.square(p_sd[:, None, :] - q_sd[None, :, :]), axis=-1)
        same = np.all(p_mean[:, None, :] == q_mean[None, :, :], axis=-1)
        for i, j in zip(*np.nonzero(same)):
            same[i, j] = np.array_equal(ps[i].full_cov(), qs[j].full_cov())
        self.values[same] = 0.0
        self.exact = (p_diag[:, None] & q_diag[None, :]) | same
        self._bases = {}
        self._q_cov = self._q_tr = None

    def _basis(self, i: int) -> EigenBasis:
        if i not in self._bases:
            self._bases[i] = self._ps[i].eigen()
        return self._bases[i]

    def tighten(self) -> None:
        """Raise every entry that is not exact to the spectral lower bound.

        ``L_ij = |m_i - m_j|^2 + sum_k (sqrt(a_k) - sqrt(b_k))^2``, where
        ``a`` and ``b`` are the eigenvalues of ``S_i`` and ``S_j`` in
        nonincreasing order.  Proof that ``L_ij <= W2^2(p_i, q_j)``: with
        ``X = S_j^1/2 S_i^1/2`` the inner matrix is ``S_i^1/2 S_j S_i^1/2
        = X^T X``, so the fidelity ``tr((X^T X)^1/2)`` is the nuclear norm
        ``sum_k sigma_k(X)``.  The singular values of a product are weakly
        majorized by the products of the factors' singular values (Bhatia,
        *Matrix Analysis*, IV.2.5), so ``sum_k sigma_k(X) <= sum_k
        sigma_k(S_j^1/2) sigma_k(S_i^1/2) = sum_k sqrt(a_k b_k)``.  With
        ``tr S_i = sum_k a_k`` and ``tr S_j = sum_k b_k`` the closed form
        is therefore at least ``|m_i - m_j|^2 + sum_k (a_k + b_k
        - 2 sqrt(a_k b_k))``, which is ``L_ij``.  Equality holds when the
        two covariances share an eigenbasis that lists both spectra in
        the same order, for instance two diagonal covariances whose
        entries are sorted alike.  The row spectra come from the same
        decompositions as the roots that :meth:`price` uses.
        """
        rows = np.sqrt(np.stack([self._basis(i).eigenvalues
                                 for i in range(len(self._ps))]))
        cols = np.sqrt(np.stack([g.eigen().eigenvalues for g in self._qs]))
        bound = self._mean_sq + np.sum(
            np.square(rows[:, None, :] - cols[None, :, :]), axis=-1)
        np.copyto(self.values, bound, where=~self.exact)

    def price(self, mask: np.ndarray) -> None:
        """Make every entry under the boolean ``mask`` exact."""
        todo = mask & ~self.exact
        if not np.any(todo):
            return
        if self._q_cov is None:
            self._q_cov = np.stack([g.full_cov() for g in self._qs])
            self._q_tr = np.array([g.cov_trace() for g in self._qs])
        for i in np.flatnonzero(np.any(todo, axis=1)):
            js = np.flatnonzero(todo[i])
            sa = _root_of(self._basis(i))
            inner = sa @ self._q_cov[js] @ sa
            inner = 0.5 * (inner + np.swapaxes(inner, 1, 2))
            fidelity = _psd_root_traces(inner)
            self.values[i, js] = np.maximum(self._mean_sq[i, js] + (
                self._ps[i].cov_trace() + self._q_tr[js] - 2.0 * fidelity),
                0.0)
        self.exact |= todo


def gaussian_w2_sq_matrix(ps, qs) -> np.ndarray:
    """Closed-form squared 2-Wasserstein distances between two lists of Gaussians.

    The all-pairs case of :class:`GaussianW2Costs`, which holds the
    formula: one square root per row component, one stacked ``eigh`` per
    row, the commuting shortcut for diagonal pairs and an exact 0 for
    identical ones.
    """
    costs = GaussianW2Costs(ps, qs)
    costs.price(np.ones_like(costs.exact))
    return costs.values


def _psd_root_traces(mats: np.ndarray) -> np.ndarray:
    """``tr(M^1/2)`` of each symmetric PSD matrix ``M`` in a stack.

    Matrices with the same sparsity pattern are decomposed together by
    :func:`_block_eigh`, as :func:`symmetric_eig` decomposes one matrix; a
    stack of dense matrices is one ``eigh`` call.
    The split keeps exact zeros exact instead of turning them into rounding
    noise that the square root would amplify.  The trace is that of the
    root ``V diag(sqrt(max(lambda, 0))) V^T``.  An eigenvalue below
    ``-eig_clip_rtol * max|lambda|`` of its matrix raises
    :class:`NumericalError`.
    """
    nonzero = mats != 0.0
    groups = {}
    for k, pattern in enumerate(nonzero):
        groups.setdefault(np.packbits(pattern).tobytes(), []).append(k)
    out = np.empty(len(mats))
    for sel in groups.values():
        stack = mats[sel]
        lam, blocks = _block_eigh(stack, nonzero[sel[0]])
        root = np.sqrt(_clip_negative(lam, payload=stack))
        out[sel] = sum(np.sum(np.square(v) * root[:, idx][..., None, :],
                              axis=(1, 2, 3)) for idx, v in blocks)
    return out


def gaussian_w2(a: Gaussian, b: Gaussian) -> float:
    """Closed-form 2-Wasserstein distance between Gaussians.

    The one-pair case of :func:`gaussian_w2_sq_matrix`: one square root of
    ``S_a``, one ``eigh`` of the symmetrised ``S_a^1/2 S_b S_a^1/2``, the
    commuting shortcut for diagonal pairs and an exact 0 for identical
    ones.
    """
    return math.sqrt(float(gaussian_w2_sq_matrix((a,), (b,))[0, 0]))


def mixture_second_moment(g) -> float:
    """``E[|z|^2]`` of a Gaussian mixture: sum of pi_i (|m_i|^2 + tr S_i)."""
    g = as_mixture(g)
    total = 0.0
    for w, c in zip(g.weights, g.components):
        total += float(w) * (float(np.sum(np.square(c.mean))) + c.cov_trace())
    return total
