"""Discrete signatures of Gaussians and Gaussian mixtures.

Builds the optimal 1-D quantizers of N(0,1) by a centroid/boundary fixed
point, persists them in a lookup table, allocates per-axis grid sizes under a
total budget, and assembles eigen-aligned tensor-product signatures whose
2-Wasserstein error is exactly computable (single Gaussian) or upper-bounded
(mixtures), and carries that bound through a 1-Lipschitz activation.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtri

from .config import TOL
from .errors import FixedPointError, NumericalError, ParseError
from .stats import (
    DiscreteDistribution,
    Gaussian,
    _eigen_bases,
    _readonly,
    _std_pdf,
    as_mixture,
    standard_truncated_moments,
)

__all__ = [
    "Quantizer1D",
    "QuantizerTable",
    "solve_quantizer_1d",
    "build_table",
    "allocate_grid",
    "signature_of_gaussian",
    "signature_of_mixture",
    "activation_signature_w2_bound",
]


# ---------------------------------------------------------------------------
# 1-D quantizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quantizer1D:
    """Optimal N-point quantizer of N(0,1).

    ``locations`` are strictly increasing and symmetric about zero; the
    cells and the distortion ``w2sq`` are derived from them.
    """

    locations: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        if loc.ndim != 1 or loc.size < 1:
            raise ParseError("locations must be a nonempty 1-D vector")
        if not np.all(np.isfinite(loc)):
            raise ParseError("locations must be finite")
        if loc.size > 1 and not np.all(np.diff(loc) > 0):
            raise ParseError("locations must be strictly increasing")
        object.__setattr__(self, "locations", _readonly(loc))

    @property
    def size(self) -> int:
        return int(self.locations.size)

    @functools.cached_property
    def cells(self) -> tuple:
        """Read-only ``(lo, hi, mass, mean, var)`` of :func:`_centroid_map`."""
        return tuple(_readonly(a) for a in _centroid_map(self.locations))

    @functools.cached_property
    def w2sq(self) -> float:
        """Squared 2-Wasserstein distortion between N(0,1) and the induced
        atom distribution (cell-mass weights at the locations)."""
        _, _, mass, mean, var = self.cells
        return float(np.sum(mass * (var + np.square(mean - self.locations))))

    def to_dict(self) -> dict:
        return {"locations": [float(v) for v in self.locations]}

    @classmethod
    def from_dict(cls, data: dict) -> "Quantizer1D":
        """An entry from its locations; a stored ``w2sq`` is ignored."""
        try:
            return cls(np.asarray(data["locations"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed quantizer entry: {exc}") from exc


def _centroid_map(loc: np.ndarray):
    """The Voronoi cells of 1-D locations under N(0,1).

    Returns ``(lo, hi, mass, mean, var)``: cell edges at the midpoints
    (outermost cells extending to ±inf) and the cells' truncated masses,
    means and variances.  One centroid sweep moves each location to its
    cell's mean.
    """
    mid = 0.5 * (loc[1:] + loc[:-1])
    lo = np.concatenate(([-np.inf], mid))
    hi = np.concatenate((mid, [np.inf]))
    mass, mean, var = standard_truncated_moments(lo, hi)
    return lo, hi, mass, mean, var


def _newton_accelerate(loc: np.ndarray, target: float,
                       max_steps: int = 60) -> np.ndarray:
    """Drive the centroid fixed-point residual below ``target`` by Newton.

    The residual F(c) = T(c) - c has a tridiagonal Jacobian because each
    truncated cell mean depends only on its own and the two neighboring
    locations through the midpoint boundaries.  Best effort: returns the
    best iterate seen, never raises; the caller verifies convergence with
    plain alternating sweeps.
    """
    best = loc
    best_res = math.inf
    stall = 0
    for _ in range(max_steps):
        lo, hi, mass, mean, _ = _centroid_map(loc)
        resid = mean - loc
        res = float(np.max(np.abs(resid)))
        if res < best_res:
            if res > 0.5 * best_res:
                stall += 1
            best, best_res = loc, res
        else:
            stall += 1
        if best_res < target or stall >= 5:
            break
        phi_lo = _std_pdf(lo)
        phi_hi = _std_pdf(hi)
        d_lo = np.zeros_like(loc)
        d_hi = np.zeros_like(loc)
        fin_lo = np.isfinite(lo)
        fin_hi = np.isfinite(hi)
        d_lo[fin_lo] = phi_lo[fin_lo] / mass[fin_lo] * (mean[fin_lo]
                                                        - lo[fin_lo])
        d_hi[fin_hi] = phi_hi[fin_hi] / mass[fin_hi] * (hi[fin_hi]
                                                        - mean[fin_hi])
        # (I - J_T) delta = resid with tridiagonal J_T
        n = loc.size
        ab = np.zeros((3, n))
        ab[0, 1:] = -0.5 * d_hi[:-1]
        ab[1, :] = 1.0 - 0.5 * (d_lo + d_hi)
        ab[2, :-1] = -0.5 * d_lo[1:]
        try:
            delta = solve_banded((1, 1), ab, resid)
        except Exception:
            break
        step = 1.0
        for _ in range(40):
            cand = loc + step * delta
            cand = 0.5 * (cand - cand[::-1])
            if np.all(np.diff(cand) > 0):
                loc = cand
                break
            step *= 0.5
        else:
            break
    return best


def solve_quantizer_1d(n: int,
                       tol: float = TOL.fixed_point_tol,
                       max_iters: int = TOL.fixed_point_max_iters) -> Quantizer1D:
    """Solve for the optimal ``n``-point quantizer of N(0,1).

    Alternates centroid updates (locations become truncated means of their
    Voronoi cells) with boundary updates (midpoints) until the largest
    location change drops below ``tol``; symmetry about zero is enforced on
    every sweep.  A Newton accelerator on the fixed-point residual supplies
    the starting iterate (the alternation converges slowly for large ``n``);
    the alternating sweeps remain the stopping criterion.  Raises
    :class:`FixedPointError` carrying the residual if the sweeps do not
    converge within ``max_iters``.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParseError("quantizer size must be a positive integer")
    if not tol > 0.0:
        raise ParseError("tol must be positive")
    if max_iters < 1:
        raise ParseError("max_iters must be at least 1")

    loc = ndtri((np.arange(n) + 0.5) / n)
    loc = _newton_accelerate(loc, target=max(0.25 * tol, 5e-16))
    delta = math.inf
    for _ in range(int(max_iters)):
        _, _, _, mean, _ = _centroid_map(loc)
        new = 0.5 * (mean - mean[::-1])  # enforce symmetry about 0
        delta = float(np.max(np.abs(new - loc)))
        loc = new
        if delta < tol:
            break
    else:
        raise FixedPointError(
            f"quantizer fixed point for N={n} did not reach tol={tol} "
            f"within {max_iters} sweeps",
            residual=delta,
        )

    if not np.all(np.diff(loc) > 0):
        raise NumericalError(f"quantizer locations collapsed for N={n}")
    return Quantizer1D(loc)


@dataclass(frozen=True)
class QuantizerTable:
    """Immutable lookup table of optimal quantizers for N = 1..n_max."""

    entries: tuple

    def __post_init__(self):
        if len(self.entries) < 1:
            raise ParseError("quantizer table must contain at least N=1")
        for i, q in enumerate(self.entries):
            if q.size != i + 1:
                raise ParseError(
                    f"table entry {i + 1} has size {q.size}; keys must be "
                    "contiguous from 1")
        w2 = [q.w2sq for q in self.entries]
        if any(b >= a for a, b in zip(w2, w2[1:])):
            raise ParseError("table w2sq must strictly decrease in N")

    @property
    def n_max(self) -> int:
        return len(self.entries)

    def get(self, n: int) -> Quantizer1D:
        if not 1 <= n <= self.n_max:
            raise ParseError(
                f"quantizer size {n} outside table range 1..{self.n_max}")
        return self.entries[n - 1]

    @functools.cached_property
    def _w2sq(self) -> np.ndarray:
        """Read-only ``w2sq`` of every entry, in size order."""
        return _readonly([q.w2sq for q in self.entries])

    @functools.cached_property
    def _grids(self) -> dict:
        """The :func:`_grid_template` of each grid built from this table,
        by its multi-point sizes."""
        return {}

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "entries": {str(q.size): q.to_dict() for q in self.entries},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantizerTable":
        """A table from its entries' locations; the ``w2sq``, ``tol`` and
        ``max_iters`` keys of older files are ignored."""
        try:
            if int(data["version"]) != 1:
                raise ParseError(
                    f"unsupported quantizer table version {data['version']}")
            raw = data["entries"]
            n_max = len(raw)
            entries = []
            for n in range(1, n_max + 1):
                key = str(n)
                if key not in raw:
                    raise ParseError(
                        f"quantizer table keys must be contiguous; missing {n}")
                entries.append(Quantizer1D.from_dict(raw[key]))
            return cls(tuple(entries))
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed quantizer table: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "QuantizerTable":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read quantizer table {path}: {exc}") from exc
        return cls.from_dict(data)


def build_table(n_max: int = TOL.table_n_max) -> QuantizerTable:
    """Build the quantizer lookup table for sizes 1..n_max."""
    return QuantizerTable(tuple(solve_quantizer_1d(n)
                                for n in range(1, int(n_max) + 1)))


# ---------------------------------------------------------------------------
# grid allocation
# ---------------------------------------------------------------------------

def _active_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Axes whose eigenvalue exceeds the relative degeneracy threshold."""
    if eigenvalues.size == 0 or eigenvalues[0] <= 0.0:
        return np.zeros(eigenvalues.shape, dtype=bool)
    return eigenvalues > TOL.eig_clip_rtol * eigenvalues[0]


@functools.lru_cache(maxsize=None)
def _factor_tuples(budget: int, depth: int) -> np.ndarray:
    """Every nonincreasing tuple of ``depth`` positive integers with product
    at most ``budget``, one per row in lexicographically decreasing order.

    The factors >= 2 of each tuple are grown one axis at a time and padded
    with ones.  Read-only: :func:`allocate_grid` shares it across calls.
    """
    found, frontier = [], [()]
    while frontier:
        found += frontier
        frontier = [t + (n,) for t in frontier if len(t) < depth
                    for n in range(2, min(t[-1] if t else budget,
                                          budget // math.prod(t)) + 1)]
    tuples = np.array(sorted((t + (1,) * (depth - len(t)) for t in found),
                             reverse=True), dtype=int)
    tuples = tuples.reshape(len(found), depth)  # (1, 0) for depth 0
    tuples.setflags(write=False)
    return tuples


def allocate_grid(eigenvalues, budget: int, table: QuantizerTable) -> tuple:
    """Exact minimizer of sum_j lambda_j * w2sq(N_j) subject to prod N_j <= budget.

    Returns the nonincreasing per-axis sizes ``(N_1, ..., N_r)`` over the
    leading ``r`` axes; ``eigenvalues`` must be sorted nonincreasing, and the
    trailing axes below the degeneracy threshold are pinned at one point and
    excluded from the search.  The search scores all nonincreasing
    integer factor tuples with product at most ``budget`` (an exchange
    argument shows some optimum is nonincreasing when the eigenvalues are;
    :func:`_factor_tuples` enumerates them once per budget and depth),
    summing each objective left to right over the axes, and breaks
    objective ties toward the lexicographically largest tuple, i.e. more
    points on the larger-eigenvalue axes.
    The table keeps the ``w2sq`` vector it reads.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ParseError("eigenvalues must be a nonempty 1-D vector")
    if np.any(lam < 0.0) or not np.all(np.isfinite(lam)):
        raise ParseError("eigenvalues must be finite and nonnegative")
    if np.any(np.diff(lam) > 0.0):
        raise ParseError("eigenvalues must be sorted nonincreasing")
    _check_budget(budget, table)
    return _grid_sizes(lam, budget, table)


def _check_budget(budget, table: QuantizerTable) -> None:
    if not isinstance(budget, (int, np.integer)) or budget < 1:
        raise ParseError("budget must be a positive integer")
    if table.n_max < budget:
        raise ParseError(
            f"quantizer table covers N<={table.n_max}; budget {budget} needs more")


def _grid_sizes(lam: np.ndarray, budget: int, table: QuantizerTable) -> tuple:
    """The search of :func:`allocate_grid`, for checked arguments: the
    eigenvalues of an :class:`~wassnet.stats.EigenBasis` are sorted,
    finite and nonnegative by construction."""
    lam_active = lam[_active_mask(lam)]
    r = int(lam_active.size)
    if r == 0:
        return ()
    # at most log2(budget) factors exceed 1; the other axes take one point
    tuples = _factor_tuples(int(budget),
                            min(r, int(budget).bit_length() - 1))
    sizes = np.ones((len(tuples), r), dtype=int)
    sizes[:, :tuples.shape[1]] = tuples
    w2 = table._w2sq[:budget]
    objective = np.cumsum(lam_active * w2[sizes - 1], axis=1)[:, -1]
    return tuple(int(n) for n in sizes[int(np.argmin(objective))])


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

class _GridTemplate(NamedTuple):
    """What a component's grid takes from the table and its grid sizes
    alone: its cells of positive mass, in C order.  Arrays are read-only,
    one row per cell and one column per multi-point axis.  A cell whose
    product mass underflows to exactly 0 carries no distortion either, so
    dropping it moves no bound, and no atom has zero weight."""

    mass: np.ndarray          # (M,) standard-normal product mass
    centers: np.ndarray       # (M, a) cell locations
    distortion: np.ndarray    # (M, a) var + (mean - centre)^2 per axis


def _grid_template(table: QuantizerTable, sizes: tuple) -> _GridTemplate:
    """The :class:`_GridTemplate` of the product grid of the multi-point
    ``sizes``, built once per table and kept on it (``table._grids``), so
    that it is freed with the table."""
    template = table._grids.get(sizes)
    if template is not None:
        return template
    n_multi, m_cells = len(sizes), math.prod(sizes)
    idx = np.indices(sizes).reshape(n_multi, m_cells)
    mass = np.ones(m_cells)
    centers = np.empty((m_cells, n_multi))
    distortion = np.empty((m_cells, n_multi))
    for l, n_l in enumerate(sizes):
        q = table.get(n_l)
        _, _, mass_l, mean_l, var_l = q.cells
        sel = idx[l]
        mass *= mass_l[sel]
        centers[:, l] = q.locations[sel]
        distortion[:, l] = var_l[sel] + np.square(mean_l[sel]
                                                  - centers[:, l])
    keep = mass > 0.0
    template = _GridTemplate(*(_readonly(a[keep])
                               for a in (mass, centers, distortion)))
    table._grids[sizes] = template
    return template


def _component_grid(g: Gaussian, budget: int, table: QuantizerTable):
    """Grid signature of a single Gaussian: ``(locations, weights, w2sq)``,
    for a checked budget (:func:`_check_budget`).

    Sizes are nonincreasing, so the multi-point axes form a prefix, whose
    cells come from the table's :func:`_grid_template`; each single-point
    axis has the one cell of N(0,1), of mass exactly 1.  Every cell keeps
    its own atom, weighted by the cell's mass.  The conditional
    distortion of a cell sums the pinned variance and the eigenvalue-
    weighted per-axis terms left to right, and ``w2sq`` is the
    mass-weighted sum of those: the squared W2 of the coupling that sends
    each cell to its atom.
    """
    basis = g.eigen()
    lam = basis.eigenvalues
    sizes = _grid_sizes(lam, budget, table)
    r = len(sizes)
    lam_r = lam[:r]
    n_multi = sum(n_l > 1 for n_l in sizes)
    t = _grid_template(table, sizes[:n_multi])
    one = table.get(1)
    _, _, _, mean_1, var_1 = one.cells
    center_1 = one.locations[0]
    terms = np.empty((t.mass.size, r + 1))
    terms[:, 0] = float(lam[r:].sum())
    terms[:, 1:n_multi + 1] = lam_r[:n_multi] * t.distortion
    terms[:, n_multi + 1:] = lam_r[n_multi:] * (
        var_1[0] + np.square(mean_1[0] - center_1))
    # contiguous: BLAS sums a strided vector in another order
    cond = np.ascontiguousarray(np.cumsum(terms, axis=1)[:, -1])

    centers = np.empty((t.mass.size, r))
    centers[:, :n_multi] = t.centers
    centers[:, n_multi:] = center_1
    transform = basis.eigenvectors[:, :r] * np.sqrt(lam_r)
    locations = g.mean + centers @ transform.T
    weights = t.mass / float(t.mass.sum())
    return locations, weights, float(np.dot(t.mass, cond))


def signature_of_gaussian(g: Gaussian, budget: int, table: QuantizerTable):
    """Signature of a Gaussian on the optimal eigen-aligned grid.

    Returns ``(atoms, w2sq)``, both from :func:`_component_grid`: the
    atoms are those of the one-component :func:`signature_of_mixture`, and
    ``w2sq``, the mass-weighted sum of the cell distortions, equals up to
    rounding the eigenvalue-weighted sum of the 1-D quantizer distortions
    plus the variance of the pinned axes.  It is the exact squared
    2-Wasserstein distance between ``g`` and the atoms (not a bound): in
    the eigen coordinates the squared metric is a sum over axes, so the
    nearest point of the product grid is the per-axis nearest point, its
    Voronoi cells are the products of the 1-D cells, and its Voronoi error
    (attained by the atoms, which carry the cell masses) is the closed
    form.  Zero covariance yields a single atom at the mean with distance
    zero.
    """
    if not isinstance(g, Gaussian):
        raise ParseError("signature_of_gaussian expects a Gaussian")
    _check_budget(budget, table)
    locations, weights, w2sq = _component_grid(g, budget, table)
    return DiscreteDistribution(locations, weights), w2sq


def signature_of_mixture(g, budget_per_component: int, table: QuantizerTable):
    """Union of per-component grid signatures with a certified W2 upper bound.

    Returns ``(atoms, w2_bound)``.  Atom weights are the component weights
    times the in-component cell masses, in component order.  The bound
    couples every component with its own signature block, each cell with
    its own atom (the ``w2sq_i`` of :func:`_component_grid`, exact for
    that component): ``w2_bound = sqrt(sum_i pi_i * w2sq_i)``.
    Zero-weight components contribute neither atoms nor bound mass.  The
    components are decomposed together (:func:`~wassnet.stats._eigen_bases`),
    and those decomposed before, for instance the merged clusters that
    ``compress_gmm`` priced its bound against, are reused.
    """
    gm = as_mixture(g)
    _check_budget(budget_per_component, table)
    live = [(pi, comp) for pi, comp in zip(gm.weights, gm.components)
            if pi > 0.0]
    _eigen_bases([comp for _, comp in live])
    locations, weights, w2sqs = [], [], []
    for pi, comp in live:
        loc_i, w_i, w2sq_i = _component_grid(comp, budget_per_component,
                                             table)
        locations.append(loc_i)
        weights.append(pi * w_i)
        w2sqs.append(w2sq_i)
    atoms = DiscreteDistribution(np.concatenate(locations),
                                 np.concatenate(weights))
    w2sq = np.dot([pi for pi, _ in live], w2sqs)
    return atoms, float(math.sqrt(max(0.0, float(w2sq))))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

_ACTIVATIONS = ("relu", "tanh")


def activation_signature_w2_bound(w2_bound: float, activation: str) -> float:
    """W2 bound between the activation pushforwards of a mixture and of
    its signature, given the signature's ``w2_bound``.

    An ``L``-Lipschitz map ``sigma`` sends every coupling of ``mu`` and
    ``nu`` to a coupling of ``sigma#mu`` and ``sigma#nu`` whose cost is at
    most ``L^2`` times as large, so ``W2(sigma#mu, sigma#nu) <= Lip(sigma)
    * W2(mu, nu)`` (Villani, *Optimal Transport*, 2009).  ReLU and tanh
    act elementwise and are 1-Lipschitz on each coordinate, so the
    constant is 1 for both kinds and ``w2_bound`` is returned unchanged.
    An unknown kind raises :class:`ParseError`.
    """
    if activation not in _ACTIVATIONS:
        raise ParseError(
            f"unknown activation {activation!r}; expected one of {_ACTIVATIONS}")
    return w2_bound
