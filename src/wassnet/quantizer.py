"""Discrete signatures of Gaussians and Gaussian mixtures.

Builds the optimal 1-D quantizers of N(0,1) by a centroid/boundary fixed
point, persists them in a lookup table, allocates per-axis grid sizes under a
total budget, and assembles eigen-aligned tensor-product signatures whose
2-Wasserstein error is exactly computable (single Gaussian) or upper-bounded
(mixtures), including an activation-aware refinement of the error bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtri

from .config import TOL
from .errors import FixedPointError, NumericalError, ParseError
from .stats import (
    Gaussian,
    GaussianMixture,
    _readonly,
    _std_pdf,
    as_mixture,
    standard_truncated_moments,
)

__all__ = [
    "Quantizer1D",
    "QuantizerTable",
    "GridAllocation",
    "ComponentCells",
    "Signature",
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

    ``locations`` are strictly increasing and symmetric about zero;
    ``w2sq`` is the squared 2-Wasserstein distortion between N(0,1) and the
    induced atom distribution (cell-mass weights at the locations).
    """

    locations: np.ndarray
    w2sq: float

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        if loc.ndim != 1 or loc.size < 1:
            raise ParseError("locations must be a nonempty 1-D vector")
        if not np.all(np.isfinite(loc)):
            raise ParseError("locations must be finite")
        if loc.size > 1 and not np.all(np.diff(loc) > 0):
            raise ParseError("locations must be strictly increasing")
        if not self.w2sq >= 0.0:
            raise ParseError("w2sq must be nonnegative")
        object.__setattr__(self, "locations", _readonly(loc))
        object.__setattr__(self, "w2sq", float(self.w2sq))

    @property
    def size(self) -> int:
        return int(self.locations.size)

    def to_dict(self) -> dict:
        return {"locations": [float(v) for v in self.locations],
                "w2sq": float(self.w2sq)}

    @classmethod
    def from_dict(cls, data: dict) -> "Quantizer1D":
        try:
            return cls(np.asarray(data["locations"], dtype=float),
                       float(data["w2sq"]))
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
    if n == 1:
        return Quantizer1D(np.array([0.0]), 1.0)

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

    _, _, mass, mean, var = _centroid_map(loc)
    w2sq = float(np.sum(mass * (var + np.square(mean - loc))))
    if not np.all(np.diff(loc) > 0):
        raise NumericalError(f"quantizer locations collapsed for N={n}")
    return Quantizer1D(loc, w2sq)


@dataclass(frozen=True)
class QuantizerTable:
    """Immutable lookup table of optimal quantizers for N = 1..n_max."""

    entries: tuple
    tol: float
    max_iters: int

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

    def w2sq_array(self, n_max: int) -> np.ndarray:
        """Vector ``v`` with ``v[n] = w2sq(N=n)`` for n = 1..n_max (v[0] unused)."""
        if n_max > self.n_max:
            raise ParseError(
                f"table covers N<= {self.n_max}, requested {n_max}")
        out = np.empty(n_max + 1)
        out[0] = np.inf
        out[1:] = [q.w2sq for q in self.entries[:n_max]]
        return out

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "tol": float(self.tol),
            "max_iters": int(self.max_iters),
            "entries": {str(q.size): q.to_dict() for q in self.entries},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantizerTable":
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
            return cls(tuple(entries), float(data["tol"]),
                       int(data.get("max_iters", TOL.fixed_point_max_iters)))
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


def build_table(n_max: int = TOL.table_n_max,
                tol: float = TOL.fixed_point_tol,
                max_iters: int = TOL.fixed_point_max_iters) -> QuantizerTable:
    """Build the quantizer lookup table for sizes 1..n_max."""
    if n_max < 1:
        raise ParseError("n_max must be at least 1")
    entries = []
    prev = math.inf
    for n in range(1, int(n_max) + 1):
        q = solve_quantizer_1d(n, tol=tol, max_iters=max_iters)
        if not q.w2sq < prev:
            raise NumericalError(
                f"quantizer distortion failed to decrease at N={n}: "
                f"{q.w2sq} >= {prev}")
        prev = q.w2sq
        entries.append(q)
    return QuantizerTable(tuple(entries), tol=tol, max_iters=int(max_iters))


# ---------------------------------------------------------------------------
# grid allocation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridAllocation:
    """Per-axis grid sizes over the non-degenerate eigen axes."""

    per_axis_sizes: tuple
    total: int
    objective: float
    degenerate_axes: int = 0


def _active_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Axes whose eigenvalue exceeds the relative degeneracy threshold."""
    if eigenvalues.size == 0 or eigenvalues[0] <= 0.0:
        return np.zeros(eigenvalues.shape, dtype=bool)
    return eigenvalues > TOL.eig_clip_rtol * eigenvalues[0]


def allocate_grid(eigenvalues, budget: int, table: QuantizerTable) -> GridAllocation:
    """Exact minimizer of sum_j lambda_j * w2sq(N_j) subject to prod N_j <= budget.

    ``eigenvalues`` must be sorted nonincreasing; axes below the degeneracy
    threshold are pinned at one point and excluded from the search.  The
    search enumerates all nonincreasing integer factor tuples with product at
    most ``budget`` (an exchange argument shows some optimum is nonincreasing
    when the eigenvalues are), breaking objective ties toward more points on
    the larger-eigenvalue axes.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ParseError("eigenvalues must be a nonempty 1-D vector")
    if np.any(lam < 0.0) or not np.all(np.isfinite(lam)):
        raise ParseError("eigenvalues must be finite and nonnegative")
    if np.any(np.diff(lam) > 0.0):
        raise ParseError("eigenvalues must be sorted nonincreasing")
    if not isinstance(budget, (int, np.integer)) or budget < 1:
        raise ParseError("budget must be a positive integer")
    if table.n_max < budget:
        raise ParseError(
            f"quantizer table covers N<={table.n_max}; budget {budget} needs more")

    active = _active_mask(lam)
    lam_active = lam[active]
    r = int(lam_active.size)
    n_degenerate = int(lam.size - r)
    if r == 0:
        return GridAllocation((), 1, 0.0, degenerate_axes=n_degenerate)

    w2 = table.w2sq_array(int(budget))
    best_obj = math.inf
    best = None
    sizes = [1] * r

    def descend(axis: int, cap: int, prod: int, partial: float) -> None:
        nonlocal best_obj, best
        if axis == r:
            if partial < best_obj:
                best_obj = partial
                best = tuple(sizes)
            return
        if partial >= best_obj:
            return  # remaining axes only add strictly positive cost
        limit = min(cap, budget // prod)
        for n in range(limit, 0, -1):
            sizes[axis] = n
            descend(axis + 1, n, prod * n,
                    partial + lam_active[axis] * w2[n])
        sizes[axis] = 1

    descend(0, int(budget), 1, 0.0)
    total = int(np.prod(np.asarray(best, dtype=np.int64)))
    return GridAllocation(tuple(int(v) for v in best), total,
                          float(best_obj), degenerate_axes=n_degenerate)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentCells:
    """Grid-cell metadata for one mixture component's signature block.

    Cells live in the whitened eigen coordinates: the atom for cell ``i`` is
    ``offset + transform @ centers[i]``, its Voronoi box is
    ``[lo[i], hi[i]]`` per axis (extended reals), ``cell_mass`` is the
    standard-normal product mass of the box, ``distortion`` the conditional
    expectation E[||z - atom||^2 | z in cell] in the original metric, and
    ``prune_penalty`` the absolute (mass-weighted) distortion contributed by
    pruned cells whose mass was reassigned to this atom.
    """

    offset: np.ndarray          # (n,) component mean
    transform: np.ndarray       # (n, r) eigvecs * sqrt(eigvals) over grid axes
    eigenvalues: np.ndarray     # (n,) all eigenvalues, nonincreasing
    grid_sizes: tuple           # per-axis point counts over grid axes
    lo: np.ndarray              # (M, r) cell lower bounds, whitened coords
    hi: np.ndarray              # (M, r) cell upper bounds
    centers: np.ndarray         # (M, r) cell centers (1-D quantizer locations)
    cell_mass: np.ndarray       # (M,) own-cell standard-normal mass
    distortion: np.ndarray      # (M,) conditional squared distortion
    prune_penalty: np.ndarray   # (M,) absorbed mass-weighted distortion
    pruned_mass: float
    pinned_exact_zero: bool     # all non-grid eigenvalues are exactly zero

    def __post_init__(self):
        for name in ("offset", "transform", "eigenvalues", "lo", "hi",
                     "centers", "cell_mass", "distortion", "prune_penalty"):
            object.__setattr__(self, name,
                               _readonly(np.asarray(getattr(self, name),
                                                    dtype=float)))

    @property
    def size(self) -> int:
        return int(self.cell_mass.size)

    @property
    def w2sq_total(self) -> float:
        """Absolute squared distortion of coupling each cell to its atom."""
        return float(np.dot(self.cell_mass, self.distortion)
                     + np.sum(self.prune_penalty))


@dataclass(frozen=True)
class Signature:
    """Weighted atoms approximating a distribution, with their cell data.

    Atoms are grouped by generating mixture component in component order;
    ``cells`` holds one :class:`ComponentCells` per component, aligned with
    the atom blocks.
    """

    locations: np.ndarray
    weights: np.ndarray
    component_weights: np.ndarray
    cells: tuple

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if loc.ndim != 2 or loc.shape[0] < 1:
            raise ParseError("signature locations must be a (M, n) array")
        if w.shape != (loc.shape[0],):
            raise ParseError("signature weights must match atom count")
        if np.any(w < -1e-12) or not np.all(np.isfinite(w)):
            raise ParseError("signature weights must be nonnegative")
        total = float(w.sum())
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ParseError(f"signature weights sum to {total}, expected 1")
        w = np.maximum(w, 0.0) / np.maximum(w, 0.0).sum()
        object.__setattr__(self, "locations", _readonly(loc))
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(
            self, "component_weights",
            _readonly(np.asarray(self.component_weights, dtype=float)))
        if sum(c.size for c in self.cells) != loc.shape[0]:
            raise ParseError("cell blocks must cover exactly all atoms")

    @property
    def size(self) -> int:
        return int(self.locations.shape[0])

    @property
    def dim(self) -> int:
        return int(self.locations.shape[1])

    @property
    def w2_bound(self) -> float:
        """Upper bound on W2 to the generating mixture.

        Couples every component with its own cell block:
        ``sqrt(sum_i pi_i * cells[i].w2sq_total)``.
        """
        w2sq = np.array([c.w2sq_total for c in self.cells])
        return float(math.sqrt(max(0.0, float(
            np.dot(self.component_weights, w2sq)))))


def _component_grid(g: Gaussian, budget: int, table: QuantizerTable):
    """Grid signature of a single Gaussian.

    Returns ``(locations, weights, cells, w2sq_exact)`` where ``w2sq_exact``
    is the closed-form squared distortion (eigenvalue-weighted sum of 1-D
    quantizer distortions, plus pinned-axis variance).
    """
    basis = g.eigen()
    lam = basis.eigenvalues
    alloc = allocate_grid(lam, budget, table)
    sizes = alloc.per_axis_sizes
    r = len(sizes)
    pinned = lam[r:]
    pinned_sum = float(pinned.sum())
    pinned_exact_zero = bool(np.all(pinned == 0.0))
    lam_r = lam[:r]
    transform = basis.eigenvectors[:, :r] * np.sqrt(lam_r)

    axis_stats = []
    w2sq_exact = pinned_sum
    for l, n_l in enumerate(sizes):
        q = table.get(n_l)
        axis_stats.append((q.locations,) + _centroid_map(q.locations))
        w2sq_exact += float(lam_r[l]) * q.w2sq

    # enumerate only axes with several cells; single-cell axes keep index 0,
    # which np.indices cannot do directly past 64 axes
    multi = [l for l, n_l in enumerate(sizes) if n_l > 1]
    if multi:
        idx_multi = np.indices([sizes[l] for l in multi])
        idx_multi = idx_multi.reshape(len(multi), -1)
        m_cells = idx_multi.shape[1]
    else:
        m_cells = 1
    idx = np.zeros((r, m_cells), dtype=int)
    for pos, l in enumerate(multi):
        idx[l] = idx_multi[pos]
    mass = np.ones(m_cells)
    centers = np.empty((m_cells, r))
    lo = np.empty((m_cells, r))
    hi = np.empty((m_cells, r))
    cond = np.full(m_cells, pinned_sum)
    for l in range(r):
        c_l, lo_l, hi_l, mass_l, mean_l, var_l = axis_stats[l]
        sel = idx[l]
        mass *= mass_l[sel]
        centers[:, l] = c_l[sel]
        lo[:, l] = lo_l[sel]
        hi[:, l] = hi_l[sel]
        cond += lam_r[l] * (var_l[sel] + np.square(mean_l[sel] - c_l[sel]))

    keep = mass >= TOL.cell_mass_prune
    if not np.any(keep):
        raise NumericalError("all signature cells fell below the mass floor")
    weights = mass[keep].copy()
    prune_penalty = np.zeros(weights.size)
    pruned_mass = 0.0
    if not np.all(keep):
        kept_centers = centers[keep]
        for c_idx in np.flatnonzero(~keep):
            d2 = np.sum(lam_r * np.square(kept_centers - centers[c_idx]),
                        axis=1)
            j = int(np.argmin(d2))
            # exact conditional distortion of sending this cell to atom j
            _, mean_c, var_c = standard_truncated_moments(
                lo[c_idx], hi[c_idx])
            pen = float(np.sum(lam_r * (var_c + np.square(
                mean_c - kept_centers[j])))) + pinned_sum
            weights[j] += mass[c_idx]
            prune_penalty[j] += mass[c_idx] * pen
            pruned_mass += float(mass[c_idx])

    total = float(weights.sum())
    weights = weights / total
    locations = g.mean + centers[keep] @ transform.T
    cells = ComponentCells(
        offset=g.mean, transform=transform, eigenvalues=lam,
        grid_sizes=tuple(int(v) for v in sizes),
        lo=lo[keep], hi=hi[keep], centers=centers[keep],
        cell_mass=mass[keep], distortion=cond[keep],
        prune_penalty=prune_penalty, pruned_mass=pruned_mass,
        pinned_exact_zero=pinned_exact_zero)
    return locations, weights, cells, w2sq_exact


def signature_of_gaussian(g: Gaussian, budget: int, table: QuantizerTable):
    """Signature of a Gaussian on the optimal eigen-aligned grid.

    Returns ``(signature, w2sq_exact)``; ``w2sq_exact`` is the exact squared
    2-Wasserstein distance between ``g`` and the signature (not a bound).
    Zero covariance yields a single atom at the mean with distance zero.
    """
    if not isinstance(g, Gaussian):
        raise ParseError("signature_of_gaussian expects a Gaussian")
    locations, weights, cells, w2sq_exact = _component_grid(g, budget, table)
    sig = Signature(
        locations, weights,
        component_weights=np.array([1.0]),
        cells=(cells,),
    )
    return sig, float(w2sq_exact)


def signature_of_mixture(g, budget_per_component: int, table: QuantizerTable):
    """Union of per-component grid signatures with a W2 upper bound.

    Atom weights are the component weights times the in-component cell
    masses; the bound couples every component with its own signature:
    ``w2_bound = sqrt(sum_i pi_i * w2sq_i)``.  Zero-weight components
    contribute neither atoms nor bound mass.
    """
    gm = as_mixture(g)
    blocks = []
    comp_w = []
    cells = []
    for pi, comp in zip(gm.weights, gm.components):
        if pi <= 0.0:
            continue
        loc_i, w_i, cells_i, _ = _component_grid(comp, budget_per_component,
                                                 table)
        blocks.append((loc_i, pi * w_i))
        comp_w.append(float(pi))
        cells.append(cells_i)
    locations = np.concatenate([b[0] for b in blocks], axis=0)
    weights = np.concatenate([b[1] for b in blocks])
    sig = Signature(
        locations, weights,
        component_weights=np.asarray(comp_w),
        cells=tuple(cells),
    )
    return sig, sig.w2_bound


# ---------------------------------------------------------------------------
# activation-aware refinement
# ---------------------------------------------------------------------------

_ACTIVATIONS = ("relu", "tanh")


def _essential_radius() -> float:
    """Half-width of the standard-normal box holding all but negligible mass."""
    return float(-ndtri(TOL.cell_mass_prune))


def _refined_component_w2sq(cc: ComponentCells, radius: float) -> float:
    """Squared distortion with L=0 on cells essentially in the ReLU dead zone.

    Clips every cell box to the essential standard-normal box of half-width
    ``radius``; a cell whose clipped image under the generating transform
    lies in the nonpositive orthant (and whose atom is nonpositive) maps to
    the ReLU constant region, so only its clipped-away tail distortion is
    kept.  All other cells keep their full distortion.  The result never
    exceeds the unrefined component distortion.
    """
    if not cc.pinned_exact_zero:
        # positive variance off the grid axes: cell support is unbounded in
        # those directions, so no cell can be certified dead
        return cc.w2sq_total

    lam_r = cc.eigenvalues[: cc.lo.shape[1]]
    lo_c = np.maximum(cc.lo, -radius)
    hi_c = np.minimum(cc.hi, radius)
    valid = lo_c < hi_c
    lo_c = np.where(valid, lo_c, 0.0)
    hi_c = np.where(valid, hi_c, 0.0)
    mass_c, mean_c, var_c = standard_truncated_moments(lo_c, hi_c)
    mass_c = np.where(valid, mass_c, 0.0)
    box_mass = np.prod(mass_c, axis=1)
    inner = np.sum(lam_r * (var_c + np.square(mean_c - cc.centers)), axis=1)
    clipped_abs = box_mass * inner  # E[||z-atom||^2 ; cell ∩ box]

    a_neg = np.minimum(cc.transform, 0.0)
    a_pos = np.maximum(cc.transform, 0.0)
    upper = cc.offset + lo_c @ a_neg.T + hi_c @ a_pos.T  # (M, n)
    atoms = cc.offset + cc.centers @ cc.transform.T
    dead = (np.all(valid, axis=1)
            & (np.max(upper, axis=1) <= 0.0)
            & np.all(atoms <= 0.0, axis=1))

    full_abs = cc.cell_mass * cc.distortion
    tail_abs = np.maximum(full_abs - clipped_abs, 0.0)
    per_cell = np.where(dead, tail_abs, full_abs) + cc.prune_penalty
    return float(np.sum(per_cell))


def activation_signature_w2_bound(sig: Signature, activation: str,
                                  source: GaussianMixture) -> float:
    """Upper bound on W2 between activation pushforwards of source and signature.

    With the global Lipschitz constant 1 (ReLU and tanh) the plain signature
    bound applies.  For ReLU the bound is refined: cells certified to lie in
    the dead zone (nonpositive orthant) contribute only their negligible-mass
    tail.  The returned value never exceeds the unrefined bound.
    """
    if activation not in _ACTIVATIONS:
        raise ParseError(
            f"unknown activation {activation!r}; expected one of {_ACTIVATIONS}")
    unrefined = sig.w2_bound
    if activation == "tanh":
        return unrefined

    if source is not None:
        n_comp = len(sig.cells)
        active = [i for i, w in enumerate(source.weights) if w > 0.0]
        if len(active) != n_comp:
            raise ParseError(
                "source mixture does not match signature component blocks")

    radius = _essential_radius()
    total = 0.0
    for pi, cc in zip(sig.component_weights, sig.cells):
        total += float(pi) * _refined_component_w2sq(cc, radius)
    refined = math.sqrt(max(0.0, total))
    return float(min(refined, unrefined))
