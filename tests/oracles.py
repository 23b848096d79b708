"""Independent oracles used as ground truth by the test suite.

Everything here deliberately avoids the library's own code paths: moments are
computed by adaptive quadrature of the normal density, optimal transport by a
generic exact LP solver and, independently of any LP solver, by enumerating
the vertices of tiny transportation polytopes or by an assignment problem,
the 1-d Gaussian W2 by quantile coupling, the scalar quantizer by a
from-scratch fixed point driven by quadrature, and the full dropout-mask
expansion by enumerating every mask.  The batched Gaussian W2 cost matrix
is checked against the per-pair formula it replaced, which shares
``psd_sqrt`` and the per-matrix root trace with the library, the stacked
pricing of exact costs against column-by-column pricing and, up to
rounding, against the row-by-row pricing it replaced, which roots the
other side of each pair, and the delayed-pricing MW2 against full pricing
of every pair.  The
eigenvalue-only root trace is checked against the eigenvector-weighted
trace it replaced.  The stacked stochastic-linear push is checked
against the per-point construction it replaced.  Exact W2 between atom
sets and stratified mixture samples serve as references for the
compression bounds.  Grid allocation is checked against the
branch-and-bound search it replaced, and a component's grid signature
against the per-axis loop it replaced.  The ``milp`` transportation LP is
checked against the ``linprog`` call it replaced, and the sorted matching
of one-dimensional empirical W2 against the assignment path.
"""

import itertools
import math

import numpy as np
from scipy import integrate, optimize
from scipy.sparse import csr_matrix


def npdf(x, mu=0.0, var=1.0):
    return math.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def quad_truncated_moments(mu, var, lo, hi):
    """(mass, conditional mean, conditional variance) by adaptive quadrature."""
    f = lambda z: npdf(z, mu, var)
    mass, _ = integrate.quad(f, lo, hi, limit=200)
    m1, _ = integrate.quad(lambda z: z * f(z), lo, hi, limit=200)
    m2, _ = integrate.quad(lambda z: z * z * f(z), lo, hi, limit=200)
    mean = m1 / mass
    return mass, mean, m2 / mass - mean * mean


def quantile_coupling_w2_1d(mu1, var1, mu2, var2):
    """1-d Gaussian W2 via the quantile coupling integral of (F^-1 - G^-1)^2."""
    from scipy.special import ndtri

    def f(u):
        q = ndtri(u)
        return ((mu1 + math.sqrt(var1) * q) - (mu2 + math.sqrt(var2) * q)) ** 2

    val, _ = integrate.quad(f, 0.0, 1.0, limit=400)
    return math.sqrt(max(val, 0.0))


def is_diagonal_matrix(cov):
    """Whether every off-diagonal entry of ``cov`` is zero."""
    return not np.any(cov[~np.eye(len(cov), dtype=bool)])


def gaussian_w2_pair_oracle(a, b):
    """Squared Gaussian W2 by the per-pair formula, one pair at a time.

    ``|m_a - m_b|^2 + tr(S_a + S_b - 2 (S_a^1/2 S_b S_a^1/2)^1/2)`` with
    ``S_a^1/2`` taken by the library's ``psd_sqrt`` (block-split, sorted,
    clipped eigendecomposition) and the trace of the outer root by its
    ``_psd_root_traces`` on the one symmetrised product, an exact 0 for
    identical Gaussians (equal means and covariances) and, when both
    covariances are diagonal matrices, the commuting closed form
    ``|m_a - m_b|^2 + |sqrt(s_a) - sqrt(s_b)|^2`` of their diagonals, which
    the library prices from eigenvalues like any other pair.  The trace
    is the library's because eigenvalues computed alone and with their
    eigenvectors round differently (about 1e-7 absolute on rank-deficient
    products, where the square root amplifies rounding); the independent
    check of that trace is :func:`root_trace_by_eigenvectors_oracle`.
    """
    from wassnet.stats import _psd_root_traces, psd_sqrt

    if np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov):
        return 0.0
    dm2 = float(np.sum(np.square(a.mean - b.mean)))
    if is_diagonal_matrix(a.cov) and is_diagonal_matrix(b.cov):
        return dm2 + float(np.sum(np.square(
            np.sqrt(np.diagonal(a.cov)) - np.sqrt(np.diagonal(b.cov)))))
    sa = psd_sqrt(a.cov)
    inner = sa @ b.cov @ sa
    cross = float(_psd_root_traces((0.5 * (inner + inner.T))[None])[0])
    return dm2 + (a.cov_trace() + b.cov_trace() - 2.0 * cross)


def root_trace_by_eigenvectors_oracle(mats):
    """``tr(M^1/2)`` of each matrix in a stack by the eigenvector-weighted
    sum the library computed before it took eigenvalues alone.

    Each sparsity pattern is split into blocks and decomposed, eigenvectors
    included, by the library's ``_block_eigh``; the trace of ``V diag(
    sqrt(max(lambda, 0))) V^T`` is summed entry by entry as
    ``sum_ab V_ab^2 sqrt(lambda_b)``, so it rests on the computed
    eigenvectors as well as the eigenvalues.
    """
    from wassnet.stats import _block_eigh, _clip_negative, _pattern_groups

    out = np.empty(len(mats))
    for sel, pattern in _pattern_groups(mats):
        group = [mats[k] for k in sel]
        lam, blocks = _block_eigh(group, pattern)
        root = np.sqrt(_clip_negative(lam, payload=group))
        out[sel] = sum(np.sum(np.square(v) * root[:, idx][..., None, :],
                              axis=(1, 2, 3)) for idx, v in blocks)
    return out


def price_by_columns_oracle(costs, mask):
    """``GaussianW2Costs.price`` one column at a time: one root and one
    ``_psd_root_traces`` call per column with an entry to price, on the
    symmetrised products ``S_j^1/2 S_i S_j^1/2`` of its rows.

    Makes every entry of ``costs`` under the boolean ``mask`` exact.
    """
    from wassnet.stats import _psd_root_traces, _root_of

    todo = mask & ~costs.exact
    if not np.any(todo):
        return
    p_tr = np.array([g.cov_trace() for g in costs._ps])
    for j in np.flatnonzero(np.any(todo, axis=0)):
        rows = np.flatnonzero(todo[:, j])
        sb = _root_of(costs._qs[j].eigen())
        inner = sb @ np.stack([costs._ps[i].cov for i in rows]) @ sb
        inner = 0.5 * (inner + np.swapaxes(inner, 1, 2))
        fidelity = _psd_root_traces(inner)
        costs.values[rows, j] = np.maximum(costs._mean_sq[rows, j] + (
            p_tr[rows] + costs._qs[j].cov_trace() - 2.0 * fidelity), 0.0)
    costs.exact |= todo


def price_by_rows_oracle(costs, mask):
    """``GaussianW2Costs.price`` by the row-by-row loop it once ran: one
    root and one ``_psd_root_traces`` call per row with an entry to price,
    on the symmetrised products ``S_i^1/2 S_j S_i^1/2``.  It takes the
    fidelity from the other side of each pair than the library does, so
    it agrees with it only up to rounding.

    Makes every entry of ``costs`` under the boolean ``mask`` exact.
    """
    from wassnet.stats import _psd_root_traces, _root_of

    todo = mask & ~costs.exact
    if not np.any(todo):
        return
    q_cov = np.stack([g.cov for g in costs._qs])
    q_tr = np.array([g.cov_trace() for g in costs._qs])
    for i in np.flatnonzero(np.any(todo, axis=1)):
        js = np.flatnonzero(todo[i])
        sa = _root_of(costs._ps[i].eigen())
        inner = sa @ q_cov[js] @ sa
        inner = 0.5 * (inner + np.swapaxes(inner, 1, 2))
        fidelity = _psd_root_traces(inner)
        costs.values[i, js] = np.maximum(costs._mean_sq[i, js] + (
            costs._ps[i].cov_trace() + q_tr[js] - 2.0 * fidelity),
            0.0)
    costs.exact |= todo


def mw2_full_oracle(p, q):
    """MW2 by full pricing: every Gaussian W2^2 cost, then one LP.

    The cost matrix is the library's all-pairs ``gaussian_w2_sq_matrix``
    and the LP its ``solve_discrete_ot``; returns ``(distance, plan)``.
    """
    from wassnet.stats import as_mixture, gaussian_w2_sq_matrix
    from wassnet.transport import solve_discrete_ot

    pm, qm = as_mixture(p), as_mixture(q)
    cost = gaussian_w2_sq_matrix(pm.components, qm.components)
    plan = solve_discrete_ot(cost, pm.weights, qm.weights)
    return math.sqrt(max(plan.cost, 0.0)), plan


def push_point_oracle(point, layer, d=1):
    """Output Gaussian of a stochastic linear layer at one stacked point,
    by the per-point construction the stacked push replaced: a variance
    vector for ``d = 1``, else the dense ``(d n_out)^2`` covariance filled
    entry by entry, symmetrised and passed to the public constructor."""
    from wassnet.stats import Gaussian

    point = np.asarray(point, dtype=float).reshape(-1)
    s = layer.scale
    blocks = point.reshape(d, layer.n_in)
    mean = s * (blocks @ layer.weight_mean.T + layer.bias_mean)
    if d == 1:
        var = s * s * (np.square(blocks[0]) @ layer.weight_var.T
                       + layer.bias_var)
        return Gaussian(mean.reshape(-1), var)
    n_out = layer.n_out
    cross = np.einsum("aj,ij,bj->iab", blocks, layer.weight_var, blocks)
    cov = np.zeros((d * n_out, d * n_out))
    a_idx = np.repeat(np.arange(d), d)
    b_idx = np.tile(np.arange(d), d)
    i = np.arange(n_out)[:, None]
    cov[a_idx * n_out + i, b_idx * n_out + i] = \
        s * s * (cross[:, a_idx, b_idx] + layer.bias_var[:, None])
    return Gaussian(mean.reshape(-1), 0.5 * (cov + cov.T))


def sample_network_oracle(model, points, n_samples, seed):
    """Network samples by the per-sample loop: one substream and one
    forward pass per sample, each draw taken by its own generator call."""
    from wassnet.snn import Activation, DeterministicLinear, StochasticLinear

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts.shape[0]
    out = np.empty((int(n_samples), d * model.output_dim))
    children = np.random.SeedSequence(int(seed)).spawn(int(n_samples))
    for row, child in enumerate(children):
        rng = np.random.default_rng(child)
        z = pts
        for layer in model.layers:
            if isinstance(layer, StochasticLinear):
                w = layer.weight_mean + np.sqrt(layer.weight_var) \
                    * rng.standard_normal(layer.weight_mean.shape)
                b = layer.bias_mean + np.sqrt(layer.bias_var) \
                    * rng.standard_normal(layer.bias_mean.shape)
                z = layer.scale * (z @ w.T + b)
            elif isinstance(layer, DeterministicLinear):
                z = z @ layer.weight.T + layer.bias
            elif isinstance(layer, Activation):
                z = layer.apply(z)
            else:
                mask = rng.random(z.shape[1]) < layer.keep_prob
                z = z * mask
        out[row] = z.reshape(-1)
    return out


def dropout_expansion_oracle(locations, weights, theta, blocks=1):
    """Full dropout-mask expansion of weighted atoms, by brute force.

    Every atom is paired with every keep/drop mask over its ``n = dim /
    blocks`` maskable coordinates, in ``itertools.product`` order, and one
    mask applies to all ``blocks`` segments.  The pair's weight is the atom
    weight times ``theta`` per kept and ``1 - theta`` per dropped
    coordinate; pairs of weight exactly zero are left out.  Returns
    ``(locations, weights)``.
    """
    locations = np.asarray(locations, dtype=float)
    n = locations.shape[1] // blocks
    out_loc, out_w = [], []
    for loc, w in zip(locations, weights):
        for mask in itertools.product((0, 1), repeat=n):
            p = float(w)
            for bit in mask:
                p *= theta if bit else 1.0 - theta
            if p > 0.0:
                out_loc.append(loc * np.tile(mask, blocks))
                out_w.append(p)
    return np.array(out_loc), np.array(out_w)


def discrete_w2(xs, x_weights, ys, y_weights):
    """Exact W2 between two weighted atom sets (squared-Euclidean cost).

    The costs are direct differences; the transportation LP is the
    library's ``solve_discrete_ot``, which the transport tests check
    against solver-independent oracles.
    """
    from wassnet.transport import solve_discrete_ot

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    cost = np.sum(np.square(xs[:, None, :] - ys[None, :, :]), axis=-1)
    plan = solve_discrete_ot(cost, np.asarray(x_weights, dtype=float),
                             np.asarray(y_weights, dtype=float))
    return math.sqrt(max(plan.cost, 0.0))


def _transport_constraints(m, n):
    """Sparse row-sum then column-sum equality rows over the flat plan."""
    var_idx = np.arange(m * n)
    rows = np.concatenate([var_idx // n, m + (var_idx % n)])
    cols = np.concatenate([var_idx, var_idx])
    return csr_matrix((np.ones(2 * m * n), (rows, cols)), shape=(m + n, m * n))


def lp_transport_oracle(cost, a, b):
    """Exact transportation LP via scipy's HiGHS solver.

    Returns the optimal objective value.  The library solves the same LP
    with HiGHS, so this oracle only catches errors in how the problem is
    set up; :func:`vertex_enumeration_oracle` and
    :func:`assignment_oracle` do not share the solver.
    """
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # drop one redundant equality row
    a_eq = _transport_constraints(m, n)[:-1]
    b_eq = np.concatenate([a, b])
    res = optimize.linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq[:-1],
                           bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def vertex_enumeration_oracle(cost, a, b, tol=1e-12):
    """Exact transportation optimum by brute force over all basic solutions.

    A basis of the m x n transportation polytope is a set of m + n - 1 cells
    forming a spanning tree of the bipartite row/column graph, which is the
    case exactly when the matching columns of the constraint matrix (one
    redundant row dropped) are independent.  Every basis with a nonnegative
    solution is a vertex and an LP optimum is attained at a vertex, so the
    minimum over those bases is the optimum.  Only for m, n <= 3, where
    there are at most C(9, 5) = 126 candidate bases.
    """
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    if m > 3 or n > 3:
        raise ValueError("vertex enumeration is limited to m, n <= 3")
    eq = _transport_constraints(m, n).toarray()[:-1]
    rhs = np.concatenate([np.asarray(a, dtype=float),
                          np.asarray(b, dtype=float)])[:-1]
    best = math.inf
    for basis in itertools.combinations(range(m * n), m + n - 1):
        sub = eq[:, basis]
        if np.linalg.matrix_rank(sub) < m + n - 1:
            continue  # the cells contain a cycle: not a spanning tree
        flow = np.linalg.solve(sub, rhs)
        if np.all(flow >= -tol):
            best = min(best, float(cost.ravel()[list(basis)] @ flow))
    if not math.isfinite(best):
        raise RuntimeError("no feasible basis found")
    return best


def transport_lp_linprog_oracle(cost, a, b):
    """The library's ``_transport_lp`` as it was, on ``linprog``.

    Vertex optimum of the balanced transportation LP by HiGHS dual simplex.

    The last column constraint is implied by the others and is left out.
    """
    from scipy.sparse import coo_array
    from wassnet.errors import NumericalError

    m, n = cost.shape
    var = np.arange(m * n)
    a_eq = coo_array((np.ones(2 * m * n),
                      (np.concatenate([var // n, m + var % n]),
                       np.concatenate([var, var]))),
                     shape=(m + n, m * n)).tocsr()[:-1]
    res = optimize.linprog(cost.ravel(), A_eq=a_eq,
                           b_eq=np.concatenate([a, b[:-1]]),
                           bounds=(0.0, None), method="highs-ds")
    if res.status != 0:
        raise NumericalError(f"transportation LP failed: {res.message}")
    return np.maximum(res.x, 0.0).reshape(m, n)


def empirical_w2_assignment_oracle(xs, ys):
    """Equal-count ``empirical_w2`` by the assignment path with the row and
    column minimum reductions only, and no Sinkhorn shift.

    This is the path the library took before its Sinkhorn dual warm start;
    it is kept unchanged as the reference that warm start must match.
    """
    from wassnet.transport import _pairwise_sq_dists

    cost = _pairwise_sq_dists(xs, ys)
    cost -= cost.min(axis=1)[:, None]
    cost -= cost.min(axis=0)[None, :]
    rows, cols = optimize.linear_sum_assignment(cost)
    sq = np.sum(np.square(xs[rows] - ys[cols]), axis=1)
    return math.sqrt(float(sq.mean()))


def assignment_oracle(cost):
    """Transportation optimum for n x n cost with uniform 1/n marginals.

    By Birkhoff's theorem the vertices of that polytope are the permutation
    matrices scaled by 1/n, so the optimum is the optimal assignment cost
    divided by n.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError("the assignment oracle needs a square cost matrix")
    rows, cols = optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / n)


def semidiscrete_w2_lp(samples, locations, weights):
    """Exact W2 between a uniform empirical measure and weighted atoms via HiGHS."""
    samples = np.asarray(samples, dtype=float)
    locations = np.asarray(locations, dtype=float)
    n = samples.shape[0]
    cost = (np.sum(samples * samples, axis=1)[:, None]
            + np.sum(locations * locations, axis=1)[None, :]
            - 2.0 * samples @ locations.T)
    np.maximum(cost, 0.0, out=cost)
    a = np.full(n, 1.0 / n)
    val = lp_transport_oracle(cost, a, np.asarray(weights, dtype=float))
    return math.sqrt(max(val, 0.0))


def quad_lloyd_quantizer(n, tol=1e-12, max_iters=200000):
    """Scalar Lloyd-Max quantizer of N(0,1) driven entirely by quadrature.

    Independent fixed point: centroids from integrals of the density, cell
    edges from midpoints.  Returns (locations, w2sq).
    """
    from scipy.special import ndtri
    c = ndtri((np.arange(n) + 0.5) / n)
    if n == 1:
        return np.zeros(1), 1.0
    for _ in range(max_iters):
        edges = np.concatenate([[-np.inf], 0.5 * (c[1:] + c[:-1]), [np.inf]])
        new = np.empty_like(c)
        for i in range(n):
            lo = edges[i] if np.isfinite(edges[i]) else c[i] - 40.0
            hi = edges[i + 1] if np.isfinite(edges[i + 1]) else c[i] + 40.0
            mass, _ = integrate.quad(npdf, lo, hi, limit=200)
            m1, _ = integrate.quad(lambda z: z * npdf(z), lo, hi, limit=200)
            new[i] = m1 / mass
        if np.max(np.abs(new - c)) < tol:
            c = new
            break
        c = new
    edges = np.concatenate([[-np.inf], 0.5 * (c[1:] + c[:-1]), [np.inf]])
    w2sq = 0.0
    for i in range(n):
        lo = edges[i] if np.isfinite(edges[i]) else c[i] - 40.0
        hi = edges[i + 1] if np.isfinite(edges[i + 1]) else c[i] + 40.0
        val, _ = integrate.quad(lambda z: (z - c[i]) ** 2 * npdf(z), lo, hi, limit=200)
        w2sq += val
    return c, w2sq


def allocate_grid_search_oracle(eigenvalues, budget, table):
    """Grid sizes by the depth-first branch-and-bound search that
    ``allocate_grid`` once ran.

    Axes below the degeneracy threshold are dropped; the search visits the
    nonincreasing tuples in lexicographically decreasing order, adds each
    axis cost left to right, prunes a branch once its partial sum reaches
    the best total, and keeps the first strict minimum.
    """
    from wassnet.config import TOL

    lam = np.asarray(eigenvalues, dtype=float)
    if lam[0] <= 0.0:
        return ()
    lam_active = lam[lam > TOL.eig_clip_rtol * lam[0]]
    r = int(lam_active.size)
    w2 = [q.w2sq for q in table.entries]
    best_obj = math.inf
    best = ()
    sizes = [1] * r

    def descend(axis, cap, prod, partial):
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
                    partial + lam_active[axis] * w2[n - 1])
        sizes[axis] = 1

    descend(0, int(budget), 1, 0.0)
    return best


def component_grid_oracle(g, weight, budget, table):
    """Grid signature of a single Gaussian of mixture weight ``weight``:
    ``(locations, weights, cells)``, by the per-axis loop that
    ``quantizer._component_grid`` once ran: every axis, single-point or
    not, gathers its quantizer cells and adds its distortion term in its
    own pass."""
    from wassnet.config import TOL
    from wassnet.errors import NumericalError
    from wassnet.quantizer import ComponentCells, allocate_grid

    basis = g.eigen()
    lam = basis.eigenvalues
    sizes = allocate_grid(lam, budget, table)
    r = len(sizes)
    pinned_sum = float(lam[r:].sum())
    lam_r = lam[:r]
    transform = basis.eigenvectors[:, :r] * np.sqrt(lam_r)

    # sizes are nonincreasing, so the multi-point axes form a prefix; the
    # single-point axes keep index 0, which np.indices cannot give directly
    # past 64 axes
    n_multi = sum(n_l > 1 for n_l in sizes)
    m_cells = math.prod(sizes)
    idx = np.zeros((r, m_cells), dtype=int)
    idx[:n_multi] = np.indices(sizes[:n_multi]).reshape(n_multi, m_cells)
    mass = np.ones(m_cells)
    centers = np.empty((m_cells, r))
    means = np.empty((m_cells, r))
    variances = np.empty((m_cells, r))
    cond = np.full(m_cells, pinned_sum)
    for l, n_l in enumerate(sizes):
        q = table.get(n_l)
        _, _, mass_l, mean_l, var_l = q.cells
        sel = idx[l]
        mass *= mass_l[sel]
        centers[:, l] = q.locations[sel]
        means[:, l] = mean_l[sel]
        variances[:, l] = var_l[sel]
        cond += lam_r[l] * (variances[:, l]
                            + np.square(means[:, l] - centers[:, l]))

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
            pen = float(np.sum(lam_r * (variances[c_idx] + np.square(
                means[c_idx] - kept_centers[j])))) + pinned_sum
            weights[j] += mass[c_idx]
            prune_penalty[j] += mass[c_idx] * pen
            pruned_mass += float(mass[c_idx])

    total = float(weights.sum())
    weights = weights / total
    locations = g.mean + centers[keep] @ transform.T
    cells = ComponentCells(
        weight=weight, eigenvalues=lam, grid_sizes=sizes,
        cell_mass=mass[keep], distortion=cond[keep],
        prune_penalty=prune_penalty, pruned_mass=pruned_mass)
    return locations, weights, cells


def mc_mean_se(values):
    """Mean and Monte Carlo standard error of i.i.d. scalar estimates."""
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(len(values)) if len(values) > 1 else 0.0
    return float(values.mean()), float(se)


def sample_stratified(g, n, rng):
    """Sample a Gaussian mixture with per-component counts pinned to ``n * weights``.

    Largest-remainder rounding makes the component proportions
    deterministic, removing the multinomial imbalance noise that
    dominates empirical W2 estimates between well-separated modes; the
    sampler remains consistent for the mixture distribution.  Rows are
    shuffled so the output carries no component grouping.
    """
    target = n * g.weights
    counts = np.floor(target).astype(int)
    short = n - int(counts.sum())
    if short > 0:
        order = np.argsort(-(target - counts), kind="stable")
        counts[order[:short]] += 1
    parts = [comp.sample(int(c), rng)
             for c, comp in zip(counts, g.components) if c > 0]
    return rng.permutation(np.concatenate(parts, axis=0), axis=0)


def stratified_w2_batches(p, q, n, k, rng):
    """Mean and SE of empirical W2 over k fresh stratified sample pairs.

    Each batch draws its own n-point stratified samples from both mixtures,
    so every batch respects the exact component proportions (chunking one
    stratified array would put single components into each chunk).
    """
    from wassnet.transport import empirical_w2

    vals = [empirical_w2(sample_stratified(p, n, rng),
                         sample_stratified(q, n, rng)) for _ in range(k)]
    return mc_mean_se(vals)
