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
other side of each pair, and MW2 against that per-pair formula and the
LP oracle.  The eigenvalue-only root trace is checked against the
eigenvector-weighted trace it replaced.  The stacked stochastic-linear
push is checked against the per-point construction it replaced.  Exact
W2 between atom sets and stratified mixture samples serve as references
for the compression bounds.  Grid allocation is checked against the
branch-and-bound search it replaced, and a component's grid signature
against the per-axis loop it replaced.  The ``milp`` transportation LP is
checked against the ``linprog`` call it replaced, and the sorted matching
of one-dimensional empirical W2 against the assignment path.  Mixture
covariances for the moment-matching checks come from the law of total
covariance.
"""

import itertools
import math

import numpy as np
from scipy import integrate, optimize
from scipy.sparse import csr_matrix


def mixture_full_cov(mix):
    """Covariance of a Gaussian mixture by the law of total covariance: the
    weighted component covariances plus the weighted outer products of the
    component mean offsets, symmetrized."""
    m_bar = mix.mean()
    out = np.zeros((mix.dim, mix.dim))
    for w, c in zip(mix.weights, mix.components):
        d = c.mean - m_bar
        out += w * (c.cov + np.outer(d, d))
    return 0.5 * (out + out.T)


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


def marginal_lower_bound_oracle(ps, qs):
    """``L_ij <= W2^2(p_i, q_j)`` from the coordinate marginals alone.

    ``L_ij = |m_i - m_j|^2 + sum_k (sqrt(S_i,kk) - sqrt(S_j,kk))^2``.  A
    coupling of ``X ~ p_i`` and ``Y ~ q_j`` couples each coordinate pair
    ``(X_k, Y_k)``, whose laws are ``N(m_i,k, S_i,kk)`` and ``N(m_j,k,
    S_j,kk)``, and the squared cost splits over coordinates, so ``E|X -
    Y|^2 >= sum_k W2^2(N(m_i,k, S_i,kk), N(m_j,k, S_j,kk))``; in one
    dimension ``W2^2(N(a, s), N(b, t)) = (a - b)^2 + (sqrt(s) -
    sqrt(t))^2``.  The bound is exact for two diagonal covariances, whose
    coordinates are independent, and by Cauchy-Schwarz it is at least the
    trace bound ``|m_i - m_j|^2 + (sqrt(tr S_i) - sqrt(tr S_j))^2``.
    """
    return np.array([[float(np.sum(np.square(p.mean - q.mean)) + np.sum(
        np.square(np.sqrt(np.diagonal(p.cov)) - np.sqrt(np.diagonal(q.cov)))))
        for q in qs] for p in ps])


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
    for sel, pattern_blocks in _pattern_groups(mats):
        group = [mats[k] for k in sel]
        lam, blocks = _block_eigh(group, pattern_blocks)
        root = np.sqrt(_clip_negative(lam, payload=group))
        out[sel] = sum(np.sum(np.square(v) * root[:, idx][..., None, :],
                              axis=(1, 2, 3)) for idx, v in blocks)
    return out


def pattern_blocks_oracle(link):
    """Connected components of a symmetric boolean pattern by union-find.

    Returns one ``(k, s)`` index array per block size ``s``, in increasing
    ``s``: each row one block's indices in increasing order, the rows in
    order of their lowest index.  Each union hangs the larger root under
    the smaller, so a root is its block's lowest index.
    """
    n = link.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(link)):
        ri, rj = find(int(i)), find(int(j))
        parent[max(ri, rj)] = min(ri, rj)
    members = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    by_size = {}
    for block in members.values():
        by_size.setdefault(len(block), []).append(block)
    return [np.array(by_size[s]) for s in sorted(by_size)]


def identical_pairs(ps, qs, rows, cols):
    """Whether ``ps[i]`` and ``qs[j]`` have equal means and equal
    covariances, for each pair ``(i, j)`` of ``rows`` and ``cols``."""
    return np.array([np.array_equal(ps[i].mean, qs[j].mean)
                     and np.array_equal(ps[i].cov, qs[j].cov)
                     for i, j in zip(rows, cols)], dtype=bool)


def price_by_columns_oracle(ps, qs, rows, cols):
    """``gaussian_w2_sq_pairs`` one column at a time: one root and one
    ``_psd_root_traces`` call per column with a pair to price, on the
    symmetrised products ``S_j^1/2 S_i S_j^1/2`` of its rows, and an
    exact 0 for identical pairs.

    Returns ``W2^2(ps[i], qs[j])`` of each pair ``(i, j)`` of ``rows`` and
    ``cols``, in their order.
    """
    from wassnet.stats import _psd_root_traces, _root_of

    rows, cols = np.asarray(rows), np.asarray(cols)
    todo = ~identical_pairs(ps, qs, rows, cols)
    out = np.zeros(rows.size)
    p_tr = np.array([g.cov_trace() for g in ps])
    for j in np.unique(cols[todo]):
        sel = np.flatnonzero(todo & (cols == j))
        r = rows[sel]
        sb = _root_of(qs[j].eigen())
        inner = sb @ np.stack([ps[i].cov for i in r]) @ sb
        inner = 0.5 * (inner + np.swapaxes(inner, 1, 2))
        fidelity = _psd_root_traces(inner)
        mean_sq = np.sum(np.square(
            np.stack([ps[i].mean for i in r]) - qs[j].mean), axis=-1)
        out[sel] = np.maximum(mean_sq + (
            p_tr[r] + qs[j].cov_trace() - 2.0 * fidelity), 0.0)
    return out


def price_by_rows_oracle(ps, qs, rows, cols):
    """``gaussian_w2_sq_pairs`` by the row-by-row loop it once ran: one
    root and one ``_psd_root_traces`` call per row with a pair to price,
    on the symmetrised products ``S_i^1/2 S_j S_i^1/2``, and an exact 0
    for identical pairs.  It takes the fidelity from the other side of
    each pair than the library does, so it agrees with it only up to
    rounding (:func:`row_rooted_rounding_bound`).

    Returns ``W2^2(ps[i], qs[j])`` of each pair ``(i, j)`` of ``rows`` and
    ``cols``, in their order.
    """
    from wassnet.stats import _psd_root_traces, _root_of

    rows, cols = np.asarray(rows), np.asarray(cols)
    todo = ~identical_pairs(ps, qs, rows, cols)
    out = np.zeros(rows.size)
    q_tr = np.array([g.cov_trace() for g in qs])
    for i in np.unique(rows[todo]):
        sel = np.flatnonzero(todo & (rows == i))
        js = cols[sel]
        sa = _root_of(ps[i].eigen())
        inner = sa @ np.stack([qs[j].cov for j in js]) @ sa
        inner = 0.5 * (inner + np.swapaxes(inner, 1, 2))
        fidelity = _psd_root_traces(inner)
        mean_sq = np.sum(np.square(
            ps[i].mean - np.stack([qs[j].mean for j in js])), axis=-1)
        out[sel] = np.maximum(mean_sq + (
            ps[i].cov_trace() + q_tr[js] - 2.0 * fidelity), 0.0)
    return out


def row_rooted_rounding_bound(ps, qs):
    """``(len(ps), len(qs))`` bounds on ``|W2^2|`` priced from the column
    side minus the same priced from the row side:
    ``2 (2 n sqrt(delta) + 1e-12 f)`` per pair, where ``delta = n eps
    |S_i|_2 |S_j|_2`` and ``f = sqrt(tr S_i tr S_j)``.

    Both sides compute the same fidelity, the nuclear norm of ``S_j^1/2
    S_i^1/2``, from products whose norm is at most ``|S_i|_2 |S_j|_2``;
    ``TestRootTraces`` derives ``2 n sqrt(n eps |M|_2) + 1e-12 tr`` for
    two root traces of one such product, and ``f`` bounds the trace by
    Cauchy-Schwarz.  The fidelity enters a cost twice.
    ``TestStackedPrice::test_rows_priced_within_the_root_perturbation_bound``
    checks the library against :func:`price_by_rows_oracle` with it.
    """
    n = ps[0].dim
    eps = np.finfo(float).eps
    norms = [np.array([np.linalg.norm(g.cov, 2) for g in gs])
             for gs in (ps, qs)]
    delta = n * eps * np.multiply.outer(*norms)
    f = np.sqrt(np.multiply.outer([g.cov_trace() for g in ps],
                                  [g.cov_trace() for g in qs]))
    return 2.0 * (2.0 * n * np.sqrt(delta) + 1e-12 * f)


def mw2_full_oracle(p, q):
    """Squared MW2 by per-pair pricing and a separate LP, with its
    tolerance against the library's ``mw2``: ``(value, tol)``.

    Every cost is :func:`gaussian_w2_pair_oracle`, which roots the row
    side of each pair, where the library roots the column side, and the
    transport problem is :func:`lp_transport_oracle`.  ``tol`` bounds
    ``|mw2(p, q)^2 - value|``: two optimal transport values over costs
    that differ by at most ``e`` per entry differ by at most ``e``, and
    ``e`` is the largest :func:`row_rooted_rounding_bound` of a pair plus
    ``4 (n + 2) eps (|m_i - m_j|^2 + tr S_i + tr S_j)``, the rounding of
    the sums that make a cost, summed in another order by the commuting
    closed form of two diagonal covariances.  The two LP solves add the
    ``1e-9`` that ``solve_discrete_ot`` keeps from the LP oracle on
    costs of order 1 (criterion 4), scaled by the largest cost.
    """
    from wassnet.stats import as_mixture

    pm, qm = as_mixture(p), as_mixture(q)
    ps, qs = pm.components, qm.components
    cost = np.array([[max(gaussian_w2_pair_oracle(a, b), 0.0) for b in qs]
                     for a in ps])
    value = lp_transport_oracle(cost, pm.weights, qm.weights)
    eps = np.finfo(float).eps
    sums = np.array([[float(np.sum(np.square(a.mean - b.mean)))
                      + a.cov_trace() + b.cov_trace() for b in qs]
                     for a in ps])
    per_pair = row_rooted_rounding_bound(ps, qs) \
        + 4.0 * (pm.dim + 2) * eps * sums
    tol = float(per_pair.max()) + 1e-9 * max(1.0, float(cost.max()))
    return value, tol


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
    """Network samples by the per-sample loop on one ``default_rng(seed)``:
    one forward pass per sample, each weight, bias and mask drawn by its
    own ``standard_normal`` call, and a unit kept when its normal lies
    below ``ndtri(keep_prob)``."""
    from scipy.special import ndtri

    from wassnet.snn import Activation, DeterministicLinear, StochasticLinear

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts.shape[0]
    out = np.empty((int(n_samples), d * model.output_dim))
    rng = np.random.default_rng(seed)
    for row in range(int(n_samples)):
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
                mask = rng.standard_normal(z.shape[1]) < ndtri(layer.keep_prob)
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


def pairwise_sq_dists_oracle(xs, ys):
    """Squared distances in the library's former two-array form,
    ``(|x|^2 + |y|^2) - 2 (X Y^T)`` clamped at 0, with no code shared with
    the single-buffer build in ``wassnet.transport``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    d2 = np.add.outer(np.sum(xs * xs, axis=1), np.sum(ys * ys, axis=1))
    cross = xs @ ys.T
    cross *= 2.0
    d2 -= cross
    return np.maximum(d2, 0.0, out=d2)


def empirical_w2_assignment_oracle(xs, ys):
    """Equal-count ``empirical_w2`` by the assignment path with the row and
    column minimum reductions only, and no Sinkhorn shift.

    This is the path the library took before its Sinkhorn dual warm start;
    it is kept unchanged as the reference that warm start must match, with
    the squared distances of :func:`pairwise_sq_dists_oracle`.
    """
    cost = pairwise_sq_dists_oracle(xs, ys)
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


def component_grid_oracle(g, budget, table):
    """Grid signature of a single Gaussian: ``(locations, weights, w2sq,
    cond)``, by the per-axis loop that ``quantizer._component_grid`` once
    ran: every axis, single-point or not, gathers its quantizer cells and
    adds its distortion term in its own pass.  Every cell of positive mass
    keeps its own atom; ``cond`` is the conditional squared distortion of
    each such cell, and ``w2sq`` their mass-weighted sum."""
    from wassnet.quantizer import allocate_grid

    basis = g.eigen()
    lam = basis.eigenvalues
    sizes = allocate_grid(lam, budget, table)
    r = len(sizes)
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
    cond = np.full(m_cells, float(lam[r:].sum()))
    for l, n_l in enumerate(sizes):
        q = table.get(n_l)
        _, _, mass_l, mean_l, var_l = q.cells
        sel = idx[l]
        mass *= mass_l[sel]
        centers[:, l] = q.locations[sel]
        cond += lam_r[l] * (var_l[sel] + np.square(mean_l[sel]
                                                    - centers[:, l]))

    keep = mass > 0.0
    weights = mass[keep] / float(mass[keep].sum())
    locations = g.mean + centers[keep] @ transform.T
    return (locations, weights, float(np.dot(mass[keep], cond[keep])),
            cond[keep])


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
