"""Central numeric configuration.

Every scalar tolerance, cap and default used across the package lives in one
frozen record so that the numerical contract of the library is visible in a
single place.  Functions read the module-level ``TOL``; none accepts a
``Tolerances``, though a few take one value as a keyword whose default comes
from ``TOL`` (for example ``solve_quantizer_1d(n, tol=...)``).  A value that
no caller varies is a field here, not a parameter: ``tune`` reads its
gradient clip and step decay from ``TOL`` only.  One cap may guard more
than one allocation: ``cov_bytes_cap`` bounds both the covariances that
propagation pushes and the draws that network sampling takes.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # covariance matrices must be symmetric to this relative tolerance
    cov_symmetry_rtol: float = 1e-12
    # eigenvalues below -eig_clip_rtol * lambda_max are an error; negatives
    # above that are clipped to 0; the same threshold defines degeneracy
    eig_clip_rtol: float = 1e-10
    # mixture weights must sum to 1 within this absolute tolerance
    simplex_atol: float = 1e-12
    # 1-d quantizer fixed point: stop when max location change < tol
    fixed_point_tol: float = 1e-12
    fixed_point_max_iters: int = 100_000
    # quantizer lookup table is built up to this size by default
    table_n_max: int = 512
    # transport marginals must agree to this absolute tolerance
    marginal_atol: float = 1e-9
    # empirical W2 refuses cost matrices with more entries than this
    empirical_cost_cap: int = 4_000_000
    # propagation aborts if a mixture/atom set would exceed this size
    atom_cap: int = 100_000
    # propagation aborts before a stochastic layer whose pushed covariances
    # (A components of (D n)^2 doubles, for every D) would exceed
    # this many bytes.  256 MiB is 10x the largest shipped input (26 MB:
    # 8 components of 640^2 doubles at the second layer of the 1-64-64-1
    # D10 ladder row; the benchmark's largest is 19 MB, one wide first
    # layer), and a 1-128-128-1 net at D = 20 pushes its first layer
    # (52 MB) but stops before its second (up to 10 x 52 MB).  Network
    # sampling refuses a count whose normal draws and output (n rows of
    # the draw count plus D times the output width, in doubles) would
    # exceed it: 1000 samples of the largest ladder net take 35 MB
    cov_bytes_cap: int = 2 ** 28
    # GP Gram matrices get this relative diagonal jitter before Cholesky
    gp_jitter: float = 1e-10
    # Lloyd clustering stops after this many sweeps at the latest
    lloyd_max_iters: int = 200
    # prior tuning defaults
    beta_default: float = 0.01
    fd_step: float = 1e-4
    step_size_default: float = 0.05
    step_decay: float = 0.99
    grad_clip: float = 10.0


TOL = Tolerances()
