"""Acceptance suite: ten checks pinning the library's headline guarantees.

Each test prints a single PASS/FAIL line (visible in the live run output) and
asserts the same condition, covering: closed-form moment exactness, scalar
quantizer optimality, signature distance exactness, discrete-OT exactness,
mixture-level bound dominance, compression soundness, end-to-end certified
bounds, bound convergence in the signature budget, prior-tuning improvement,
and the moment consequence of Wasserstein closeness.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from wassnet.mixtures import (DiscreteDistribution, compress_dropout,
                              compress_gmm)
from wassnet.priortune import GpTarget, gp_realize, tune
from wassnet.quantizer import signature_of_gaussian
from wassnet.snn import (Activation, Dropout, PropagationConfig, SnnModel,
                         StochasticLinear, propagate, sample_network)
from wassnet.stats import (Gaussian, GaussianMixture, mixture_second_moment,
                           standard_truncated_moments)
from wassnet.transport import empirical_w2, mw2, solve_discrete_ot

from oracles import (assignment_oracle, lp_transport_oracle, mc_mean_se,
                     quad_truncated_moments, semidiscrete_w2_lp,
                     stratified_w2_batches, vertex_enumeration_oracle)

DATA = Path(__file__).parent / "data"


def _report(capsys, ok, label):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}: {label}", flush=True)


def _random_mixture(rng, dim, max_comps=4, min_comps=1):
    k = int(rng.integers(min_comps, max_comps + 1))
    comps = []
    for _ in range(k):
        a = rng.normal(size=(dim, dim))
        comps.append(Gaussian(rng.normal(scale=2.0, size=dim),
                              a @ a.T + 0.2 * np.eye(dim)))
    return GaussianMixture(rng.dirichlet(np.ones(k)), tuple(comps))


def _vi_net(rng, widths, activation, weight_var, bias_var, dropout):
    layers = []
    for i in range(len(widths) - 1):
        layers.append(StochasticLinear(
            rng.normal(0.0, 1.0, (widths[i + 1], widths[i])),
            np.full((widths[i + 1], widths[i]), weight_var),
            rng.normal(0.0, 0.5, widths[i + 1]),
            np.full(widths[i + 1], bias_var), ntk_scaling=True))
        if i < len(widths) - 2:
            layers.append(Activation(activation))
            if dropout is not None:
                layers.append(Dropout(dropout))
    return SnnModel(widths[0], tuple(layers))


@pytest.fixture(scope="module")
def gmm_pair_runs():
    """50 random mixture pairs with their mixture-level and empirical W2."""
    rng = np.random.default_rng(55)
    runs = []
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        p = _random_mixture(rng, dim)
        q = _random_mixture(rng, dim)
        value, _ = mw2(p, q)
        est, se = stratified_w2_batches(p, q, 1000, 5, rng)
        runs.append({"p": p, "q": q, "mw2": value, "est": est, "se": se})
    return runs


@pytest.fixture(scope="module")
def network_sweep_runs(table):
    """30 random architectures with certified bounds and batched estimates."""
    rng = np.random.default_rng(777)
    t0 = time.perf_counter()
    runs = []
    for trial in range(30):
        widths = [int(rng.integers(1, 4))]
        for _ in range(int(rng.integers(1, 3))):
            widths.append(int(rng.integers(2, 33)))
        widths.append(int(rng.integers(1, 3)))
        model = _vi_net(rng, widths, "relu" if trial % 2 else "tanh",
                        float(rng.uniform(0.05, 0.4)),
                        float(rng.uniform(0.01, 0.2)),
                        0.9 if trial % 3 == 0 else None)
        n_points = 3 if trial % 2 else 1
        points = rng.uniform(-1.0, 1.0, size=(n_points, widths[0]))
        cfg = PropagationConfig(table=table,
                                signature_budget=int(rng.integers(4, 12)),
                                compression_size=int(rng.integers(2, 6)),
                                seed=trial)
        approx, ledger = propagate(model, points, cfg)
        ledger.audit()
        batches = []
        approx_rng = np.random.default_rng(10_000 + trial)
        for b in range(4):
            xs = sample_network(model, points, 250, trial * 1000 + b)
            ys = approx.sample(250, approx_rng)
            batches.append((xs, ys, empirical_w2(xs, ys)))
        est, se = mc_mean_se([v for _, _, v in batches])
        runs.append({"widths": widths, "bound": ledger.final_bound,
                     "est": est, "se": se, "batches": batches})
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_criterion_01_truncated_moments_match_quadrature(capsys):
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        mu = rng.uniform(-3, 3)
        var = rng.uniform(0.05, 4.0)
        s = math.sqrt(var)
        lo = mu + rng.uniform(-4, 2) * s
        hi = lo + rng.uniform(0.1, 5.0) * s
        kind = rng.integers(3)
        if kind == 1:
            lo = -np.inf
        elif kind == 2:
            hi = np.inf
        # the pipeline's function, on the standardised window
        t_mass, t_mean, t_var = standard_truncated_moments((lo - mu) / s,
                                                           (hi - mu) / s)
        mass, mean, var_o = quad_truncated_moments(
            mu, var, lo if np.isfinite(lo) else mu - 14 * s,
            hi if np.isfinite(hi) else mu + 14 * s)
        worst = max(worst, abs(t_mass - mass), abs(mu + s * t_mean - mean),
                    abs(var * t_var - var_o))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(capsys, ok,
            "criterion 1 — truncated-normal moments match adaptive "
            f"quadrature on 1000 windows (worst {worst:.2e}, {elapsed:.1f}s)")
    assert ok, f"worst deviation {worst}, elapsed {elapsed}s"


def test_criterion_02_quantizer_closed_forms(table, capsys):
    one = table.get(1)
    exact_n1 = one.locations.tolist() == [0.0] and one.w2sq == 1.0
    two = table.get(2)
    loc = math.sqrt(2.0 / math.pi)  # E|Z| of a standard normal half
    dev = max(abs(two.locations[0] + loc), abs(two.locations[1] - loc),
              abs(two.w2sq - (1.0 - 2.0 / math.pi)))
    w2sq = [table.get(n).w2sq for n in range(1, 65)]
    decreasing = all(a > b for a, b in zip(w2sq, w2sq[1:]))
    ok = exact_n1 and dev <= 1e-9 and decreasing
    _report(capsys, ok,
            "criterion 2 — scalar quantizer matches the analytic one- and "
            f"two-point solutions (dev {dev:.2e}) and w2sq strictly "
            "decreases for sizes 1..64")
    assert ok, f"n1 exact={exact_n1}, n2 dev={dev}, decreasing={decreasing}"


def test_criterion_03_signature_distance_matches_empirical_ot(table, capsys):
    rng = np.random.default_rng(314159)
    worst = 0.0
    for trial in range(20):
        dim = 2 if trial < 10 else 3
        a = rng.normal(size=(dim, dim))
        g = Gaussian(rng.normal(size=dim), a @ a.T + 0.1 * np.eye(dim))
        sig, w2sq_exact = signature_of_gaussian(g, 12, table)
        emp = semidiscrete_w2_lp(g.sample(5000, rng), sig.locations,
                                 sig.weights)
        worst = max(worst, abs(w2sq_exact - emp * emp) / (emp * emp))
    ok = worst <= 0.05
    _report(capsys, ok,
            "criterion 3 — closed-form signature distance matches empirical "
            f"OT on 5000 samples for 20 Gaussians (worst rel {worst:.3f})")
    assert ok, f"worst relative deviation {worst}"


def test_criterion_04_discrete_ot_matches_lp_oracle(capsys):
    # the LP oracle runs the library's own solver (HiGHS); vertex
    # enumeration (m, n <= 3) and the assignment problem (uniform n x n)
    # are independent of it
    rng = np.random.default_rng(41)
    worst = 0.0
    checked = 0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, min(6, 30 // m) + 1))
        cost = np.abs(rng.normal(size=(m, n)))
        a = rng.dirichlet(np.ones(m))
        b = rng.dirichlet(np.ones(n))
        plan = solve_discrete_ot(cost, a, b)
        refs = [lp_transport_oracle(cost, a, b)]
        if max(m, n) <= 3:
            refs.append(vertex_enumeration_oracle(cost, a, b))
        worst = max([worst] + [abs(plan.cost - r) for r in refs])
        checked += len(refs)
    for _ in range(100):
        m, n = (int(v) for v in rng.integers(1, 4, size=2))
        cost = np.abs(rng.normal(size=(m, n)))
        a = rng.dirichlet(np.ones(m))
        b = rng.dirichlet(np.ones(n))
        plan = solve_discrete_ot(cost, a, b)
        worst = max(worst, abs(plan.cost
                               - vertex_enumeration_oracle(cost, a, b)))
        checked += 1
    for n in range(2, 12):
        cost = np.abs(rng.normal(size=(n, n)))
        uniform = np.full(n, 1.0 / n)
        plan = solve_discrete_ot(cost, uniform, uniform)
        worst = max(worst, abs(plan.cost - assignment_oracle(cost)))
        checked += 1
    ok = worst <= 1e-9
    _report(capsys, ok,
            "criterion 4 — exact transport solver matches the LP, vertex-"
            f"enumeration and assignment oracles ({checked} comparisons on "
            f"310 instances, worst diff {worst:.2e})")
    assert ok, f"worst cost difference {worst}"


def test_criterion_05_mixture_bound_dominates_empirical(gmm_pair_runs,
                                                        capsys):
    violations = [r for r in gmm_pair_runs
                  if r["mw2"] < r["est"] - 3 * r["se"]]
    self_zero = all(mw2(r["p"], r["p"])[0] == 0.0
                    for r in gmm_pair_runs[:5])
    ok = not violations and self_zero
    _report(capsys, ok,
            "criterion 5 — mixture-level W2 dominates the empirical estimate "
            f"on 50 mixture pairs ({len(violations)} violations) and is zero "
            "against itself")
    assert ok, f"{len(violations)} dominance violations, self_zero={self_zero}"


def test_criterion_06_compression_soundness(capsys):
    rng = np.random.default_rng(66)
    worst_mean = worst_cov = 0.0
    merge_violations = 0
    for trial in range(50):
        dim = int(rng.integers(1, 4))
        g = _random_mixture(rng, dim, max_comps=10, min_comps=6)
        res = compress_gmm(g, 3, seed=trial)

        def moments(mx):
            mean = sum(w * c.mean for w, c in zip(mx.weights, mx.components))
            second = sum(w * (c.cov + np.outer(c.mean, c.mean))
                         for w, c in zip(mx.weights, mx.components))
            return mean, second - np.outer(mean, mean)

        mean_in, cov_in = moments(g)
        mean_out, cov_out = moments(res.compressed)
        worst_mean = max(worst_mean, float(np.max(np.abs(mean_in - mean_out))))
        worst_cov = max(worst_cov, float(np.max(np.abs(cov_in - cov_out))))
        est, se = stratified_w2_batches(g, res.compressed, 800, 5, rng)
        if res.w2_bound < est - 3 * se:
            merge_violations += 1

    rng = np.random.default_rng(67)
    dropout_violations = 0
    for _ in range(50):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        theta = float(rng.uniform(0.3, 0.95))
        atoms = DiscreteDistribution(rng.normal(scale=1.5, size=(k, n)),
                                     rng.dirichlet(np.ones(k)))
        kept = int(rng.integers(0, min(n, 5)))
        compressed, bound = compress_dropout(atoms, theta, 2 ** kept)
        locs, weights = [], []
        for mask in itertools.product((0, 1), repeat=n):
            mask = np.asarray(mask, dtype=float)
            prob = float(np.prod(np.where(mask > 0, theta, 1.0 - theta)))
            for loc, w in zip(atoms.locations, atoms.weights):
                locs.append(loc * mask)
                weights.append(w * prob)
        locs = np.asarray(locs)
        cost = ((locs * locs).sum(axis=1)[:, None]
                + (compressed.locations ** 2).sum(axis=1)[None, :]
                - 2.0 * locs @ compressed.locations.T)
        exact = math.sqrt(max(lp_transport_oracle(
            np.maximum(cost, 0.0), np.asarray(weights),
            compressed.weights), 0.0))
        if exact > bound + 1e-9:
            dropout_violations += 1

    ok = (worst_mean <= 1e-10 and worst_cov <= 1e-10
          and merge_violations == 0 and dropout_violations == 0)
    _report(capsys, ok,
            "criterion 6 — compression preserves moments (mean dev "
            f"{worst_mean:.1e}, cov dev {worst_cov:.1e}) and its bounds "
            f"dominate measured W2 ({merge_violations}+{dropout_violations} "
            "violations over 50+50 trials)")
    assert ok, (f"mean {worst_mean}, cov {worst_cov}, merge violations "
                f"{merge_violations}, dropout violations {dropout_violations}")


def test_criterion_07_end_to_end_bound_soundness(network_sweep_runs, capsys):
    runs = network_sweep_runs["runs"]
    elapsed = network_sweep_runs["elapsed"]
    violations = [r for r in runs if r["est"] > r["bound"] + 3 * r["se"]]
    ok = not violations and elapsed < 300.0
    _report(capsys, ok,
            "criterion 7 — certified bound dominates empirical W2 on 30 "
            f"random architectures ({len(violations)} violations, "
            f"{elapsed:.0f}s)")
    assert ok, f"{len(violations)} violations, elapsed {elapsed}s"


def test_criterion_08_bound_converges_in_budget(table, capsys):
    model = SnnModel.from_dict(
        json.loads((DATA / "model_1_16_1_tanh.json").read_text()))
    points = np.asarray(json.loads((DATA / "points_5.json").read_text()))
    bounds = []
    for budget in (2, 4, 8, 16, 32, 64, 128):
        cfg = PropagationConfig(table=table, signature_budget=budget,
                                compression_size=5, seed=0)
        _, ledger = propagate(model, points, cfg)
        bounds.append(ledger.final_bound)
    nonincreasing = all(a >= b for a, b in zip(bounds, bounds[1:]))
    ratio = bounds[-1] / bounds[0]
    ok = nonincreasing and ratio < 0.2
    _report(capsys, ok,
            "criterion 8 — certified bound is nonincreasing as the budget "
            f"doubles from 2 to 128 and falls to {100 * ratio:.0f}% of the "
            "budget-2 value")
    assert ok, f"bounds {bounds}, ratio {ratio}"


def test_criterion_09_prior_tuning_improves_gp_fit(table, capsys):
    t0 = time.perf_counter()
    widths = (1, 32, 32, 1)
    layers = []
    for i in range(len(widths) - 1):
        layers.append(StochasticLinear(
            np.zeros((widths[i + 1], widths[i])),
            np.ones((widths[i + 1], widths[i])),
            np.zeros(widths[i + 1]), np.ones(widths[i + 1]),
            ntk_scaling=False))
        if i < len(widths) - 2:
            layers.append(Activation("tanh"))
    template = SnnModel(1, tuple(layers))
    points = np.linspace(-2.0, 2.0, 20).reshape(-1, 1)
    target = GpTarget(0.5, 1.0, points)
    gp = GaussianMixture(np.array([1.0]), (gp_realize(target),))
    denominator = math.sqrt(mixture_second_moment(gp))

    rng = np.random.default_rng(99)
    vals = []
    for b in range(4):
        xs = sample_network(template, points, 1000, 90_000 + b)
        ys = gp.sample(1000, rng)
        vals.append(empirical_w2(xs, ys) / denominator)
    untuned, untuned_se = mc_mean_se(vals)

    cfg = PropagationConfig(table=table, signature_budget=10,
                            compression_size=1, seed=0)
    report = tune(template, target, cfg, steps=30, step_size=0.1, batch=10,
                  seed=0, eval_samples=1000, eval_batches=4)
    tuned = report.relative_empirical
    tuned_se = report.relative_empirical_se
    elapsed = time.perf_counter() - t0
    separated = tuned + 3 * tuned_se < untuned - 3 * untuned_se
    ok = tuned < untuned and separated and elapsed < 600.0
    _report(capsys, ok,
            "criterion 9 — tuned prior beats the isotropic prior against "
            f"the GP target (relative W2 {tuned:.2f} vs {untuned:.2f}, "
            f"{elapsed:.0f}s)")
    assert ok, (f"tuned {tuned}+/-{tuned_se}, untuned {untuned}+/-"
                f"{untuned_se}, elapsed {elapsed}s")


def test_criterion_10_w2_controls_second_moments(gmm_pair_runs,
                                                 network_sweep_runs, capsys):
    worst = -math.inf
    for r in gmm_pair_runs:
        gap = abs(math.sqrt(mixture_second_moment(r["p"]))
                  - math.sqrt(mixture_second_moment(r["q"]))) - r["mw2"]
        worst = max(worst, gap)
    for r in network_sweep_runs["runs"]:
        for xs, ys, value in r["batches"]:
            rms_x = math.sqrt(float(np.mean(np.sum(xs * xs, axis=1))))
            rms_y = math.sqrt(float(np.mean(np.sum(ys * ys, axis=1))))
            worst = max(worst, abs(rms_x - rms_y) - value)
    ok = worst <= 1e-9
    _report(capsys, ok,
            "criterion 10 — second-moment roots differ by at most the "
            f"measured W2 on every recorded pair (worst excess {worst:.2e})")
    assert ok, f"worst excess {worst}"
