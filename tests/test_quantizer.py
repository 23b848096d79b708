"""Tests for 1-D quantizers, grid allocation, and Gaussian/mixture signatures."""

import gc
import itertools
import json
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from wassnet import (DiscreteDistribution, Gaussian, GaussianMixture,
                     mixture_second_moment, snn)
from wassnet.errors import FixedPointError, ParseError
from wassnet.quantizer import (
    Quantizer1D,
    QuantizerTable,
    _centroid_map,
    _component_grid,
    _factor_tuples,
    activation_signature_w2_bound,
    allocate_grid,
    build_table,
    signature_of_gaussian,
    signature_of_mixture,
    solve_quantizer_1d,
)
from wassnet.snn import (Activation, Dropout, PropagationConfig, SnnModel,
                         StochasticLinear, propagate, sample_network)
from wassnet.stats import standard_truncated_moments
from wassnet.transport import empirical_w2

from oracles import (allocate_grid_search_oracle, component_grid_oracle,
                     mc_mean_se, sample_stratified, semidiscrete_w2_lp)

# frozen values from an independent quadrature-driven fixed point (tol 1e-12)
N2_LOC = 0.7978845608028654          # sqrt(2/pi)
N2_W2SQ = 1.0 - 2.0 / math.pi        # 0.36338022763241865
N4_LOCS = (0.45278003, 1.51041761)
N4_W2SQ = 0.117481847829329
N8_W2SQ = 0.034547760788504

DATA = Path(__file__).parent / "data"
# written by ``wassnet quantizer-build --max-n 16`` when entries still
# stored their w2sq and tables their tol and max_iters
PARENT_TABLE = DATA / "table_parent_16.json"
# the same file with entry 2's w2sq forged to 0.5, which still decreases
FORGED_TABLE = DATA / "table_parent_16_forged_w2sq.json"


class TestSolveQuantizer1D:
    def test_n1_exact(self):
        q = solve_quantizer_1d(1)
        assert q.locations.tolist() == [0.0]
        assert q.w2sq == 1.0
        lo, hi, mass, _, _ = _centroid_map(q.locations)
        assert lo.tolist() == [-np.inf] and hi.tolist() == [np.inf]
        assert mass.tolist() == [1.0]

    def test_n2_closed_form(self):
        q = solve_quantizer_1d(2)
        np.testing.assert_allclose(q.locations, [-N2_LOC, N2_LOC], atol=1e-12)
        assert abs(q.w2sq - N2_W2SQ) < 1e-12

    def test_n4_frozen_oracle(self):
        q = solve_quantizer_1d(4)
        np.testing.assert_allclose(
            q.locations, [-N4_LOCS[1], -N4_LOCS[0], N4_LOCS[0], N4_LOCS[1]],
            atol=1e-6)
        assert abs(q.w2sq - N4_W2SQ) < 1e-9

    def test_n8_frozen_oracle(self):
        assert abs(solve_quantizer_1d(8).w2sq - N8_W2SQ) < 1e-9

    @pytest.mark.parametrize("n", [3, 5, 9, 17, 33, 128])
    def test_fixed_point_invariants(self, n):
        q = solve_quantizer_1d(n)
        loc = q.locations
        assert np.all(np.diff(loc) > 0)
        np.testing.assert_allclose(loc + loc[::-1], 0.0, atol=1e-12)
        # cells: Voronoi midpoints, outermost cells extending to +-inf
        mid = 0.5 * (loc[1:] + loc[:-1])
        lo, hi, mass, mean, var = _centroid_map(loc)
        np.testing.assert_array_equal(lo, np.r_[-np.inf, mid])
        np.testing.assert_array_equal(hi, np.r_[mid, np.inf])
        ref = standard_truncated_moments(lo, hi)
        for got, want in zip((mass, mean, var), ref):
            np.testing.assert_array_equal(got, want)
        # centroid condition: each location is its cell's truncated mean
        np.testing.assert_allclose(mean, loc, atol=1e-10)
        assert 0.0 < q.w2sq < 1.0

    def test_distortion_strictly_decreases_to_64(self):
        w2 = [solve_quantizer_1d(n).w2sq for n in range(1, 65)]
        assert all(b < a for a, b in zip(w2, w2[1:]))

    def test_nonconvergence_raises_with_residual(self):
        with pytest.raises(FixedPointError) as err:
            solve_quantizer_1d(16, tol=1e-30, max_iters=3)
        assert err.value.residual > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ParseError):
            solve_quantizer_1d(0)
        with pytest.raises(ParseError):
            solve_quantizer_1d(4, tol=0.0)
        with pytest.raises(ParseError):
            solve_quantizer_1d(4, max_iters=0)


class TestQuantizerTable:
    def test_build_and_lookup(self):
        tab = build_table(16)
        assert tab.n_max == 16
        for n in range(1, 17):
            assert tab.get(n).size == n
        w2 = [tab.get(n).w2sq for n in range(1, 17)]
        assert all(b < a for a, b in zip(w2, w2[1:]))
        with pytest.raises(ParseError):
            tab.get(0)
        with pytest.raises(ParseError):
            tab.get(17)

    def test_json_roundtrip_bitwise(self, tmp_path):
        tab = build_table(8)
        path = tmp_path / "table.json"
        tab.save(path)
        back = QuantizerTable.load(path)
        assert back.n_max == tab.n_max
        # a table file holds only the entries' locations
        data = json.loads(path.read_text())
        assert set(data) == {"version", "entries"}
        assert all(set(e) == {"locations"} for e in data["entries"].values())
        for n in range(1, 9):
            assert back.get(n).locations.tolist() == tab.get(n).locations.tolist()
            assert back.get(n).w2sq == tab.get(n).w2sq

    def test_cells_survive_roundtrip_bitwise(self, tmp_path):
        tab = build_table(12)
        path = tmp_path / "table.json"
        tab.save(path)
        back = QuantizerTable.load(path)
        for n in range(1, 13):
            q = back.get(n)
            assert q.cells is q.cells  # computed once per entry
            for got, want in zip(q.cells, _centroid_map(q.locations)):
                assert not got.flags.writeable
                assert got.tobytes() == want.tobytes()
            for got, want in zip(q.cells, tab.get(n).cells):
                assert got.tobytes() == want.tobytes()

    def test_malformed_tables_rejected(self):
        tab = build_table(3)
        data = tab.to_dict()
        bad = dict(data, version=2)
        with pytest.raises(ParseError):
            QuantizerTable.from_dict(bad)
        gap = dict(data, entries={k: v for k, v in data["entries"].items()
                                  if k != "2"})
        with pytest.raises(ParseError):
            QuantizerTable.from_dict(gap)
        # entry 2 at +-5 derives a w2sq of about 18, above entry 1's 1.0
        forged = dict(data, entries=dict(data["entries"]))
        forged["entries"]["2"] = {"locations": [-5.0, 5.0]}
        with pytest.raises(ParseError):
            QuantizerTable.from_dict(forged)

    def test_parent_format_table_loads_with_derived_w2sq(self):
        stored = json.loads(PARENT_TABLE.read_text())
        assert {"tol", "max_iters"} <= set(stored)
        tab = QuantizerTable.load(PARENT_TABLE)
        built = build_table(16)
        assert tab.n_max == 16
        for n in range(1, 17):
            entry = stored["entries"][str(n)]
            assert tab.get(n).locations.tolist() == entry["locations"]
            assert tab.get(n).w2sq == entry["w2sq"]
            assert tab.get(n).w2sq == built.get(n).w2sq

    def test_forged_w2sq_is_ignored(self):
        forged = json.loads(FORGED_TABLE.read_text())
        assert forged["entries"]["2"]["w2sq"] == 0.5
        tab = QuantizerTable.load(FORGED_TABLE)
        clean = QuantizerTable.load(PARENT_TABLE)
        assert tab.get(2).w2sq == clean.get(2).w2sq
        g = Gaussian(np.array([3.0]), np.array([4.0]))
        for budget in (2, 3, 16):
            got, got_w2sq = signature_of_gaussian(g, budget, tab)
            want, want_w2sq = signature_of_gaussian(g, budget, clean)
            assert got.to_dict() == want.to_dict()
            assert got_w2sq == want_w2sq

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            QuantizerTable.load(tmp_path / "absent.json")


class TestAllocateGrid:
    def test_symmetric_axes_split_budget(self, table):
        sizes = allocate_grid(np.array([1.0, 1.0]), 4, table)
        assert sizes == (2, 2)
        assert math.prod(sizes) == 4

    def test_skewed_axes_favor_large_eigenvalue(self, table):
        assert allocate_grid(np.array([100.0, 0.01]), 4, table) == (4, 1)

    def test_single_axis_takes_full_budget(self, table):
        assert allocate_grid(np.array([1.0]), 7, table) == (7,)

    def test_degenerate_axes_pinned(self, table):
        # the degenerate trailing axis gets no entry: it stays at one point
        assert allocate_grid(np.array([1.0, 1e-30]), 8, table) == (8,)
        assert allocate_grid(np.zeros(3), 8, table) == ()

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle(self, table, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 4))
        lam = np.sort(rng.uniform(0.01, 10.0, size=r))[::-1]
        budget = int(rng.integers(2, 13))
        sizes = allocate_grid(lam, budget, table)
        w2 = [None] + [table.get(n).w2sq for n in range(1, budget + 1)]
        best = math.inf
        for combo in itertools.product(range(1, budget + 1), repeat=r):
            if np.prod(combo) > budget:
                continue
            best = min(best, sum(l * w2[n] for l, n in zip(lam, combo)))
        assert len(sizes) == r
        assert math.prod(sizes) <= budget
        objective = sum(lam[i] * w2[n] for i, n in enumerate(sizes))
        assert abs(objective - best) < 1e-12 * max(1.0, best)

    @pytest.mark.parametrize("spectrum", ["spread", "tied", "zero_tail",
                                          "wide_range"])
    def test_returns_search_oracle_tuples(self, table, spectrum):
        # exact tuple equality, ties included: the enumeration must keep
        # the branch-and-bound search's left-to-right sums and first minimum
        rng = np.random.default_rng(sum(map(ord, spectrum)))
        for _ in range(25):
            r = int(rng.integers(1, 65))
            if spectrum == "tied":
                lam = rng.choice([0.25, 1.0, 4.0], size=r)
            elif spectrum == "wide_range":
                lam = np.exp(rng.uniform(-30.0, 3.0, size=r))
            else:
                lam = rng.uniform(0.01, 10.0, size=r)
            if spectrum == "zero_tail":
                lam = np.sort(lam)[::-1]
                lam[int(rng.integers(0, r)):] = 0.0
            lam = np.sort(lam)[::-1]
            budget = int(rng.integers(1, table.n_max + 1))
            assert allocate_grid(lam, budget, table) == \
                allocate_grid_search_oracle(lam, budget, table), (lam, budget)

    def test_enumeration_shared_across_calls(self, table):
        # the tuples depend on the budget and on at most log2(budget)
        # axes, so spectra of 5 and of 40 active axes share them
        _factor_tuples.cache_clear()
        lam = np.linspace(3.0, 1.0, 40)
        assert allocate_grid(lam, 10, table) == \
            allocate_grid_search_oracle(lam, 10, table)
        assert allocate_grid(lam[:5], 10, table) == \
            allocate_grid_search_oracle(lam[:5], 10, table)
        info = _factor_tuples.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert not _factor_tuples(10, 3).flags.writeable

    def test_invalid_inputs(self, table):
        with pytest.raises(ParseError):
            allocate_grid(np.array([]), 4, table)
        with pytest.raises(ParseError):
            allocate_grid(np.array([1.0, 2.0]), 4, table)  # not nonincreasing
        with pytest.raises(ParseError):
            allocate_grid(np.array([1.0]), 0, table)
        with pytest.raises(ParseError):
            allocate_grid(np.array([1.0]), table.n_max + 1, table)
        with pytest.raises(ParseError):
            allocate_grid(np.array([-1.0]), 4, table)


def random_full_gaussian(rng, dim):
    f = rng.normal(size=(dim, dim))
    return Gaussian(rng.normal(size=dim) * 2.0, f @ f.T + 0.3 * np.eye(dim))


class TestSignatureOfGaussian:
    def test_scaled_1d_example(self, table):
        g = Gaussian(np.array([3.0]), np.array([4.0]))
        sig, w2sq = signature_of_gaussian(g, 2, table)
        np.testing.assert_allclose(
            np.sort(sig.locations[:, 0]),
            [3.0 - 2.0 * N2_LOC, 3.0 + 2.0 * N2_LOC], atol=1e-12)
        np.testing.assert_allclose(sig.weights, [0.5, 0.5], atol=1e-15)
        assert abs(w2sq - 4.0 * N2_W2SQ) < 1e-12

    def test_standard_2d_example(self, table):
        sig, w2sq = signature_of_gaussian(Gaussian(np.zeros(2), np.eye(2)),
                                          4, table)
        assert sig.size == 4
        got = {(round(x, 6), round(y, 6)) for x, y in sig.locations}
        c = round(N2_LOC, 6)
        assert got == {(-c, -c), (-c, c), (c, -c), (c, c)}
        np.testing.assert_allclose(sig.weights, 0.25, atol=1e-15)
        assert abs(w2sq - 2.0 * N2_W2SQ) < 1e-12

    def test_degenerate_covariance_single_atom(self, table):
        g = Gaussian(np.array([1.0, -2.0]), np.zeros((2, 2)))
        sig, w2sq = signature_of_gaussian(g, 8, table)
        assert sig.size == 1
        np.testing.assert_allclose(sig.locations[0], [1.0, -2.0])
        assert w2sq == 0.0

    def test_rank_deficient_grid_spans_support(self, table):
        u = np.array([2.0, 1.0]) / math.sqrt(5.0)
        g = Gaussian(np.zeros(2), 4.0 * np.outer(u, u))
        sig, w2sq = signature_of_gaussian(g, 5, table)
        assert sig.size == 5
        # atoms stay on the support line span{u}
        coords = sig.locations @ np.array([-u[1], u[0]])
        np.testing.assert_allclose(coords, 0.0, atol=1e-12)
        assert abs(w2sq - 4.0 * table.get(5).w2sq) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 2.0, 7.0])
    def test_scaling_covariance(self, table, s):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(3, 3))
        cov = f @ f.T
        _, base = signature_of_gaussian(Gaussian(np.zeros(3), cov), 12, table)
        _, scaled = signature_of_gaussian(Gaussian(np.zeros(3), s * s * cov),
                                          12, table)
        assert abs(scaled - s * s * base) < 1e-12 * max(1.0, scaled)

    def test_budget_monotone(self, table):
        g = random_full_gaussian(np.random.default_rng(5), 2)
        vals = [signature_of_gaussian(g, b, table)[1]
                for b in (1, 2, 4, 8, 16, 32, 64)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]

    def test_cell_sum_matches_exact_value(self, table):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3):
            g = random_full_gaussian(rng, dim)
            _, exact = signature_of_gaussian(g, 18, table)
            _, bound = signature_of_mixture(g, 18, table)
            w2sq = _component_grid(g, 18, table)[2]
            assert abs(w2sq - exact) < 1e-9 * max(1.0, exact)
            assert abs(bound - math.sqrt(exact)) < 1e-9

    def test_exactness_against_empirical_ot(self, table):
        rng = np.random.default_rng(42)
        g = random_full_gaussian(rng, 2)
        sig, w2sq = signature_of_gaussian(g, 16, table)
        samples = g.sample(5000, rng)
        emp = semidiscrete_w2_lp(samples, sig.locations, sig.weights)
        assert abs(emp * emp - w2sq) <= 0.05 * w2sq

    @pytest.mark.parametrize("kind", ["diag", "full", "rank_deficient",
                                      "zero"])
    def test_matches_one_component_mixture_bitwise(self, table, kind):
        rng = np.random.default_rng(13)
        f = rng.normal(size=(3, 3))
        u = rng.normal(size=(3, 1))
        cov = {"diag": np.array([2.0, 0.5, 0.1]), "full": f @ f.T,
               "rank_deficient": u @ u.T, "zero": np.zeros(3)}[kind]
        g = Gaussian(rng.normal(size=3), cov)
        for budget in (1, 5, 12):
            atoms_g, w2sq = signature_of_gaussian(g, budget, table)
            atoms_d, bound_d = signature_of_mixture(g, budget, table)
            atoms_m, bound = signature_of_mixture(
                GaussianMixture(np.array([1.0]), (g,)), budget, table)
            for name in ("locations", "weights"):
                assert (getattr(atoms_g, name).tobytes()
                        == getattr(atoms_m, name).tobytes()
                        == getattr(atoms_d, name).tobytes())
            assert bound_d == bound
            # closed form: eigenvalue-weighted 1-D distortions plus the
            # pinned-axis variance
            lam = g.eigen().eigenvalues
            sizes = allocate_grid(lam, budget, table)
            r = len(sizes)
            exact = float(lam[r:].sum())
            for lam_l, n_l in zip(lam[:r], sizes):
                exact += float(lam_l) * table.get(n_l).w2sq
            assert w2sq == exact

    @staticmethod
    def _far_table(far, larger=()):
        """A synthetic table whose 3-point entry sits at ``(-far, 0, far)``.

        Its distortion is about 1, so the 1- and 2-point entries sit off
        their optima (at 5 and at +-3, distortions 26 and about 5.2) for
        the derived distortions to decrease and the allocation to prefer
        the 3-point entry.
        """
        return QuantizerTable((
            Quantizer1D(np.array([5.0])),
            Quantizer1D(np.array([-3.0, 3.0])),
            Quantizer1D(np.array([-far, 0.0, far])),
        ) + tuple(Quantizer1D(loc) for loc in larger))

    def test_far_cells_keep_their_own_atoms(self):
        # far-out 3-point cells carry 9.5e-18 each, below the rounding of
        # 1; each still keeps its own atom, with its own mass, and the
        # distortion is the closed form
        fake = self._far_table(17.0)
        g = Gaussian(np.zeros(1), np.ones(1))
        atoms, w2sq = signature_of_gaussian(g, 3, fake)
        q = fake.get(3)
        mass = q.cells[2]
        assert allocate_grid(np.ones(1), 3, fake) == (3,)
        assert atoms.locations[:, 0].tolist() == q.locations.tolist()
        assert atoms.weights.tobytes() == (mass / mass.sum()).tobytes()
        assert 0.0 < atoms.weights[0] < 1e-17
        assert w2sq == q.w2sq
        _, bound = signature_of_mixture(g, 3, fake)
        assert math.isclose(bound * bound, w2sq, rel_tol=1e-14)

    def test_far_grid_bound_is_exact_and_sound(self):
        # 2-D grid of a 3-point entry with one far cell per side: the four
        # corner cells carry 8.2e-14 each; every size tuple within the
        # budget other than (3, 3) has an axis on the costly 1- or 2-point
        # entry, so the allocation picks the (3, 3) grid
        real = build_table(9)
        fake = self._far_table(10.0, (real.get(n).locations
                                      for n in range(4, 10)))
        g = Gaussian(np.array([1.0, -1.0]), np.array([4.0, 1.0]))
        sig, w2sq = signature_of_gaussian(g, 9, fake)
        _, bound = signature_of_mixture(g, 9, fake)
        basis = g.eigen()
        lam = basis.eigenvalues
        assert allocate_grid(lam, 9, fake) == (3, 3)
        # every cell keeps its atom, weighted by its product mass
        q = fake.get(3)
        lo, hi, mass, _, _ = _centroid_map(q.locations)
        cells = list(itertools.product(range(3), repeat=2))
        centers = np.array([q.locations[[i, j]] for i, j in cells])
        cell_mass = np.array([mass[i] * mass[j] for i, j in cells])
        assert sig.size == 9 and cell_mass.min() < 1e-13
        np.testing.assert_allclose(
            sig.locations,
            g.mean + centers @ (basis.eigenvectors * np.sqrt(lam)).T,
            rtol=0.0, atol=1e-12)
        assert sig.weights.tobytes() == (cell_mass
                                         / cell_mass.sum()).tobytes()
        # the closed form, and the bound is its root
        assert w2sq == 0.0 + lam[0] * q.w2sq + lam[1] * q.w2sq
        assert math.isclose(bound * bound, w2sq, rel_tol=1e-14)
        # no looser than the certificate of pruning the cells below 1e-12
        # and charging each its distortion at the nearest kept atom
        kept = cell_mass >= 1e-12
        pruned = 0.0
        for (i, j), c, cm, own in zip(cells, centers, cell_mass, kept):
            _, mean, var = standard_truncated_moments(lo[[i, j]], hi[[i, j]])
            k = int(np.argmin(np.sum(lam * np.square(centers[kept] - c),
                                     axis=1)))
            atom = c if own else centers[kept][k]
            pruned += cm * float(np.sum(lam * (var + np.square(mean - atom))))
        assert not kept.all()
        assert bound < math.sqrt(pruned)
        # and it dominates the exact semidiscrete W2 to the atoms
        rng = np.random.default_rng(43)
        w2 = [semidiscrete_w2_lp(g.sample(1000, rng), sig.locations,
                                 sig.weights) for _ in range(5)]
        mean_w2, se = mc_mean_se(w2)
        assert bound >= mean_w2 - 3.0 * se


class TestComponentGrid:
    """``_component_grid`` against the per-axis loop it replaced, bit for
    bit, on grids with no, some and only single-point axes."""

    @staticmethod
    def _assert_same(g, budget, table):
        """Compare the two and return the grid's weights and sizes."""
        got = _component_grid(g, budget, table)
        want = component_grid_oracle(g, budget, table)
        for a, b in zip(got[:2], want[:2]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got[2] == want[2]
        return got[1], allocate_grid(g.eigen().eigenvalues, budget, table)

    def test_matches_per_axis_loop(self, table):
        rng = np.random.default_rng(97)
        u = rng.normal(size=(7, 2))
        cases = [
            (Gaussian(np.zeros(1), np.ones(1)), 12, (12,)),
            (Gaussian(np.ones(2), np.array([1.0, 0.9])), 12, (4, 3)),
            (Gaussian(rng.normal(size=3), np.array([4.0, 1.0, 0.5])), 1,
             (1, 1, 1)),
            (Gaussian(rng.normal(size=7), u @ u.T), 10, None),
            (Gaussian(rng.normal(size=4), np.zeros(4)), 10, ()),
            (Gaussian(rng.normal(size=4), np.array([2.0, 0.0, 1.0, 0.0])),
             6, None),
        ] + [(random_full_gaussian(rng, dim), budget, None)
             for dim, budget in ((6, 10), (40, 10), (40, 1), (12, 32))]
        seen = set()
        for g, budget, sizes in cases:
            _, n = self._assert_same(g, budget, table)
            assert sizes is None or n == sizes
            seen.add((any(k > 1 for k in n), any(k == 1 for k in n)))
        assert seen == {(True, False), (True, True), (False, True),
                        (False, False)}

    def test_templates_are_kept_on_the_table_and_freed_with_it(self):
        # a second signature on the same grid sizes builds no template and
        # gives the same bits; the table's caches go when the table goes
        table = build_table(12)
        rng = np.random.default_rng(5)
        u = rng.normal(size=(5, 5))
        g = Gaussian(rng.normal(size=5), u @ u.T)
        first = _component_grid(g, 10, table)
        templates = dict(table._grids)
        sizes = allocate_grid(g.eigen().eigenvalues, 10, table)
        assert list(templates) == [sizes[:sum(n > 1 for n in sizes)]]
        again = _component_grid(Gaussian(g.mean, g.cov), 10, table)
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(first[:2], again[:2]))
        assert first[2] == again[2]
        assert all(table._grids[k] is t for k, t in templates.items())
        refs = [weakref.ref(table), weakref.ref(table._w2sq)] + [
            weakref.ref(t.mass) for t in templates.values()]
        del table, templates
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_matches_per_axis_loop_on_far_table(self):
        # far-out 3-point cells carry masses far below the rounding of 1,
        # and the table's 1-point entry sits at 5, off the origin
        real = build_table(9)
        fake = TestSignatureOfGaussian._far_table(
            10.0, (real.get(n).locations for n in range(4, 10)))
        g = Gaussian(np.array([1.0, -1.0, 0.5, 2.0]),
                     np.array([4.0, 1.0, 0.02, 0.01]))
        weights, sizes = self._assert_same(g, 9, fake)
        assert sizes == (3, 3, 1, 1)
        assert weights.size == 9 and weights.min() < 1e-13


class TestSignatureOfMixture:
    def test_single_component_reduces_to_gaussian(self, table):
        g = random_full_gaussian(np.random.default_rng(3), 2)
        gm = GaussianMixture(np.array([1.0]), (g,))
        sig_g, w2sq = signature_of_gaussian(g, 9, table)
        sig_m, bound = signature_of_mixture(gm, 9, table)
        np.testing.assert_allclose(sig_m.locations, sig_g.locations)
        np.testing.assert_allclose(sig_m.weights, sig_g.weights)
        assert abs(bound - math.sqrt(w2sq)) < 1e-9

    def test_two_separated_components(self, table):
        gm = GaussianMixture(
            np.array([0.5, 0.5]),
            (Gaussian(np.array([-5.0]), np.array([1.0])),
             Gaussian(np.array([5.0]), np.array([1.0]))))
        sig, bound = signature_of_mixture(gm, 2, table)
        assert sig.size == 4
        expected = sorted([-5.0 - N2_LOC, -5.0 + N2_LOC,
                           5.0 - N2_LOC, 5.0 + N2_LOC])
        np.testing.assert_allclose(np.sort(sig.locations[:, 0]), expected,
                                   atol=1e-12)
        np.testing.assert_allclose(sig.weights, 0.25, atol=1e-15)
        assert abs(bound * bound - N2_W2SQ) < 1e-12
        # one grid per component; the bound is derived from the grids
        grids = [_component_grid(c, 2, table) for c in gm.components]
        assert [w.size for _, w, _ in grids] == [2, 2]
        assert bound == math.sqrt(0.5 * grids[0][2] + 0.5 * grids[1][2])

    def test_zero_weight_component_contributes_nothing(self, table):
        gm = GaussianMixture(
            np.array([1.0, 0.0]),
            (Gaussian(np.array([0.0]), np.array([1.0])),
             Gaussian(np.array([99.0]), np.array([1.0]))))
        sig, bound = signature_of_mixture(gm, 2, table)
        assert sig.size == 2
        assert np.max(np.abs(sig.locations)) < 5.0
        assert abs(bound * bound - N2_W2SQ) < 1e-12
        # the bound is the live component's grid alone
        assert bound == math.sqrt(_component_grid(gm.components[0], 2,
                                                  table)[2])

    def test_bound_dominates_empirical_ot(self, table):
        rng = np.random.default_rng(17)
        gm = GaussianMixture(
            np.array([0.5, 0.5]),
            (Gaussian(np.array([-5.0]), np.array([1.0])),
             Gaussian(np.array([5.0]), np.array([1.0]))))
        sig, bound = signature_of_mixture(gm, 2, table)
        w2 = np.array([semidiscrete_w2_lp(sample_stratified(gm, 1000, rng),
                                          sig.locations, sig.weights)
                       for _ in range(5)])
        se = w2.std(ddof=1) / math.sqrt(len(w2))
        assert bound >= w2.mean() - 3.0 * se

    def _conditional_mc_check(self, gm, budget, table, rng, n_samples=200_000):
        # each cell's conditional distortion as the per-axis loop sums it
        # (whose total ``_component_grid`` reproduces bit for bit), and the
        # bound as the mean over all cells
        sig, bound = signature_of_mixture(gm, budget, table)
        comp = gm.components[0]
        cond = component_grid_oracle(comp, budget, table)[3]
        x = comp.sample(n_samples, rng)
        basis = comp.eigen()
        sizes = allocate_grid(basis.eigenvalues, budget, table)
        r = len(sizes)
        whitened = (x - comp.mean) @ basis.eigenvectors[:, :r]
        whitened = whitened / np.sqrt(basis.eigenvalues[:r])
        # per-axis Voronoi index -> flat C-order cell id
        flat = np.zeros(x.shape[0], dtype=int)
        for l, n_l in enumerate(sizes):
            edges = table.get(n_l).cells[0][1:]  # drop -inf, keep boundaries
            flat = flat * n_l + np.searchsorted(edges, whitened[:, l])
        atoms = sig.locations
        d2 = np.sum(np.square(x - atoms[flat]), axis=1)
        for cell in range(sig.size):
            mask = flat == cell
            if mask.sum() < 200:
                continue
            vals = d2[mask]
            se = vals.std(ddof=1) / math.sqrt(mask.sum())
            assert abs(vals.mean() - cond[cell]) <= 3.0 * se
        se = d2.std(ddof=1) / math.sqrt(d2.size)
        assert abs(d2.mean() - bound * bound) <= 3.0 * se

    def test_cell_conditional_distortion_matches_mc_1d(self, table):
        rng = np.random.default_rng(23)
        gm = GaussianMixture(np.array([1.0]),
                             (Gaussian(np.array([1.0]), np.array([2.25])),))
        self._conditional_mc_check(gm, 5, table, rng)

    def test_cell_conditional_distortion_matches_mc_2d(self, table):
        rng = np.random.default_rng(29)
        f = rng.normal(size=(2, 2))
        gm = GaussianMixture(np.array([1.0]),
                             (Gaussian(np.array([0.5, -1.0]),
                                       f @ f.T + 0.4 * np.eye(2)),))
        self._conditional_mc_check(gm, 6, table, rng)

    def test_propagation_through_far_table_is_sound(self, monkeypatch):
        # a ReLU/tanh net with dropout on the far table: its first
        # pushforward is N(., diag(4, 1)), whose (3, 3) grid has corner
        # atoms of weight 8.2e-14; propagation raises no warning, and the
        # ledger bound dominates the empirical W2 to the network
        real = build_table(9)
        fake = TestSignatureOfGaussian._far_table(
            10.0, (real.get(n).locations for n in range(4, 10)))
        rng = np.random.default_rng(3)
        model = SnnModel(1, (
            StochasticLinear(np.array([[1.0], [-0.5]]),
                             np.array([[4.0], [1.0]]), np.array([0.5, 0.2]),
                             np.zeros(2)),
            Activation("relu"),
            Dropout(0.9),
            StochasticLinear(rng.normal(size=(2, 2)), np.full((2, 2), 0.05),
                             np.zeros(2), np.full(2, 0.05)),
            Activation("tanh"),
            StochasticLinear(rng.normal(size=(1, 2)), np.full((1, 2), 0.05),
                             np.zeros(1), np.full(1, 0.05)),
        ))
        points = np.array([[1.0]])
        cfg = PropagationConfig(table=fake, signature_budget=9,
                                compression_size=3, seed=0)
        smallest = []

        def recording(*args):
            atoms, bound = signature_of_mixture(*args)
            smallest.append(float(atoms.weights.min()))
            return atoms, bound

        monkeypatch.setattr(snn, "signature_of_mixture", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            approx, ledger = propagate(model, points, cfg)
            w2 = [empirical_w2(sample_network(model, points, 1000, 100 + b),
                               approx.sample(1000, rng)) for b in range(5)]
        assert 0.0 < smallest[0] < 1e-13
        mean_w2, se = mc_mean_se(w2)
        assert ledger.final_bound >= mean_w2 - 3.0 * se

    def test_budget_doubling_reaches_epsilon(self, table):
        rng = np.random.default_rng(31)
        for _ in range(2):
            means = rng.normal(scale=4.0, size=(2, 2))
            covs = []
            for _ in range(2):
                f = rng.normal(scale=0.5, size=(2, 2))
                covs.append(f @ f.T)
            gm = GaussianMixture(np.array([0.5, 0.5]),
                                 tuple(Gaussian(m, c)
                                       for m, c in zip(means, covs)))
            eps = 0.05 * math.sqrt(mixture_second_moment(gm))
            bounds = [signature_of_mixture(gm, b, table)[1]
                      for b in (2, 4, 8, 16, 32, 64, 128)]
            assert all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))
            assert bounds[-1] < eps


class TestSignatureContainer:
    def test_validation(self, table):
        # signature atoms are a DiscreteDistribution: weights off the
        # simplex and locations not shaped (M, n) are rejected
        with pytest.raises(ParseError):  # sums to 0.9
            DiscreteDistribution(np.zeros((2, 1)), np.array([0.6, 0.3]))
        with pytest.raises(ParseError):
            DiscreteDistribution(np.zeros((2, 1)), np.array([1.2, -0.2]))
        with pytest.raises(ParseError):  # not (M, n)
            DiscreteDistribution(np.zeros((2,)), np.array([1.0]))
        with pytest.raises(ParseError):  # three atoms, two weights
            DiscreteDistribution(np.zeros((3, 1)), np.full(2, 0.5))
        # the component grids cover exactly the atoms, in component order,
        # and each block carries its component's weight
        gm = GaussianMixture(
            np.array([0.3, 0.7]),
            (Gaussian(np.zeros(1), np.ones(1)),
             Gaussian(np.array([4.0]), np.array([2.0]))))
        atoms, bound = signature_of_mixture(gm, 3, table)
        assert isinstance(atoms, DiscreteDistribution)
        grids = [_component_grid(c, 3, table) for c in gm.components]
        assert sum(w.size for _, w, _ in grids) == atoms.size
        start = 0
        for pi, (loc, w, _) in zip(gm.weights, grids):
            block = slice(start, start + w.size)
            assert atoms.locations[block].tobytes() == loc.tobytes()
            assert abs(atoms.weights[block].sum() - pi) < 1e-12
            start += w.size
        # the bound is derived from the component grids
        assert bound == math.sqrt(float(np.dot(
            gm.weights, [w2sq for _, _, w2sq in grids])))
        _, one_bound = signature_of_mixture(gm.components[0], 2, table)
        assert one_bound == math.sqrt(_component_grid(gm.components[0], 2,
                                                      table)[2])


class TestActivationSignatureW2Bound:
    @pytest.mark.parametrize("kind", ["relu", "tanh", "gelu"])
    def test_passes_the_signature_bound_through(self, table, kind):
        # both supported kinds are 1-Lipschitz; an unknown kind is rejected
        gm = GaussianMixture(np.array([1.0]),
                             (Gaussian(np.array([-10.0]), np.array([0.01])),))
        _, bound = signature_of_mixture(gm, 2, table)
        if kind == "gelu":
            with pytest.raises(ParseError):
                activation_signature_w2_bound(bound, kind)
        else:
            assert activation_signature_w2_bound(bound, kind) == bound


class TestActivationRefinement:
    """The ledger's ReLU step charges no more than the signature bound."""

    def test_relu_active_zone_keeps_bound(self, table):
        gm = GaussianMixture(np.array([1.0]),
                             (Gaussian(np.array([10.0]), np.array([0.01])),))
        _, bound = signature_of_mixture(gm, 2, table)
        assert activation_signature_w2_bound(bound, "relu") == bound

    def test_refined_never_exceeds_unrefined(self, table):
        rng = np.random.default_rng(37)
        for _ in range(10):
            gm = GaussianMixture(
                np.array([0.5, 0.5]),
                (random_full_gaussian(rng, 2), random_full_gaussian(rng, 2)))
            _, bound = signature_of_mixture(gm, 8, table)
            refined = activation_signature_w2_bound(bound, "relu")
            assert refined <= bound + 1e-15
