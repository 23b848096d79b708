"""End-to-end tests of the command-line interface.

Commands run in-process through ``wassnet.cli.main`` so exit codes, stdout,
and written artifacts can be checked directly.  File outputs must be
byte-identical across reruns with equal flags.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from wassnet import (
    Activation,
    BoundLedger,
    DeterministicLinear,
    SnnModel,
    StochasticLinear,
    TuneReport,
)
from wassnet.cli import main
from wassnet.config import TOL
from wassnet.errors import NumericalError
from wassnet.quantizer import QuantizerTable
from wassnet.stats import Gaussian, GaussianMixture, gaussian_w2

DATA = Path(__file__).parent / "data"

# MW2 between the bundled two-component pair, from enumerating the two
# vertices of the 2x2 transportation polytope with exact Gaussian pair costs
MW2_PAIR_ORACLE = 1.9614138255975342


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def table_file(table, tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "table.json"
    table.save(path)
    return str(path)


@pytest.fixture()
def det_model_file(tmp_path):
    model = SnnModel(1, [DeterministicLinear(np.array([[2.0]]),
                                             np.array([1.0]))])
    path = tmp_path / "det_model.json"
    path.write_text(json.dumps(model.to_dict()))
    return str(path)


@pytest.fixture()
def tiny_template_file(tmp_path):
    layers = [
        StochasticLinear(np.zeros((4, 1)), np.ones((4, 1)), np.zeros(4),
                         np.ones(4), ntk_scaling=False),
        Activation("tanh"),
        StochasticLinear(np.zeros((1, 4)), np.ones((1, 4)), np.zeros(1),
                         np.ones(1), ntk_scaling=False),
    ]
    path = tmp_path / "template.json"
    path.write_text(json.dumps(SnnModel(1, layers).to_dict()))
    return str(path)


def _approximate(tmp_path, table_file, capsys, budget=10, m=5, tag="",
                 points=None):
    out_gmm = str(tmp_path / f"mix{tag}.json")
    out_ledger = str(tmp_path / f"ledger{tag}.json")
    code, out, _ = run_cli(
        ["approximate", "--model", str(DATA / "model_1_16_1_tanh.json"),
         "--points", points or str(DATA / "points_5.json"),
         "--budget", str(budget), "--m", str(m),
         "--table", table_file,
         "--out-gmm", out_gmm, "--out-ledger", out_ledger], capsys)
    assert code == 0, out
    return out_gmm, out_ledger, out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(["approximate"], capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "quantizer-build" in out


class TestQuantizerBuild:
    def test_single_entry_table(self, tmp_path, capsys):
        out = str(tmp_path / "t1.json")
        code, _, _ = run_cli(["quantizer-build", "--max-n", "1",
                              "--out", out], capsys)
        assert code == 0
        entry = QuantizerTable.load(out).get(1)
        assert entry.locations.tolist() == [0.0]
        assert entry.w2sq == 1.0

    def test_entries_strictly_decreasing(self, tmp_path, capsys):
        out = str(tmp_path / "t8.json")
        code, _, _ = run_cli(["quantizer-build", "--max-n", "8",
                              "--out", out], capsys)
        assert code == 0
        table = QuantizerTable.load(out)
        w2sq = [table.get(n).w2sq for n in range(1, 9)]
        assert all(a > b for a, b in zip(w2sq, w2sq[1:]))

    def test_rebuild_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            code, _, _ = run_cli(["quantizer-build", "--max-n", "6",
                                  "--out", str(out)], capsys)
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["quantizer-build", "--max-n", "2",
             "--out", str(tmp_path / "no" / "such" / "dir.json")], capsys)
        assert code != 0

    def test_tol_flag_removed(self, tmp_path, capsys):
        code, _, _ = run_cli(["quantizer-build", "--max-n", "2",
                              "--tol", "1e-12",
                              "--out", str(tmp_path / "t.json")], capsys)
        assert code == 2


class TestApproximate:
    def test_parent_format_table_matches_rebuilt(self, tmp_path, capsys):
        # a table file that still stores w2sq, tol and max_iters reads
        # through the CLI and gives the run of a fresh build
        rebuilt = str(tmp_path / "t16.json")
        code, _, _ = run_cli(["quantizer-build", "--max-n", "16",
                              "--out", rebuilt], capsys)
        assert code == 0
        runs = []
        for tag, table in (("old", str(DATA / "table_parent_16.json")),
                           ("new", rebuilt)):
            out_gmm, out_ledger, out = _approximate(tmp_path, table, capsys,
                                                    tag=tag)
            runs.append((Path(out_gmm).read_bytes(),
                         Path(out_ledger).read_bytes(), out))
        assert runs[0] == runs[1]

    def test_deterministic_model_zero_bound(self, tmp_path, det_model_file,
                                            table_file, capsys):
        points = tmp_path / "pt.json"
        points.write_text("[[1.5]]")
        out_gmm = str(tmp_path / "mix.json")
        out_ledger = str(tmp_path / "ledger.json")
        code, out, _ = run_cli(
            ["approximate", "--model", det_model_file,
             "--points", str(points), "--table", table_file,
             "--out-gmm", out_gmm, "--out-ledger", out_ledger], capsys)
        assert code == 0
        artifact = json.loads(Path(out_ledger).read_text())
        assert artifact["formal_bound"] == 0.0
        assert artifact["relative_formal_bound"] == 0.0
        mixture = GaussianMixture.from_dict(
            json.loads(Path(out_gmm).read_text()))
        assert len(mixture.components) == 1
        comp = mixture.components[0]
        assert comp.mean.tolist() == [4.0]  # 2 * 1.5 + 1
        assert not np.any(comp.cov)

    def test_reference_ledger_audits(self, tmp_path, table_file, capsys):
        _, out_ledger, _ = _approximate(tmp_path, table_file, capsys)
        artifact = json.loads(Path(out_ledger).read_text())
        for key in ("model", "input_set_size", "budget", "m", "seed",
                    "formal_bound", "relative_formal_bound", "ledger"):
            assert key in artifact
        assert artifact["input_set_size"] == 5
        ledger = BoundLedger.from_dict(artifact["ledger"])
        ledger.audit()
        assert ledger.final_bound == artifact["formal_bound"]

    def test_duplicate_points_csv(self, tmp_path, table_file, capsys):
        out_gmm, out_ledger, _ = _approximate(
            tmp_path, table_file, capsys, budget=4,
            points=str(DATA / "points_dup.csv"))
        artifact = json.loads(Path(out_ledger).read_text())
        assert artifact["input_set_size"] == 6
        assert math.isfinite(artifact["formal_bound"])

    def test_reruns_byte_identical(self, tmp_path, table_file, capsys):
        gmm_a, ledger_a, _ = _approximate(tmp_path, table_file, capsys,
                                          budget=6, tag="_a")
        gmm_b, ledger_b, _ = _approximate(tmp_path, table_file, capsys,
                                          budget=6, tag="_b")
        assert Path(gmm_a).read_bytes() == Path(gmm_b).read_bytes()
        assert Path(ledger_a).read_bytes() == Path(ledger_b).read_bytes()

    def test_missing_model_file(self, tmp_path, table_file, capsys):
        code, _, err = run_cli(
            ["approximate", "--model", str(tmp_path / "nope.json"),
             "--points", str(DATA / "points_5.json"), "--table", table_file,
             "--out-gmm", str(tmp_path / "g.json"),
             "--out-ledger", str(tmp_path / "l.json")], capsys)
        assert code == 3
        assert "nope.json" in err

    @pytest.mark.parametrize("points", ["[[0.1], [0.2, 0.3]]", '[["a"]]',
                                        '{"x": 1}'],
                             ids=["ragged", "string", "object"])
    def test_malformed_numeric_points_json(self, tmp_path, table_file,
                                           capsys, points):
        path = tmp_path / "bad_points.json"
        path.write_text(points)
        code, _, err = run_cli(
            ["approximate", "--model", str(DATA / "model_1_16_1_tanh.json"),
             "--points", str(path), "--table", table_file,
             "--out-gmm", str(tmp_path / "g.json"),
             "--out-ledger", str(tmp_path / "l.json")], capsys)
        assert code == 3
        assert err.startswith("error:") and "bad_points.json" in err

    def test_negative_seed_rejected(self, tmp_path, table_file, capsys):
        code, _, err = run_cli(
            ["approximate", "--model", str(DATA / "model_1_16_1_tanh.json"),
             "--points", str(DATA / "points_5.json"), "--budget", "4",
             "--seed", "-3", "--table", table_file,
             "--out-gmm", str(tmp_path / "g.json"),
             "--out-ledger", str(tmp_path / "l.json")], capsys)
        assert code == 3
        assert "seed" in err

    def test_env_var_supplies_table(self, tmp_path, table_file, capsys,
                                    monkeypatch):
        monkeypatch.setenv("WASSNET_TABLE", table_file)
        out_gmm = str(tmp_path / "mix.json")
        out_ledger = str(tmp_path / "ledger.json")
        code, _, err = run_cli(
            ["approximate", "--model", str(DATA / "model_1_16_1_tanh.json"),
             "--points", str(DATA / "points_5.json"), "--budget", "4",
             "--out-gmm", out_gmm, "--out-ledger", out_ledger], capsys)
        assert code == 0
        assert "building" not in err  # the table was loaded, not rebuilt


class TestEmpirical:
    def test_deterministic_model_zero(self, tmp_path, det_model_file,
                                      table_file, capsys):
        points = tmp_path / "pt.json"
        points.write_text("[[1.5]]")
        out_gmm = str(tmp_path / "mix.json")
        run_cli(["approximate", "--model", det_model_file,
                 "--points", str(points), "--table", table_file,
                 "--out-gmm", out_gmm,
                 "--out-ledger", str(tmp_path / "l.json")], capsys)
        code, out, _ = run_cli(
            ["empirical", "--model", det_model_file, "--points", str(points),
             "--gmm", out_gmm, "--samples", "50"], capsys)
        assert code == 0
        assert "empirical_w2=0.0" in out

    def test_smoke_samples_10(self, tmp_path, table_file, capsys):
        out_gmm, _, _ = _approximate(tmp_path, table_file, capsys, budget=4)
        code, out, _ = run_cli(
            ["empirical", "--model", str(DATA / "model_1_16_1_tanh.json"),
             "--points", str(DATA / "points_5.json"), "--gmm", out_gmm,
             "--samples", "10"], capsys)
        assert code == 0
        value = float(out.splitlines()[0].split("=", 1)[1])
        assert math.isfinite(value) and value >= 0.0

    def test_empirical_below_formal_bound(self, tmp_path, table_file,
                                          capsys):
        out_gmm, out_ledger, _ = _approximate(tmp_path, table_file, capsys)
        code, out, _ = run_cli(
            ["empirical", "--model", str(DATA / "model_1_16_1_tanh.json"),
             "--points", str(DATA / "points_5.json"), "--gmm", out_gmm,
             "--samples", "300"], capsys)
        assert code == 0
        value = float(out.splitlines()[0].split("=", 1)[1])
        bound = json.loads(Path(out_ledger).read_text())["formal_bound"]
        assert value <= bound

    def test_sample_cap_advises_reduction(self, tmp_path, table_file,
                                          capsys):
        out_gmm, _, _ = _approximate(tmp_path, table_file, capsys, budget=4)
        code, _, err = run_cli(
            ["empirical", "--model", str(DATA / "model_1_16_1_tanh.json"),
             "--points", str(DATA / "points_5.json"), "--gmm", out_gmm,
             "--samples", "100000"], capsys)
        assert code == 3
        assert "--samples" in err

    def test_one_point_has_no_sample_cap(self, tmp_path, table_file,
                                         capsys):
        # one point makes 1-D samples, which take the sorted matching and
        # build no cost matrix
        points = tmp_path / "one_point.json"
        points.write_text("[[0.5]]")
        out_gmm, _, _ = _approximate(tmp_path, table_file, capsys,
                                     budget=4, points=str(points))
        assert 3000 ** 2 > TOL.empirical_cost_cap
        code, out, _ = run_cli(
            ["empirical", "--model", str(DATA / "model_1_16_1_tanh.json"),
             "--points", str(points), "--gmm", out_gmm,
             "--samples", "3000"], capsys)
        assert code == 0
        value = float(out.splitlines()[0].split("=", 1)[1])
        assert math.isfinite(value) and value >= 0.0

    def test_over_cap_refused_before_sampling(self, tmp_path, table_file,
                                              capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before refusing")

        out_gmm, _, _ = _approximate(tmp_path, table_file, capsys, budget=4)
        monkeypatch.setattr("wassnet.cli.sample_network", refuse)
        code, _, err = run_cli(
            ["empirical", "--model", str(DATA / "model_1_16_1_tanh.json"),
             "--points", str(DATA / "points_5.json"), "--gmm", out_gmm,
             "--samples", "3000"], capsys)
        assert code == 3
        assert "--samples" in err

    def test_dimension_mismatch(self, tmp_path, table_file, capsys):
        out_gmm, _, _ = _approximate(tmp_path, table_file, capsys, budget=4)
        points = tmp_path / "two_points.json"
        points.write_text("[[0.0], [1.0]]")  # approximation used 5 points
        code, _, err = run_cli(
            ["empirical", "--model", str(DATA / "model_1_16_1_tanh.json"),
             "--points", str(points), "--gmm", out_gmm,
             "--samples", "50"], capsys)
        assert code == 3
        assert "dimension" in err


class TestMw2:
    def test_file_vs_itself_zero(self, capsys):
        code, out, _ = run_cli(
            ["mw2", "--gmm-a", str(DATA / "gmm_pair_a.json"),
             "--gmm-b", str(DATA / "gmm_pair_a.json")], capsys)
        assert code == 0
        assert "mw2=0.0" in out

    def test_single_gaussians_match_closed_form(self, tmp_path, capsys):
        a = Gaussian(np.array([0.0, 1.0]), np.diag([1.0, 2.0]))
        b = Gaussian(np.array([3.0, -1.0]), np.diag([0.5, 0.25]))
        for name, g in (("a.json", a), ("b.json", b)):
            mixture = GaussianMixture(np.array([1.0]), (g,))
            (tmp_path / name).write_text(json.dumps(mixture.to_dict()))
        code, out, _ = run_cli(
            ["mw2", "--gmm-a", str(tmp_path / "a.json"),
             "--gmm-b", str(tmp_path / "b.json")], capsys)
        assert code == 0
        value = float(out.split("=", 1)[1])
        assert value == pytest.approx(gaussian_w2(a, b), rel=1e-12)

    def test_two_component_pair_matches_oracle(self, capsys):
        code, out, _ = run_cli(
            ["mw2", "--gmm-a", str(DATA / "gmm_pair_a.json"),
             "--gmm-b", str(DATA / "gmm_pair_b.json")], capsys)
        assert code == 0
        value = float(out.split("=", 1)[1])
        assert abs(value - MW2_PAIR_ORACLE) <= 1e-9

    def test_plan_json_has_valid_marginals(self, tmp_path, capsys):
        out_plan = tmp_path / "plan.json"
        code, _, _ = run_cli(
            ["mw2", "--gmm-a", str(DATA / "gmm_pair_a.json"),
             "--gmm-b", str(DATA / "gmm_pair_b.json"),
             "--out-plan", str(out_plan)], capsys)
        assert code == 0
        data = json.loads(out_plan.read_text())
        plan = np.asarray(data["plan"])
        assert plan.shape == (2, 2)
        np.testing.assert_allclose(plan.sum(axis=1), [0.6, 0.4], atol=1e-12)
        np.testing.assert_allclose(plan.sum(axis=0), [0.3, 0.7], atol=1e-12)
        assert math.sqrt(data["squared_cost"]) == pytest.approx(
            data["value"], rel=1e-12)

    def test_dimension_mismatch(self, tmp_path, capsys):
        mixture = GaussianMixture(
            np.array([1.0]), (Gaussian(np.zeros(3), np.eye(3)),))
        path = tmp_path / "g3.json"
        path.write_text(json.dumps(mixture.to_dict()))
        code, _, _ = run_cli(
            ["mw2", "--gmm-a", str(DATA / "gmm_pair_a.json"),
             "--gmm-b", str(path)], capsys)
        assert code == 3

    def test_covariance_that_is_not_psd_is_refused(self, tmp_path, capsys):
        # against a point mass every product S_j^1/2 S_i S_j^1/2 is 0, so
        # pricing alone would not see the indefinite first mixture; the
        # mixture is refused when it is loaded, on either side
        bad = {"weights": [1], "components": [
            {"mean": [0, 0], "cov": {"full": [[1, 2], [2, 1]]}}]}
        point = {"weights": [1], "components": [
            {"mean": [1, 1], "cov": {"diag": [0, 0]}}]}
        for name, g in (("bad.json", bad), ("point.json", point)):
            (tmp_path / name).write_text(json.dumps(g))
        for a, b in (("bad.json", "point.json"), ("point.json", "bad.json")):
            code, out, err = run_cli(
                ["mw2", "--gmm-a", str(tmp_path / a),
                 "--gmm-b", str(tmp_path / b)], capsys)
            assert code == 4 and out == ""
            assert err.startswith("numerical failure: ")

    @pytest.mark.parametrize("field,value", [
        ("weights", ["x"]), ("mean", ["a"]), ("mean", [[0.1], [0.2, 0.3]]),
        ("diag", ["v"]), ("weights", [math.nan, math.nan]),
        ("mean", [math.nan, 0.0]), ("diag", [math.inf, 0.5]),
        ("diag", [-1.0, 0.5])],
        ids=["weights-string", "mean-string", "mean-ragged", "diag-string",
             "weights-nan", "mean-nan", "diag-inf", "diag-negative"])
    def test_malformed_numeric_mixture_json(self, tmp_path, capsys, field,
                                            value):
        data = json.loads((DATA / "gmm_pair_a.json").read_text())
        if field == "weights":
            data["weights"] = value
        elif field == "mean":
            data["components"][0]["mean"] = value
        else:
            data["components"][0]["cov"] = {"diag": value}
        path = tmp_path / "bad_gmm.json"
        path.write_text(json.dumps(data))
        # two points through the 1-output model match the mixture's dim 2
        points = tmp_path / "pts.json"
        points.write_text("[[0.0], [1.0]]")
        for argv in (["mw2", "--gmm-a", str(path),
                      "--gmm-b", str(DATA / "gmm_pair_b.json")],
                     ["empirical", "--model",
                      str(DATA / "model_1_16_1_tanh.json"),
                      "--points", str(points), "--gmm", str(path),
                      "--samples", "50"]):
            code, out, err = run_cli(argv, capsys)
            assert code == 3
            assert out == ""
            assert err.startswith("error: ")


class TestTunePrior:
    def test_steps_one_smoke(self, tmp_path, tiny_template_file, table_file,
                             capsys):
        points = tmp_path / "pts.json"
        points.write_text("[[-1.0], [0.0], [1.0]]")
        out = tmp_path / "tune.json"
        code, stdout, _ = run_cli(
            ["tune-prior", "--arch", tiny_template_file,
             "--gp", "rbf:ls=0.5,var=1.0", "--points", str(points),
             "--steps", "1", "--budget", "6", "--m", "1",
             "--table", table_file, "--out", str(out)], capsys)
        assert code == 0
        report = TuneReport.from_dict(json.loads(out.read_text()))
        assert len(report.history) == 1
        assert report.final_loss <= report.initial_loss
        tuned = SnnModel.from_dict(
            json.loads((tmp_path / "tune.model.json").read_text()))
        assert tuned.input_dim == 1
        assert "final_loss=" in stdout

    def test_explicit_out_model_path(self, tmp_path, tiny_template_file,
                                     table_file, capsys):
        points = tmp_path / "pts.json"
        points.write_text("[[0.0], [1.0]]")
        out_model = tmp_path / "tuned_arch.json"
        code, _, _ = run_cli(
            ["tune-prior", "--arch", tiny_template_file,
             "--gp", "rbf:ls=1.0,var=1.0", "--points", str(points),
             "--steps", "1", "--budget", "4", "--m", "1",
             "--table", table_file, "--out", str(tmp_path / "r.json"),
             "--out-model", str(out_model)], capsys)
        assert code == 0
        SnnModel.from_dict(json.loads(out_model.read_text()))

    def test_malformed_gp_spec_grammar_hint(self, tmp_path,
                                            tiny_template_file, table_file,
                                            capsys):
        points = tmp_path / "pts.json"
        points.write_text("[[0.0]]")
        code, _, err = run_cli(
            ["tune-prior", "--arch", tiny_template_file,
             "--gp", "rbf:lengthscale=0.5", "--points", str(points),
             "--table", table_file, "--out", str(tmp_path / "r.json")],
            capsys)
        assert code == 3
        assert "rbf:ls=" in err

    def test_nonzero_mean_template_rejected(self, tmp_path, table_file,
                                            capsys):
        layers = [StochasticLinear(np.ones((1, 1)), np.ones((1, 1)),
                                   np.zeros(1), np.ones(1))]
        arch = tmp_path / "biased.json"
        arch.write_text(json.dumps(SnnModel(1, layers).to_dict()))
        points = tmp_path / "pts.json"
        points.write_text("[[0.0]]")
        code, _, err = run_cli(
            ["tune-prior", "--arch", str(arch),
             "--gp", "rbf:ls=0.5,var=1.0", "--points", str(points),
             "--table", table_file, "--out", str(tmp_path / "r.json")],
            capsys)
        assert code == 3
        assert "zero-mean" in err

    def test_numerical_failure_exit_code(self, tmp_path, tiny_template_file,
                                         table_file, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericalError("loss diverged")

        monkeypatch.setattr("wassnet.cli.tune", explode)
        points = tmp_path / "pts.json"
        points.write_text("[[0.0]]")
        code, _, err = run_cli(
            ["tune-prior", "--arch", tiny_template_file,
             "--gp", "rbf:ls=0.5,var=1.0", "--points", str(points),
             "--table", table_file, "--out", str(tmp_path / "r.json")],
            capsys)
        assert code == 4
        assert "loss diverged" in err


class TestReport:
    def test_empty_list_header_only(self, capsys):
        code, out, _ = run_cli(["report"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines == ["| model | D | budget | M | formal |",
                         "| --- | --- | --- | --- | --- |"]

    def test_single_ledger_row(self, tmp_path, table_file, capsys):
        _, out_ledger, _ = _approximate(tmp_path, table_file, capsys,
                                        budget=4)
        code, out, _ = run_cli(["report", "--ledger", out_ledger], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        cells = [c.strip() for c in lines[2].strip("|").split("|")]
        assert cells[0].endswith("model_1_16_1_tanh.json")
        assert cells[1] == "5" and cells[2] == "4" and cells[3] == "5"
        # the formal column is the audited absolute bound, not the ratio
        artifact = json.loads(Path(out_ledger).read_text())
        assert len(cells) == 5
        assert cells[4] == f"{artifact['ledger']['final_bound']:.6g}"
        assert cells[4] != f"{artifact['relative_formal_bound']:.6g}"

    def test_three_budgets_formal_nonincreasing(self, tmp_path, table_file,
                                                capsys):
        ledgers = []
        for budget in (2, 8, 32):
            _, out_ledger, _ = _approximate(tmp_path, table_file, capsys,
                                            budget=budget, tag=str(budget))
            ledgers.append(out_ledger)
        code, out, _ = run_cli(["report", "--ledger", *ledgers], capsys)
        assert code == 0
        rows = out.splitlines()[2:]
        formal = [float(r.strip("|").split("|")[4]) for r in rows]
        assert len(formal) == 3
        assert formal[0] >= formal[1] >= formal[2]

    def test_malformed_ledger_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"records": []}')
        code, _, err = run_cli(["report", "--ledger", str(bad)], capsys)
        assert code == 3
        assert "bad.json" in err

    def test_bare_ledger_replays_and_renders(self, tmp_path, table_file,
                                             capsys):
        _, out_ledger, _ = _approximate(tmp_path, table_file, capsys,
                                        budget=4)
        ledger = json.loads(Path(out_ledger).read_text())["ledger"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(ledger))
        code, out, _ = run_cli(["report", "--ledger", str(bare)], capsys)
        assert code == 0
        cells = [c.strip() for c in out.splitlines()[2].strip("|").split("|")]
        assert cells[4] == f"{ledger['final_bound']:.6g}"

    @pytest.mark.parametrize("wrapped", [True, False])
    @pytest.mark.parametrize("final_bound", [1e-9, "abc", None, True])
    def test_stored_bound_must_match_replay(self, tmp_path, table_file,
                                            capsys, wrapped, final_bound):
        _, out_ledger, _ = _approximate(tmp_path, table_file, capsys,
                                        budget=4)
        artifact = json.loads(Path(out_ledger).read_text())
        artifact["ledger"]["final_bound"] = final_bound
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(artifact if wrapped
                                     else artifact["ledger"]))
        code, out, err = run_cli(["report", "--ledger", str(forged)], capsys)
        assert code == 3
        assert "forged.json" in err
        assert out == ""

    @pytest.mark.parametrize("formal_bound", [1e-9, "abc", None])
    def test_forged_formal_bound_rejected(self, tmp_path, table_file, capsys,
                                          formal_bound):
        _, out_ledger, _ = _approximate(tmp_path, table_file, capsys,
                                        budget=4)
        artifact = json.loads(Path(out_ledger).read_text())
        artifact["formal_bound"] = formal_bound
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(artifact))
        code, out, err = run_cli(["report", "--ledger", str(forged)], capsys)
        assert code == 3
        assert "forged.json" in err and "formal_bound" in err
        assert out == ""

    def test_forged_relative_bound_not_rendered(self, tmp_path, table_file,
                                                capsys):
        _, out_ledger, _ = _approximate(tmp_path, table_file, capsys,
                                        budget=4)
        artifact = json.loads(Path(out_ledger).read_text())
        artifact["relative_formal_bound"] = 1e-9
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(artifact))
        code, out, _ = run_cli(["report", "--ledger", str(forged)], capsys)
        assert code == 0
        cells = [c.strip() for c in out.splitlines()[2].strip("|").split("|")]
        assert cells[4] == f"{artifact['formal_bound']:.6g}"
        assert "1e-09" not in out

    @pytest.mark.parametrize("wrapped", [True, False])
    def test_older_artifact_with_lipschitz_key_replays(self, tmp_path,
                                                       table_file, capsys,
                                                       wrapped):
        # artifacts written before the always-1 Lipschitz slot was removed
        # store "lipschitz": 1.0 in every ledger record
        _, out_ledger, _ = _approximate(tmp_path, table_file, capsys,
                                        budget=4)
        artifact = json.loads(Path(out_ledger).read_text())
        for rec in artifact["ledger"]["records"]:
            assert "lipschitz" not in rec
            rec["lipschitz"] = 1.0
        older = tmp_path / "older.json"
        older.write_text(json.dumps(artifact if wrapped
                                    else artifact["ledger"]))
        code, out, _ = run_cli(["report", "--ledger", str(older)], capsys)
        assert code == 0
        cells = [c.strip() for c in out.splitlines()[2].strip("|").split("|")]
        assert cells[4] == f"{artifact['formal_bound']:.6g}"

    def test_format_flag_removed(self, capsys):
        code, _, _ = run_cli(["report", "--format", "md"], capsys)
        assert code == 2

    def test_tampered_record_rejected(self, tmp_path, table_file, capsys):
        _, out_ledger, _ = _approximate(tmp_path, table_file, capsys,
                                        budget=4)
        artifact = json.loads(Path(out_ledger).read_text())
        artifact["ledger"]["records"][-1]["signature_term"] *= 2.0
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(artifact))
        code, _, err = run_cli(["report", "--ledger", out_ledger,
                                str(forged)], capsys)
        assert code == 3
        assert "forged.json" in err
