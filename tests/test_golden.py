"""Golden outputs of ``propagate`` on two fixed networks and of one ``tune``.

``tests/data/golden_propagate.json`` holds the mixture and ledger of each
case below.  The first two were recorded with an independent
implementation of the transportation LP (a pure-Python network simplex)
and of the eigen-block split (a union-find).  Refactors of the pipeline
must reproduce the mixtures exactly and every ledger term within 1e-12
relative.  The second case has two tanh hidden layers, so it runs
``compress_gmm``, ``mw2`` and a multi-row, multi-column transportation
LP.  The third has ReLU hidden layers, each followed by ``Dropout(0.9)``,
so it also runs the truncated dropout expansion; it was recorded before
that expansion moved into ``compress_dropout``, and while a ReLU
dead-zone refinement of the signature bound still ran, which left this
case's bound unchanged and has since been deleted.  The
fourth runs the second net on one input point, so its first layer pushes
diagonal Gaussians and ``mw2`` compares diagonal pairs; it was recorded
while ``Gaussian`` still stored a diagonal covariance as its variance
vector and priced diagonal pairs by their commuting closed form.  The
always-1.0 ``lipschitz`` key left the ledger records by deletion from the
file, not by re-recording, so the independently recorded terms stay.  The
first case's mixture was re-recorded once, alone, when signature weights
stopped being normalized a second time: its ten weights moved by at most
2.1e-16 relative, and its ledger did not move.

``tests/data/golden_tune.json`` holds the report of a short ``tune`` run,
recorded before the assignment solve started from reduced costs and
before ``sample_network`` batched its forward pass.  Its
``relative_empirical`` passes through both, so the report must reproduce
exactly.  The constant ``step_decay`` key left it by deletion from the file.
It was re-recorded once, alone, when the fidelity term of a Gaussian W2
came to be summed from eigenvalues computed without eigenvectors: LAPACK
rounds those differently, which moved ``initial_loss`` by 5.4e-10
relative and, through the tuning steps, the log-variances by about 1e-5
and ``relative_empirical`` by 1.1e-6 relative.  ``golden_propagate.json``
did not move beyond its 1e-12 ledger tolerance and was kept.  It was
re-recorded a second time, alone, when the eigenvalues of a Gaussian W2
product at or below ``n eps max lambda`` came to be set to 0 before their
roots are summed: ``initial_loss`` moved by 1.5e-8 relative,
``relative_formal`` by 2.5e-6 and the log-variances by up to 5.4e-4
relative; ``golden_propagate.json`` did not move.  It was re-recorded a
third time, alone, when a Gaussian W2 came to take its fidelity term from
the root of the column side, ``S_j^1/2 S_i S_j^1/2``, instead of the row
side (the two traces are equal in exact arithmetic and round
differently), so ``mw2`` against the one-component GP roots the GP.  Old
-> new: ``history[1].loss`` 1.2754088894598308 -> 1.2754088894599291,
``history[1].mw2_term`` 1.1747279245524131 -> 1.17472792455252,
``history[1].bound_term`` 10.068096490741766 -> 10.068096490740926,
``log_variances`` 0.022458266926272397 -> 0.022458266927594672,
-0.03242904705420602 -> -0.032429047053543214, 0.013605461244554085 ->
0.013605461244878825, 0.025858899045974604 -> 0.025858899045966277,
``initial_loss`` 1.8959037040742888 -> 1.89590370407429, ``final_loss``
1.8790412170217126 -> 1.8790412170216098, ``relative_empirical``
0.5421446833437263 -> 0.5421446833436737, ``relative_empirical_se``
0.0027636640271604426 -> 0.0027636640271544144 and ``relative_formal``
9.740739444701605 -> 9.740739444707508: at most 5.9e-11 relative (the
log-variances) and 6.1e-13 for ``relative_formal``; ``history[0]`` did
not move.  ``golden_propagate.json`` did not move.

Regenerate (only on purpose, after a deliberate change of the numbers) with
``PYTHONPATH=src python3 tests/test_golden.py``, which rewrites both files.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from wassnet.priortune import GpTarget, tune
from wassnet.quantizer import build_table
from wassnet.snn import (Activation, Dropout, PropagationConfig, SnnModel,
                         StochasticLinear, propagate)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_propagate.json"
GOLDEN_TUNE = DATA / "golden_tune.json"
TABLE_N = 128
LEDGER_RTOL = 1e-12


def _two_layer(kind, keep_prob=None):
    """Seeded 1-8-8-1 net with NTK scaling and variance 0.05.

    Each hidden layer ends in a ``kind`` activation, followed by
    ``Dropout(keep_prob)`` when one is given.
    """
    rng = np.random.default_rng(7)
    widths = (1, 8, 8, 1)
    layers = []
    for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
        layers.append(StochasticLinear(
            rng.normal(size=(n_out, n_in)), np.full((n_out, n_in), 0.05),
            rng.normal(scale=0.5, size=n_out), np.full(n_out, 0.05),
            ntk_scaling=True))
        if i < len(widths) - 2:
            layers.append(Activation(kind))
            if keep_prob is not None:
                layers.append(Dropout(keep_prob))
    return SnnModel(1, tuple(layers))


def _cases():
    """(name, model, points, budget, m, seed) for every golden case."""
    model_1_16_1 = SnnModel.from_dict(
        json.loads((DATA / "model_1_16_1_tanh.json").read_text()))
    points_5 = np.asarray(json.loads((DATA / "points_5.json").read_text()))
    return (
        ("model_1_16_1_tanh/points_5", model_1_16_1, points_5, 10, 5, 0),
        ("tanh_1_8_8_1/seed_7", _two_layer("tanh"),
         np.linspace(-1.0, 1.0, 3).reshape(-1, 1), 10, 5, 3),
        ("relu_dropout_1_8_8_1/seed_7", _two_layer("relu", keep_prob=0.9),
         np.linspace(-1.0, 1.0, 3).reshape(-1, 1), 10, 5, 3),
        ("tanh_1_8_8_1/seed_7/D1", _two_layer("tanh"), np.array([[0.5]]),
         10, 5, 3),
    )


def _run(table, model, points, budget, m, seed):
    cfg = PropagationConfig(table=table, signature_budget=budget,
                            compression_size=m, seed=seed)
    approx, ledger = propagate(model, points, cfg)
    return approx.to_dict(), ledger.to_dict()


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c[0])
def test_propagate_matches_golden(case, table):
    assert table.n_max == TABLE_N
    name = case[0]
    mixture, ledger = _run(table, *case[1:])
    want = _golden()[name]
    # JSON floats round-trip exactly, so the mixture must compare equal
    assert json.loads(json.dumps(mixture)) == want["mixture"]
    assert ledger["input_set_size"] == want["ledger"]["input_set_size"]
    assert math.isclose(ledger["final_bound"], want["ledger"]["final_bound"],
                        rel_tol=LEDGER_RTOL, abs_tol=0.0)
    assert len(ledger["records"]) == len(want["ledger"]["records"])
    for got, ref in zip(ledger["records"], want["ledger"]["records"]):
        assert got["k"] == ref["k"]
        for term in ("spectral_term", "signature_term", "compression_term",
                     "accumulated"):
            assert math.isclose(got[term], ref[term], rel_tol=LEDGER_RTOL,
                                abs_tol=0.0), (name, got["k"], term)


def test_two_layer_case_exercises_compression():
    # the golden only guards the LP if compression actually ran
    records = _golden()["tanh_1_8_8_1/seed_7"]["ledger"]["records"]
    assert any(r["compression_term"] > 0.0 for r in records)
    # and the dropout expansion only if masks were truncated: the mixture
    # ahead of the first dropout has one component, so its compression is
    # free and the whole k=2 compression term is the dropout bound
    records = _golden()["relu_dropout_1_8_8_1/seed_7"]["ledger"]["records"]
    assert records[1]["k"] == 2 and records[1]["compression_term"] > 0.0
    # the one-point case compresses diagonal Gaussians
    records = _golden()["tanh_1_8_8_1/seed_7/D1"]["ledger"]["records"]
    assert any(r["compression_term"] > 0.0 for r in records)


def _tune_report(table):
    """``tune`` of a zero-mean 1-8-1 tanh template on 6 seeded points."""
    rng = np.random.default_rng(11)
    template = SnnModel(1, (
        StochasticLinear(np.zeros((8, 1)), np.ones((8, 1)), np.zeros(8),
                         np.ones(8)),
        Activation("tanh"),
        StochasticLinear(np.zeros((1, 8)), np.ones((1, 8)), np.zeros(1),
                         np.ones(1), ntk_scaling=True)))
    target = GpTarget(0.5, 1.0, np.sort(rng.uniform(-1.5, 1.5, (6, 1)),
                                        axis=0))
    cfg = PropagationConfig(table=table, signature_budget=8,
                            compression_size=2, seed=0)
    report = tune(template, target, cfg, beta=0.01, steps=2, step_size=0.15,
                  batch=3, seed=5, eval_samples=200, eval_batches=2)
    return report.to_dict()


def test_tune_report_matches_golden(table):
    assert table.n_max == TABLE_N
    report = json.loads(json.dumps(_tune_report(table)))
    assert report == json.loads(GOLDEN_TUNE.read_text())


def _write_golden():
    table = build_table(TABLE_N)
    out = {}
    for name, *args in _cases():
        mixture, ledger = _run(table, *args)
        out[name] = {"mixture": mixture, "ledger": ledger}
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
    GOLDEN_TUNE.write_text(json.dumps(_tune_report(table), indent=1) + "\n")


if __name__ == "__main__":
    _write_golden()
