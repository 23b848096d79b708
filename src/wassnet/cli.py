"""Command-line surface for the approximation pipeline.

Subcommands cover quantizer-table building, certified network approximation,
empirical validation, mixture-distance queries, prior tuning, and markdown
report rendering.  Every command is deterministic given its flags (including
``--seed``); results go to stdout or the named output files, logs to stderr.

Exit codes: 0 success, 2 usage error, 3 input parse error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import TOL
from .errors import NumericalError, ParseError
from .priortune import apply_params, parse_gp_spec, tune
from .quantizer import QuantizerTable, build_table
from .snn import (BoundLedger, PropagationConfig, SnnModel, propagate,
                  sample_network)
from .stats import GaussianMixture, _eigen_bases, as_mixture
from .transport import empirical_w2, mw2, relative_w2

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_PARSE = 3
_EXIT_NUMERICAL = 4


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") \
            from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be at least 1")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from exc
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"{value} must be finite and >= 0")
    return value


def _positive_float(text: str) -> float:
    value = _nonnegative_float(text)
    if value == 0.0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON file {path}: {exc}") from exc


def _write_json(obj, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _load_points(path: str) -> np.ndarray:
    """Input points: a JSON array of rows, or a CSV file (one row per line)."""
    if path.endswith(".csv"):
        try:
            points = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ParseError(f"cannot read points CSV {path}: {exc}") from exc
    else:
        try:
            points = np.asarray(_read_json(path), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"cannot read points JSON {path}: {exc}") \
                from exc
    points = np.atleast_2d(points)
    if points.ndim != 2 or points.size == 0 or not np.all(
            np.isfinite(points)):
        raise ParseError(f"points file {path} must hold a finite 2-D array")
    return points


def _load_model(path: str) -> SnnModel:
    return SnnModel.from_dict(_read_json(path))


def _load_mixture(path: str) -> GaussianMixture:
    """A mixture file, with every covariance decomposed: one that is not
    PSD within tolerance raises :class:`NumericalError` here, since ``mw2``
    decomposes only its column side."""
    mixture = GaussianMixture.from_dict(_read_json(path))
    _eigen_bases(mixture.components)
    return mixture


def _resolve_table(path: str, budget: int) -> QuantizerTable:
    """Explicit flag, then WASSNET_TABLE, then an on-demand build."""
    if path:
        return QuantizerTable.load(path)
    env = os.environ.get("WASSNET_TABLE")
    if env:
        return QuantizerTable.load(env)
    _log(f"no quantizer table given; building one for N<={budget}")
    return build_table(budget)


def _relative_or_none(value: float, reference):
    """``relative_w2``, or None when the reference has zero second moment
    (a point mass at the origin)."""
    try:
        return relative_w2(value, reference)
    except ParseError:
        return None


def cmd_quantizer_build(args) -> int:
    table = build_table(args.max_n)
    table.save(args.out)
    _log(f"wrote quantizer table with entries 1..{table.n_max} to {args.out}")
    return _EXIT_OK


def cmd_approximate(args) -> int:
    model = _load_model(args.model)
    points = _load_points(args.points)
    table = _resolve_table(args.table, args.budget)
    cfg = PropagationConfig(table=table, signature_budget=args.budget,
                            compression_size=args.m, seed=args.seed)
    approx, ledger = propagate(model, points, cfg)
    relative = _relative_or_none(ledger.final_bound, approx)
    _write_json(as_mixture(approx).to_dict(), args.out_gmm)
    artifact = {
        "model": args.model,
        "input_set_size": ledger.input_set_size,
        "budget": args.budget,
        "m": args.m,
        "seed": args.seed,
        "formal_bound": ledger.final_bound,
        "relative_formal_bound": relative,
        "ledger": ledger.to_dict(),
    }
    _write_json(artifact, args.out_ledger)
    print(f"formal_bound={ledger.final_bound!r}")
    print(f"relative_formal_bound={relative!r}")
    return _EXIT_OK


def cmd_empirical(args) -> int:
    model = _load_model(args.model)
    points = _load_points(args.points)
    mixture = _load_mixture(args.gmm)
    expected_dim = points.shape[0] * model.output_dim
    if mixture.dim != expected_dim:
        raise ParseError(
            f"mixture dimension {mixture.dim} does not match the model "
            f"output over the point set ({expected_dim})")
    if args.samples * args.samples > TOL.empirical_cost_cap:
        raise ParseError(
            f"{args.samples} samples per side need a cost matrix above the "
            f"cap {TOL.empirical_cost_cap}; reduce --samples")
    net_samples = sample_network(model, points, args.samples, args.seed)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 1)))
    mixture_samples = mixture.sample(args.samples, rng)
    value = empirical_w2(net_samples, mixture_samples)
    relative = _relative_or_none(value, mixture)
    print(f"empirical_w2={value!r}")
    print(f"relative_w2={relative!r}")
    return _EXIT_OK


def cmd_mw2(args) -> int:
    a = _load_mixture(args.gmm_a)
    b = _load_mixture(args.gmm_b)
    value, plan = mw2(a, b)
    print(f"mw2={value!r}")
    if args.out_plan:
        _write_json({"value": value, "plan": plan.plan.tolist(),
                     "squared_cost": plan.cost}, args.out_plan)
    return _EXIT_OK


def cmd_tune_prior(args) -> int:
    template = _load_model(args.arch)
    points = _load_points(args.points)
    target = parse_gp_spec(args.gp, points)
    table = _resolve_table(args.table, args.budget)
    cfg = PropagationConfig(table=table, signature_budget=args.budget,
                            compression_size=args.m, seed=args.seed)
    report = tune(template, target, cfg, beta=args.beta, steps=args.steps,
                  step_size=args.step_size, batch=args.batch, seed=args.seed)
    _write_json(report.to_dict(), args.out)
    out_model = args.out_model
    if out_model is None:
        root, ext = os.path.splitext(args.out)
        out_model = root + ".model" + (ext or ".json")
    _write_json(apply_params(template, report.params).to_dict(), out_model)
    print(f"initial_loss={report.initial_loss!r}")
    print(f"final_loss={report.final_loss!r}")
    print(f"relative_empirical={report.relative_empirical!r}")
    print(f"relative_formal={report.relative_formal!r}")
    return _EXIT_OK


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _check_stored(path: str, key: str, stored, replay: float) -> None:
    if type(stored) not in (int, float) or stored != replay:
        raise ParseError(f"ledger file {path}: stored {key} {stored!r} "
                         f"is not the replayed {replay!r}")


def _audited_final_bound(path: str, ledger) -> float:
    """The replayed bound of a ledger if it reproduces the stored
    ``final_bound``; otherwise a ParseError naming ``path``."""
    try:
        replay = BoundLedger.from_dict(ledger).audit()
        stored = ledger["final_bound"]
    except (ParseError, KeyError, TypeError) as exc:
        raise ParseError(f"malformed ledger file {path}: {exc}") from exc
    _check_stored(path, "final_bound", stored, replay)
    return replay


def cmd_report(args) -> int:
    rows = []
    for path in args.ledger:
        data = _read_json(path)
        # a bare ledger file lacks the wrapper metadata
        meta = data if isinstance(data, dict) and "ledger" in data else {}
        ledger = meta.get("ledger", data)
        final_bound = _audited_final_bound(path, ledger)
        if meta:
            _check_stored(path, "formal_bound", meta.get("formal_bound"),
                          final_bound)
        rows.append({
            "model": meta.get("model", path),
            "d": ledger["input_set_size"],
            "budget": meta.get("budget"),
            "m": meta.get("m"),
            "formal": final_bound,
        })
    print("| model | D | budget | M | formal |")
    print("| --- | --- | --- | --- | --- |")
    for row in rows:
        cells = [_format_cell(row[k])
                 for k in ("model", "d", "budget", "m", "formal")]
        print("| " + " | ".join(cells) + " |")
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wassnet",
        description="Gaussian-mixture approximation of stochastic networks "
                    "with certified 2-Wasserstein bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantizer-build",
                       help="build the 1-D quantizer lookup table")
    p.add_argument("--max-n", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantizer_build)

    p = sub.add_parser("approximate",
                       help="propagate a model over input points with a "
                            "certified bound")
    p.add_argument("--model", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--budget", type=_positive_int, default=10)
    p.add_argument("--m", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--table", default=None)
    p.add_argument("--out-gmm", required=True)
    p.add_argument("--out-ledger", required=True)
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("empirical",
                       help="Monte Carlo distance between a model and a "
                            "mixture file")
    p.add_argument("--model", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--gmm", required=True)
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_empirical)

    p = sub.add_parser("mw2", help="mixture-level W2 between two GMM files")
    p.add_argument("--gmm-a", required=True)
    p.add_argument("--gmm-b", required=True)
    p.add_argument("--out-plan", default=None)
    p.set_defaults(func=cmd_mw2)

    p = sub.add_parser("tune-prior",
                       help="fit weight-prior variances to a GP target")
    p.add_argument("--arch", required=True)
    p.add_argument("--gp", required=True,
                   help="target spec, e.g. rbf:ls=0.5,var=1.0")
    p.add_argument("--points", required=True)
    p.add_argument("--beta", type=_nonnegative_float,
                   default=TOL.beta_default)
    p.add_argument("--steps", type=_positive_int, default=20)
    p.add_argument("--batch", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-size", type=_positive_float,
                   default=TOL.step_size_default)
    p.add_argument("--budget", type=_positive_int, default=10)
    p.add_argument("--m", type=_positive_int, default=1)
    p.add_argument("--table", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--out-model", default=None)
    p.set_defaults(func=cmd_tune_prior)

    p = sub.add_parser("report",
                       help="render ledger files as a markdown table")
    p.add_argument("--ledger", nargs="*", default=[])
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else _EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        _log(f"error: {exc}")
        return _EXIT_PARSE
    except NumericalError as exc:
        _log(f"numerical failure: {exc}")
        return _EXIT_NUMERICAL
    except OSError as exc:
        _log(f"error: {exc}")
        return _EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
