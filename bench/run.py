"""wassnet benchmark: time to a certificate, its tightness, and tuning time.

    python3 bench/run.py --workload deep --seed 1 --seconds 55 --trace 0

Workloads (schedules in ``workloads.py``):

* ``deep``: ``propagate`` on MLPs with 2-3 stochastic hidden layers,
  where mixture compression dominates;
* ``tune``: in-process ``wassnet tune-prior`` on zero-mean templates;
* ``wide``: ``propagate`` on one hidden layer of width 64-128, where the
  dense covariance build and its signature dominate.  Not listed in
  ``BENCHMARK.json``: three scored workloads do not fit the runs' time
  limit at a run length that steadies ``deep``; run it by hand.

One process runs one op at a time (a closed loop with one client) on one
BLAS thread, cycling through a seeded pool of distinct instances until the
ops have taken ``--seconds`` and every instance ran once.  Each op is
checked right after it returns, with the clock stopped, and its output is
then dropped: every ledger must replay, mixtures must have dimension D*out
and simplex weights, tune-prior must exit 0 with final <= initial loss,
instance 0 must reproduce byte for byte, and on a seeded subset the
certified bound must dominate the empirical W2 at 1000 samples per side.
A failed check counts as a failed op and makes the command exit 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and then with every public function of the package wrapped
in a span (``tracing.py``), and reports the per-layer metrics and the
tracing overhead; the spans go to ``.bench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread (never more than nproc): ops multiply small matrices one
# at a time, so more threads add scheduling noise rather than speed.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
# pool = this many rounds of the workload's class schedule, sized so that
# one round of the pool fits in a run
POOL_PASSES = {"deep": 8, "wide": 16, "tune": 2}
SOUNDNESS_CHECKS = 3
SOUNDNESS_SAMPLES = 1000
LEDGER_DEPTH = 4
TERMS = ("spectral_term", "signature_term", "compression_term")


def geomean(values) -> float:
    """Geometric mean; 0 when empty or when any value is 0."""
    values = list(values)
    if not values or min(values) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wassnet").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for entry in (git / "packed-refs").read_text().splitlines():
            if entry.endswith(" " + name):
                return entry.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """What a run keeps of its ops: failures and the per-instance values
    the metrics need, taken from each instance's first op."""

    def __init__(self):
        self.attempted = 0
        self.messages = []
        self.bounds = {}
        self.losses = {}
        self.ratios = {}
        self.sentinel = []  # fingerprints of instance 0's first two ops

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.messages.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.messages)


# ---------------------------------------------------------------------------
# workload runners: set-up, one op, and what is checked and kept of it
# ---------------------------------------------------------------------------

class PropagateRunner:
    """``deep`` and ``wide``: one op is one ``propagate`` call."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed

    def setup(self):
        import numpy as np
        from wassnet.quantizer import build_table
        from wassnet.snn import PropagationConfig
        from workloads import instances

        table = build_table(self.wl.table_n)
        self.pool = instances(self.wl, self.seed, POOL_PASSES[self.wl.name])
        self.cfgs = [PropagationConfig(table=table,
                                       signature_budget=self.wl.budget,
                                       compression_size=self.wl.m,
                                       seed=inst.seed)
                     for inst in self.pool]
        rng = np.random.default_rng((self.seed, 7))
        self.sound = {int(i) for i in rng.choice(len(self.pool),
                                                 SOUNDNESS_CHECKS,
                                                 replace=False)}

    def op(self, i):
        import wassnet.snn
        inst = self.pool[i]
        return wassnet.snn.propagate(inst.model, inst.points, self.cfgs[i])

    @staticmethod
    def fingerprint(i, out) -> str:
        approx, ledger = out
        return json.dumps([approx.to_dict(), ledger.to_dict()])

    def observe(self, i, out, tally: Tally, first: bool):
        """Ledger replay, output dimension and simplex weights; on the
        soundness subset, the bound against the empirical W2."""
        approx, ledger = out
        inst = self.pool[i]
        what = f"op on instance {i} ({inst.label})"
        try:
            replay = ledger.audit()
        except Exception as exc:  # any audit failure is a failed op
            return tally.check(False, f"{what}: audit raised {exc!r}")
        dim = inst.points.shape[0] * inst.model.output_dim
        w = approx.weights
        tally.check(replay == ledger.final_bound and approx.dim == dim
                    and bool((w >= 0.0).all())
                    and abs(float(w.sum()) - 1.0) <= 1e-9,
                    f"{what}: replay {replay} vs bound {ledger.final_bound}, "
                    f"dim {approx.dim} vs {dim}, weight sum {float(w.sum())}")
        if first:
            tally.bounds[i] = ledger.final_bound
            if i in self.sound:
                tally.ratios[i] = self.soundness(i, approx, ledger, tally)

    def soundness(self, i, approx, ledger, tally: Tally) -> float:
        """Empirical W2 at 1000 samples per side must not exceed the
        certified bound; returns the tightness bound / empirical."""
        import numpy as np
        from wassnet.snn import sample_network
        from wassnet.transport import empirical_w2

        inst = self.pool[i]
        xs = sample_network(inst.model, inst.points, SOUNDNESS_SAMPLES,
                            inst.seed)
        ys = approx.sample(SOUNDNESS_SAMPLES,
                           np.random.default_rng((inst.seed, 1)))
        emp = empirical_w2(xs, ys)
        tally.check(emp <= ledger.final_bound,
                    f"soundness on instance {i} ({inst.label}): empirical "
                    f"W2 {emp} > bound {ledger.final_bound}")
        return ledger.final_bound / emp

    def close(self):
        pass


class TuneRunner:
    """``tune``: one op is one in-process ``wassnet tune-prior`` call."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="tune-", dir=OUT))

    def setup(self):
        from wassnet.priortune import gp_realize, parse_gp_spec
        from wassnet.quantizer import build_table
        from workloads import TUNE_ARGS, TUNE_GP, instances

        table_path = self.dir / "table.json"
        build_table(self.wl.table_n).save(table_path)
        self.pool = instances(self.wl, self.seed, POOL_PASSES[self.wl.name])
        self.argv = []
        self.gp_rms = []
        for i, inst in enumerate(self.pool):
            arch = self.dir / f"arch-{i}.json"
            points = self.dir / f"points-{i}.json"
            arch.write_text(json.dumps(inst.model.to_dict()))
            points.write_text(json.dumps(inst.points.tolist()))
            self.argv.append([
                "tune-prior", "--arch", str(arch), "--gp", TUNE_GP,
                "--points", str(points), *TUNE_ARGS,
                "--budget", str(self.wl.budget), "--m", str(self.wl.m),
                "--table", str(table_path), "--seed", str(inst.seed),
                "--out", str(self.dir / f"out-{i}.json")])
            gp = gp_realize(parse_gp_spec(TUNE_GP, inst.points))
            self.gp_rms.append(math.sqrt(gp.cov_trace()))

    def op(self, i):
        """Exit code and log of one tune-prior run."""
        import wassnet.cli
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = wassnet.cli.main(self.argv[i])
        return code, log.getvalue()

    def fingerprint(self, i, out) -> str:
        report = self.dir / f"out-{i}.json"
        return json.dumps([out[0], report.read_text(),
                           report.with_suffix(".model.json").read_text()])

    def observe(self, i, out, tally: Tally, first: bool):
        """Exit 0, parseable report and model, final <= initial loss."""
        code, log = out
        what = f"op on instance {i} ({self.pool[i].label})"
        report = self.dir / f"out-{i}.json"
        try:
            if code != 0:
                raise ValueError(f"exit code {code}: {log.strip()}")
            json.loads(report.with_suffix(".model.json").read_text())
            report = json.loads(report.read_text())
        except (OSError, ValueError) as exc:
            return tally.check(False, f"{what}: {exc}")
        tally.check(report["final_loss"] <= report["initial_loss"],
                    f"{what}: final loss {report['final_loss']} above "
                    f"initial {report['initial_loss']}")
        if first:
            # certified W2 between tuned network and GP: the reported
            # relative bound times the GP's root second moment
            tally.bounds[i] = report["relative_formal"] * self.gp_rms[i]
            tally.losses[i] = report["final_loss"]
            tally.ratios[i] = (report["relative_formal"]
                               / report["relative_empirical"])

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# timed loop
# ---------------------------------------------------------------------------

def timed_op(op, i, tally: Tally):
    """One op and its wall time; a raising op is a failed op."""
    t0 = perf_counter()
    try:
        out = op(i)
    except Exception:  # keep measuring; the failure is reported
        out = None
        tally.check(False, f"op on instance {i} raised:\n"
                    + traceback.format_exc())
    return out, perf_counter() - t0


def observe(runner, i, out, tally: Tally, first: bool):
    """Check one op's output with the clock stopped."""
    if out is None:
        return
    try:
        runner.observe(i, out, tally, first)
        if i == 0 and len(tally.sentinel) < 2:
            tally.sentinel.append(runner.fingerprint(i, out))
    except Exception:  # a check that raises is a failed check
        tally.check(False, f"check of instance {i} raised:\n"
                    + traceback.format_exc())


def run_loop(runner, seconds, tally: Tally, tracer=None):
    """Closed loop over the pool until the ops took ``seconds`` and every
    pool instance ran once.

    With a tracer each op runs twice, untraced and then traced, so the
    pair shows the tracing overhead with the machine's drift cancelled;
    calls, counters and kept results cover the first pass of the pool.
    Returns the untraced and the traced latencies."""
    n_pool = len(runner.pool)
    lat, lat_traced = [], []
    busy = 0.0
    for k in itertools.count():
        i = k % n_pool
        out, dt = timed_op(runner.op, i, tally)
        lat.append(dt)
        busy += dt
        observe(runner, i, out, tally, k < n_pool)
        if tracer is not None:
            tracer.counting = k < n_pool
            tracer.install()
            try:
                out, dt = timed_op(lambda i: tracer.op(k, runner.op, i), i,
                                   tally)
            finally:
                tracer.uninstall()
                tracer.counting = False
            lat_traced.append(dt)
            busy += dt
            observe(runner, i, out, tally, False)
        if busy >= seconds and k + 1 >= n_pool:
            return lat, lat_traced


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def record(args, ops):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "src_sha256": source_digest(), "ops": ops}


def line(name, value, unit, note=""):
    print(f"{name:<52} {value:>14.6g} {unit:<7} {note}".rstrip())


def end_to_end(setup_s, lat, rss_mb, tally: Tally):
    n = len(lat)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    metrics = {
        "ops_per_s": (n / sum(lat), "ops/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (p90, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "bound_geomean": (geomean(tally.bounds.values()), "W2"),
    }
    notes = {
        "ops_per_s": f"{n} ops in {sum(lat):.2f} s",
        "latency_p50_s": f"n={n}",
        "latency_p90_s": f"n={n}, {sum(x > p90 for x in lat)} beyond",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes",
        "bound_geomean": f"{len(tally.bounds)} pool instances",
    }
    for name, (value, unit) in metrics.items():
        line(name, value, unit, notes.get(name, ""))
    line("failed_frac", tally.failed / tally.attempted, "ratio",
         f"{tally.failed}/{tally.attempted}")
    if tally.losses:
        line("tune_loss_geomean", geomean(tally.losses.values()), "loss",
             f"{len(tally.losses)} pool instances")
    line("ledger.tightness", geomean(tally.ratios.values()), "ratio",
         f"{len(tally.ratios)} instances")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(tracer, lat, lat_traced, tally: Tally):
    """Per-layer metrics from the traced ops."""
    from tracing import LAYERS, OP, PROBES
    times = tracer.times()
    op_s = times[OP][0]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    print(f"{'span':<44} {'calls':>8} {'incl_s':>10} {'self_s':>10} "
          f"{'share':>7} {'self':>7}")
    for p in PROBES:
        incl, own = times[p.name]
        print(f"{p.name:<44} {tracer.calls[p.name]:>8} {incl:>10.4f} "
              f"{own:>10.4f} {incl / op_s:>7.3f} {own / op_s:>7.3f}")
        put(f"{p.name}.calls", tracer.calls[p.name], "count")
        put(f"{p.name}.share", incl / op_s, "ratio")
        put(f"{p.name}.self_share", own / op_s, "ratio")
        for c in p.counters:
            put(f"{p.name}.{c}", tracer.counters[(p.name, c)],
                "bytes" if c == "cov_bytes" else "count")
    for layer in LAYERS:
        own = sum(times[p.name][1] for p in PROBES if p.module == layer)
        put(f"layer.{layer}.self_share", own / op_s, "ratio")
    ledgers = tracer.kept["snn.propagate"]
    for k in range(1, LEDGER_DEPTH + 1):
        recs = [r for ledger in ledgers for r in ledger.records if r.k == k]
        for term in TERMS:
            put(f"ledger.k{k}.{term}",
                geomean(getattr(r, term) for r in recs), "W2")
    put("ledger.tightness", geomean(tally.ratios.values()), "ratio")
    put("priortune.final_loss_geomean", geomean(tally.losses.values()),
        "loss")
    untraced, traced = len(lat) / sum(lat), len(lat_traced) / sum(lat_traced)
    put("trace.op_s", op_s, "s")
    put("trace.untraced_ops_per_s", untraced, "ops/s")
    put("trace.ops_per_s", traced, "ops/s")
    put("trace.overhead_ops_per_s", untraced - traced, "ops/s")
    probe_names = tuple(p.name + "." for p in PROBES)
    for name, m in metrics.items():
        if not name.startswith(probe_names):
            line(name, m["value"], m["unit"])
    return metrics


def ladder():
    """The ROADMAP baseline ladder, untraced and unscored."""
    import wassnet.snn
    from wassnet.quantizer import build_table
    from wassnet.snn import PropagationConfig
    from workloads import ladder as rows

    cfg = PropagationConfig(table=build_table(10), signature_budget=10,
                            compression_size=5, seed=0)
    for inst in rows():
        t0 = perf_counter()
        _, ledger = wassnet.snn.propagate(inst.model, inst.points, cfg)
        print(f"ladder {inst.label:<24} time {perf_counter() - t0:9.4f} s"
              f"  bound {ledger.final_bound:.6g}")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("deep", "wide", "tune"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up (import, table, instances) and exit
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_package():
    """Import wassnet from this checkout's src/ on one BLAS thread."""
    if not (SRC / "wassnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no wassnet package under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import wassnet
    import wassnet.cli  # noqa: F401  (the tune workload's entry point)
    if Path(wassnet.__file__).resolve().parent != (SRC / "wassnet").resolve():
        raise SystemExit(f"error: imported wassnet from {wassnet.__file__}")


def setup_in_child(args) -> float:
    """Set-up time as a fresh process pays it: import, table, instances."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-only"], capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    start = perf_counter()
    args = parse_args(argv)
    load_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    runner = (TuneRunner if wl.name == "tune" else PropagateRunner)(
        wl, args.seed)
    try:
        runner.setup()
        if args.setup_only:
            print(json.dumps({"setup_s": perf_counter() - start}))
            return 0
        if not args.trace:
            setup_s = statistics.median(setup_in_child(args)
                                        for _ in range(SETUP_REPEATS))

        tally = Tally()
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        # warm-up: lazy imports and first-call caches, outside the clock
        observe(runner, 0, timed_op(runner.op, 0, tally)[0], tally, False)
        lat, lat_traced = run_loop(runner, args.seconds, tally, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(tally.sentinel) < 2:
            observe(runner, 0, timed_op(runner.op, 0, tally)[0], tally,
                    False)
        tally.check(len(tally.bounds) == len(runner.pool),
                    "some pool instance has no checked output")
        tally.check(len(tally.sentinel) == 2
                    and tally.sentinel[0] == tally.sentinel[1],
                    "instance 0 did not reproduce byte for byte")
    finally:
        runner.close()

    print("record " + json.dumps(record(args, len(lat) + len(lat_traced))))
    if args.trace:
        metrics = per_layer(tracer, lat, lat_traced, tally)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
        import numpy as np
        np.savez(spans, **tracer.arrays())
        print(f"spans written to {spans.relative_to(ROOT)}")
        if wl.name == "deep":
            ladder()
    else:
        metrics = end_to_end(setup_s, lat, rss_mb, tally)

    for message in tally.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
