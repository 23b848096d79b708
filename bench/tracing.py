"""Spans around calls into wassnet's public functions, recorded from outside.

wassnet's modules bind what they call with ``from .x import f``, so a
wrapper must replace the name in every *calling* module, not only in the
defining one: ``compress_gmm`` is looked up in ``wassnet.snn``, ``mw2`` in
``wassnet.mixtures``, ``gaussian_w2`` in ``wassnet.transport`` and
``psd_sqrt`` in ``wassnet.stats`` itself.  :class:`Tracer` finds every
module-level binding of each probed function in the package and replaces
it, so a new caller is covered without editing this file.

Spans (name, start, end, parent, op) are kept in flat arrays while the
benchmark runs and written out at the end.  Counters are computed from
argument and result shapes only, so they repeat exactly for the same
instances.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import wassnet


def _mixture_size(g) -> int:
    return getattr(g, "size", 1)


@dataclass(frozen=True)
class Probe:
    """A public function to wrap, with the counters computed per call.

    ``count(args, result)`` returns one value per name in ``counters``;
    ``keep(result)``, when given, is what the tracer keeps of each result.
    """

    module: str       # defining module, without the package prefix
    function: str
    counters: tuple = ()
    count: object = None
    keep: object = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


# The package's layers, outermost first.
LAYERS = ("cli", "priortune", "snn", "mixtures", "quantizer", "transport",
          "stats")

PROBES = (
    Probe("cli", "main"),
    Probe("priortune", "tune"),
    Probe("priortune", "tune_loss"),
    Probe("snn", "propagate", keep=lambda r: r[1]),  # the ledger
    Probe("snn", "sample_network", ("samples",),
          lambda a, r: (r.shape[0],)),
    Probe("snn", "push_point_through_stochastic_linear", ("cov_bytes",),
          lambda a, r: (r.cov.nbytes,)),
    Probe("mixtures", "compress_gmm", ("components_in", "components_out"),
          lambda a, r: (_mixture_size(a[0]), r.compressed.size)),
    Probe("mixtures", "compress_dropout", ("atoms_out",),
          lambda a, r: (r[0].size,)),
    Probe("quantizer", "signature_of_mixture", ("atoms_out",),
          lambda a, r: (r[0].size,)),
    Probe("quantizer", "activation_signature_w2_bound"),
    Probe("transport", "mw2", ("pairs",), lambda a, r: (r[1].plan.size,)),
    Probe("transport", "empirical_w2", ("entries",),
          lambda a, r: (len(a[0]) * len(a[1]),)),
    Probe("transport", "solve_discrete_ot", ("entries",),
          lambda a, r: (r.plan.size,)),
    Probe("stats", "gaussian_w2"),
    Probe("stats", "psd_sqrt", ("dim3",), lambda a, r: (r.shape[0] ** 3,)),
    Probe("stats", "symmetric_eig", ("dim_max",),
          lambda a, r: (r.eigenvalues.shape[0],)),
)

# counters combined by maximum instead of by sum
MAX_COUNTERS = ("dim_max",)

OP = "op"


def _package_modules():
    return [importlib.import_module(info.name) for info in
            pkgutil.iter_modules(wassnet.__path__, wassnet.__name__ + ".")] \
        + [wassnet]


class Tracer:
    """Records one span per probed call while installed.

    ``op`` opens the root span of one benchmark op.  Calls, counters and
    kept results are accumulated only while ``counting`` is true, so the
    benchmark can restrict them to a fixed set of ops.
    """

    def __init__(self):
        self.names = [OP] + [p.name for p in PROBES]
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._op = -1
        self.counting = False
        self.calls = {p.name: 0 for p in PROBES}
        self.counters = {(p.name, c): 0 for p in PROBES for c in p.counters}
        self.kept = {p.name: [] for p in PROBES if p.keep is not None}
        self._bindings = []

    # -- span recording ---------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as benchmark op ``op_id`` under a root span."""
        self._op = op_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, probe: Probe, name_id: int, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if self.counting:
                self.calls[probe.name] += 1
                if probe.keep is not None:
                    self.kept[probe.name].append(probe.keep(result))
                if probe.count is not None:
                    values = probe.count(args, result)
                    for key, value in zip(probe.counters, values):
                        slot = (probe.name, key)
                        if key in MAX_COUNTERS:
                            self.counters[slot] = max(self.counters[slot],
                                                      int(value))
                        else:
                            self.counters[slot] += int(value)
            return result
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every module-level binding of each probed function."""
        if not self._bindings:
            modules = _package_modules()
            for name_id, probe in enumerate(PROBES, start=1):
                home = importlib.import_module(f"wassnet.{probe.module}")
                original = getattr(home, probe.function)
                wrapper = self._wrap(probe, name_id, original)
                self._bindings += [(module, attr, original, wrapper)
                                   for module in modules
                                   for attr, value in vars(module).items()
                                   if value is original]
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def times(self) -> dict:
        """Per span name: (inclusive seconds, self seconds).

        Self time is a span's duration minus its children's durations;
        children of one span never overlap because calls nest.  No probed
        function calls itself, so summing a name's spans does not count
        any interval twice.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for name_id, label in enumerate(self.names):
            sel = a["name"] == name_id
            out[label] = (float(dur[sel].sum()), float(own[sel].sum()))
        return out
