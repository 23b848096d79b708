"""Seeded instances for the three benchmark workloads.

Every workload is a fixed schedule of network classes (architecture,
activation, dropout, input-set size).  The seed draws everything inside a
class: weight means, input points and the propagation seed.  Keeping the
class schedule fixed means runs on different seeds do the same kind of work
in the same order, so their timings can be compared; the seed still changes
every number the program sees.

All networks use NTK scaling and weight/bias variance 0.05, like the
baseline ladder in ROADMAP.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wassnet.snn import Activation, Dropout, SnnModel, StochasticLinear

VARIANCE = 0.05
KEEP_PROB = 0.9


@dataclass(frozen=True)
class NetClass:
    widths: tuple
    activation: str
    dropout: bool
    points: int


@dataclass(frozen=True)
class Instance:
    """One op's inputs: a network, its input points and a seed."""

    label: str
    model: SnnModel
    points: np.ndarray
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    budget: int
    m: int
    table_n: int
    classes: tuple


def net(widths, activation, points, dropout=False):
    return NetClass(tuple(widths), activation, dropout, points)


# 2-3 stochastic hidden layers of width 8-16 on 2-4 points.  Every hidden
# layer after the first compresses a mixture (compress_gmm -> mw2 ->
# gaussian_w2 -> psd_sqrt), and the bound grows fastest with depth.  Half
# the nets are ReLU; a third of those carry Dropout(0.9), whose mask
# expansion multiplies the mixture that the next compression sees.  The
# three slowest classes fill the top quarter of ops, so p90 falls among
# many draws rather than on the edge of one class; five classes of like
# middle cost fill the band from the third to the three-quarter mark, so
# p50 falls inside that band rather than on the edge of the cheap classes.
DEEP = Workload("deep", budget=10, m=5, table_n=10, classes=(
    net((1, 8, 8, 1), "tanh", 2),
    net((1, 12, 12, 1), "relu", 3),
    net((2, 16, 16, 16, 1), "tanh", 3),
    net((1, 12, 12, 1), "relu", 3, dropout=True),
    net((1, 12, 12, 12, 1), "tanh", 3),
    net((1, 8, 12, 1), "relu", 4),
    net((1, 12, 12, 1), "tanh", 3),
    net((2, 8, 8, 8, 1), "relu", 2),
    net((1, 16, 16, 1), "tanh", 4),
    net((2, 12, 8, 1), "relu", 2, dropout=True),
    net((1, 12, 8, 8, 1), "tanh", 2),
    net((1, 16, 16, 1), "relu", 4),
))

# One hidden layer of width 64-128 on 8-12 points: compression never has
# more than M components, so no mw2 runs.  The time goes to the dense
# (D n)^2 covariance of the first layer and to the eigen-split of that
# matrix in signature_of_mixture.
WIDE = Workload("wide", budget=32, m=5, table_n=32, classes=(
    net((1, 64, 1), "tanh", 8),
    net((2, 96, 1), "relu", 10),
    net((1, 128, 1), "relu", 12, dropout=True),
    net((2, 128, 1), "tanh", 10),
    net((1, 96, 1), "relu", 8),
    net((2, 64, 1), "relu", 12, dropout=True),
    net((1, 96, 1), "tanh", 12),
    net((2, 128, 1), "relu", 8),
))

# Zero-mean templates for tune-prior: the only workload that runs the
# tuner, the CLI, network sampling and empirical W2.  Two of the six
# templates have two hidden layers and cost about half again as much, so
# the median op is a one-layer template and p90 a two-layer one.
TUNE = Workload("tune", budget=10, m=2, table_n=10, classes=(
    net((1, 8, 1), "tanh", 8),
    net((1, 16, 16, 1), "relu", 6),
    net((1, 16, 1), "relu", 10),
    net((1, 8, 1), "relu", 6),
    net((1, 8, 8, 1), "tanh", 8),
    net((1, 16, 1), "tanh", 6),
))

WORKLOADS = {w.name: w for w in (DEEP, WIDE, TUNE)}

TUNE_GP = "rbf:ls=0.5,var=1.0"
TUNE_ARGS = ("--steps", "3", "--batch", "4")


def mlp(rng, widths, activation, dropout=False, zero_mean=False):
    """Stochastic MLP with N(0, 1) weight means (or zero means) and zero
    bias means; every hidden layer is followed by the activation and, when
    asked, by Dropout(0.9)."""
    layers = []
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        mean = np.zeros((n_out, n_in)) if zero_mean \
            else rng.normal(0.0, 1.0, (n_out, n_in))
        layers.append(StochasticLinear(
            mean, np.full((n_out, n_in), VARIANCE),
            np.zeros(n_out), np.full(n_out, VARIANCE), ntk_scaling=True))
        if i < len(widths) - 2:
            layers.append(Activation(activation))
            if dropout:
                layers.append(Dropout(KEEP_PROB))
    return SnnModel(widths[0], tuple(layers))


def latin_hypercube(rng, n, dim):
    """``n`` points in [-1, 1]^dim, one in each of ``n`` equal slices of
    every axis: seeded, but never clumped, so the work and the bound of an
    instance vary less from seed to seed than with i.i.d. points."""
    u = (rng.permuted(np.tile(np.arange(n), (dim, 1)), axis=1).T
         + rng.uniform(size=(n, dim))) / n
    return 2.0 * u - 1.0


def label(cls: NetClass) -> str:
    arch = "-".join(str(w) for w in cls.widths)
    drop = "+dropout" if cls.dropout else ""
    return f"{cls.activation}{drop} {arch} D{cls.points}"


def instances(workload: Workload, seed: int, passes: int):
    """``passes`` rounds of the class schedule, each class with its own
    seeded draw."""
    out = []
    for p in range(passes):
        for i, cls in enumerate(workload.classes):
            rng = np.random.default_rng(
                np.random.SeedSequence((int(seed), p, i)))
            tuning = workload is TUNE
            model = mlp(rng, cls.widths, cls.activation, cls.dropout,
                        zero_mean=tuning)
            points = latin_hypercube(rng, cls.points, cls.widths[0])
            if tuning:
                points = np.sort(2.0 * points, axis=0)
            out.append(Instance(label(cls), model, points,
                                int(rng.integers(2 ** 31))))
    return out


# ROADMAP baseline ladder: tanh MLPs, D points, budget 10, M 5, seed 0.
# Each row draws its weight means and then its points from
# default_rng(0), which reproduces the ROADMAP's 1-16-1 bound.
LADDER = (((1, 16, 1), 5), ((1, 32, 32, 1), 5), ((1, 64, 64, 1), 10),
          ((2, 32, 32, 32, 1), 8))


def ladder():
    out = []
    for widths, d in LADDER:
        rng = np.random.default_rng(0)
        model = mlp(rng, widths, "tanh")
        points = rng.uniform(-1.0, 1.0, (d, widths[0]))
        out.append(Instance(label(net(widths, "tanh", d)), model, points,
                            0))
    return out
