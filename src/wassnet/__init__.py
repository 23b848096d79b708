"""Certified Gaussian-mixture approximation of stochastic neural networks.

The package approximates the output distribution of a finite stochastic
network (mean-field Gaussian weights and/or dropout) over a finite input set
by a Gaussian mixture, certifies the approximation with a computable upper
bound on the 2-Wasserstein distance, and tunes weight priors toward a target
Gaussian process by descending that bound.
"""

from .config import TOL, Tolerances
from .errors import FixedPointError, NumericalError, ParseError, WassnetError
from .stats import (DiscreteDistribution, EigenBasis, Gaussian,
                    GaussianMixture, as_mixture, gaussian_w2,
                    gaussian_w2_sq_matrix, mixture_second_moment, psd_sqrt,
                    standard_truncated_moments, symmetric_eig)
from .quantizer import (ComponentCells, GridAllocation, Quantizer1D,
                        QuantizerTable, Signature,
                        activation_signature_w2_bound, allocate_grid,
                        build_table, signature_of_gaussian,
                        signature_of_mixture, solve_quantizer_1d)
from .transport import (TransportPlan, empirical_w2, mw2, relative_w2,
                        solve_discrete_ot)
from .mixtures import CompressionResult, compress_dropout, compress_gmm
from .snn import (Activation, BoundLedger, DeterministicLinear, Dropout,
                  LedgerRecord, PropagationConfig, SnnModel, StochasticLinear,
                  expected_spectral_bound,
                  push_point_through_stochastic_linear, propagate,
                  sample_network)
from .priortune import (GpTarget, LossParts, PriorParams, TuneReport,
                        apply_params, gp_realize, params_for_template,
                        parse_gp_spec, tune, tune_loss)

__version__ = "0.1.0"
