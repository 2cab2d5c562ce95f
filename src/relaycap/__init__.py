"""Rates, bounds, and capacities for state-dependent orthogonal relay channels.

The destination knows the i.i.d. state driving all three component channels;
the source and relay do not. The package evaluates the closed-form
cut-set / decode-and-forward / compress-and-forward / partial-decode-compress
expressions for the binary, parallel binary, and Gaussian multihop examples,
and numerically maximises the general single-letter capacity expression for
small discrete models.
"""

from .errors import (
    DomainError,
    RelaycapError,
    SolverError,
    UsageError,
    ValidationError,
)
from .info import (
    JointPmf,
    Pmf,
    binary_entropy,
    conditional_mutual_information,
    entropy,
    f_bound_bsc,
    inv_binary_entropy,
    mutual_information,
    star,
)
from .models import (
    BinaryMrcd,
    DiscreteOrcd,
    GaussianMrcd,
    LinkCapacities,
    ParallelBinaryMrcd,
    as_discrete,
    channel_capacity,
    dump_model,
    embed_binary,
    embed_parallel_binary,
    link_capacities,
    load_model,
    model_from_dict,
    model_to_dict,
    reduce_to_mrcd,
)
from .rates import (
    RateCurve,
    RatePoint,
    binary_capacity_pz_half,
    binary_cf,
    binary_cutset,
    binary_df,
    binary_pdcf,
    g_alpha,
    gaussian_G,
    gaussian_cf,
    gaussian_cutset,
    gaussian_df,
    gaussian_pdcf,
    parallel_binary_cf,
    parallel_binary_cutset,
    parallel_binary_df,
    parallel_binary_pdcf,
    sweep,
)
from .solver import (
    AuxiliaryScheme,
    SolveConfig,
    SolveReport,
    brute_force_capacity,
    classify_cutset_tightness,
    cutset_discrete,
    objective,
    report_to_dict,
    solve_capacity,
)

__version__ = "0.1.0"
