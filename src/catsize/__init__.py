"""Effective GHZ size of N-qubit cat-like superpositions.

Assigns an effective particle number to states of the form
|phi1>^(x)N + |phi2>^(x)N by three operational criteria -- decoherence-rate
matching, single-copy GHZ distillation, and particle-loss suppression --
with every closed form cross-validated against a dense brute-force oracle.

Importing the package loads only the closed-form library; the oracle, the
validation suite and the CLI are the submodules ``catsize.oracle``,
``catsize.validation`` and ``catsize.cli``.
"""

from .channels import (
    CHANNEL_KINDS,
    DEPHASING,
    DEPOLARIZING,
    ChannelSpec,
    apply_channel,
    singular_values_2x2,
    trace_norm,
)
from .core import (
    CatParams,
    branch_dyad,
    entropy_bits_2x2,
    entropy_s1,
    log_term_overlap,
    normalization_constant,
    phi_vectors,
    reduced_rho1,
    term_overlap,
)
from .decoherence import (
    DecayCurve,
    cat_offdiag_norm,
    decay_curve,
    effective_size_decoherence,
    effective_size_decoherence_fd,
    ghz_offdiag_norm,
)
from .distillation import (
    DistillationBound,
    FilterMeasurement,
    McResult,
    OutcomeDistribution,
    build_filter,
    distillation_bound,
    expected_n,
    outcome_distribution,
    simulate_protocol,
    success_probability,
)
from .loss import (
    LossCurve,
    LossModel,
    cat_loss_suppression,
    effective_size_loss,
    effective_size_loss_fd,
    ghz_loss_suppression,
    loss_curve,
    loss_suppression_diagnostics,
)
from .report import EffectiveSizeReport, build_effective_size_report

__version__ = "0.1.0"

__all__ = [
    "CatParams",
    "ChannelSpec",
    "DecayCurve",
    "DistillationBound",
    "EffectiveSizeReport",
    "FilterMeasurement",
    "LossCurve",
    "LossModel",
    "McResult",
    "OutcomeDistribution",
    "CHANNEL_KINDS",
    "DEPHASING",
    "DEPOLARIZING",
    "apply_channel",
    "branch_dyad",
    "build_effective_size_report",
    "build_filter",
    "cat_loss_suppression",
    "cat_offdiag_norm",
    "decay_curve",
    "distillation_bound",
    "effective_size_decoherence",
    "effective_size_decoherence_fd",
    "effective_size_loss",
    "effective_size_loss_fd",
    "entropy_bits_2x2",
    "entropy_s1",
    "expected_n",
    "ghz_loss_suppression",
    "ghz_offdiag_norm",
    "log_term_overlap",
    "loss_curve",
    "loss_suppression_diagnostics",
    "normalization_constant",
    "outcome_distribution",
    "phi_vectors",
    "reduced_rho1",
    "simulate_protocol",
    "singular_values_2x2",
    "success_probability",
    "term_overlap",
    "trace_norm",
    "__version__",
]
