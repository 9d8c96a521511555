"""Effective GHZ size of N-qubit cat-like superpositions.

Assigns an effective particle number to states of the form
|phi1>^(x)N + |phi2>^(x)N by three operational criteria -- decoherence-rate
matching, single-copy GHZ distillation, and particle-loss suppression --
with every closed form cross-validated against a dense brute-force oracle.

Importing the package loads none of its submodules: each exported name is
imported from its submodule on first access, and each name has exactly one
home, the submodule that defines it.  The closed forms (``core``,
``decoherence``, ``loss``, ``report``) and the distillation distributions
and sampler need only the standard library; the array names
``distillation.build_filter`` and ``core.reduced_rho1`` load numpy when
they are first used.  The oracle, the validation suite and the CLI are the
submodules ``catsize.oracle``, ``catsize.validation`` and ``catsize.cli``,
none of whose names the package exports; the oracle imports only ``core``.

Each concept has one form: noise rates (gamma_t, the loss probability
lam) are floats, the filter is an (A, A_bar) pair of real 2x2 arrays, and
the distributions carry the CatParams they were computed at.
"""

import importlib

__version__ = "0.1.0"

# exported name -> submodule that defines it
_EXPORTS = {
    "CatParams": "core",
    "DecayCurve": "decoherence",
    "EffectiveSizeReport": "report",
    "Linspace": "core",
    "LossCurve": "loss",
    "McResult": "distillation",
    "OutcomeDistribution": "distillation",
    "build_effective_size_report": "report",
    "build_filter": "distillation",
    "cat_loss_suppression": "loss",
    "cat_offdiag_norm": "decoherence",
    "decay_curve": "decoherence",
    "effective_size_decoherence": "decoherence",
    "effective_size_loss": "loss",
    "entropy_s1": "core",
    "expected_n": "core",
    "ghz_loss_suppression": "loss",
    "ghz_offdiag_norm": "decoherence",
    "loss_curve": "loss",
    "normalization_constant": "core",
    "outcome_distribution": "distillation",
    "reduced_rho1": "core",
    "simulate_protocol": "distillation",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
