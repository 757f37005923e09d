"""Composable finite-key rate calculator for a three-state decoy QKD protocol
with imperfectly encoded states and intensity-fluctuating light sources.

The package is organised bottom-up:

- ``concentration``: the four tail bounds every estimator rests on, as
  functions of ln(1/eps) (``qkd_keyrate.concentration``; not re-exported).
- ``qubit_model``: source characterisation (Bloch vectors, filtered states,
  basis-mismatch transmission coefficients).
- ``channel``: lossy-channel click statistics used to generate expected or
  sampled detection counts, as a dense ``CountsBatch``.
- ``decoy``: vacuum / single-photon count bounds from multi-intensity data.
- ``phase_error``: upper bound on the phase-error count of the virtual
  protocol, with a reduced closed form for the symmetric source.
- ``budget``: the static epsilon split, charged once in the key length.
- ``key_length``: the extractable key-length formula.
- ``pipeline``: one-call rate evaluation wiring the stages together.
- ``optimize``: rate maximisation over source parameters.
- ``validate``: Monte-Carlo and algebraic self-checks.
- ``cli``: command-line front end (sweeps, self-validation, optimisation).
"""

from .budget import EpsilonBudget
from .channel import ChannelConfig, ChannelModel
from .config import ConfigError, RunConfig, load_config
from .decoy import CountsBatch
from .key_length import KeyRateResult, binary_entropy, eph_threshold
from .optimize import OptimizationResult, SearchSpace, optimize_rate
from .phase_error import n_ph_appendixE
from .pipeline import ProtocolParams, evaluate_rate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EpsilonBudget",
    "ChannelConfig",
    "ChannelModel",
    "ConfigError",
    "RunConfig",
    "load_config",
    "CountsBatch",
    "KeyRateResult",
    "binary_entropy",
    "eph_threshold",
    "OptimizationResult",
    "SearchSpace",
    "optimize_rate",
    "n_ph_appendixE",
    "ProtocolParams",
    "evaluate_rate",
    "run_validation",
]


def __getattr__(name: str):
    # validate loads on first use: the key-rate chain never needs it
    if name == "run_validation":
        from .validate import run_validation

        return run_validation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
