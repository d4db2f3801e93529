"""Privacy-protected multi-agent consensus under finite bit rates.

Simulates average-consensus protocols that broadcast state innovations
instead of states — unquantized (bit-exact match with the classical
iteration) and quantized with a contracting dynamic range — and
quantifies what an eavesdropper that intercepts each broadcast with
probability gamma can reconstruct.
"""

from .adversary import (
    EmpiricalMoments,
    MomentRecursion,
    ProtectionReport,
    closed_form_moments,
    protection_report,
    run_adversary_classical_mc,
    run_adversary_icc_mc,
)
from .errors import (
    CodeOutOfRange,
    ConfigError,
    ConsensusError,
    DimensionMismatch,
    EtaOutOfRange,
    InitialStateOutOfRange,
    Lambda2NotContractive,
    NegativeWeight,
    NoConvergence,
    NonPositiveBeta,
    NotConverged,
    NotStronglyConnected,
    ProtocolMismatch,
    RowSumExceeded,
)
from .graph import (
    ConsensusNetwork,
    SpectralData,
    build_network,
    consensus_value,
    ring_lattice,
    spectral_analysis,
    verify_projector_identities,
)
from .harness import (
    ExperimentConfig,
    cmd_run,
    cmd_spectral,
    cmd_sweep_bits,
    cmd_verify,
    initial_states,
    load_config,
    network_from_spec,
    parse_config,
)
from .metrics import DeviationReport, convergence_step, deviation_bound, verify_deviation
from .protocols import (
    SimulationTrace,
    run_bicc,
    run_classical,
    run_icc,
)
from .quantizer import (
    beta_sequence,
    beta_sequence_summed,
    bits_for_rate,
    decode,
    effective_eta,
    encode,
    min_bits,
    min_bits_threshold,
    required_total_rate,
)

__version__ = "0.1.0"

__all__ = [
    "CodeOutOfRange",
    "ConfigError",
    "ConsensusError",
    "ConsensusNetwork",
    "DeviationReport",
    "DimensionMismatch",
    "EmpiricalMoments",
    "EtaOutOfRange",
    "ExperimentConfig",
    "InitialStateOutOfRange",
    "Lambda2NotContractive",
    "MomentRecursion",
    "NegativeWeight",
    "NoConvergence",
    "NonPositiveBeta",
    "NotConverged",
    "NotStronglyConnected",
    "ProtectionReport",
    "ProtocolMismatch",
    "RowSumExceeded",
    "SimulationTrace",
    "SpectralData",
    "beta_sequence",
    "beta_sequence_summed",
    "bits_for_rate",
    "build_network",
    "closed_form_moments",
    "cmd_run",
    "cmd_spectral",
    "cmd_sweep_bits",
    "cmd_verify",
    "consensus_value",
    "convergence_step",
    "decode",
    "deviation_bound",
    "effective_eta",
    "encode",
    "initial_states",
    "load_config",
    "min_bits",
    "min_bits_threshold",
    "network_from_spec",
    "parse_config",
    "protection_report",
    "required_total_rate",
    "ring_lattice",
    "run_adversary_classical_mc",
    "run_adversary_icc_mc",
    "run_bicc",
    "run_classical",
    "run_icc",
    "spectral_analysis",
    "verify_deviation",
    "verify_projector_identities",
    "__version__",
]
