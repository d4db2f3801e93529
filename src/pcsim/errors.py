"""Exception types shared across the simulation library.

Every error raised by pcsim derives from ConsensusError, so callers can
catch one base class. The CLI maps ConfigError to exit code 2 and
invariant breaches to exit code 1.
"""


class ConsensusError(Exception):
    """Base class for all pcsim errors."""


class NegativeWeight(ConsensusError):
    """A consensus gain kappa_ij < 0 was supplied."""


class RowSumExceeded(ConsensusError):
    """Some agent's incoming gains sum to more than 1."""


class NotStronglyConnected(ConsensusError):
    """The communication digraph is not strongly connected."""


class NoConvergence(ConsensusError):
    """An iterative solver failed to reach its residual tolerance."""


class DimensionMismatch(ConsensusError):
    """Vector/matrix sizes do not agree with the network size."""


class InitialStateOutOfRange(ConsensusError):
    """An initial state lies outside the quantizer's (x_min, x_max)."""


class NonPositiveBeta(ConsensusError):
    """Quantizer window width beta must be finite and strictly positive."""


class CodeOutOfRange(ConsensusError):
    """A quantizer code is outside {0, ..., 2^b - 1}."""


class Lambda2NotContractive(ConsensusError):
    """|lambda_2| >= 1: the disagreement dynamics do not contract."""


class EtaOutOfRange(ConsensusError):
    """Decay rate eta must satisfy |lambda_2| < eta < 1."""


class ProtocolMismatch(ConsensusError):
    """A trace of the wrong protocol kind was supplied."""


class NotConverged(ConsensusError):
    """The trace never reached consensus at the requested tolerance."""


class ConfigError(ConsensusError):
    """Invalid experiment configuration or input file."""
