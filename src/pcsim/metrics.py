"""Consensus quality metrics: deviation bounds and convergence checks.

Quantization shifts the value agents finally agree on away from the
ideal w_l^T x(0).  The shift obeys an explicit bound built from the
quantizer window schedule of Li, Fu, Xie & Zhang ("Distributed
consensus with limited communication data rate", IEEE TAC 2011):
(beta(0) + bbar * eta / (1 - eta)) * sqrt(N) / 2^(b+1), with bbar the
Euclidean norm of (beta(1), beta(0)) and eta any valid decay rate of
beta(k).  This module evaluates that bound, detects when a trace has
actually reached consensus, and compares observed against bounded
deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EtaOutOfRange, NotConverged
from .graph import consensus_value
from .quantizer import _schedule_start, effective_eta

__all__ = [
    "DeviationReport",
    "deviation_bound",
    "convergence_step",
    "verify_deviation",
]


@dataclass(frozen=True)
class DeviationReport:
    """Observed vs bounded distance between achieved and ideal consensus.

    deviation is sqrt(N) * |x_inf_observed - x_inf_ideal| (the vector
    norm of the constant offset); bound/eta are None for unquantized
    traces, where no bound applies, and for quantized ones whose width
    is at or below the bit threshold, where none is certified.
    `pcsim run` reports a breach when x_inf_ideal lies further than
    bound / sqrt(N) from the final states' envelope.
    """

    x_inf_ideal: float
    x_inf_observed: float
    deviation: float
    bound: float | None
    eta: float | None
    converged_at: int


def deviation_bound(n, lambda2_mag, bits, x_range, eta=None) -> float:
    """Worst-case ||achieved - ideal consensus|| for a b-bit window schedule.

    The schedule starts from beta(0) = x_max - x_min and beta(1) =
    3 max(|x_min|, |x_max|).  eta defaults to its exact decay rate
    effective_eta(n, lambda2_mag, bits); any eta in (|lambda_2|, 1) no
    smaller than the decay rate is valid, and the bound grows
    monotonically with eta.
    """
    beta0, beta1 = _schedule_start(x_range)
    if eta is None:
        eta = effective_eta(n, lambda2_mag, bits)
    if not lambda2_mag < eta < 1.0:
        raise EtaOutOfRange(f"eta = {eta} not in (|lambda_2| = {lambda2_mag}, 1)")
    bbar = math.hypot(beta1, beta0)
    return (beta0 + bbar * eta / (1.0 - eta)) * math.sqrt(n) / 2 ** (bits + 1)


def convergence_step(trace, tol=1e-6, hold=50):
    """First step where the envelope width stays within tolerance.

    The tolerance is tol * ||x(0)||_inf, relative to the states with no
    absolute floor, so that scaling every state by a power of 2 moves no
    verdict.  Returns the first k such that max_i x_i - min_i x_i <=
    tolerance for `hold` consecutive steps starting at k (so an all-zero
    x(0) settles at once), or None if the trace never settles.
    """
    width = trace.x.max(axis=1) - trace.x.min(axis=1)
    threshold = tol * float(np.max(np.abs(trace.x[0])))
    below = width <= threshold
    run = 0
    for k, ok in enumerate(below):
        run = run + 1 if ok else 0
        if run >= hold:
            return k - hold + 1
    return None


def verify_deviation(trace, spectral, x0, eta=None) -> DeviationReport:
    """Measure a converged trace's consensus deviation against the bound.

    Raises NotConverged when the trace's envelope never settles (at
    convergence_step's default tolerance and hold), and
    DimensionMismatch when x0 is not one value per agent.  The
    achieved consensus value is the mean of the final states; for
    quantized traces the report includes the schedule bound (with eta
    defaulting to the exact window decay rate).  A default rate outside
    (|lambda_2|, 1), as at or below the bit threshold, certifies no
    bound, so bound and eta are None; an explicit eta outside that
    interval raises EtaOutOfRange.  Agents that agree on a diverging
    value have not reached consensus: with no bound certified, a settled
    value that is not finite or lies outside [x_min - beta(1), x_max +
    beta(1)] also raises NotConverged.
    """
    k0 = convergence_step(trace)
    if k0 is None:
        width = float(trace.x[-1].max() - trace.x[-1].min())
        raise NotConverged(f"envelope width {width:.3e} never settled below tolerance")
    ideal = consensus_value(spectral, x0)
    observed = float(trace.x[-1].mean())
    deviation = math.sqrt(trace.n) * abs(observed - ideal)

    bound = eta_used = None
    if trace.protocol == "bicc":
        eta_used = eta
        if eta is None:
            rate = effective_eta(trace.n, spectral.lambda2_mag, trace.bits)
            eta_used = rate if spectral.lambda2_mag < rate < 1.0 else None
        if eta_used is not None:
            bound = deviation_bound(
                trace.n, spectral.lambda2_mag, trace.bits, trace.x_range, eta_used
            )
        else:
            reach = _schedule_start(trace.x_range)[1]  # beta(1)
            lo, hi = trace.x_range[0] - reach, trace.x_range[1] + reach
            if not lo <= observed <= hi:  # also catches a value that is not finite
                raise NotConverged(
                    f"the agents settled on {observed:.3e}, outside [{lo:.3e}, {hi:.3e}], "
                    "with no certified bound"
                )
    return DeviationReport(
        x_inf_ideal=ideal,
        x_inf_observed=observed,
        deviation=deviation,
        bound=bound,
        eta=eta_used,
        converged_at=k0,
    )
