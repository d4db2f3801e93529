"""Discrete-time consensus protocol runners.

Three protocols over one shared innovation kernel:

* classical — agents broadcast raw states; x(k+1) = L x(k), stepped as
  x += xi with xi_i = sum_j kappa_ij (x_j - x_i).
* icc — agents broadcast innovations xi_i(k) and integrate neighbors'
  states locally from the received increments; trajectories coincide
  with classical bit-for-bit because both protocols accumulate the
  same per-edge terms in the same fixed order.
* bicc — icc with every transmitted innovation passed through the
  dynamic quantizer; the state advances on the decoded xi^q.

All runners return a SimulationTrace holding the full state and
innovation history, the broadcast stream a listener overhears, and
for bicc the quantizer codes, windows, and saturation flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InitialStateOutOfRange
from .quantizer import beta_sequence, check_codes, decode, decode_kernel, encode, encode_kernel

__all__ = [
    "SimulationTrace",
    "run_classical",
    "run_icc",
    "run_bicc",
]


@dataclass(frozen=True)
class SimulationTrace:
    """Step-by-step record of one protocol run.

    x has K+1 rows (states at k = 0..K); xi has K rows (innovations
    applied at k = 0..K-1).  sent has K+1 rows, row k being the last
    broadcast a listener can use for x(k): x itself for classical;
    x(0) then xi for icc (xi is sent[1:]); for bicc the quantized
    initial states then the decoded innovations xi_q = sent[1:] that
    drive the state.  For bicc, codes/alpha/saturated are indexed by
    quantization step: row 0 is the initial-state quantization, row
    k >= 1 the quantization of xi(k-1).  estimate_residual is the run's
    max |xhat_j^i(k) - x_j(k)| over all local estimates (0.0 when the
    integrator reproduces neighbor states exactly).
    """

    protocol: str
    x: np.ndarray = field(repr=False)
    xi: np.ndarray = field(repr=False)
    sent: np.ndarray = field(repr=False)
    estimate_residual: float = 0.0
    codes: np.ndarray | None = field(default=None, repr=False)
    alpha: np.ndarray | None = field(default=None, repr=False)
    beta: np.ndarray | None = field(default=None, repr=False)
    saturated: np.ndarray | None = field(default=None, repr=False)
    bits: int | None = None
    x_range: tuple[float, float] | None = None

    @property
    def xi_q(self) -> np.ndarray | None:
        """The decoded innovations of a bicc run (the view sent[1:]); None otherwise."""
        return self.sent[1:] if self.protocol == "bicc" else None

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def horizon(self) -> int:
        return self.x.shape[0] - 1


def _check_x0(network, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (network.n,):
        raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({network.n},)")
    return x0


def _innovations(network, x, values):
    """Per-agent innovation sum_j kappa_ij (v_j - x_i).

    `values` is the per-edge view of what each receiver combines (the
    sender's true state, or the receiver's local estimate of it).
    Accumulation runs over the edge arrays in (receiver, sender) order,
    so every protocol adds the identical terms in the identical order.
    """
    terms = network.edge_gain * (values - x[network.edge_dst])
    return np.bincount(network.edge_dst, weights=terms, minlength=network.n)


def run_classical(network, x0, horizon) -> SimulationTrace:
    """State-broadcast consensus x(k+1) = L x(k) for k < horizon."""
    x0 = _check_x0(network, x0)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n, K = network.n, int(horizon)
    xs = np.empty((K + 1, n))
    xis = np.empty((K, n))
    xs[0] = x0
    x = x0.copy()
    for k in range(K):
        xi = _innovations(network, x, x[network.edge_src])
        xis[k] = xi
        x = x + xi
        xs[k + 1] = x
    return SimulationTrace(protocol="classical", x=xs, xi=xis, sent=xs)


def run_icc(network, x0, horizon) -> SimulationTrace:
    """Innovation-broadcast consensus.

    Each agent keeps one integrator per incoming edge, seeded at zero
    and incremented by the sender's broadcast innovation (the first
    broadcast being the sender's initial state), and applies the
    consensus gains to the integrated estimates instead of raw states.
    """
    x0 = _check_x0(network, x0)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n, K = network.n, int(horizon)
    src = network.edge_src
    xs = np.empty((K + 1, n))
    sent = np.empty((K + 1, n))
    xs[0] = sent[0] = x0
    x = x0.copy()
    xhat = np.zeros(len(src))  # per-edge estimate of the sender's state
    broadcast = sent[0]
    for k in range(K):
        xhat = xhat + broadcast[src]
        broadcast = sent[k + 1] = _innovations(network, x, xhat)
        x = x + broadcast
        xs[k + 1] = x
    return SimulationTrace(
        protocol="icc", x=xs, xi=sent[1:], sent=sent, estimate_residual=_estimate_residual(xs, sent)
    )


_BLOCK = 512  # steps per block of the code check and of the work after a step loop


def _estimate_residual(xs, sent):
    """estimate_residual of an innovation run, after its loop.

    xs holds the states x(0..K).  At step k each receiver adds the
    sender's broadcast sent[k] to its integrator, so the integrator is
    the running sum of sent[0..k]; per block of steps it is a cumsum,
    the same adds as the step loop makes.  Every agent of a (strongly
    connected) network sends, so every edge from agent j holds the
    integrator of column j.  The residual is max over steps k < K of
    max_j |xhat_j - x_j(k)|; like max(), it passes over a step whose
    maximum is NaN.
    """
    K, n = xs.shape[0] - 1, xs.shape[1]
    xhat = np.zeros(n)
    worst = 0.0
    for lo in range(0, K, _BLOCK):
        hi = min(lo + _BLOCK, K)
        acc = sent[lo:hi].copy()
        acc[0] += xhat
        np.cumsum(acc, axis=0, out=acc)
        xhat = acc[-1]
        gaps = np.abs(acc - xs[lo:hi]).max(axis=1)
        worst = np.fmax.reduce(gaps, initial=worst)
    return float(worst)


def run_bicc(network, spectral, x0, bits, x_range, horizon) -> SimulationTrace:
    """Innovation-broadcast consensus over a b-bit quantized channel.

    The initial states are quantized into the window [x_min, x_max];
    afterwards each innovation xi(k) is quantized at step k+1 into the
    window alpha_i(k+1) = xi_q_i(k-1) - beta(k+1)/2 of width beta(k+1),
    and the state advances on the decoded value: x(k+1) = x(k) + xi_q(k).
    Saturation flags record any input outside its closed window.

    The step loop does only the work that feeds the next step; the
    saturation flags and estimate_residual are computed after it, with
    the same floating-point operations.
    """
    x0 = _check_x0(network, x0)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    x_min, x_max = float(x_range[0]), float(x_range[1])
    if np.any(x0 <= x_min) or np.any(x0 >= x_max):
        raise InitialStateOutOfRange(
            f"initial states must lie strictly inside ({x_min}, {x_max}); "
            f"got range [{x0.min()}, {x0.max()}]"
        )
    n, K = network.n, int(horizon)
    src = network.edge_src

    # beta(0..K) > 0 from the recursion, which also checks bits:
    # the loop calls the codec kernels without their checks
    betas = beta_sequence(n, spectral.lambda2_mag, bits, (x_min, x_max), K)
    xs = np.empty((K + 1, n))
    xis = np.empty((K, n))
    sent = np.empty((K + 1, n))
    codes = np.empty((K + 1, n), dtype=np.int64)
    alphas = np.empty((K + 1, n))
    sat = np.empty((K + 1, n), dtype=bool)

    # step-0 quantization: the initial states themselves
    codes[0] = encode(x0, x_min, betas[0], bits)
    alphas[0] = x_min
    sat[0] = (x0 < x_min) | (x0 > x_min + betas[0])
    xs[0] = sent[0] = decode(codes[0], x_min, betas[0], bits)

    xhat = np.zeros(len(src))  # per-edge estimate of the sender's state
    prev = sent[0]
    # saturated inputs may produce inf - inf or an overflowing ratio, and
    # a NaN innovation casts to a bad code, which check_codes reports
    with np.errstate(all="ignore"):
        for lo in range(0, K, _BLOCK):
            hi = min(lo + _BLOCK, K)
            for k in range(lo, hi):
                xhat += prev[src]
                xi = xis[k]
                xi[:] = _innovations(network, xs[k], xhat)
                beta = betas[k + 1]
                alpha = np.subtract(prev, beta / 2.0, out=alphas[k + 1])
                code = encode_kernel(xi, alpha, beta, bits, codes[k + 1])
                prev = decode_kernel(code, alpha, beta, bits, sent[k + 1])
                np.add(xs[k], prev, out=xs[k + 1])
            check_codes(codes[lo + 1 : hi + 1], bits)

    for lo in range(0, K, _BLOCK):
        hi = min(lo + _BLOCK, K)
        xi, alpha = xis[lo:hi], alphas[lo + 1 : hi + 1]
        upper = alpha + betas[lo + 1 : hi + 1, None]
        np.logical_or(xi < alpha, xi > upper, out=sat[lo + 1 : hi + 1])
    return SimulationTrace(
        protocol="bicc",
        x=xs,
        xi=xis,
        sent=sent,
        estimate_residual=_estimate_residual(xs, sent),
        codes=codes,
        alpha=alphas,
        beta=betas,
        saturated=sat,
        bits=int(bits),
        x_range=(x_min, x_max),
    )
