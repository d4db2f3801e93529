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

All runners return a SimulationTrace that stores the states and the
broadcast stream a listener overhears (for bicc also the window
widths and saturation flags).  The step loops are the only code that
computes a step: the innovations, and for bicc the quantizer codes,
are derived for a range of steps by running the loop again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _compiled
from .errors import CodeOutOfRange, DimensionMismatch, InitialStateOutOfRange, NonPositiveBeta
from .graph import ConsensusNetwork
from .quantizer import beta_sequence, decode, decode_kernel, encode, encode_kernel

__all__ = [
    "SimulationTrace",
    "run_classical",
    "run_icc",
    "run_bicc",
    "check_x0_inside",
]


@dataclass(frozen=True)
class SimulationTrace:
    """Step-by-step record of one protocol run.

    Stored: x with K+1 rows (states at k = 0..K) and sent with K+1
    rows, row k being the last broadcast a listener can use for x(k):
    x itself for classical; x(0) then xi for icc; for bicc the
    quantized initial states then the decoded innovations xi_q =
    sent[1:] that drive the state.  A bicc trace also stores beta(0..K),
    the saturation flags, bits, x_range and the unquantized x0; every
    trace keeps a reference to its network, whose edge arrays give xi.

    Derived on each call, with no cache, for a range of steps only, by
    running the trace's own step loop again from its stored rows:
    innovations(lo, hi) gives xi(lo..hi-1), the innovations applied at
    those steps (for icc a view of sent), and for bicc
    quantizer_columns(lo, hi) gives the codes and window starts alpha
    of those quantization steps.  For bicc, codes/alpha/saturated are indexed
    by quantization step: row 0 is the initial-state quantization, row
    k >= 1 the quantization of xi(k-1).

    The runners fill x and sent through the same loop call as the
    derived columns.  The sign and payload of a NaN in x, sent or a
    derived column are unspecified: where two NaN operands meet in an
    add, the compiled loop and its numpy twin may keep different ones.
    Every output file writes any NaN as nan.
    """

    protocol: str
    network: ConsensusNetwork = field(repr=False)
    x: np.ndarray = field(repr=False)
    sent: np.ndarray = field(repr=False)
    beta: np.ndarray | None = field(default=None, repr=False)
    saturated: np.ndarray | None = field(default=None, repr=False)
    bits: int | None = None
    x_range: tuple[float, float] | None = None
    x0: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def horizon(self) -> int:
        return self.x.shape[0] - 1

    def innovations(self, lo, hi) -> np.ndarray:
        """xi(lo..hi-1) for 0 <= lo <= hi <= K: a view of sent for icc, else the loop's own."""
        if self.protocol == "icc":
            return self.sent[lo + 1 : hi + 1]
        return self._rerun(lo, hi)

    def quantizer_columns(self, lo, hi):
        """(codes, alpha) of the bicc quantization steps lo..hi-1, for 0 <= lo <= hi <= K+1.

        alpha(0) = x_min and alpha(k+1) = sent[k] - beta(k+1)/2; code row 0
        encodes x0 and row k+1 encodes xi(k) in its window.
        """
        codes, alpha = np.empty((hi - lo, self.n)), np.empty((hi - lo, self.n))
        first = max(lo, 1)
        with np.errstate(all="ignore"):
            if lo == 0 < hi:  # beta(0) and bits were checked when the run was made
                alpha[0] = self.x_range[0]
                encode_kernel(self.x0, alpha[0], self.beta[0], self.bits, codes[0])
            if first < hi:
                self._rerun(first - 1, hi - 1, codes[first - lo :])
                np.subtract(self.sent[first - 1 : hi - 1], self.beta[first:hi, None] / 2.0,
                            out=alpha[first - lo :])
            return codes.astype(np.int64), alpha  # encode_kernel's cast of the float codes

    def _rerun(self, lo, hi, codes=None):
        """xi(lo..hi-1) by the step loop, run again from rows lo; bicc also fills `codes`."""
        xs, sent = np.empty((2, hi - lo + 1, self.n))
        xs[0], sent[0] = self.x[lo], self.sent[lo]
        if self.protocol != "bicc":
            self._steps(lo, xs, sent)
            return sent[1:]
        xis = np.empty((hi - lo, self.n))
        self._steps(lo, xs, sent, codes, np.empty(xs.shape, dtype=bool), xis)
        return xis

    def _steps(self, first, xs, sent, codes=None, sat=None, xis=None):
        """Step the trace's loop from row 0 of xs, which holds step `first`, to its last row.

        The only caller of the compiled state_steps and bicc_steps
        (_compiled.function), or of their numpy twins _numpy_state_steps
        and _numpy_bicc_steps where the library cannot be built or
        loaded; a loop and its twin take the same arguments and write
        the same bytes.  The network stores its edge arrays as the loops
        read them.  A state that overflows or holds NaN steps on
        silently; in bicc a saturated input may give inf - inf or an
        overflowing ratio, and a NaN innovation a NaN code, which
        run_bicc checks.
        """
        net, K = self.network, len(xs) - 1
        edges = (net.edge_src, net.edge_dst, net.edge_gain, net.link_count, net.n)
        with np.errstate(all="ignore"):
            if self.protocol != "bicc":
                steps = _compiled.function("state_steps") or _numpy_state_steps
                steps(*edges, 0, K, xs, sent)
            else:
                steps = _compiled.function("bicc_steps") or _numpy_bicc_steps
                steps(*edges, self.beta[first:], self.bits, 0, K, xs, sent, codes, sat, xis)


def _check_x0(network, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (network.n,):
        raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({network.n},)")
    return x0


def _check_horizon(horizon):
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return int(horizon)


def _numpy_state_steps(src, dst, gain, edges, n, lo, hi, xs, sent):
    """_loops.c's state_steps in numpy: its arguments, and its operations step by step.

    Steps k = lo..hi-1 from xs[lo] write rows lo+1..hi of xs, and of
    sent where it is given (icc; None for classical).  bincount reads
    `edges` from the arrays.
    """
    x = xs[lo]
    for k in range(lo, hi):
        xi = np.bincount(dst, weights=gain * (x[src] - x[dst]), minlength=n)
        if sent is not None:
            sent[k + 1] = xi
        x = np.add(x, xi, out=xs[k + 1])


def run_classical(network, x0, horizon) -> SimulationTrace:
    """State-broadcast consensus x(k+1) = L x(k) for k < horizon."""
    x0 = _check_x0(network, x0)
    xs = np.empty((_check_horizon(horizon) + 1, network.n))
    xs[0] = x0
    trace = SimulationTrace(protocol="classical", network=network, x=xs, sent=xs)
    trace._steps(0, xs, None)
    return trace


def run_icc(network, x0, horizon) -> SimulationTrace:
    """Innovation-broadcast consensus.

    Each agent keeps one integrator per incoming edge, seeded at zero
    and incremented by the sender's broadcast innovation (the first
    broadcast being the sender's initial state), and applies the
    consensus gains to the integrated estimates instead of raw states.
    The integrator and the sender's state are the same running sum of
    the stream, so they agree bit for bit and the loop steps the states
    directly.
    """
    x0 = _check_x0(network, x0)
    xs, sent = np.empty((2, _check_horizon(horizon) + 1, network.n))
    xs[0] = sent[0] = x0
    trace = SimulationTrace(protocol="icc", network=network, x=xs, sent=sent)
    trace._steps(0, xs, sent)
    return trace


def _numpy_bicc_steps(src, dst, gain, edges, n, betas, bits, lo, hi, xs, sent, codes, sat, xis):
    """_loops.c's bicc_steps in numpy: its arguments, and its operations step by step.

    Steps k = lo..hi-1 from xs[lo] and sent[lo] write rows lo+1..hi of
    xs, sent and sat, and, where given (else None), xi into row k - lo
    of `xis` and encode_kernel's codes, as floats, into row k - lo of
    `codes`; decode_kernel turns the codes into the broadcast value that
    drives the state.  bincount reads `edges` from the arrays.
    """
    x, prev = xs[lo], sent[lo]
    alpha, scratch = np.empty(n), np.empty(n)
    for k, beta in enumerate(betas[lo + 1 : hi + 1].tolist(), lo):
        xi = np.bincount(dst, weights=gain * (x[src] - x[dst]), minlength=n)
        if xis is not None:
            xis[k - lo] = xi
        np.subtract(prev, beta / 2.0, out=alpha)
        code = encode_kernel(xi, alpha, beta, bits, scratch if codes is None else codes[k - lo])
        np.logical_or(xi < alpha, xi > alpha + beta, out=sat[k + 1])
        prev = decode_kernel(code, alpha, beta, bits, sent[k + 1])
        x = np.add(x, prev, out=xs[k + 1])


def check_x0_inside(x0, x_range):
    """(x_min, x_max) as floats; InitialStateOutOfRange unless x_min < x0 < x_max everywhere."""
    x_min, x_max = float(x_range[0]), float(x_range[1])
    if not np.all((x0 > x_min) & (x0 < x_max)):  # also catches NaN
        raise InitialStateOutOfRange(
            f"initial states must lie strictly inside ({x_min}, {x_max}); "
            f"got range [{x0.min()}, {x0.max()}]"
        )
    return x_min, x_max


def run_bicc(network, spectral, x0, bits, x_range, horizon) -> SimulationTrace:
    """Innovation-broadcast consensus over a b-bit quantized channel.

    The initial states are quantized into the window [x_min, x_max];
    afterwards each innovation xi(k) is quantized at step k+1 into the
    window alpha_i(k+1) = xi_q_i(k-1) - beta(k+1)/2 of width beta(k+1),
    and the state advances on the decoded value: x(k+1) = x(k) + xi_q(k).
    Saturation flags record any input outside its closed window; row 0
    stays False, as x0 lies strictly inside (x_min, x_max).  A
    width too small for the network lets beta(k) grow until it
    overflows; such a run raises NonPositiveBeta, naming the first k
    with beta(k) = inf, before any step.

    The step loop keeps only what feeds the next step: the states, the
    broadcast stream and the saturation flags.  Each step encodes with
    quantizer.encode_kernel's rule into a float code, which decodes to
    the same bits as its int code.  All K steps are one call of the
    new trace's own loop (SimulationTrace._steps): the compiled
    bicc_steps, or its numpy twin _numpy_bicc_steps where the library
    cannot be built or loaded; both take the same arguments and write
    the same bytes.  A NaN innovation or window makes a NaN code, which
    decodes to a NaN in sent[1:]; one raises CodeOutOfRange, where the
    checked codec would have refused.
    """
    x0 = _check_x0(network, x0)
    K = _check_horizon(horizon)
    x_min, x_max = check_x0_inside(x0, x_range)
    n = network.n

    # beta(0..K) > 0 from the recursion, which also checks bits, and
    # finite (checked here): the loop calls the codec kernels without their checks
    betas = beta_sequence(n, spectral.lambda2_mag, bits, (x_min, x_max), K)
    overflow = np.flatnonzero(~np.isfinite(betas))
    if overflow.size:
        k = int(overflow[0])
        raise NonPositiveBeta(
            f"beta({k}) = {betas[k]}: the {bits}-bit window widths overflow before horizon {K}"
        )
    xs, sent, sat = np.empty((K + 1, n)), np.empty((K + 1, n)), np.empty((K + 1, n), dtype=bool)
    trace = SimulationTrace(protocol="bicc", network=network, x=xs, sent=sent, beta=betas,
                            saturated=sat, bits=int(bits), x_range=(x_min, x_max), x0=x0.copy())

    # step-0 quantization: the initial states themselves
    xs[0] = sent[0] = decode(encode(x0, x_min, betas[0], bits), x_min, betas[0], bits)
    sat[0] = False  # x_min < x0 < x_max, even where x_min + beta(0) rounds below x_max
    trace._steps(0, xs, sent, None, sat)
    if np.isnan(sent[1:].max()):  # max propagates NaN and makes no K x n temporary
        raise CodeOutOfRange(f"code outside 0..{2**bits - 1}")
    return trace
