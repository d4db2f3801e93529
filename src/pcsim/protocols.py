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
widths and saturation flags); the innovations, and for bicc the
quantizer windows and codes, are derived from those for a range of
steps when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _compiled
from .errors import DimensionMismatch, InitialStateOutOfRange, NonPositiveBeta
from .graph import ConsensusNetwork
from .quantizer import beta_sequence, check_codes, decode, decode_kernel, encode, encode_kernel

__all__ = [
    "SimulationTrace",
    "run_classical",
    "run_icc",
    "run_bicc",
    "check_x0_inside",
]

_BLOCK = 512  # steps per block of the code check and of the derived columns


def _blocks(lo, hi):
    """(a, b) ranges of at most _BLOCK steps covering lo..hi-1."""
    return ((a, min(a + _BLOCK, hi)) for a in range(lo, hi, _BLOCK))


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

    Derived on each call, with no cache, by the step loop's own
    floating-point operations, for a range of steps only:
    innovations(lo, hi) gives xi(lo..hi-1), the innovations applied at
    those steps (for icc a view of sent), and for bicc
    quantizer_columns(lo, hi) gives the codes and window starts alpha
    of those quantization steps.  For bicc, codes/alpha/saturated are indexed
    by quantization step: row 0 is the initial-state quantization, row
    k >= 1 the quantization of xi(k-1).
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
        """xi(lo..hi-1) for 0 <= lo <= hi <= K: a view of sent for icc, else derived from x."""
        if self.protocol == "icc":
            return self.sent[lo + 1 : hi + 1]
        out = np.empty((hi - lo, self.n))
        with np.errstate(all="ignore"):
            for a, b in _blocks(lo, hi):
                out[a - lo : b - lo] = _innovations(self.network, self.x[a:b])
        return out

    def quantizer_columns(self, lo, hi):
        """(codes, alpha) of the bicc quantization steps lo..hi-1, for 0 <= lo <= hi <= K+1.

        alpha(0) = x_min and alpha(k+1) = sent[k] - beta(k+1)/2; code row 0
        encodes x0 and row k+1 encodes xi(k) in its window.
        """
        codes = np.empty((hi - lo, self.n), dtype=np.int64)
        alpha = np.empty((hi - lo, self.n))
        x_min = self.x_range[0]
        first = lo
        inputs = (self.network, self.x, self.sent, self.beta)
        # beta(0) and bits were checked when the run was made
        with np.errstate(all="ignore"):
            if lo == 0 < hi:
                encode_kernel(self.x0, x_min, self.beta[0], self.bits, codes[0])
                alpha[0] = x_min
                first = 1
            for a, b in _blocks(first, hi):
                xi, window, beta = _quantizer_inputs(*inputs, a, b)
                alpha[a - lo : b - lo] = window
                encode_kernel(xi, window, beta, self.bits, codes[a - lo : b - lo])
        return codes, alpha


def _check_x0(network, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (network.n,):
        raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({network.n},)")
    return x0


def _check_horizon(horizon):
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return int(horizon)


def _innovations(network, x):
    """Innovations sum_j kappa_ij (x_j - x_i) of a state (n,) or of each row of (rows, n).

    Accumulation runs over the edge arrays in (receiver, sender) order,
    and a block of rows is one bincount over row * n + receiver, which
    keeps that order within each bin: every row gets the identical
    terms added in the identical order as a single state.
    """
    src, dst, gain = network.edge_src, network.edge_dst, network.edge_gain
    if x.ndim == 1:
        return np.bincount(dst, weights=gain * (x[src] - x[dst]), minlength=network.n)
    rows, n = x.shape
    bins = (dst + n * np.arange(rows)[:, None]).ravel()
    terms = gain * (x[:, src] - x[:, dst])
    return np.bincount(bins, weights=terms.ravel(), minlength=rows * n).reshape(rows, n)


def _quantizer_inputs(network, xs, sent, betas, lo, hi):
    """(xi, alpha, beta) of the bicc quantization steps k = lo..hi-1, lo >= 1.

    xi holds the encoder inputs xi(k-1), alpha the windows alpha(k) =
    sent[k-1] - beta(k)/2 and beta the widths beta(k) as a column,
    computed as the step loop computes them.  Callers silence
    floating-point warnings, as the loop does.
    """
    beta = betas[lo:hi, None]
    return _innovations(network, xs[lo - 1 : hi - 1]), sent[lo - 1 : hi - 1] - beta / 2.0, beta


def _step_states(network, x0, horizon, sent=None):
    """x(0..K) by x(k+1) = x(k) + xi(k); xi(k) also goes to sent[k+1] when given."""
    xs = np.empty((horizon + 1, network.n))
    x = xs[0]
    x[:] = x0
    # a state that overflows or holds NaN steps on silently, as in run_bicc
    with np.errstate(all="ignore"):
        for k in range(horizon):
            xi = _innovations(network, x)
            if sent is not None:
                sent[k + 1] = xi
            x = np.add(x, xi, out=xs[k + 1])
    return xs


def run_classical(network, x0, horizon) -> SimulationTrace:
    """State-broadcast consensus x(k+1) = L x(k) for k < horizon."""
    x0 = _check_x0(network, x0)
    xs = _step_states(network, x0, _check_horizon(horizon))
    return SimulationTrace(protocol="classical", network=network, x=xs, sent=xs)


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
    K = _check_horizon(horizon)
    sent = np.empty((K + 1, network.n))
    sent[0] = x0
    xs = _step_states(network, x0, K, sent)
    return SimulationTrace(protocol="icc", network=network, x=xs, sent=sent)


def _numpy_bicc_steps(src, dst, gain, edges, n, betas, bits, lo, hi, xs, sent, codes, sat):
    """_loops.c's bicc_steps in numpy: its arguments, and its operations step by step.

    Steps k = lo..hi-1 from xs[lo] and sent[lo] write rows lo+1..hi of
    xs, sent and sat, and encode_kernel's codes, as floats, into row
    k - lo of `codes`; decode_kernel turns them into the broadcast value
    that drives the state.  bincount reads `edges` from the arrays.
    """
    x, prev = xs[lo], sent[lo]
    alpha = np.empty(n)
    for k, beta in enumerate(betas[lo + 1 : hi + 1].tolist(), lo):
        xi = np.bincount(dst, weights=gain * (x[src] - x[dst]), minlength=n)
        np.subtract(prev, beta / 2.0, out=alpha)
        code = encode_kernel(xi, alpha, beta, bits, codes[k - lo])
        np.logical_or(xi < alpha, xi > alpha + beta, out=sat[k + 1])
        prev = decode_kernel(code, alpha, beta, bits, sent[k + 1])
        x = np.add(x, prev, out=xs[k + 1])


def _compiled_edges(network):
    """(src, dst, gain, edges, n) as bicc_steps reads them: C-contiguous intp and float64.

    C checks no index; ConsensusNetwork has checked that every agent is
    in 0..n-1, and keeps its arrays read-only.
    """
    return (np.ascontiguousarray(network.edge_src, dtype=np.intp),
            np.ascontiguousarray(network.edge_dst, dtype=np.intp),
            np.ascontiguousarray(network.edge_gain, dtype=float), network.link_count, network.n)


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
    Saturation flags record any input outside its closed window.  A
    width too small for the network lets beta(k) grow until it
    overflows; such a run raises NonPositiveBeta, naming the first k
    with beta(k) = inf, before any step.

    The step loop keeps only what feeds the next step: the states, the
    broadcast stream, the saturation flags and one block of codes.  Each
    step encodes with quantizer.encode_kernel's rule into float codes,
    which decode to the same bits as its int codes.  A block of steps is
    one call of the compiled bicc_steps (_compiled.function), or of its
    numpy twin _numpy_bicc_steps where the library cannot be built or
    loaded; both take the same arguments and write the same bytes.
    After each 512-step block, check_codes raises CodeOutOfRange if a
    code is NaN, as a NaN innovation or window makes it, where the
    checked codec would have refused to decode.
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
    xs = np.empty((K + 1, n))
    sent = np.empty((K + 1, n))
    codes = np.empty((_BLOCK, n))  # one block's codes, for the code check
    steps = _compiled.function("bicc_steps") or _numpy_bicc_steps
    edges = _compiled_edges(network)
    sat = np.empty((K + 1, n), dtype=bool)

    # step-0 quantization: the initial states themselves
    xs[0] = sent[0] = decode(encode(x0, x_min, betas[0], bits), x_min, betas[0], bits)
    sat[0] = (x0 < x_min) | (x0 > x_min + betas[0])

    # saturated inputs may produce inf - inf or an overflowing ratio, and
    # a NaN innovation gives a NaN code, which the code check reports
    with np.errstate(all="ignore"):
        for lo, hi in _blocks(0, K):
            steps(*edges, betas, bits, lo, hi, xs, sent, codes, sat)
            check_codes(codes[: hi - lo], bits)
    return SimulationTrace(
        protocol="bicc",
        network=network,
        x=xs,
        sent=sent,
        beta=betas,
        saturated=sat,
        bits=int(bits),
        x_range=(x_min, x_max),
        x0=x0.copy(),
    )
