"""Dynamic fixed-length quantization and its bit-rate conditions.

A b-bit dynamic quantizer maps a real signal into one of 2^b uniform
cells of a moving window [alpha, alpha + beta]; out-of-window inputs
clamp to the extreme codes.  The window recenters each step on the last
decoded innovation and shrinks along the network-global schedule
beta(k), whose decay rate eta_eff must be < 1 for quantized consensus
to converge (Li, Fu, Xie & Zhang, "Distributed consensus with limited
communication data rate", IEEE TAC 2011).  This module implements the
encoder/decoder pair (checked public functions over unchecked
kernels), the beta schedule (by O(1) recursion and by an independent
direct summation used for cross-checking), and the minimum-bit /
rate-budget formulas tied to the network size N and contraction rate
|lambda_2|.  The bicc step loop encodes each step with encode_kernel
into float codes and decodes them with decode_kernel; the compiled
step loop (_loops.c's bicc_steps) repeats both kernels' arithmetic
operation for operation, so a change to either must be made there
too; the byte-equality tests in tests/test_protocols.py catch a
difference.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    CodeOutOfRange,
    EtaOutOfRange,
    Lambda2NotContractive,
    NonPositiveBeta,
)

__all__ = [
    "MAX_BITS",
    "encode",
    "decode",
    "beta_sequence",
    "beta_sequence_summed",
    "min_bits",
    "min_bits_threshold",
    "bits_for_rate",
    "effective_eta",
    "required_total_rate",
]


# Widest code whose values 0..2^b - 1 are all exact float64 integers;
# encode computes the code in floating point.
MAX_BITS = 53


def _check_bits(bits):
    """ValueError unless bits is an integer (int or numpy integer, not bool) in 1..MAX_BITS."""
    if isinstance(bits, (bool, np.bool_)) or not isinstance(bits, (int, np.integer)):
        raise ValueError(f"bits must be an integer, got {bits!r}")
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in 1..{MAX_BITS}, got {bits}")


def _check_beta(beta):
    """NonPositiveBeta unless every window width is finite and > 0 (NaN is neither)."""
    widths = np.asarray(beta)
    if not np.all((widths > 0) & (widths < np.inf)):
        raise NonPositiveBeta(f"beta must be finite and > 0, got {beta}")


def encode(x, alpha, beta, bits):
    """Quantize x into a code in {0, ..., 2^bits - 1}.

    In-window inputs x in (alpha, alpha + beta) map to floor((x -
    alpha) / delta) with delta = beta / 2^bits; x <= alpha maps to 0
    and x >= alpha + beta to the top code.  Accepts scalars or arrays
    (elementwise, numpy broadcasting); beta must be finite and
    positive, and bits in 1..MAX_BITS.
    """
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    _check_beta(beta)
    _check_bits(bits)
    out = np.empty(np.broadcast_shapes(x.shape, alpha.shape, np.shape(beta)), dtype=np.int64)
    # saturated inputs may produce inf - inf or an overflowing ratio, and
    # a cell width that underflows to 0 a division by zero; all land in
    # the clamp
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        encode_kernel(x, alpha, beta, bits, out)
    return int(out) if out.ndim == 0 else out


def encode_kernel(x, alpha, beta, bits, out):
    """encode's arithmetic without its checks, writing the codes into `out`.

    The caller guarantees beta > 0 and bits in 1..MAX_BITS.  A NaN input
    gets whatever code the float-to-int cast makes of it (the most
    negative int64 on x86-64), or stays NaN in a float `out`; decode and
    check_codes reject such codes.
    """
    top = 2**bits - 1
    delta = beta / 2**bits
    # clamping to 0..top guards the top cell against floating-point
    # roundup at x just below alpha + beta; NaN passes through
    code = np.minimum(np.maximum(np.floor((x - alpha) / delta), 0), top)
    # an array cast, also for scalar inputs: NaN becomes a code, not an error
    np.copyto(out, code, casting="unsafe")
    np.copyto(out, 0, where=x <= alpha)
    np.copyto(out, top, where=x >= alpha + beta)
    return out


def decode(code, alpha, beta, bits):
    """Reconstruct the cell midpoint code * delta + delta/2 + alpha."""
    _check_bits(bits)
    code = np.asarray(code)
    check_codes(code, bits)
    _check_beta(beta)
    out = np.empty(np.broadcast_shapes(code.shape, np.shape(alpha), np.shape(beta)))
    decode_kernel(code, alpha, beta, bits, out)
    return float(out) if out.ndim == 0 else out


def decode_kernel(code, alpha, beta, bits, out):
    """decode's arithmetic without its checks, writing the values into `out`."""
    delta = beta / 2**bits
    np.multiply(code, delta, out=out)
    out += delta / 2
    out += alpha
    return out


def check_codes(code, bits):
    """CodeOutOfRange unless every code is an integer in 0..2^bits - 1.

    An integer array is checked for its range alone; float codes must
    also be integral (NaN is not), and a boolean is not a code.
    """
    kind = code.dtype.kind
    integral = kind in "iu" or (kind == "f" and bool(np.all(np.floor(code) == code)))
    if not integral or np.any(code < 0) or np.any(code > 2**bits - 1):
        raise CodeOutOfRange(f"code outside 0..{2**bits - 1}")


def _recursion_coefficients(n, lambda2_mag, bits):
    root = math.sqrt(n) / 2**bits
    a = 3.0 * root + lambda2_mag
    c = root * (4.0 - 3.0 * lambda2_mag)
    return a, c


def _schedule_start(x_range):
    """(beta(0), beta(1)) = (x_max - x_min, 3 max(|x_min|, |x_max|)) of a state range.

    ValueError unless x_min < x_max and both are finite, which also
    rules out an end so large that a width overflows.
    """
    x_min, x_max = (float(v) for v in x_range)
    beta0, beta1 = x_max - x_min, 3.0 * max(abs(x_min), abs(x_max))
    if not (x_min < x_max and math.isfinite(beta0) and math.isfinite(beta1)):
        raise ValueError(f"bad state range [{x_min}, {x_max}]: beta(0), beta(1) = {beta0}, {beta1}")
    return beta0, beta1


def beta_sequence(n, lambda2_mag, bits, x_range, k_max):
    """beta(0..k_max) by the two-term linear recursion (O(1) per step).

    beta(0) and beta(1) come from _schedule_start, and
    beta(k+1) = a beta(k) + c beta(k-1) with a, c > 0 from
    _recursion_coefficients.  The true value is positive whenever the
    last two are, so a product that underflows is held at the smallest
    normal float instead of exact zero.
    """
    _check_bits(bits)
    beta0, beta1 = _schedule_start(x_range)
    a, c = _recursion_coefficients(n, lambda2_mag, bits)
    tiny = float(np.finfo(float).tiny)
    out = np.empty(k_max + 1)
    prev = out[0] = beta0
    if k_max >= 1:
        beta = out[1] = beta1
        for k in range(2, k_max + 1):
            prev, beta = beta, max(a * beta + c * prev, tiny)
            out[k] = beta
    return out


def beta_sequence_summed(n, lambda2_mag, bits, x_range, k_max):
    """beta(0..k_max) by direct summation — the cross-check route.

    Evaluates, for k >= 1,
        beta(k+1) = (3 sqrt(N)/2^b) beta(k)
                    + (4 sqrt(N)/2^b) sum_{l=0}^{k-1} |lambda_2|^(k-1-l) beta(l)
                    + 2 |lambda_2|^k s0,
    with s0 = beta(1)/2 - (3 sqrt(N)/2^(b+1)) beta(0), recomputing the
    full history sum at every step.  Algebraically equal to the
    recursion in beta_sequence but numerically independent of it.
    """
    _check_bits(bits)
    beta0, beta1 = _schedule_start(x_range)
    lam = lambda2_mag
    root = math.sqrt(n) / 2**bits
    beta = np.empty(k_max + 1)
    beta[0] = beta0
    if k_max >= 1:
        beta[1] = beta1
        s0 = beta[1] / 2.0 - (3.0 * root / 2.0) * beta[0]
        for k in range(1, k_max):
            powers = lam ** np.arange(k - 1, -1, -1.0)
            history = float(powers @ beta[:k])
            beta[k + 1] = 3.0 * root * beta[k] + 4.0 * root * history + 2.0 * lam**k * s0
    return beta


def min_bits_threshold(n, lambda2_mag) -> float:
    """The real threshold that the bit width must strictly exceed."""
    if not 0.0 <= lambda2_mag < 1.0:
        raise Lambda2NotContractive(f"|lambda_2| = {lambda2_mag} not in [0, 1)")
    return 0.5 * math.log2(n) + math.log2((7.0 - 3.0 * lambda2_mag) / (1.0 - lambda2_mag))


def min_bits(n, lambda2_mag) -> int:
    """Smallest integer bit width that makes beta(k) -> 0."""
    return math.floor(min_bits_threshold(n, lambda2_mag)) + 1


def bits_for_rate(n, lambda2_mag, eta) -> int:
    """Bit width guaranteeing beta(k) <= ||(beta(1), beta(0))|| eta^k.

    Requires |lambda_2| < eta < 1; returns the ceiling of the real bit
    requirement, so the achieved decay rate effective_eta(...) is <= eta.
    """
    if not 0.0 <= lambda2_mag < 1.0:
        raise Lambda2NotContractive(f"|lambda_2| = {lambda2_mag} not in [0, 1)")
    if not lambda2_mag < eta < 1.0:
        raise EtaOutOfRange(f"eta = {eta} not in (|lambda_2| = {lambda2_mag}, 1)")
    gap = eta - lambda2_mag
    return math.ceil(0.5 * math.log2(n) + math.log2((4.0 + 3.0 * gap) / (eta * gap)))


def effective_eta(n, lambda2_mag, bits) -> float:
    """Exact decay rate of beta(k): the dominant root of the recursion.

    The two-term recursion's companion matrix has largest eigenvalue
    (a + sqrt(a^2 + 4c))/2 with a = 3 sqrt(N)/2^b + |lambda_2| and
    c = (sqrt(N)/2^b)(4 - 3|lambda_2|); beta decays iff this is < 1,
    which holds exactly when bits > min_bits_threshold(n, lambda_2).
    """
    a, c = _recursion_coefficients(n, lambda2_mag, bits)
    return 0.5 * (a + math.sqrt(a * a + 4.0 * c))


def required_total_rate(network, spectral, overhead_bits=0) -> float:
    """Total network bits/step sufficient for quantized consensus.

    link_count * (overhead + the per-message bit threshold); callers
    round up to whole bits.
    """
    threshold = min_bits_threshold(network.n, spectral.lambda2_mag)
    return network.link_count * (overhead_bits + threshold)
