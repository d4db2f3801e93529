"""Eavesdropping adversaries: interception, estimators, error moments.

An adversary overhears each agent's transmission at step k with
probability gamma, independently across agents, steps, and trials, and
maintains the best estimate available without knowing the network.
What it can overhear is the trace's broadcast stream `sent` (row k is
the broadcast it can use when estimating x(k)); the true states `x`
are read only to measure its error:

* classical traces — hold the last intercepted state (zero before the
  first hit);
* icc/bicc traces — integrate every intercepted innovation, starting
  from the intercepted initial broadcast.

Both the Monte Carlo ensemble statistics and the exact closed-form
moment recursions of the estimation error e(k) = x(k) - xhat(k) are
provided, along with the protection level tr Sigma(k) / ||x(k)||^2
that quantifies how much of the state stays hidden.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ProtocolMismatch
from .protocols import SimulationTrace

__all__ = [
    "EmpiricalMoments",
    "MomentRecursion",
    "ProtectionReport",
    "run_adversary_classical_mc",
    "run_adversary_icc_mc",
    "closed_form_moments",
    "protection_report",
]

_BLOCK = 64  # trials per reduction block; fixed so results never depend on worker count
_ROWS = 256  # steps per block of the moment recursion; bounds its temporaries
_EPS = 2.0**-52  # float64 machine epsilon: truncation level of the classical cross-check


@dataclass(frozen=True)
class EmpiricalMoments:
    """Per-step ensemble statistics of the adversary error e(k).

    mean is the per-agent first moment; sq_norm/se_sq_norm are the
    scalar E[||e(k)||^2] and its standard error.
    """

    mean: np.ndarray = field(repr=False)
    sq_norm: np.ndarray = field(repr=False)
    se_sq_norm: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class MomentRecursion:
    """Exact per-step moments of the adversary error for one trace.

    trace_second_moment is tr Sigma(k) from the per-agent recursion.
    Two arrays are derived from the trace on each read, with no cache:
    mean, E[e(k)] with K+1 rows, by the mean recursion that
    closed_form_moments steps (bit for bit the same values), and
    trace_second_moment_direct, the same quantity as
    trace_second_moment along an independent arithmetic route (the
    telescoped closed form for icc/bicc; for classical the
    last-interception sum, truncated within 2^-52 max_t ||x(k) - x(t)||^2
    of the full sum), as the dual-route tests' reference.
    c_constant is the additive floor constant gamma(1-gamma)||x(0)||^2
    (quantized initial states for bicc; zero for classical, which has
    no protection floor), floor_coefficient the multiplicative floor
    (1-gamma)^2 (zero for classical).  sigma_samples holds full
    Sigma(k) matrices at requested steps.  min_eigenvalue is the
    smallest v_i(k) = Sigma_ii(k) - m_i(k)^2 over every step and agent:
    since Sigma(k) = m m^T + diag(v) with m m^T PSD, it is a lower
    bound on the smallest eigenvalue of every Sigma(k) (Weyl), so
    min_eigenvalue >= 0 up to rounding certifies PSD at every step.
    It is NaN when the trace holds NaN.
    """

    gamma: float
    trace: SimulationTrace = field(repr=False)
    trace_second_moment: np.ndarray = field(repr=False)
    c_constant: float
    floor_coefficient: float
    sigma_samples: dict[int, np.ndarray] = field(repr=False)
    min_eigenvalue: float

    @property
    def mean(self) -> np.ndarray:
        """E[e(k)] for k = 0..K, derived from the trace."""
        zero = np.zeros(self.trace.n)
        with np.errstate(all="ignore"):
            if self.trace.protocol == "classical":
                return _hold_means(_increments(self.trace.x, zero), zero, self.gamma)
            return _innovation_means(self.trace.sent, zero, self.gamma)

    @property
    def trace_second_moment_direct(self) -> np.ndarray:
        """tr Sigma(k) along the independent route, derived from the trace."""
        if self.trace.protocol == "classical":
            return _last_interception_route(self.trace.x, self.gamma)
        return _telescoped_route(self.trace.x, self.trace.sent, self.gamma)


@dataclass(frozen=True)
class ProtectionReport:
    """Protection levels extracted from moments on one trace.

    protection[k] = tr Sigma(k) / ||x(k)||^2 (+inf where the state is
    exactly zero, NaN where it holds NaN); epsilon_observed is the
    largest epsilon such that tr Sigma(k) >= epsilon ||x(k)||^2 + c
    held at every step, on the recursion's tr Sigma(k) (NaN for a NaN
    trace); `pcsim run` and `pcsim verify` test the floor on it alone.
    """

    floor: float
    c: float
    protection: np.ndarray = field(repr=False)
    min_protection: float
    asymptotic_protection: float
    epsilon_observed: float


def _miss_threshold(gamma):
    """T = ceil(gamma 2^53) split into its top 8 and low 45 bits.

    numpy's random() is u = N 2^-53 with N the top 53 bits of one 64-bit
    word, so a draw misses (u >= gamma) iff N >= T, with probability
    (2^53 - T) / 2^53.
    """
    t = math.ceil(gamma * 2.0**53)
    return t >> 45, t & (2**45 - 1)


def _missed(bitgen, shape, top, low):
    """One trial's miss mask: True where the broadcast at (step, agent) was missed.

    Equivalent in law to the 53-bit test N >= T (see _miss_threshold)
    at one byte of the stream per draw: the byte is the top 8 bits of
    N, and only a byte equal to T's top 8 bits (1 draw in 256) needs
    the other 45, taken from the top of one more 64-bit word; ties are
    resolved in row-major (step, agent) order.  When T's low 45 bits
    are 0 a tie always misses and no further word is drawn.
    """
    size = shape[0] * shape[1]
    words = bitgen.random_raw(-(-size // 8)).astype("<u8", copy=False)
    head = words.view(np.uint8)[:size].reshape(shape)
    if low == 0:
        return head >= top
    missed = head > top
    tie = np.flatnonzero(head == top)
    missed.reshape(-1)[tie] = bitgen.random_raw(tie.size) >> 19 >= low
    return missed


def _accumulate(kernel, streams, shape, threshold):
    """Sum per-trial error arrays, and ||e(k)||^2 and its square, over one block.

    kernel() builds the block's own error_into(missed, out), which
    writes one trial's error e into `out`; every per-trial buffer,
    the kernel's included, belongs to this block and is reused across
    its trials, so concurrent blocks share none.
    """
    error_into = kernel()
    sum_e = np.zeros(shape)
    sum_q = np.zeros(shape[0])
    sumsq_q = np.zeros(shape[0])
    e = np.empty(shape)
    q = np.empty(shape[0])
    # a pool thread does not inherit the caller's errstate
    with np.errstate(all="ignore"):
        for stream in streams:
            error_into(_missed(np.random.Philox(stream), shape, *threshold), e)
            sum_e += e
            np.einsum("kn,kn->k", e, e, out=q)
            sum_q += q
            sumsq_q += np.multiply(q, q, out=q)
    return sum_e, sum_q, sumsq_q


def _run_mc(kernel, gamma, trials, seed, shape, workers=1):
    """Shared Monte Carlo driver: one bounded worker pool, fixed reduction order.

    Trial streams are spawned block by block (64 trials each) from one
    SeedSequence on the calling thread, so trial i always gets child i.
    Each block runs on a pool of min(workers, blocks, os.cpu_count())
    threads, and its partial sums are folded into the totals in block
    order; when every worker holds a block, the oldest is folded before
    the next is submitted.  So at most one block per worker is in
    flight, memory does not grow with the trial count, and the result
    never depends on the worker count.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if trials < 2:
        raise ValueError(f"need at least 2 trials for standard errors, got {trials}")
    root = np.random.SeedSequence(seed)
    threshold = _miss_threshold(gamma)
    sums = np.zeros(shape), np.zeros(shape[0]), np.zeros(shape[0])
    starts = range(0, trials, _BLOCK)
    size = min(workers, len(starts), os.cpu_count() or 1)
    pending = deque()

    def fold_oldest():
        for total, part in zip(sums, pending.popleft().result()):
            total += part

    # an overflowing or NaN trace gives inf or NaN moments, without warnings
    with np.errstate(all="ignore"):
        with ThreadPoolExecutor(max_workers=size) as pool:
            for lo in starts:
                if len(pending) == size:
                    fold_oldest()
                streams = root.spawn(min(_BLOCK, trials - lo))
                pending.append(pool.submit(_accumulate, kernel, streams, shape, threshold))
            while pending:
                fold_oldest()

        sum_e, sum_q, sumsq_q = sums
        m = trials
        mean_q = sum_q / m
        var_q = np.maximum(sumsq_q - m * mean_q**2, 0.0) / (m - 1)
    return EmpiricalMoments(
        mean=sum_e / m,
        sq_norm=mean_q,
        se_sq_norm=np.sqrt(var_q / m),
    )


def run_adversary_classical_mc(trace, gamma, trials, seed, workers=1) -> EmpiricalMoments:
    """Ensemble error statistics of the hold-last-interception estimator.

    Per trial, xhat_i(k) is x_i at the most recent intercepted step
    <= k, or 0 if agent i was never intercepted; e(k) = x(k) - xhat(k).
    """
    if trace.protocol != "classical":
        raise ProtocolMismatch(f"state adversary needs a classical trace, got {trace.protocol!r}")
    x = trace.x
    steps, n = x.shape
    # sent (the states) with a zero row appended, flat: (k, i) sits at
    # k n + i and the zero row at -n + i, below every state index, so a
    # running maximum of intercepted indices is the last interception or the zero row
    held = np.concatenate([trace.sent.ravel(), np.zeros(n)])
    at = np.arange(steps * n).reshape(steps, n)
    to_zero_row = (np.arange(1, steps + 1) * n)[:, None]

    def kernel():
        last = np.empty((steps, n), dtype=np.int64)

        def error_into(missed, e):
            np.multiply(missed, to_zero_row, out=last)
            np.subtract(at, last, out=last)
            np.maximum.accumulate(last, axis=0, out=last)
            np.take(held, last, out=e, mode="wrap")
            np.subtract(x, e, out=e)

        return error_into

    return _run_mc(kernel, gamma, trials, seed, (steps, n), workers)


def run_adversary_icc_mc(trace, gamma, trials, seed, workers=1) -> EmpiricalMoments:
    """Ensemble error statistics of the innovation-integrating estimator.

    Per trial, the adversary adds every intercepted broadcast to a
    running estimate, so e(k) is the sum of the broadcasts it missed:
    e(k) = sum_{t=0}^{k} (1 - mu(t)) sent(t).
    """
    if trace.protocol not in ("icc", "bicc"):
        raise ProtocolMismatch(
            f"innovation adversary needs an icc/bicc trace, got {trace.protocol!r}"
        )
    sent = trace.sent
    steps, n = sent.shape

    def error_into(missed, e):
        np.multiply(sent, missed, out=e)
        np.cumsum(e, axis=0, out=e)

    return _run_mc(lambda: error_into, gamma, trials, seed, (steps, n), workers)


def _innovation_means(sent, m, gamma):
    """Means m(k) = m(k-1) + (1-g) sent(k) over the rows of `sent`, from m before them.

    A cumsum over steps adds the same terms in the same order as
    stepping them one by one, so one call over every step and calls
    over consecutive blocks, each carrying its last row, give the same
    bits.  The first row adds m even when it is zero, as the step
    would (turning a -0.0 term into +0.0).
    """
    mean = sent * (1.0 - gamma)
    mean[0] += m
    return np.cumsum(mean, axis=0, out=mean)


def _innovation_rows(xi, before, s, gamma):
    """One block of the icc/bicc second-moment recursion; returns the rows of s.

    s(k) = (s(k-1) + T(k)) + B(k) with T = (1-g)^2 xi^2 + (1-g) 2
    m(k-1) xi and B = g(1-g) xi^2, a running sum over steps: a cumsum
    with T and B interleaved adds the same terms in the same order as
    stepping them one by one.  `before` holds m(k-1) for each row and
    `s` is the value before the block.
    """
    miss = 1.0 - gamma
    mx = before * xi
    terms = np.empty((2 * len(xi), xi.shape[1]))
    terms[0::2] = miss**2 * (xi * xi) + miss * (mx + mx)
    terms[1::2] = gamma * miss * xi * xi
    terms[0] += s
    np.cumsum(terms, axis=0, out=terms)
    return terms[1::2]


def _increments(x, prev):
    """d(k) = x(k) - x(k-1) over the rows of x; `prev` is the row before the first."""
    d = np.empty_like(x)
    np.subtract(x[0], prev, out=d[0])
    np.subtract(x[1:], x[:-1], out=d[1:])
    return d


def _hold_means(d, m, gamma):
    """Means m(k) = (1-g)(m(k-1) + d(k)) over the rows of d, from m before them."""
    miss = 1.0 - gamma
    mean = np.empty_like(d)
    for step, out in zip(d, mean):
        m = np.multiply(miss, m + step, out=out)
    return mean


def _hold_rows(d, before, s, gamma):
    """One block of the classical second-moment recursion; returns the rows of s.

    a = s(k-1) + 2 m(k-1) d + d^2, then s(k) = (1-g)^2 a + g(1-g) a.
    `before` holds m(k-1) for each row of the steps d and `s` is the
    value before the block; m d and d^2 are formed for the whole block.
    """
    miss = 1.0 - gamma
    sq = miss**2
    keep = gamma * miss
    md = before * d
    dd = d * d
    rows = np.empty_like(d)
    for cross, square, out in zip(md, dd, rows):
        a = s + cross + cross + square
        s = np.add(sq * a, keep * a, out=out)
    return rows


def _last_interception_route(x, gamma):
    """tr Sigma(k) of the hold estimator, conditioned on the last interception.

    The last interception of an agent at or before k falls at t with
    probability g(1-g)^(k-t), leaving error x(k) - x(t); with
    probability (1-g)^(k+1) there was none and the error is x(k).  Only
    the last W = ceil(ln eps / ln(1-g)) + 1 terms of the t-sum are added
    (eps = 2^-52).  The dropped terms carry total weight at most
    (1-g)^W <= eps, so the result differs from the full sum by at most
    (1-g)^W max_t ||x(k) - x(t)||^2 <= eps max_t ||x(k) - x(t)||^2
    (t <= k), besides rounding.  W = 1 at g = 0, where every term has
    weight 0, and at g = 1, where only t = k counts.
    """
    steps = x.shape[0]
    if gamma in (0.0, 1.0):
        window = 1
    else:
        window = math.log(_EPS) / math.log1p(-gamma)
        window = steps if window >= steps else math.ceil(window) + 1
    pow_miss = (1.0 - gamma) ** np.arange(steps + 1)
    direct = np.empty(steps)
    for k in range(steps):
        lo = max(0, k - window + 1)
        diff = x[k] - x[lo : k + 1]
        direct[k] = gamma * (
            pow_miss[k - lo :: -1] @ np.einsum("tn,tn->t", diff, diff)
        ) + pow_miss[k + 1] * (x[k] @ x[k])
    return direct


def _telescoped_route(x, sent, gamma):
    """tr Sigma(k) of the integrating estimator in its telescoped form.

    tr Sigma(k) = (1-g)^2 ||x(k)||^2 + g(1-g) sum_{t<=k} ||sent(t)||^2.
    """
    power = np.einsum("kn,kn->k", sent, sent)
    power[0] = x[0] @ x[0]  # row 0 as c takes it: an einsum row may round differently
    np.cumsum(power, out=power)
    return (1.0 - gamma) ** 2 * np.einsum("kn,kn->k", x, x) + gamma * (1.0 - gamma) * power


def closed_form_moments(trace, gamma, sigma_at=()) -> MomentRecursion:
    """Exact tr Sigma(k) for all k, by per-agent recursion; E[e(k)] on read.

    Interception is independent across agents, so Sigma(k) = m m^T +
    diag(v) with m = E[e(k)]: only the mean m and the diagonal s of
    Sigma(k) evolve, at O(n) cost per step.  They are stepped 256 rows
    at a time, carrying only m, s and (classical) the previous state
    from block to block: the means by the helper that
    MomentRecursion.mean also calls (_innovation_means, _hold_means),
    then s from them (_innovation_rows, _hold_rows).  Each element sees
    the same floating-point operations, in the same order, as the
    diagonal of the dense n x n recursion Sigma(k) = Sigma(k-1) +
    Gamma(k) (innovation protocols) or Sigma(k) = (1-g)^2 A + g(1-g)
    diag(A) (classical) that they replace.  So no (K+1) x n array is
    held: the result stores tr Sigma(k), and derives the mean, and the
    trace along an independent arithmetic route (innovation protocols:
    the telescoped cumulative form; classical: conditioning on the last
    interception time), when read.
    Sigma(k) is rebuilt as m m^T with the recursion's diagonal for the
    steps in `sigma_at`; v = s - m^2 is checked at every step.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if trace.protocol not in ("classical", "icc", "bicc"):
        raise ProtocolMismatch(f"unknown protocol {trace.protocol!r}")
    x, sent = trace.x, trace.sent
    steps, n = x.shape
    sigma_at = sorted(set(int(k) for k in sigma_at))

    tr = np.empty(steps)
    samples: dict[int, np.ndarray] = {}
    v_min = np.inf
    m = s = prev = np.zeros(n)
    # an overflowing or NaN trace gives inf or NaN moments, without warnings
    with np.errstate(all="ignore"):
        for lo in range(0, steps, _ROWS):
            hi = min(lo + _ROWS, steps)
            if trace.protocol == "classical":
                d = _increments(x[lo:hi], prev)
                m_rows = _hold_means(d, m, gamma)
                s_rows = _hold_rows(d, np.vstack([m, m_rows[:-1]]), s, gamma)
                prev = x[hi - 1]
            else:
                m_rows = _innovation_means(sent[lo:hi], m, gamma)
                s_rows = _innovation_rows(sent[lo:hi], np.vstack([m, m_rows[:-1]]), s, gamma)
            m, s = m_rows[-1], s_rows[-1]
            tr[lo:hi] = s_rows.sum(axis=1)
            # Sigma = m m^T + diag(v) with m m^T PSD, so min v <= lambda_min(Sigma)
            v_min = np.minimum(v_min, np.min(s_rows - m_rows * m_rows))
            for k in sigma_at:
                if lo <= k < hi:
                    sigma = np.outer(m_rows[k - lo], m_rows[k - lo])
                    np.fill_diagonal(sigma, s_rows[k - lo])
                    samples[k] = sigma

        if trace.protocol == "classical":
            c = 0.0
            floor = 0.0
        else:
            floor = (1.0 - gamma) ** 2
            c = gamma * (1.0 - gamma) * float(x[0] @ x[0])

    return MomentRecursion(
        gamma=gamma,
        trace=trace,
        trace_second_moment=tr,
        c_constant=c,
        floor_coefficient=floor,
        sigma_samples=samples,
        min_eigenvalue=float(v_min),
    )


def protection_report(trace, moments: MomentRecursion):
    """Protection levels of a trace given its (closed-form) moments.

    Where ||x(k)|| = 0 the ratio is reported as +inf (the raw moment
    stays available in `moments`), and where the state holds NaN it is
    NaN; min/asymptotic levels are taken over the finite entries.
    """
    state_power = np.einsum("kn,kn->k", trace.x, trace.x)
    zero = state_power == 0.0
    tr = moments.trace_second_moment
    with np.errstate(all="ignore"):
        protection = np.where(zero, np.inf, tr / state_power)
        excess = np.where(zero, np.inf, (tr - moments.c_constant) / state_power)
    finite = protection[np.isfinite(protection)]
    return ProtectionReport(
        floor=moments.floor_coefficient,
        c=moments.c_constant,
        protection=protection,
        min_protection=float(finite.min()) if finite.size else np.inf,
        asymptotic_protection=float(protection[-1]),
        epsilon_observed=float(np.min(excess)),
    )
