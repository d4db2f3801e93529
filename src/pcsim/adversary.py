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

from . import _compiled
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

_BLOCK = 64  # trials per reduction block (_loops.c LANES); fixed, so no result depends on workers
_ROWS = 256  # steps per block of the numpy moment recursion; bounds its temporaries


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
    mean, E[e(k)] with K+1 rows, is derived from the trace on each
    read, with no cache, by the mean recursion that closed_form_moments
    steps (bit for bit the same values).
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
        run = _compiled_rows(self.trace, self.gamma)
        if run is not None:
            steps, n = self.trace.x.shape
            mean = np.empty((steps, n))
            run(0, steps, np.zeros(n), np.zeros(n), np.empty(steps), mean, np.inf)
            return mean
        zero = np.zeros(self.trace.n)
        with np.errstate(all="ignore"):
            if self.trace.protocol == "classical":
                return _hold_means(_increments(self.trace.x, zero), zero, self.gamma)
            return _innovation_means(self.trace.sent, zero, self.gamma)


@dataclass(frozen=True)
class ProtectionReport:
    """Protection levels extracted from moments on one trace.

    protection[k] = tr Sigma(k) / ||x(k)||^2 (+inf where the state is
    exactly zero, NaN where it holds NaN); epsilon_observed is the
    largest epsilon with tr Sigma(k) >= epsilon ||x(k)||^2 + c_constant
    at every step, on the recursion's tr Sigma(k) (NaN for a NaN trace);
    `pcsim run` and `pcsim verify` test floor_coefficient on it alone.
    """

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


def _sq_norms(e):
    """||e(k)||^2 for each row k of e, summed in the one fixed order of _loops.c's sq_norm.

    That is numpy's einsum("kn,kn->k") order at its X86_V2 baseline
    (two SSE2 lanes, no FMA), so on such a build this is einsum's
    result bit for bit, and on any build it is the compiled trials'.
    Entry i goes to lane i % 2, and each lane starts at 0.0; each full
    group of 8 entries from j adds e[j+l]^2 + (e[j+2+l]^2 + (e[j+4+l]^2
    + (e[j+6+l]^2 + acc_l))) to lane l, each later entry i adds
    e[i]^2 + acc_(i % 2), and the norm is acc_0 + acc_1.  Each add here
    is one column add over every row.  A NaN norm is written as np.nan:
    which NaN an add keeps when both operands are NaN is not fixed.
    """
    sq = e * e
    n = sq.shape[1]
    acc = [np.zeros(len(sq)), np.zeros(len(sq))]
    for j in range(0, n - 7, 8):
        for lane, i in enumerate((j, j + 1)):
            acc[lane] = sq[:, i] + (sq[:, i + 2] + (sq[:, i + 4] + (sq[:, i + 6] + acc[lane])))
    for i in range(n - n % 8, n):
        acc[i % 2] = sq[:, i] + acc[i % 2]
    q = acc[0] + acc[1]
    q[np.isnan(q)] = np.nan
    return q


def _numpy_block(error_into, e):
    """A block of trials in numpy, each its own pass: the reference the compiled blocks match.

    Per trial, the miss mask (_missed, from np.random.Philox(stream)),
    then error_into(missed, e) writes e(k) into `e`; e is added to
    sum_e, q = ||e(k)||^2 (_sq_norms) to sum_q and q*q to sumsq_q.
    """

    def block(streams, threshold, sums):
        sum_e, sum_q, sumsq_q = sums
        for stream in streams:
            error_into(_missed(np.random.Philox(stream), e.shape, *threshold), e)
            sum_e += e
            q = _sq_norms(e)
            sum_q += q
            sumsq_q += np.multiply(q, q, out=q)

    return block


def _keys(streams):
    """Each stream's Philox key, as np.random.Philox(stream) derives it: a (trials, 2) array."""
    return np.array([stream.generate_state(2, np.uint64) for stream in streams])


def _lanes(rows, dtype=float):
    """A work array of a compiled block: each row holds one entry per trial, in 64 lanes."""
    return np.empty((rows, _BLOCK), dtype)


def _accumulate(block, streams, threshold, sums):
    """Add one block's trials into sums = (sum_e, sum_q, sumsq_q); returns sums.

    block(streams, threshold, sums) adds each trial's error e(k),
    ||e(k)||^2 and its square to the sums, trial after trial.  The
    caller allocates the sums and every buffer of `block` on its own
    thread, and none is shared with another block in flight.
    """
    # a pool thread does not inherit the caller's errstate
    with np.errstate(all="ignore"):
        block(streams, threshold, sums)
    return sums


def _run_mc(kernel, gamma, trials, seed, shape, workers=1):
    """Shared Monte Carlo driver: one bounded worker pool, fixed reduction order.

    Trial streams are spawned block by block (64 trials each) from one
    SeedSequence on the calling thread, so trial i always gets child i.
    Each block runs on a pool of min(workers, blocks, os.cpu_count())
    threads, and its partial sums are folded into the totals in block
    order; when every worker holds a block, the oldest is folded before
    the next is submitted.  So at most one block per worker is in
    flight, memory does not grow with the trial count, and the result
    never depends on the worker count.  kernel() makes a block function
    (see _accumulate) with its own buffers.  It is called here,
    on the calling thread, where the block's zeroed sums are allocated
    too, so every block array comes from this thread's malloc arena and
    reuses the memory that a folded block frees (allocated in a pool
    thread, they raised the peak RSS of a run).
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
                block = np.zeros(shape), np.zeros(shape[0]), np.zeros(shape[0])
                pending.append(pool.submit(_accumulate, kernel(), streams, threshold, block))
            while pending:
                fold_oldest()

        sum_e, sum_q, sumsq_q = sums
        m = trials
        mean = sum_e / m
        # which NaN an add keeps when both operands are NaN is up to the
        # compiler or numpy's build, as for _sq_norms
        mean[np.isnan(mean)] = np.nan
        mean_q = sum_q / m
        var_q = np.maximum(sumsq_q - m * mean_q**2, 0.0) / (m - 1)
    return EmpiricalMoments(
        mean=mean,
        sq_norm=mean_q,
        se_sq_norm=np.sqrt(var_q / m),
    )


def run_adversary_classical_mc(trace, gamma, trials, seed, workers=1) -> EmpiricalMoments:
    """Ensemble error statistics of the hold-last-interception estimator.

    Per trial, xhat_i(k) is x_i at the most recent intercepted step
    <= k, or 0 if agent i was never intercepted; e(k) = x(k) - xhat(k).
    A block of 64 trials runs in one call of the compiled hold_block
    (_compiled.function) where one can be built, which draws the
    trials' interceptions from their Philox keys itself and runs the
    trials side by side, one per SIMD lane; else each trial runs in
    numpy (_missed, then the kernel below).  Both give the same bits,
    and the compiled call releases the GIL, so workers run blocks,
    draws included, in parallel.
    """
    if trace.protocol != "classical":
        raise ProtocolMismatch(f"state adversary needs a classical trace, got {trace.protocol!r}")
    x = np.ascontiguousarray(trace.x, dtype=float)
    sent = np.ascontiguousarray(trace.sent, dtype=float)
    steps, n = x.shape
    compiled = _compiled.function("hold_block")
    if compiled is not None:

        def kernel():
            words, held, e = _lanes(4 * n, np.uint64), _lanes(n, np.uint64), _lanes(n)
            return lambda streams, threshold, sums: compiled(
                _keys(streams), len(streams), x, sent, steps, n, *threshold, words, held, e, *sums)

        return _run_mc(kernel, gamma, trials, seed, (steps, n), workers)

    # sent with a zero row appended, flat: (k, i) sits at k n + i and
    # the zero row at -n + i, below every state index, so a running
    # maximum of intercepted indices is the last interception or the zero row
    held = np.concatenate([sent.ravel(), np.zeros(n)])
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

        return _numpy_block(error_into, np.empty((steps, n)))

    return _run_mc(kernel, gamma, trials, seed, (steps, n), workers)


def run_adversary_icc_mc(trace, gamma, trials, seed, workers=1) -> EmpiricalMoments:
    """Ensemble error statistics of the innovation-integrating estimator.

    Per trial, the adversary adds every intercepted broadcast to a
    running estimate, so e(k) is the sum of the broadcasts it missed:
    e(k) = sum_{t=0}^{k} (1 - mu(t)) sent(t).  A block of 64 trials
    runs in one call of the compiled innovation_block
    (_compiled.function) where one can be built, which draws the
    trials' interceptions from their Philox keys itself and runs the
    trials side by side, one per SIMD lane; else each trial runs in
    numpy (_missed, then a cumsum).  Both give the same bits, and the
    compiled call releases the GIL, so workers run blocks, draws
    included, in parallel.
    """
    if trace.protocol not in ("icc", "bicc"):
        raise ProtocolMismatch(
            f"innovation adversary needs an icc/bicc trace, got {trace.protocol!r}"
        )
    sent = np.ascontiguousarray(trace.sent, dtype=float)
    steps, n = sent.shape
    compiled = _compiled.function("innovation_block")

    def kernel():
        if compiled is not None:
            words, e = _lanes(4 * n, np.uint64), _lanes(n)
            return lambda streams, threshold, sums: compiled(
                _keys(streams), len(streams), sent, steps, n, *threshold, words, e, *sums)

        def error_into(missed, e):
            np.multiply(sent, missed, out=e)
            np.cumsum(e, axis=0, out=e)

        return _numpy_block(error_into, np.empty((steps, n)))

    return _run_mc(kernel, gamma, trials, seed, (steps, n), workers)


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


def _compiled_rows(trace, gamma):
    """The compiled moment recursion over the trace's rows, or None without the library.

    run(lo, hi, m, s, tr, mean, v_min) steps m and s (n-long, the values
    before row lo) in place through rows lo..hi-1, writes tr[lo:hi] and,
    where mean is given, mean[lo:hi], and returns the least of v_min and
    each s - m^2.  1-g, (1-g)^2 and g(1-g) are formed as _innovation_rows
    and _hold_rows form them.
    """
    compiled = _compiled.function("moment_rows")
    if compiled is None:
        return None
    miss = 1.0 - gamma
    hold = trace.protocol == "classical"
    rows = np.ascontiguousarray(trace.x if hold else trace.sent, dtype=float)
    x, sent = (rows, None) if hold else (None, rows)
    return lambda lo, hi, m, s, tr, mean, v_min: compiled(
        x, sent, lo, hi, rows.shape[1], miss, miss**2, gamma * miss, m, s, tr, mean, v_min)


def _sigma(m, s):
    """Sigma = m m^T with the diagonal s."""
    sigma = np.outer(m, m)
    np.fill_diagonal(sigma, s)
    return sigma


def closed_form_moments(trace, gamma, sigma_at=()) -> MomentRecursion:
    """Exact tr Sigma(k) for all k, by per-agent recursion; E[e(k)] on read.

    Interception is independent across agents, so Sigma(k) = m m^T +
    diag(v) with m = E[e(k)]: only the mean m and the diagonal s of
    Sigma(k) evolve, at O(n) cost per step.  Where the library can be
    built they are stepped in C (_compiled_rows, moment_rows in
    _loops.c), one call over every row, split only after the steps in
    `sigma_at`, carrying only m and s; else in numpy, 256 rows at a
    time, carrying only m, s and (classical) the previous state from
    block to block: the means by the helper that MomentRecursion.mean
    also calls (_innovation_means, _hold_means), then s from them
    (_innovation_rows, _hold_rows).  Both routes give the same bits.
    Each element sees the same floating-point operations, in the same
    order, as the diagonal of the dense n x n recursion Sigma(k) =
    Sigma(k-1) + Gamma(k) (innovation protocols) or Sigma(k) = (1-g)^2 A
    + g(1-g) diag(A) (classical) that they replace.  So no (K+1) x n
    array is held: the result stores tr Sigma(k), and derives the mean
    when read.  Sigma(k) is rebuilt as m m^T with the recursion's
    diagonal for the steps in `sigma_at`; v = s - m^2 is checked at
    every step.
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
    run = _compiled_rows(trace, gamma)
    # an overflowing or NaN trace gives inf or NaN moments, without warnings
    with np.errstate(all="ignore"):
        if run is not None:
            m, s, lo = np.zeros(n), np.zeros(n), 0  # stepped in place
            for k in sigma_at:
                if 0 <= k < steps:
                    v_min = run(lo, k + 1, m, s, tr, None, v_min)
                    samples[k], lo = _sigma(m, s), k + 1
            v_min = run(lo, steps, m, s, tr, None, v_min)
        else:
            m = s = prev = np.zeros(n)
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
                        samples[k] = _sigma(m_rows[k - lo], s_rows[k - lo])

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
        protection=protection,
        min_protection=float(finite.min()) if finite.size else np.inf,
        asymptotic_protection=float(protection[-1]),
        epsilon_observed=float(np.min(excess)),
    )
