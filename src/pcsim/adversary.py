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
    read, with no cache, by the recursion closed_form_moments steps
    (_moment_rows), so with the same bits.
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
        steps, n = self.trace.x.shape
        mean = np.empty((steps, n))
        run = _moment_rows(self.trace, self.gamma)
        run(0, steps, np.zeros(n), np.zeros(n), np.empty(steps), mean, np.inf)
        return mean


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


def _numpy_mc_block(keys, trials, hold, rows, steps, n, top, low, words, held, e, sum_e, sum_q,
                    sumsq_q):
    """_loops.c's mc_block in numpy: its arguments, and its operations trial after trial.

    Trial t draws its miss mask by _missed from np.random.Philox(key=
    keys[t]), the words of Philox(stream) for the stream that gave the
    key.  Its error e(k) is cumsum(rows * missed) on the broadcasts, or
    where hold is set x(k) less the last intercepted x(k) on the states
    (the hold-last adversary, 0.0 before the first hit); then e is added
    to sum_e, q = ||e(k)||^2 (_sq_norms) to sum_q and q q to sumsq_q.
    It does not read the C lane arrays words, held and e: each trial's
    error is a steps x n array of its own.
    """
    error = np.empty((steps, n))
    if hold:
        # rows with a zero row appended, flat: (k, i) sits at k n + i and
        # the zero row at -n + i, below every state index, so a running
        # maximum of intercepted indices is the last interception or the zero row
        flat = np.concatenate([rows.ravel(), np.zeros(n)])
        at = np.arange(steps * n).reshape(steps, n)
        to_zero_row = (np.arange(1, steps + 1) * n)[:, None]
        last = np.empty((steps, n), dtype=np.int64)
    # a pool thread does not inherit the caller's errstate
    with np.errstate(all="ignore"):
        for key in keys[:trials]:
            missed = _missed(np.random.Philox(key=key), (steps, n), top, low)
            if hold:
                np.multiply(missed, to_zero_row, out=last)
                np.subtract(at, last, out=last)
                np.maximum.accumulate(last, axis=0, out=last)
                np.take(flat, last, out=error, mode="wrap")
                np.subtract(rows, error, out=error)
            else:
                np.multiply(rows, missed, out=error)
                np.cumsum(error, axis=0, out=error)
            sum_e += error
            q = _sq_norms(error)
            sum_q += q
            sumsq_q += np.multiply(q, q, out=q)


def _run_mc(rows, hold, gamma, trials, seed, workers=1):
    """Both adversaries' Monte Carlo driver: one bounded worker pool, fixed reduction order.

    rows and hold are _moment_rows' pair: the states x, hold set, for
    the hold-last adversary, the broadcasts sent for the innovation one.
    Each block of 64 trials is one call of mc_block, or of its numpy
    twin _numpy_mc_block where the library is unavailable, with the same
    arguments and the same bits.  Trial streams are spawned block by
    block from one SeedSequence on the calling thread, so trial i always
    gets child i, and passed as their Philox keys.  Each block runs on a
    pool of min(workers, blocks, os.cpu_count()) threads, and its
    partial sums are folded into the totals in block order; when every
    worker holds a block, the oldest is folded before the next is
    submitted.  So at most one block per worker is in flight, memory
    does not grow with the trial count, and the result never depends on
    the worker count.  A block's keys, lane arrays and zeroed sums are
    allocated here, on the calling thread, so they come from this
    thread's malloc arena and reuse the memory that a folded block frees
    (allocated in a pool thread, they raised the peak RSS of a run);
    none is shared with another block in flight.  The compiled call
    releases the GIL, so workers run blocks, draws included, in
    parallel.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if trials < 2:
        raise ValueError(f"need at least 2 trials for standard errors, got {trials}")
    block = _compiled.function("mc_block") or _numpy_mc_block
    rows = np.ascontiguousarray(rows, dtype=float)
    steps, n = rows.shape
    root = np.random.SeedSequence(seed)
    threshold = _miss_threshold(gamma)
    sums = np.zeros((steps, n)), np.zeros(steps), np.zeros(steps)
    starts = range(0, trials, _BLOCK)
    size = min(workers, len(starts), os.cpu_count() or 1)
    pending = deque()

    def fold_oldest():
        done, part = pending.popleft()
        done.result()
        for total, partial in zip(sums, part):
            total += partial

    # an overflowing or NaN trace gives inf or NaN moments, without warnings
    with np.errstate(all="ignore"):
        with ThreadPoolExecutor(max_workers=size) as pool:
            for lo in starts:
                if len(pending) == size:
                    fold_oldest()
                keys = np.array([stream.generate_state(2, np.uint64)
                                 for stream in root.spawn(min(_BLOCK, trials - lo))])
                part = np.zeros((steps, n)), np.zeros(steps), np.zeros(steps)
                # mc_block's lane arrays: its words, held values and errors, 64 trials a row
                lanes = (np.empty((4 * n, _BLOCK), np.uint64), np.empty((n, _BLOCK), np.uint64),
                         np.empty((n, _BLOCK)))
                pending.append((pool.submit(block, keys, len(keys), hold, rows, steps, n,
                                            *threshold, *lanes, *part), part))
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
    The trials run in blocks of 64 (_run_mc).
    """
    if trace.protocol != "classical":
        raise ProtocolMismatch(f"state adversary needs a classical trace, got {trace.protocol!r}")
    return _run_mc(trace.x, True, gamma, trials, seed, workers)


def run_adversary_icc_mc(trace, gamma, trials, seed, workers=1) -> EmpiricalMoments:
    """Ensemble error statistics of the innovation-integrating estimator.

    Per trial, the adversary adds every intercepted broadcast to a
    running estimate, so e(k) is the sum of the broadcasts it missed:
    e(k) = sum_{t=0}^{k} (1 - mu(t)) sent(t).  The trials run in blocks
    of 64 (_run_mc).
    """
    if trace.protocol not in ("icc", "bicc"):
        raise ProtocolMismatch(
            f"innovation adversary needs an icc/bicc trace, got {trace.protocol!r}"
        )
    return _run_mc(trace.sent, False, gamma, trials, seed, workers)


def _numpy_moment_rows(rows, hold, lo, hi, n, miss, sq, keep, m, s, tr, mean, v_min):
    """_loops.c's moment_rows in numpy: its arguments, and its operations row by row.

    rows are the states x (hold, the hold-last adversary) or the
    broadcasts sent (the innovation adversary), m and s the per-agent
    E[e_i] and E[e_i^2] before row lo, stepped in place through rows
    lo..hi-1; tr[k] takes tr Sigma(k), mean[k] (where given) m, and the
    result is the least of v_min and every s - m m, NaN once any is NaN.
    """
    nan = math.isnan(v_min)
    # an overflowing or NaN trace gives inf or NaN moments, without warnings, as in C
    with np.errstate(all="ignore"):
        for k in range(lo, hi):
            if hold:
                d = rows[k] - (rows[k - 1] if k > 0 else 0.0)
                md = m * d
                a = ((s + md) + md) + d * d
                s[:] = sq * a + keep * a
                m[:] = miss * (m + d)
            else:
                xi = rows[k]
                mx = m * xi
                s[:] = (s + (sq * (xi * xi) + miss * (mx + mx))) + keep * xi * xi
                m[:] = m + miss * xi
            tr[k] = 0.0 + s.sum()
            v = s - m * m
            nan |= bool(np.isnan(v).any())
            v_min = min(v_min, float(v[np.argmin(v)]))  # the first least, as C's v < v_min
            if mean is not None:
                mean[k] = m
    return math.nan if nan else v_min


def _moment_rows(trace, gamma):
    """run(lo, hi, m, s, tr, mean, v_min): moment_rows, else its numpy twin, on the trace's rows.

    Both step m and s (the values before row lo) in place, as
    _numpy_moment_rows says, with the trace's rows and gamma's factors.
    """
    step = _compiled.function("moment_rows") or _numpy_moment_rows
    miss = 1.0 - gamma
    hold = trace.protocol == "classical"
    rows = np.ascontiguousarray(trace.x if hold else trace.sent, dtype=float)
    return lambda lo, hi, m, s, tr, mean, v_min: step(
        rows, hold, lo, hi, rows.shape[1], miss, miss**2, gamma * miss, m, s, tr, mean, v_min)


def _sigma(m, s):
    """Sigma = m m^T with the diagonal s."""
    sigma = np.outer(m, m)
    np.fill_diagonal(sigma, s)
    return sigma


def closed_form_moments(trace, gamma, sigma_at=()) -> MomentRecursion:
    """Exact tr Sigma(k) for all k, by per-agent recursion; E[e(k)] on read.

    Interception is independent across agents, so Sigma(k) = m m^T +
    diag(v) with m = E[e(k)]: only the mean m and the diagonal s of
    Sigma(k) evolve, at O(n) cost per step.  _moment_rows steps them
    (_loops.c's moment_rows where the library can be built, else its
    numpy twin _numpy_moment_rows, with the same bits) in one call over
    every row, split only after the steps in `sigma_at`, carrying only
    m and s.  Each element sees the same floating-point operations, in
    the same order, as the diagonal of the dense n x n recursion
    Sigma(k) = Sigma(k-1) + Gamma(k) (innovation protocols) or Sigma(k)
    = (1-g)^2 A + g(1-g) diag(A) (classical) that they replace.  So no
    (K+1) x n array is held: the result stores tr Sigma(k), and derives
    the mean when read.  Sigma(k) is rebuilt as m m^T with the
    recursion's diagonal for the steps in `sigma_at`; v = s - m^2 is
    checked at every step.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if trace.protocol not in ("classical", "icc", "bicc"):
        raise ProtocolMismatch(f"unknown protocol {trace.protocol!r}")
    x = trace.x
    steps, n = x.shape
    sigma_at = sorted(set(int(k) for k in sigma_at))

    tr = np.empty(steps)
    samples: dict[int, np.ndarray] = {}
    v_min = np.inf
    run = _moment_rows(trace, gamma)
    m, s, lo = np.zeros(n), np.zeros(n), 0  # stepped in place
    # an overflowing or NaN trace gives inf or NaN moments, without warnings
    with np.errstate(all="ignore"):
        for k in sigma_at:
            if 0 <= k < steps:
                v_min = run(lo, k + 1, m, s, tr, None, v_min)
                samples[k], lo = _sigma(m, s), k + 1
        v_min = run(lo, steps, m, s, tr, None, v_min)
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
