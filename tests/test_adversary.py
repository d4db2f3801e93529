"""Adversary error moments: exhaustive gold values, Monte Carlo, closed forms."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcsim
import pcsim.cli
from pcsim import _compiled, adversary
from pcsim.errors import ProtocolMismatch

from conftest import random_network, two_agent_doubly_stochastic
from reference import trace_second_moment_direct

EPS = 2.0**-52


def slow_two_agent():
    # lambda2 = 0.4, so the trajectory keeps moving over the short
    # horizons the exhaustive enumeration can afford
    return pcsim.build_network(2, [(1, 2, 0.4), (2, 1, 0.2)])


def hold_estimator_error(x, hit):
    """Per-pattern error of the keep-last-intercepted-state adversary."""
    steps, n = x.shape
    xhat = np.zeros(n)
    rows = np.empty((steps, n))
    for k in range(steps):
        for i in range(n):
            if hit[k, i]:
                xhat[i] = x[k, i]
        rows[k] = x[k] - xhat
    return rows


def integrator_error(x, xi_obs, hit):
    """Per-pattern error of the innovation-integrating adversary."""
    steps, n = xi_obs.shape
    est = np.zeros(n)
    rows = np.empty((steps, n))
    for k in range(steps):
        est = est + np.where(hit[k], xi_obs[k], 0.0)
        rows[k] = x[k] - est
    return rows


def enumerate_moments(error_of_pattern, steps, n, gamma):
    """Exact moments by summing over all 2^(steps*n) interception patterns."""
    mean = np.zeros((steps, n))
    second = np.zeros((steps, n, n))
    sq_norm = np.zeros(steps)
    for bits in itertools.product((False, True), repeat=steps * n):
        hit = np.array(bits).reshape(steps, n)
        hits = int(hit.sum())
        w = gamma**hits * (1.0 - gamma) ** (hit.size - hits)
        e = error_of_pattern(hit)
        mean += w * e
        second += w * np.einsum("ki,kj->kij", e, e)
        sq_norm += w * np.einsum("ki,ki->k", e, e)
    return mean, second, sq_norm


def dense_closed_form(trace, gamma):
    """Reference: the O(K n^2) recursion of the full n x n Sigma(k).

    Returns the per-step mean, tr Sigma(k), and every Sigma(k).
    """
    g = gamma
    keep = g * (1.0 - g)
    sq = (1.0 - g) ** 2
    x = trace.x
    steps, n = x.shape
    mean = np.empty((steps, n))
    tr = np.empty(steps)
    sigmas = np.empty((steps, n, n))
    sigma = np.zeros((n, n))
    m = np.zeros(n)
    if trace.protocol == "classical":
        prev = np.zeros(n)
        for k in range(steps):
            d = x[k] - prev
            prev = x[k]
            cross = np.outer(m, d)
            a = sigma + cross + cross.T + np.outer(d, d)
            sigma = sq * a
            sigma[np.diag_indices_from(sigma)] += keep * np.diag(a)
            m = (1.0 - g) * (m + d)
            mean[k], tr[k], sigmas[k] = m, np.trace(sigma), sigma
    else:
        xi_obs = trace.sent
        for k in range(steps):
            xi = xi_obs[k]
            cross = np.outer(m, xi)
            sigma += sq * np.outer(xi, xi) + (1.0 - g) * (cross + cross.T)
            sigma[np.diag_indices_from(sigma)] += keep * xi * xi
            m = m + (1.0 - g) * xi
            mean[k], tr[k], sigmas[k] = m, np.trace(sigma), sigma
    return mean, tr, sigmas


def full_last_interception_route(x, gamma):
    """Reference: the untruncated O(K^2 n) classical cross-check.

    Returns tr Sigma(k) and max_{t<=k} ||x(k) - x(t)||^2 per step.
    """
    steps = x.shape[0]
    pow_miss = (1.0 - gamma) ** np.arange(steps + 1)
    full = np.empty(steps)
    max_sq_dist = np.empty(steps)
    for k in range(steps):
        diff = x[k] - x[: k + 1]
        sq_dist = np.einsum("tn,tn->t", diff, diff)
        full[k] = gamma * (pow_miss[k::-1] @ sq_dist) + pow_miss[k + 1] * (x[k] @ x[k])
        max_sq_dist[k] = sq_dist.max()
    return full, max_sq_dist


def random_trace(protocol, seed, n=None, horizon=60):
    rng = np.random.default_rng(seed)
    network = random_network(rng, n)
    x0 = rng.uniform(4.0, 6.0, network.n)
    if protocol == "classical":
        return pcsim.run_classical(network, x0, horizon)
    if protocol == "icc":
        return pcsim.run_icc(network, x0, horizon)
    spectral = pcsim.spectral_analysis(network)
    return pcsim.run_bicc(network, spectral, x0, 12, (4.0, 6.0), horizon)


class TestDenseReference:
    """The per-agent recursion reproduces the dense one it replaced."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(
        protocol=st.sampled_from(["classical", "icc", "bicc"]),
        n=st.integers(2, 12),
        horizon=st.integers(1, 60),
        gamma=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(protocol="classical", n=2, horizon=1, gamma=0.0, seed=0)
    @example(protocol="icc", n=12, horizon=60, gamma=1.0, seed=0)
    def test_bit_identical_property(self, protocol, n, horizon, gamma, seed):
        trace = random_trace(protocol, seed, n, horizon)
        mean, tr, _ = dense_closed_form(trace, gamma)
        cf = pcsim.closed_form_moments(trace, gamma)
        np.testing.assert_array_equal(cf.trace_second_moment, tr)
        np.testing.assert_array_equal(cf.mean, mean)

    @pytest.mark.parametrize("protocol", ["classical", "icc", "bicc"])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 1.0])
    def test_long_traces(self, protocol, gamma):
        # 601 steps cross several blocks of the vectorised recursion
        trace = random_trace(protocol, seed=31, horizon=600)
        mean, tr, sigmas = dense_closed_form(trace, gamma)
        ks = list(range(0, trace.x.shape[0], 25)) + [255, 256, 257, 600]
        cf = pcsim.closed_form_moments(trace, gamma, sigma_at=ks)
        np.testing.assert_array_equal(cf.trace_second_moment, tr)
        np.testing.assert_array_equal(cf.mean, mean)
        assert set(cf.sigma_samples) == set(ks)
        for k in ks:
            # entries far below the matrix scale (subnormal near
            # consensus) are compared on that scale
            np.testing.assert_allclose(
                cf.sigma_samples[k], sigmas[k], rtol=1e-12, atol=1e-12 * np.abs(sigmas[k]).max()
            )
        # min v bounds every lambda_min(Sigma(k)) from below (Weyl)
        scale = float(np.abs(sigmas).max())
        lam_min = min(float(np.linalg.eigvalsh(s)[0]) for s in sigmas)
        assert cf.min_eigenvalue <= lam_min + 1e-13 * scale
        assert cf.min_eigenvalue >= -1e-13 * scale
        np.testing.assert_allclose(
            trace_second_moment_direct(cf), tr, rtol=1e-10, atol=1e-13 * tr.max()
        )

    @pytest.mark.parametrize("protocol", ["classical", "icc", "bicc"])
    def test_sigma_samples_on_both_sides_of_a_block_boundary(self, protocol):
        # the recursion is split after each sampled step, carrying m and s
        # across; these steps straddle a split at 256 and at 512 rows
        trace = random_trace(protocol, seed=8, horizon=600)
        mean, _, sigmas = dense_closed_form(trace, 0.3)
        ks = (255, 256, 511, 512)
        cf = pcsim.closed_form_moments(trace, 0.3, sigma_at=ks)
        for k in ks:
            # m m^T of the reference mean, with the reference's own diagonal
            expected = np.outer(mean[k], mean[k])
            np.fill_diagonal(expected, np.diag(sigmas[k]))
            np.testing.assert_array_equal(cf.sigma_samples[k], expected)

    @pytest.mark.parametrize("gamma", [0.05, 0.5])
    def test_truncated_classical_route_within_bound(self, ring25, x0_ring, gamma):
        trace = pcsim.run_classical(ring25, x0_ring, 2000)
        full, max_sq_dist = full_last_interception_route(trace.x, gamma)
        window = math.ceil(math.log(EPS) / math.log(1.0 - gamma)) + 1
        assert window < trace.x.shape[0]  # the sum really is truncated
        bound = (1.0 - gamma) ** window * max_sq_dist
        assert np.all(bound <= EPS * max_sq_dist)
        cf = pcsim.closed_form_moments(trace, gamma)
        err = np.abs(trace_second_moment_direct(cf) - full)
        # plus the rounding of two differently ordered dot products
        assert np.all(err <= bound + 8 * EPS * full)

    def test_non_finite_state_fails_the_psd_check(self):
        trace = pcsim.run_icc(slow_two_agent(), np.array([1.0, np.nan]), 5)
        cf = pcsim.closed_form_moments(trace, 0.5)
        assert not cf.min_eigenvalue >= -1e-10


class TestExhaustiveEnumeration:
    """closed_form_moments against brute-force sums over every pattern."""

    GAMMA = 0.4

    def check(self, trace, error_of_pattern, steps):
        mean, second, sq_norm = enumerate_moments(
            error_of_pattern, steps, trace.n, self.GAMMA
        )
        cf = pcsim.closed_form_moments(trace, self.GAMMA, sigma_at=range(steps))
        np.testing.assert_allclose(cf.mean, mean, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(cf.trace_second_moment, sq_norm, rtol=1e-12)
        np.testing.assert_allclose(trace_second_moment_direct(cf), sq_norm, rtol=1e-12)
        for k in range(steps):
            np.testing.assert_allclose(cf.sigma_samples[k], second[k], rtol=1e-12, atol=1e-15)
        return cf

    def test_classical(self):
        trace = pcsim.run_classical(slow_two_agent(), np.array([1.0, 3.0]), 3)
        steps = trace.x.shape[0]
        cf = self.check(trace, lambda hit: hold_estimator_error(trace.x, hit), steps)
        assert cf.floor_coefficient == 0.0 and cf.c_constant == 0.0

    def test_icc(self):
        trace = pcsim.run_icc(slow_two_agent(), np.array([1.0, 3.0]), 3)
        xi_obs = np.vstack([trace.x[0], trace.innovations(0, trace.horizon)])
        cf = self.check(
            trace, lambda hit: integrator_error(trace.x, xi_obs, hit), xi_obs.shape[0]
        )
        assert cf.floor_coefficient == (1.0 - self.GAMMA) ** 2
        assert cf.c_constant == pytest.approx(
            self.GAMMA * (1.0 - self.GAMMA) * float(xi_obs[0] @ xi_obs[0]), rel=1e-15
        )

    def test_bicc(self):
        net = slow_two_agent()
        sp = pcsim.spectral_analysis(net)
        trace = pcsim.run_bicc(net, sp, np.array([1.0, 3.0]), 6, (0.0, 4.0), 3)
        xi_obs = trace.sent
        self.check(
            trace, lambda hit: integrator_error(trace.x, xi_obs, hit), xi_obs.shape[0]
        )

    def test_monte_carlo_agrees_with_enumeration(self):
        trace = pcsim.run_classical(slow_two_agent(), np.array([1.0, 3.0]), 3)
        steps = trace.x.shape[0]
        _, _, sq_norm = enumerate_moments(
            lambda hit: hold_estimator_error(trace.x, hit), steps, trace.n, self.GAMMA
        )
        mc = pcsim.run_adversary_classical_mc(trace, self.GAMMA, 4000, seed=11)
        # at this size every pattern is sampled thousands of times, so
        # the plain standard-error band is trustworthy
        assert np.all(np.abs(mc.sq_norm - sq_norm) <= 4.0 * mc.se_sq_norm + 1e-12)


def reference_missed(stream, shape, gamma):
    """Miss mask by the 53-bit test N >= ceil(gamma 2^53), one draw at a time.

    Draw i is byte i of the stream (little-endian within each 64-bit
    word) as the top 8 bits of N; when that byte leaves N >= T open,
    the next word's top 45 bits complete N.
    """
    t = math.ceil(Fraction(gamma) * 2**53)
    bits = np.random.Philox(stream)
    size = shape[0] * shape[1]
    words = [int(w) for w in bits.random_raw(-(-size // 8))]
    missed = []
    for i in range(size):
        head = (words[i // 8] >> (8 * (i % 8))) & 0xFF
        if head << 45 >= t:
            missed.append(True)
        elif (head + 1) << 45 <= t:
            missed.append(False)
        else:
            missed.append((head << 45 | int(bits.random_raw()) >> 19) >= t)
    return np.array(missed).reshape(shape)


def reference_classical_mc(x, gamma, trials, seed):
    """The hold estimator's MC moments, one trial at a time by hold_estimator_error.

    The same draws as run_adversary_classical_mc (trial i takes child i
    of SeedSequence(seed), spawned 64 at a time), the same norm order
    (adversary._sq_norms, einsum's at numpy's X86_V2 baseline) and the
    same fold: trial sums within each 64-trial block, then the block
    sums in block order.  Returns mean, sq_norm and se_sq_norm.
    """
    threshold = adversary._miss_threshold(gamma)
    root = np.random.SeedSequence(seed)
    steps = x.shape[0]
    sum_e, sum_q, sumsq_q = np.zeros(x.shape), np.zeros(steps), np.zeros(steps)
    for lo in range(0, trials, 64):
        block_e, block_q, block_sq = np.zeros(x.shape), np.zeros(steps), np.zeros(steps)
        for stream in root.spawn(min(64, trials - lo)):
            missed = adversary._missed(np.random.Philox(stream), x.shape, *threshold)
            e = hold_estimator_error(x, ~missed)
            q = adversary._sq_norms(e)
            block_e += e
            block_q += q
            block_sq += q * q
        sum_e += block_e
        sum_q += block_q
        sumsq_q += block_sq
    mean_q = sum_q / trials
    var_q = np.maximum(sumsq_q - trials * mean_q**2, 0.0) / (trials - 1)
    return sum_e / trials, mean_q, np.sqrt(var_q / trials)


def mc_peak_bytes(runner, trace, trials, workers=1):
    """Peak traced allocation of one MC run."""
    tracemalloc.start()
    try:
        runner(trace, 0.5, trials, seed=5, workers=workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class ScriptedBits:
    """Stands in for a bit generator, handing out the given words in order."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


class InlinePool:
    """Stands in for ThreadPoolExecutor: runs each call as it is submitted, starts no thread.

    Records max_workers and the most futures outstanding at once; a
    future is outstanding until its result is read.
    """

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.outstanding = self.most_outstanding = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        value = fn(*args)
        self.outstanding += 1
        self.most_outstanding = max(self.most_outstanding, self.outstanding)

        def result():
            self.outstanding -= 1
            return value

        return types.SimpleNamespace(result=result)


GAMMAS = [0.0, 2.0**-53, 0.3, 0.5, 1.0]


class TestInterceptionDraw:
    """The one-byte miss test against the 53-bit test u >= gamma it replaces."""

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_threshold_is_exact(self, gamma):
        t = math.ceil(Fraction(gamma) * 2**53)
        assert adversary._miss_threshold(gamma) == divmod(t, 2**45)

    def test_tie_is_decided_by_the_low_45_bits(self):
        top, low = adversary._miss_threshold(0.3)
        assert 0 < top < 255 and low > 0
        heads = [top - 1, top, top, top, top + 1]
        word = sum(h << (8 * i) for i, h in enumerate(heads))
        ties = [(low - 1) << 19 | (2**19 - 1), low << 19, (2**45 - 1) << 19]
        bits = ScriptedBits([word, *ties])
        missed = adversary._missed(bits, (1, 5), top, low)
        assert missed.tolist() == [[False, False, True, True, True]]
        assert bits.words == []  # one word per tie, no more

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_matches_the_53_bit_reference(self, gamma):
        threshold = adversary._miss_threshold(gamma)
        for stream in np.random.SeedSequence(17).spawn(3):
            expected = reference_missed(stream, (200, 25), gamma)
            got = adversary._missed(np.random.Philox(stream), (200, 25), *threshold)
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_miss_frequency(self, gamma):
        threshold = adversary._miss_threshold(gamma)
        masks = [
            adversary._missed(np.random.Philox(stream), (1000, 50), *threshold)
            for stream in np.random.SeedSequence(23).spawn(8)
        ]
        count = sum(int(m.sum()) for m in masks)
        draws = sum(m.size for m in masks)
        if gamma == 0.0:
            assert count == draws
        elif gamma == 1.0:
            assert count == 0
        p = float(1 - Fraction(math.ceil(Fraction(gamma) * 2**53), 2**53))
        assert abs(count / draws - p) <= 4.0 * math.sqrt(p * (1.0 - p) / draws) + 1e-15


class TestMonteCarlo:
    def test_never_intercepting_adversary_sees_the_whole_state(self, ring25, x0_ring):
        # estimate stays 0, so the error is the state itself; with two
        # identical trials the sum and the /2 are exact, hence bitwise
        trace = pcsim.run_icc(ring25, x0_ring, 30)
        mc = pcsim.run_adversary_icc_mc(trace, 0.0, trials=2, seed=3)
        np.testing.assert_array_equal(mc.mean, trace.x)
        assert np.all(mc.se_sq_norm == 0.0)

        classical = pcsim.run_classical(ring25, x0_ring, 30)
        mc = pcsim.run_adversary_classical_mc(classical, 0.0, trials=2, seed=3)
        np.testing.assert_array_equal(mc.mean, classical.x)

    def test_always_intercepting_adversary_sees_everything(self, ring25, x0_ring):
        for trace, runner in [
            (pcsim.run_icc(ring25, x0_ring, 30), pcsim.run_adversary_icc_mc),
            (pcsim.run_classical(ring25, x0_ring, 30), pcsim.run_adversary_classical_mc),
        ]:
            mc = runner(trace, 1.0, trials=8, seed=3)
            assert np.all(mc.mean == 0.0) and np.all(mc.sq_norm == 0.0)

    def test_same_seed_same_results_any_worker_count(self, ring25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 60)
        runs = [
            pcsim.run_adversary_icc_mc(trace, 0.5, 500, seed=7, workers=w)
            for w in (1, 1, 3, 8)
        ]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].mean, other.mean)
            np.testing.assert_array_equal(runs[0].sq_norm, other.sq_norm)
            np.testing.assert_array_equal(runs[0].se_sq_norm, other.se_sq_norm)

    def test_classical_same_results_any_worker_count(self, ring25, x0_ring):
        trace = pcsim.run_classical(ring25, x0_ring, 60)
        runs = [
            pcsim.run_adversary_classical_mc(trace, 0.3, 300, seed=9, workers=w)
            for w in (1, 2, 5)
        ]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].mean, other.mean)
            np.testing.assert_array_equal(runs[0].sq_norm, other.sq_norm)
            np.testing.assert_array_equal(runs[0].se_sq_norm, other.se_sq_norm)

    def test_memory_does_not_grow_with_trials(self, ring25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 400)
        runner = pcsim.run_adversary_icc_mc
        assert mc_peak_bytes(runner, trace, 1024) <= 1.5 * mc_peak_bytes(runner, trace, 128)

    def test_classical_memory_does_not_grow_with_trials(self, ring25, x0_ring):
        trace = pcsim.run_classical(ring25, x0_ring, 400)
        runner = pcsim.run_adversary_classical_mc
        assert mc_peak_bytes(runner, trace, 1024) <= 1.5 * mc_peak_bytes(runner, trace, 128)

    def test_memory_does_not_grow_with_the_worker_count(self, ring25, x0_ring, monkeypatch):
        # the pool is capped at the CPU count, so more workers than CPUs
        # hold no more blocks in flight
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        trace = pcsim.run_icc(ring25, x0_ring, 2000)
        runner = pcsim.run_adversary_icc_mc
        many = mc_peak_bytes(runner, trace, 1536, workers=24)
        assert many <= 1.1 * mc_peak_bytes(runner, trace, 1536, workers=2)

    def test_pool_is_capped_by_blocks_and_cpus(self, ring25, x0_ring, monkeypatch):
        trace = pcsim.run_icc(ring25, x0_ring, 60)
        serial = pcsim.run_adversary_icc_mc(trace, 0.5, 130, seed=4, workers=1)
        pools = []

        def make_pool(max_workers):
            pools.append(InlinePool(max_workers))
            return pools[-1]

        monkeypatch.setattr(adversary, "ThreadPoolExecutor", make_pool)
        # 130 trials are 3 blocks: the pool is the smaller of that and the CPUs
        for cpus, size in ((64, 3), (2, 2)):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            mc = pcsim.run_adversary_icc_mc(trace, 0.5, 130, seed=4, workers=1000)
            pool = pools.pop()
            assert pool.max_workers == size
            assert pool.most_outstanding <= size and pool.outstanding == 0
            np.testing.assert_array_equal(mc.mean, serial.mean)
            np.testing.assert_array_equal(mc.sq_norm, serial.sq_norm)
            np.testing.assert_array_equal(mc.se_sq_norm, serial.se_sq_norm)
        assert pools == []

    @settings(derandomize=True, deadline=None, database=None, max_examples=25)
    @given(
        n=st.integers(2, 8),
        horizon=st.integers(1, 300),
        gamma=st.sampled_from([2.0**-53, 0.3, 0.5]),
        trials=st.integers(2, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=8, horizon=300, gamma=0.3, trials=129, seed=0)
    def test_classical_kernel_matches_the_per_trial_reference(
        self, n, horizon, gamma, trials, seed
    ):
        # the hold-last kernel on per-block buffers against the plain
        # per-pattern estimator, bit for bit; 0.3 exercises the 45-bit ties
        trace = random_trace("classical", seed, n, horizon)
        mean, sq_norm, se_sq_norm = reference_classical_mc(trace.x, gamma, trials, seed)
        for workers in (1, 2):
            mc = pcsim.run_adversary_classical_mc(trace, gamma, trials, seed, workers)
            np.testing.assert_array_equal(mc.mean, mean)
            np.testing.assert_array_equal(mc.sq_norm, sq_norm)
            np.testing.assert_array_equal(mc.se_sq_norm, se_sq_norm)

    def test_different_seeds_differ(self, ring25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 20)
        a = pcsim.run_adversary_icc_mc(trace, 0.5, 100, seed=1)
        b = pcsim.run_adversary_icc_mc(trace, 0.5, 100, seed=2)
        assert not np.array_equal(a.sq_norm, b.sq_norm)

    def test_protocol_mismatch(self, ring25, x0_ring):
        classical = pcsim.run_classical(ring25, x0_ring, 5)
        icc = pcsim.run_icc(ring25, x0_ring, 5)
        with pytest.raises(ProtocolMismatch):
            pcsim.run_adversary_icc_mc(classical, 0.5, 10, seed=0)
        with pytest.raises(ProtocolMismatch):
            pcsim.run_adversary_classical_mc(icc, 0.5, 10, seed=0)

    def test_validation(self, ring25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 5)
        with pytest.raises(ValueError):
            pcsim.run_adversary_icc_mc(trace, 1.5, 10, seed=0)
        with pytest.raises(ValueError):
            pcsim.run_adversary_icc_mc(trace, 0.5, 1, seed=0)


class TestClosedForm:
    def test_dual_routes_agree(self, ring25, spectral25, x0_ring):
        traces = [
            pcsim.run_classical(ring25, x0_ring, 120),
            pcsim.run_icc(ring25, x0_ring, 120),
            pcsim.run_bicc(ring25, spectral25, x0_ring, 12, (4.0, 6.0), 120),
        ]
        for trace in traces:
            cf = pcsim.closed_form_moments(trace, 0.3)
            np.testing.assert_allclose(
                cf.trace_second_moment, trace_second_moment_direct(cf), rtol=1e-10
            )

    @pytest.mark.parametrize("protocol", ["classical", "icc", "bicc"])
    def test_direct_route_is_derived_on_each_read(self, protocol):
        cf = pcsim.closed_form_moments(random_trace(protocol, seed=5, horizon=80), 0.3)
        first, second = trace_second_moment_direct(cf), trace_second_moment_direct(cf)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("protocol", ["classical", "icc", "bicc"])
    def test_mean_is_derived_on_each_read(self, protocol):
        cf = pcsim.closed_form_moments(random_trace(protocol, seed=5, horizon=80), 0.3)
        first, second = cf.mean, cf.mean
        assert first.shape == (81, cf.trace.n)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)
        # what it stores besides the trace: per-step scalars and the samples
        for f in dataclasses.fields(cf):
            value = getattr(cf, f.name)
            assert not isinstance(value, np.ndarray) or value.ndim == 1, f.name

    @pytest.mark.parametrize("protocol", ["classical", "icc", "bicc"])
    def test_peak_memory_stays_below_a_quarter_of_one_mean(
        self, ring25, spectral25, x0_ring, protocol
    ):
        K = 20_000
        if protocol == "bicc":
            trace = pcsim.run_bicc(ring25, spectral25, x0_ring, 12, (4.0, 6.0), K)
        else:
            trace = getattr(pcsim, f"run_{protocol}")(ring25, x0_ring, K)
        pcsim.closed_form_moments(trace, 0.5)  # first call: lazy set-up allocations
        tracemalloc.start()
        try:
            pcsim.closed_form_moments(trace, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # U is one (K+1) x n float array, the size of the mean it no longer holds
        U = (K + 1) * trace.n * 8
        assert peak < 0.25 * U

    def test_second_moment_stays_psd(self, ring25, x0_ring):
        for trace in (
            pcsim.run_classical(ring25, x0_ring, 150),
            pcsim.run_icc(ring25, x0_ring, 150),
        ):
            cf = pcsim.closed_form_moments(trace, 0.5)
            assert cf.min_eigenvalue >= -1e-10

    def test_sigma_samples(self, ring25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 50)
        cf = pcsim.closed_form_moments(trace, 0.5, sigma_at=(0, 7, 50))
        assert set(cf.sigma_samples) == {0, 7, 50}
        for k, sigma in cf.sigma_samples.items():
            np.testing.assert_array_equal(sigma, sigma.T)
            assert np.trace(sigma) == pytest.approx(cf.trace_second_moment[k], rel=1e-14)

    def test_classical_moments_vanish_at_consensus(self):
        # once the state stops moving the hold estimator catches up and
        # the error second moment contracts by (1 - gamma) per step;
        # needs a fast network so consensus is reached well within the
        # horizon (the uniform 25-ring still moves visibly at k = 300)
        trace = pcsim.run_classical(slow_two_agent(), np.array([1.0, 3.0]), 100)
        cf = pcsim.closed_form_moments(trace, 0.5)
        assert cf.trace_second_moment[-1] < 1e-25
        report = pcsim.protection_report(trace, cf)
        assert report.asymptotic_protection < 1e-25

    def test_unknown_protocol_rejected(self):
        bogus = types.SimpleNamespace(protocol="gossip", x=np.zeros((4, 2)))
        with pytest.raises(ProtocolMismatch):
            pcsim.closed_form_moments(bogus, 0.5)

    def test_gamma_validation(self, ring25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 5)
        with pytest.raises(ValueError):
            pcsim.closed_form_moments(trace, -0.2)
        with pytest.raises(ValueError):
            pcsim.closed_form_moments(trace, 1.2)


class TestProtectionReport:
    def test_innovation_floor_holds_exactly(self, ring25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 400)
        cf = pcsim.closed_form_moments(trace, 0.5)
        power = np.einsum("kn,kn->k", trace.x, trace.x)
        floor_rhs = cf.floor_coefficient * power + cf.c_constant
        assert np.all(trace_second_moment_direct(cf) >= floor_rhs)
        report = pcsim.protection_report(trace, cf)
        assert cf.floor_coefficient == 0.25
        assert report.min_protection >= 0.25
        assert report.asymptotic_protection >= 0.25
        assert report.epsilon_observed >= 0.25 - 1e-9

    def test_protection_never_below_floor_across_gammas(self, ring25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 150)
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
            cf = pcsim.closed_form_moments(trace, gamma)
            report = pcsim.protection_report(trace, cf)
            assert report.min_protection >= (1.0 - gamma) ** 2 - 1e-12

    def test_classical_has_no_floor(self, ring25, x0_ring):
        trace = pcsim.run_classical(ring25, x0_ring, 100)
        cf = pcsim.closed_form_moments(trace, 0.5)
        assert cf.floor_coefficient == 0.0 and cf.c_constant == 0.0

    def test_exact_zero_state_reports_infinite_protection(self):
        # opposite initial values under equal mixing hit exactly 0 in
        # one step, exercising the divide-by-zero guard
        net = two_agent_doubly_stochastic()
        trace = pcsim.run_icc(net, np.array([1.0, -1.0]), 10)
        assert np.all(trace.x[1:] == 0.0)
        cf = pcsim.closed_form_moments(trace, 0.5)
        report = pcsim.protection_report(trace, cf)
        assert np.isinf(report.protection[1:]).all()
        assert np.isfinite(report.protection[0])
        assert np.isinf(report.asymptotic_protection)


def cli_outputs(out, command, *args, **config):
    """Every output file of a pcsim command on a ring config, as bytes, and its exit code."""
    out.mkdir(parents=True)
    data = {"network": {"n": 8, "generator": {"type": "ring", "step": 1}}, "horizon": 600,
            "trials": 130, "bits": 12, "seed": 4}
    (out / "config.json").write_text(json.dumps(dict(data, **config)))
    code = pcsim.cli.main([command, "--config", str(out / "config.json"), "--out", str(out / "o"),
                           *args])
    return code, {p.name: p.read_bytes() for p in (out / "o").iterdir()}


def run_outputs(out, **config):
    return cli_outputs(out, "run", **config)


def sweep_outputs(out):
    """sweep-bits across saturating, converging and 53-bit widths, with the bicc step loop."""
    return cli_outputs(out, "sweep-bits", "--bits", "2,3,6,12,53", protocol="bicc")


def special_trace(protocol):
    """A trace whose broadcasts hold +-0.0, +-inf and NaN among finite values.

    For classical the states are the broadcasts, so the adversary's
    error meets inf - inf and NaN - NaN as well.
    """
    sent = np.random.default_rng(3).uniform(-5.0, 5.0, (300, 6))
    sent[::7, 0] = 0.0
    sent[3::7, 1] = -0.0
    sent[100, 2], sent[150, 3], sent[200, 4] = np.inf, -np.inf, np.nan
    sent[5, 5] = 1e308  # its running sum overflows, as does its square
    sent[6, 5] = 1e308
    return types.SimpleNamespace(protocol=protocol, x=sent, sent=sent)


def nan_trace(protocol, seed):
    """A 50-step, 7-agent trace with 3 % each of inf, -inf and NaN among its broadcasts.

    Its error columns meet both -NaN (from inf - inf or inf * 0.0) and
    +NaN, whose sum keeps one NaN in C and another in numpy.
    """
    rng = np.random.default_rng(seed)
    sent = rng.uniform(-5.0, 5.0, (50, 7))
    u = rng.random(sent.shape)
    for value, lo in ((np.inf, 0.0), (-np.inf, 0.03), (np.nan, 0.06)):
        sent[(u >= lo) & (u < lo + 0.03)] = value
    return types.SimpleNamespace(protocol=protocol, x=sent, sent=sent)


def special_rows(rng, steps, n):
    """Uniform rows with about 5 % each of 0.0 and -0.0 and, from the middle
    row on, 2 % each of inf, -inf and NaN, so the first half's norms stay finite."""
    rows = rng.uniform(-5.0, 5.0, (steps, n))
    u = rng.random((steps, n))
    first = u[: steps // 2]
    first[first >= 0.1] = 1.0
    for value, lo, hi in ((0.0, 0.0, 0.05), (-0.0, 0.05, 0.1), (np.inf, 0.1, 0.12),
                          (-np.inf, 0.12, 0.14), (np.nan, 0.14, 0.16)):
        rows[(u >= lo) & (u < hi)] = value
    return rows


def same_bits(a, b):
    """a and b are NaN at the same places and bit for bit equal elsewhere.

    Which NaN an add keeps when both operands are NaN (their signs
    differ where one came from inf - inf) is fixed neither by numpy nor
    by C, so NaN entries are compared as NaN.
    """
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()



def compiled_block(library, kind, sent, streams, threshold, sums):
    """One block of `streams` in the compiled mc_block, into sums.

    The hold-last block reads sent as the states too, as for a classical
    trace.  Returns the block's lane words (its last tile's draws).
    """
    steps, n = sent.shape
    keys = np.array([stream.generate_state(2, np.uint64) for stream in streams])
    words = np.empty((4 * n, 64), np.uint64)
    library.mc_block(keys, len(keys), kind != "innovation", sent, steps, n, *threshold, words,
                     np.empty((n, 64), np.uint64), np.empty((n, 64)), *sums)
    return words


def numpy_block(kind, sent, streams, threshold, sums):
    """The same block trial by trial in numpy: _missed, the error, _sq_norms, into sums."""
    for stream in streams:
        missed = adversary._missed(np.random.Philox(stream), sent.shape, *threshold)
        if kind == "innovation":
            e = np.cumsum(sent * missed, axis=0)
        else:
            e = hold_estimator_error(sent, ~missed)
        q = adversary._sq_norms(e)
        sums[0] += e
        sums[1] += q
        sums[2] += q * q

# SHA-256 of mean, sq_norm and se_sq_norm of pinned_runs(), as recorded
# before the trials were fused into one compiled call: the benchmark
# digests skip the MC columns, so these catch a change of the norm order
PINNED = {
    "classical": ("c3f59aeecaa6672560cb4af1a970ebe42197552efb3e7fbc82a8b8bd217c9e7f",
                  "d9d75be88c7a235e15c6c62a33727e2546525ca57c53b408110055f15c21be7c",
                  "dbc90bad51223e19e5691b9a1a8101f4601b125c3a86620a6c664c96a6606c05"),
    "bicc": ("411bca658da4e2fd75487b0b5c1c91efe62e10571cb42ace28868e38c3a0e048",
             "a84c4e9d2ea41bd2d5a01088de8536c138c84f0646511a9775c1c6adf1b82d88",
             "a6ec18b69cea520d9197dfdd8d29d2c0dc9802fd33ac9989a6b78ccc50c74512"),
}


def pinned_runs():
    """A classical and a bicc MC on an 11-agent random ring.

    130 trials are 3 blocks, and 11 agents are a full group of 8, a
    pair and a last entry of the norm order.
    """
    ring = pcsim.ring_lattice(11, 1, "random", seed=1)
    x0 = np.random.default_rng(11).uniform(4.0, 6.0, 11)
    bicc = pcsim.run_bicc(ring, pcsim.spectral_analysis(ring), x0, 12, (4.0, 6.0), 300)
    return {"classical": pcsim.run_adversary_classical_mc(pcsim.run_classical(ring, x0, 300),
                                                          0.3, 130, seed=9),
            "bicc": pcsim.run_adversary_icc_mc(bicc, 0.3, 130, seed=9)}


# every function of the compiled library
LIBRARY_FUNCTIONS = ("mc_block", "state_steps", "bicc_steps", "csv_rows", "moment_rows")


def numpy_baseline_is_x86_v2():
    from numpy._core import _multiarray_umath

    return _multiarray_umath.__cpu_baseline__ == ["X86_V2"]


def moment_rows_trace(protocol, n, steps, kind, seed):
    """A trace of `protocol` whose rows are uniform, span 10^-40 .. 10^40, or hold special values.

    Only the rows the closed form reads are real: the states for
    classical (as the broadcasts too), else the broadcasts, with x(0)
    for the floor constant.
    """
    rng = np.random.default_rng(seed)
    if kind == "special":
        rows = special_rows(rng, steps, n)
    else:
        rows = rng.uniform(-5.0, 5.0, (steps, n))
        if kind == "wide":
            rows *= 10.0 ** rng.uniform(-40.0, 40.0, (steps, n))
    x = rows if protocol == "classical" else rng.uniform(4.0, 6.0, (steps, n))
    return types.SimpleNamespace(protocol=protocol, x=x, sent=rows, n=n)


class TestCompiledMoments:
    """The compiled moment_rows gives its numpy twin's closed-form moments, bit for bit."""

    @pytest.mark.parametrize("kind", ["uniform", "wide", "special"])
    @pytest.mark.parametrize("hold", [False, True])
    @pytest.mark.parametrize("gamma", [0.0, 1 / 3, 1.0])
    def test_twin_takes_the_c_arguments(self, library, kind, hold, gamma):
        # one argument list and fresh buffers for both, over 600 rows:
        # in one call writing the mean, then split at arbitrary rows without it
        steps, n = 600, 37
        rows = moment_rows_trace("icc", n, steps, kind, seed=len(kind) + hold).sent
        miss = 1.0 - gamma
        for splits, mean in (((), np.empty((steps, n))), ((1, 130, 257, 512, 513, 599), None)):
            results = []
            for step in (library.moment_rows, adversary._numpy_moment_rows):
                m, s, tr, v_min = np.zeros(n), np.zeros(n), np.empty(steps), np.inf
                out = None if mean is None else np.empty_like(mean)
                for lo, hi in zip((0, *splits), (*splits, steps)):
                    v_min = step(rows, hold, lo, hi, n, miss, miss**2, gamma * miss, m, s, tr,
                                 out, v_min)
                results.append((m, s, tr, np.zeros(0) if out is None else out, np.array([v_min])))
            for name, got, want in zip(("m", "s", "tr", "mean", "v_min"), *results):
                assert same_bits(got, want), (name, splits)

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(protocol=st.sampled_from(["classical", "icc", "bicc"]),
           n=st.integers(1, 300) | st.sampled_from([1, 7, 8, 9, 128, 129, 136, 300]),
           steps=st.integers(1, 30),
           gamma=st.sampled_from([0.0, 1 / 3, 0.5, 0.9, 1.0]),
           kind=st.sampled_from(["uniform", "wide", "special"]),
           sigma_at=st.lists(st.integers(-2, 32), max_size=4),
           seed=st.integers(0, 2**32 - 1))
    @example(protocol="classical", n=129, steps=30, gamma=1 / 3, kind="special",
             sigma_at=[0, 14, 29], seed=0)
    @example(protocol="bicc", n=300, steps=30, gamma=0.9, kind="wide", sigma_at=[-1, 29, 30],
             seed=1)
    @example(protocol="icc", n=5, steps=1, gamma=0.0, kind="uniform", sigma_at=[0], seed=2)
    def test_same_bits_as_numpy(self, protocol, n, steps, gamma, kind, sigma_at, seed):
        if _compiled.function("moment_rows") is None:
            pytest.skip("no C compiler: only the numpy twin can run")
        trace = moment_rows_trace(protocol, n, steps, kind, seed)
        built, results = _compiled.library, []
        try:
            for loops in (built, None):
                _compiled.library = loops
                cf = pcsim.closed_form_moments(trace, gamma, sigma_at)
                results.append((cf, cf.mean))
        finally:
            _compiled.library = built
        (compiled, compiled_mean), (numpy, numpy_mean) = results
        assert same_bits(compiled.trace_second_moment, numpy.trace_second_moment)
        assert same_bits(compiled_mean, numpy_mean)
        assert same_bits(np.array([compiled.min_eigenvalue]), np.array([numpy.min_eigenvalue]))
        assert compiled.sigma_samples.keys() == numpy.sigma_samples.keys()
        for k, sigma in compiled.sigma_samples.items():
            assert same_bits(sigma, numpy.sigma_samples[k]), k
        assert (compiled.c_constant, compiled.floor_coefficient) == (
            numpy.c_constant, numpy.floor_coefficient)


class TestCompiledRunningSum:
    """The compiled loops write numpy's bytes, and a failed build falls back to numpy.

    One library holds the loops, the two Monte Carlo trials and the
    bicc step loop; `_compiled.library` switches them all.
    """

    @pytest.mark.parametrize("protocol", ["icc", "bicc", "classical"])
    @pytest.mark.parametrize("gamma", [0.5, 0.3])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_same_bytes_as_numpy(self, library, tmp_path, monkeypatch, capsys,
                                 protocol, gamma, workers):
        # 0.3 draws 45-bit ties, 0.5 none; 130 trials are 3 blocks, so 2 workers share them
        monkeypatch.setenv("PCSIM_THREADS", workers)
        runs = {}
        for name, loops in (("compiled", library), ("numpy", None)):
            monkeypatch.setattr(_compiled, "library", loops)
            runs[name] = run_outputs(tmp_path / name, protocol=protocol, gamma=gamma)
        capsys.readouterr()
        assert runs["compiled"][0] == 0
        assert len(runs["compiled"][1]) >= 3
        assert runs["compiled"] == runs["numpy"]

    def test_sweep_bits_same_bytes_as_numpy(self, library, tmp_path, monkeypatch, capsys):
        runs = {}
        for name, loops in (("compiled", library), ("numpy", None)):
            monkeypatch.setattr(_compiled, "library", loops)
            runs[name] = sweep_outputs(tmp_path / name)
        capsys.readouterr()
        assert runs["compiled"][0] == 0 and "sweep.csv" in runs["compiled"][1]
        assert runs["compiled"] == runs["numpy"]

    def test_one_block_has_numpys_bits(self, library):
        # every width to 17 takes each pass and pair shape of the norm
        # order; 25 and 60 are the benchmark's; 90 steps are three tiles
        rng = np.random.default_rng(5)
        seen = set()
        for n in [*range(1, 18), 25, 60]:
            sent = special_rows(rng, 90, n)
            streams = np.random.SeedSequence(n).spawn(3)
            for kind in ("innovation", "hold"):
                sums = [np.full_like(sent, 0.25), np.full(90, 0.5), np.full(90, 0.75)]
                expected = [a.copy() for a in sums]
                with np.errstate(all="ignore"):
                    compiled_block(library, kind, sent, streams, adversary._miss_threshold(0.5),
                                   sums)
                    numpy_block(kind, sent, streams, adversary._miss_threshold(0.5), expected)
                for got, want in zip(sums, expected):
                    assert same_bits(got, want), (kind, n)
                assert np.isfinite(sums[1][:45]).all(), (kind, n)
                seen.update(name for name, test in (("nan", np.isnan), ("inf", np.isinf))
                            if test(sums[1]).any())
        assert seen == {"nan", "inf"}
        # the special trace's one trial, bit for bit, NaN entries included
        sent = special_trace("icc").sent
        (stream,) = np.random.SeedSequence(7).spawn(1)  # its zeros take both signs
        threshold = adversary._miss_threshold(0.5)
        sum_e = np.full_like(sent, -0.0)  # -0.0 + e is e, signed zeros included
        with np.errstate(all="ignore"):
            e = np.cumsum(sent * adversary._missed(np.random.Philox(stream), sent.shape,
                                                   *threshold), axis=0)
            compiled_block(library, "innovation", sent, [stream], threshold,
                           (sum_e, np.zeros(300), np.zeros(300)))
        assert sum_e.tobytes() == e.tobytes()
        assert np.signbit(e[e == 0.0]).any() and not np.signbit(e[e == 0.0]).all()

    @pytest.mark.parametrize("steps, n", [(45, 5), (33, 3), (71, 8), (64, 25)])
    def test_lane_words_are_numpys_philox_words(self, library, steps, n):
        # the lane words hold each trial's draws for the last tile of
        # 32 steps, from word 4 n (steps - 1) // 32 on: whole 4-word
        # counter blocks, several of them, each crossed
        streams = np.random.SeedSequence(steps * n).spawn(256)
        first = 4 * n * ((steps - 1) // 32)
        count = 4 * -(-(steps - 32 * ((steps - 1) // 32)) * n // 32)
        for lo in range(0, 256, 64):
            block = streams[lo:lo + 64]
            sent = np.zeros((steps, n))
            words = compiled_block(library, "innovation", sent, block, (128, 0),
                                   (np.zeros((steps, n)), np.zeros(steps), np.zeros(steps)))
            for t, stream in enumerate(block):
                raw = np.random.Philox(stream).random_raw(first + count)[first:]
                assert words[:count, t].tobytes() == raw.tobytes(), (lo + t)

    def test_ties_read_the_words_after_the_mask(self, library):
        # one trial per call, its misses read back from e(k) = cumsum of
        # missed(k): every tie takes word ceil(steps n / 8) + t of its
        # stream, t counting the trial's ties in row-major order
        rng = np.random.default_rng(7)
        steps, n = 37, 7  # 259 draws, not a multiple of 8
        sent = np.ones((steps, n))
        ties = 0
        for j, stream in enumerate(np.random.SeedSequence(31).spawn(200)):
            top, low = int(rng.integers(0, 256)), int(rng.integers(1, 2**45))
            if j % 4 == 0:  # the first draw ties, and its tie word's top 45 bits equal low
                words = np.random.Philox(stream).random_raw(34)
                top, low = int(words[0]) & 0xFF, max(int(words[33]) >> 19, 1)
            sum_e = np.zeros((steps, n))
            compiled_block(library, "innovation", sent, [stream], (top, low),
                           (sum_e, np.zeros(steps), np.zeros(steps)))
            missed = np.diff(sum_e, axis=0, prepend=0.0) == 1.0
            expected = adversary._missed(np.random.Philox(stream), (steps, n), top, low)
            np.testing.assert_array_equal(missed, expected)
            words = np.random.Philox(stream).random_raw(33).astype("<u8")
            ties += int(np.count_nonzero(words.view(np.uint8)[:steps * n] == top))
        assert ties >= 100

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 0.5, 0.3, 1 / 3])
    def test_blocks_have_numpys_bytes(self, library, gamma):
        # 2 and 63 trials leave lanes empty; 50 x 7 and 37 x 7 draws are
        # no multiple of 8; 0.3 and 1/3 draw tie words, 0.0 and 1.0 none
        threshold = adversary._miss_threshold(gamma)
        traces = [special_trace("icc").sent, nan_trace("icc", 0).sent,
                  special_rows(np.random.default_rng(4), 37, 7)]
        for sent, trials, kind in itertools.product(traces, (2, 63, 64),
                                                     ("innovation", "hold")):
            streams = np.random.SeedSequence(trials).spawn(trials)
            steps = len(sent)
            sums = [np.zeros_like(sent), np.zeros(steps), np.zeros(steps)]
            expected = [a.copy() for a in sums]
            with np.errstate(all="ignore"):
                compiled_block(library, kind, sent, streams, threshold, sums)
                numpy_block(kind, sent, streams, threshold, expected)
            for got, want in zip(sums, expected):
                assert same_bits(got, want), (sent.shape, trials, kind)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 0.5, 0.3, 1 / 3])
    def test_mc_twin_takes_the_c_arguments(self, library, gamma):
        # one argument list for both, from the same non-zero sums, with hold
        # unset (innovation) and set (hold-last); 1 to 25 agents fold into
        # sum_e as no group of 8, one or two groups with 0 or 1 left over,
        # or three with 1 left over
        rng = np.random.default_rng(6)
        threshold = adversary._miss_threshold(gamma)
        traces = [special_rows(rng, 90, 25), special_trace("icc").sent, nan_trace("icc", 0).sent,
                  *(special_rows(rng, 40, n) for n in (1, 8, 9, 16, 17))]
        for sent, trials, hold in itertools.product(traces, (2, 63, 64), (False, True)):
            steps, n = sent.shape
            keys = np.array([stream.generate_state(2, np.uint64)
                             for stream in np.random.SeedSequence(trials).spawn(trials)])
            start = (rng.uniform(-1.0, 1.0, (steps, n)), rng.uniform(0.0, 1.0, steps),
                     rng.uniform(0.0, 1.0, steps))
            results = []
            for block in (library.mc_block, adversary._numpy_mc_block):
                sums = [a.copy() for a in start]
                block(keys, trials, hold, sent, steps, n, *threshold,
                      np.empty((4 * n, 64), np.uint64), np.empty((n, 64), np.uint64),
                      np.empty((n, 64)), *sums)
                results.append(sums)
            for name, got, want in zip(("sum_e", "sum_q", "sumsq_q"), *results):
                assert same_bits(got, want), (name, sent.shape, trials, hold)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1 / 3])
    @pytest.mark.parametrize("trials", [2, 63, 65, 130])
    def test_short_blocks_have_numpys_bytes(self, library, monkeypatch, gamma, trials):
        # a last block shorter than 64 trials, one worker or two
        for protocol, runner in (("icc", pcsim.run_adversary_icc_mc),
                                 ("classical", pcsim.run_adversary_classical_mc)):
            for trace in (nan_trace(protocol, 9), special_trace(protocol)):
                results = {}
                for name, loops in (("compiled", library), ("numpy", None)):
                    monkeypatch.setattr(_compiled, "library", loops)
                    for workers in (1, 2):
                        mc = runner(trace, gamma, trials, seed=3, workers=workers)
                        results[name, workers] = tuple(
                            a.tobytes() for a in (mc.mean, mc.sq_norm, mc.se_sq_norm))
                assert len(set(results.values())) == 1, (protocol, trace.x.shape)

    def test_norm_order_is_einsums_at_the_x86_v2_baseline(self):
        rng = np.random.default_rng(8)
        norms = {}
        with np.errstate(all="ignore"):
            for n in [*range(1, 80), 128, 257, 1000]:
                for scale in (1e-160, 1.0, 1e150, 1e200):
                    e = special_rows(rng, 20, n) * scale
                    e[rng.random(e.shape) < 0.02] = -np.nan  # an inf * 0.0 or inf - inf
                    q = adversary._sq_norms(e)
                    nan = np.isnan(q)
                    assert q[nan].tobytes() == np.full(nan.sum(), np.nan).tobytes()
                    norms[n, scale] = e, q
        if not numpy_baseline_is_x86_v2():
            pytest.skip("numpy's einsum sums in another order below another baseline")
        with np.errstate(all="ignore"):
            for e, q in norms.values():
                assert same_bits(q, np.einsum("kn,kn->k", e, e))
                positive = np.where(np.isnan(e), np.nan, e)  # +NaN only: einsum keeps its sign
                assert adversary._sq_norms(positive).tobytes() == np.einsum(
                    "kn,kn->k", positive, positive).tobytes()

    @pytest.mark.parametrize("loops", ["compiled", "numpy"])
    def test_mc_bytes_are_pinned(self, library, monkeypatch, loops):
        monkeypatch.setattr(_compiled, "library", library if loops == "compiled" else None)
        for protocol, mc in pinned_runs().items():
            digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                            for a in (mc.mean, mc.sq_norm, mc.se_sq_norm))
            assert digests == PINNED[protocol], protocol

    @pytest.mark.parametrize("gamma", [0.5, 0.3])
    def test_same_bits_on_signed_zeros_infinities_and_nans(self, library, monkeypatch, gamma):
        for protocol, runner in (("icc", pcsim.run_adversary_icc_mc),
                                 ("classical", pcsim.run_adversary_classical_mc)):
            # seed 9 mixes the NaNs of a classical mean at gamma = 0.3, every seed an icc one
            for trace in (nan_trace(protocol, 0), nan_trace(protocol, 9), special_trace(protocol)):
                results = {}
                for name, loops in (("compiled", library), ("numpy", None)):
                    monkeypatch.setattr(_compiled, "library", loops)
                    for workers in (1, 2):
                        mc = runner(trace, gamma, 130, seed=2, workers=workers)
                        results[name, workers] = [a.tobytes() for a in (mc.mean, mc.sq_norm,
                                                                        mc.se_sq_norm)]
                assert len({tuple(r) for r in results.values()}) == 1, protocol
                assert np.isnan(mc.mean).any(), protocol
            # the special trace's moments
            assert np.isinf(mc.mean).any(), protocol
            assert np.isnan(mc.sq_norm).any() and np.isinf(mc.sq_norm).any(), protocol

    def test_source_compiles_without_warnings(self, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        source = Path(_compiled.__file__).with_name("_loops.c").read_bytes()
        # the v4, v3 and baseline bodies, the v3 and baseline ones, the baseline alone,
        # and mulhilo's portable branch, used where the compiler has no __int128
        for defines in ([], ["-DPCSIM_NO_V4_CLONE"], ["-DPCSIM_DEFAULT_CLONE"],
                        ["-U__SIZEOF_INT128__"]):
            build = subprocess.run(
                [*_compiled._BUILD, *defines, "-Wall", "-Wextra", "-Werror", "-o",
                 str(tmp_path / "loops.so")],
                input=source, capture_output=True, timeout=120)
            assert build.returncode == 0, (defines, build.stderr.decode())

    def test_default_clone_writes_the_same_bytes(self, library, tmp_path, monkeypatch, capsys):
        # the library that picks its clone for this CPU (x86-64-v4 where it
        # has AVX-512), the one built without the v4 body (x86-64-v3 where
        # the CPU has AVX2), the one built with the baseline body alone and
        # the one whose mulhilo (Philox, the exact %.17g) has no __int128
        import ctypes

        from numpy._core import _multiarray_umath

        source = Path(_compiled.__file__).with_name("_loops.c").read_bytes()
        libraries = {"dispatched": library}
        for name, define in (("v3", "-DPCSIM_NO_V4_CLONE"), ("default", "-DPCSIM_DEFAULT_CLONE"),
                             ("no-int128", "-U__SIZEOF_INT128__")):
            path = tmp_path / f"{name}.so"
            subprocess.run([*_compiled._BUILD, define, "-o", str(path)], input=source,
                           capture_output=True, timeout=120, check=True)
            libraries[name] = ctypes.CDLL(str(path))
            for function in LIBRARY_FUNCTIONS:
                getattr(libraries[name], function).argtypes = getattr(library, function).argtypes
                getattr(libraries[name], function).restype = getattr(library, function).restype
        # x86-64-v4's AVX-512 F, CD, BW, DQ and VL; without them the
        # dispatched library runs the v3 body again
        if not _multiarray_umath.__cpu_features__.get("AVX512_SKX"):
            del libraries["dispatched"]
        runs = {}
        for name, loops in libraries.items():
            monkeypatch.setattr(_compiled, "library", loops)
            outputs = [run_outputs(tmp_path / name / protocol, protocol=protocol, gamma=gamma)
                       for protocol, gamma in (("bicc", 0.5), ("classical", 0.3))]
            for protocol, runner in (("icc", pcsim.run_adversary_icc_mc),
                                     ("classical", pcsim.run_adversary_classical_mc)):
                for trace in (nan_trace(protocol, 9), special_trace(protocol)):
                    mc = runner(trace, 1 / 3, 130, seed=3, workers=2)
                    outputs.append([a.tobytes() for a in (mc.mean, mc.sq_norm, mc.se_sq_norm)])
            runs[name] = outputs
        capsys.readouterr()
        assert runs["default"][0][0] == 0
        assert all(outputs == runs["default"] for outputs in runs.values())

    def test_builds_once_into_the_cache(self, library, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(_compiled, "library", ...)
        for name in LIBRARY_FUNCTIONS:
            assert _compiled.function(name) is not None
        cache = tmp_path / "cache" / "pcsim"
        assert cache.stat().st_mode & 0o777 == 0o700
        (path,) = cache.iterdir()  # one library for every loop, and no temporary file
        assert re.fullmatch(r"loops-[0-9a-f]{64}\.so", path.name)
        built = path.stat().st_mtime_ns
        monkeypatch.setattr(_compiled, "library", ...)
        for name in reversed(LIBRARY_FUNCTIONS):
            assert _compiled.function(name) is not None
        assert path.stat().st_mtime_ns == built and list(cache.iterdir()) == [path]

    @pytest.mark.parametrize(
        "failure", ["no compiler on PATH", "cache path is a file", "cache writable by others"])
    def test_failed_build_falls_back_to_numpy_silently(self, library, tmp_path, monkeypatch,
                                                        capsys, failure):
        expected = (run_outputs(tmp_path / "expected", protocol="bicc", gamma=0.3),
                    run_outputs(tmp_path / "expected-classical", protocol="classical", gamma=0.3),
                    sweep_outputs(tmp_path / "expected-sweep"))
        capsys.readouterr()
        if failure == "no compiler on PATH":
            (tmp_path / "empty").mkdir()
            monkeypatch.setenv("PATH", str(tmp_path / "empty"))
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        elif failure == "cache path is a file":
            (tmp_path / "file").write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        else:
            (tmp_path / "cache" / "pcsim").mkdir(parents=True)
            (tmp_path / "cache" / "pcsim").chmod(0o777)
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        got = {}
        for name, outputs in (
                ("run", lambda: run_outputs(tmp_path / "fallback", protocol="bicc", gamma=0.3)),
                ("classical", lambda: run_outputs(tmp_path / "fallback-classical",
                                                  protocol="classical", gamma=0.3)),
                ("sweep", lambda: sweep_outputs(tmp_path / "fallback-sweep"))):
            monkeypatch.setattr(_compiled, "library", ...)
            got[name] = outputs()
            assert _compiled.library is None, name
        assert capsys.readouterr().err == ""
        assert (got["run"], got["classical"], got["sweep"]) == expected
        assert got["run"][0] == got["classical"][0] == got["sweep"][0] == 0
        assert not list((tmp_path / "cache").glob("pcsim/*"))

    def test_import_builds_nothing(self, tmp_path):
        # `pcsim spectral` needs no loop, so it builds none; numpy imports
        # ctypes itself, but the loader's own imports wait for the first
        # build, which a classical run (its step loop) does start
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"network": {"n": 5,
                                                  "generator": {"type": "ring", "step": 1}}}))
        cache = tmp_path / "cache"
        script = (
            "import os, sys\n"
            "import pcsim, pcsim.cli\n"
            "from pcsim import _compiled\n"
            "def idle():\n"
            "    assert _compiled.library is ...\n"
            "    loaded = sys.modules.keys() & {'numpy.ctypeslib', 'subprocess', 'sysconfig'}\n"
            "    assert not loaded, loaded\n"
            f"    assert not os.path.exists({str(cache)!r})\n"
            "idle()\n"
            f"assert pcsim.cli.main(['spectral', '--config', {str(config)!r}]) == 0\n"
            "idle()\n"
            "pcsim.run_classical(pcsim.ring_lattice(5, 1, 'uniform'), [1.0] * 5, 10)\n"
            "print(_compiled.library is not None)\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(cache),
                   PYTHONPATH=str(Path(pcsim.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                               text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split()[-1] == str(shutil.which("cc") is not None)
