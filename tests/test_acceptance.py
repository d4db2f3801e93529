"""Acceptance gate: one test per shipped guarantee, with runtime budgets.

Each test covers one numbered guarantee end to end and asserts the
stated tolerances plus its wall-clock budget, so `pytest -v` prints a
single pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

import pcsim

from conftest import random_network


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


@pytest.fixture(scope="module")
def study():
    network = pcsim.ring_lattice(25, 1, "uniform")
    spectral = pcsim.spectral_analysis(network)
    x0 = np.random.default_rng(2024).uniform(4.0, 6.0, 25)
    return network, spectral, x0


def test_criterion_1_bit_rate_threshold():
    with Stopwatch() as sw:
        rhs = pcsim.min_bits_threshold(25, 0.992)
        b_min = pcsim.min_bits(25, 0.992)
    assert b_min == 12
    assert sw.elapsed < 1e-3
    # b must exceed log2(sqrt(N) (7 - 3|lambda_2|) / (1 - |lambda_2|)), the
    # width at which the dominant root of the beta-window recursion is 1.
    # In exact arithmetic at N = 25, |lambda_2| = 0.992:
    # (7 - 2.976) / 0.008 = 4.024 / 0.008 = 503, so the threshold is
    # log2(5 * 503) = log2(2515) = 11.29634268469289...
    expected = math.log2(2515)
    assert abs(rhs - expected) <= 1e-12


def test_criterion_2_trajectory_equivalence():
    rng = np.random.default_rng(20260823)
    with Stopwatch() as sw:
        worst = 0.0
        for _ in range(100):
            net = random_network(rng)
            x0 = rng.uniform(-5.0, 5.0, net.n)
            a = pcsim.run_classical(net, x0, 500)
            b = pcsim.run_icc(net, x0, 500)
            worst = max(worst, float(np.max(np.abs(a.x - b.x))))
    assert worst <= 1e-12  # bit-exact in practice
    assert sw.elapsed < 10.0


def test_criterion_3_protection_floor(study):
    network, spectral, x0 = study
    with Stopwatch() as sw:
        trace = pcsim.run_icc(network, x0, 1000)
        cf = pcsim.closed_form_moments(trace, 0.5)
        power = np.einsum("kn,kn->k", trace.x, trace.x)
        floor_ok = bool(
            np.all(cf.trace_second_moment_direct >= 0.25 * power + cf.c_constant)
        )
        # the recursion route, which `pcsim run` tests
        epsilon = pcsim.protection_report(trace, cf).epsilon_observed
        mc = pcsim.run_adversary_icc_mc(trace, 0.5, 10_000, seed=1)
        ks = np.unique(np.linspace(1, 1000, 20).astype(int))
        gap = np.abs(mc.sq_norm[ks] - cf.trace_second_moment[ks])
    assert floor_ok
    assert epsilon >= 0.25 - 1e-9
    assert ks.size == 20
    assert np.all(gap <= 4.0 * mc.se_sq_norm[ks])
    assert sw.elapsed < 60.0


def test_criterion_4_classical_zero_protection(study):
    network, spectral, x0 = study
    with Stopwatch() as sw:
        trace = pcsim.run_classical(network, x0, 4000)
        cf = pcsim.closed_form_moments(trace, 0.5)
        innovation_norms = np.linalg.norm(trace.innovations(0, trace.horizon), axis=1)
        k0 = int(np.argmax(innovation_norms < 1e-6))
        assert innovation_norms[k0] < 1e-6  # the horizon does reach it
        tail = cf.trace_second_moment[k0:]
        x0_power = float(x0 @ x0)
    assert np.all(tail < 1e-4 * x0_power)
    assert tail[-1] < 1e-20  # converges toward zero ...
    # ... monotonically until it reaches the rounding floor near
    # 1e-27, where the summed closed form wiggles at the last ulp
    above_floor = tail[:-1] > 1e-26
    assert np.all(np.diff(tail)[above_floor] <= tail[:-1][above_floor] * 1e-12)
    assert sw.elapsed < 10.0


def test_criterion_5_adversary_mean_limit(study):
    network, spectral, x0 = study
    with Stopwatch() as sw:
        trace = pcsim.run_icc(network, x0, 1000)
        cf = pcsim.closed_form_moments(trace, 0.5)
        x_inf = pcsim.consensus_value(spectral, x0)
    assert np.max(np.abs(cf.mean[1000] - 0.5 * x_inf)) < 1e-3
    assert sw.elapsed < 5.0


def test_criterion_6_quantized_convergence(study):
    network, spectral, x0 = study
    with Stopwatch() as sw:
        deviations = {}
        for bits, horizon in [(12, 9000), (15, 3000), (20, 3000)]:
            trace = pcsim.run_bicc(network, spectral, x0, bits, (4.0, 6.0), horizon)
            assert not trace.saturated.any()
            assert trace.x[-1].max() - trace.x[-1].min() < 1e-6
            report = pcsim.verify_deviation(trace, spectral, x0)
            assert report.deviation <= report.bound
            deviations[bits] = report.deviation
            cf = pcsim.closed_form_moments(trace, 0.5)
            protection = pcsim.protection_report(trace, cf)
            assert protection.min_protection >= 0.25
        starved = pcsim.run_bicc(network, spectral, x0, 10, (4.0, 6.0), 1500)
        lo, hi = starved.x.min(axis=1), starved.x.max(axis=1)
    assert deviations[12] > deviations[15] > deviations[20]
    assert hi[-1] - lo[-1] > hi[0] - lo[0]
    assert sw.elapsed < 120.0


def test_criterion_7_quantizer_properties():
    rng = np.random.default_rng(7)
    with Stopwatch() as sw:
        m = 100_000
        alpha = rng.uniform(-100.0, 100.0, m)
        beta = 10.0 ** rng.uniform(-3.0, 2.0, m)
        bits = rng.integers(1, 21, m)
        x = alpha + beta * rng.uniform(0.0, 1.0, m)
        worst = -np.inf
        for b in np.unique(bits):
            pick = bits == b
            code = pcsim.encode(x[pick], alpha[pick], beta[pick], int(b))
            xq = pcsim.decode(code, alpha[pick], beta[pick], int(b))
            excess = np.abs(x[pick] - xq) - beta[pick] / 2 ** (int(b) + 1)
            worst = max(worst, float(excess.max()))
        assert worst <= 0.0

        for n in (4, 25, 100):
            for b in (6, 12, 16):
                for lam in (0.3, 0.9, 0.992):
                    a = pcsim.beta_sequence(n, lam, b, (4.0, 6.0), 200)
                    s = pcsim.beta_sequence_summed(n, lam, b, (4.0, 6.0), 200)
                    assert np.max(np.abs(a - s) / np.abs(a)) <= 1e-9
                    threshold = pcsim.min_bits_threshold(n, lam)
                    for width in range(1, 33):
                        decays = pcsim.effective_eta(n, lam, width) < 1.0
                        assert decays == (width > threshold)
    assert sw.elapsed < 10.0


def test_criterion_8_spectral_identities():
    rng = np.random.default_rng(88)
    with Stopwatch() as sw:
        worst = 0.0
        for _ in range(20):
            net = random_network(rng)
            sp = pcsim.spectral_analysis(net)
            # horizon long enough that L^k -> J has converged even at
            # the slowest mixing rate this generator produces
            res = pcsim.verify_projector_identities(net, sp, horizon=800)
            worst = max(
                worst,
                *(res[key] for key in (
                    "j_idempotent", "lj_equals_j", "l1j_zero", "jl1_zero",
                    "deflation_power", "rho_deflated",
                    "innovation_equivalence", "power_limit",
                )),
            )
    assert worst <= 1e-8
    assert sw.elapsed < 10.0
