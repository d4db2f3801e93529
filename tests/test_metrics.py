"""Consensus deviation bound and convergence detection."""

import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcsim
from pcsim.errors import DimensionMismatch, EtaOutOfRange, NotConverged

from conftest import random_network, two_agent_doubly_stochastic
from reference import convergence_step_scan


def study_schedule(bits):
    """deviation_bound's schedule arguments for the 25-ring study at `bits`."""
    return 25, 0.992, bits, (4.0, 6.0)


class TestDeviationBound:
    def test_hand_value(self):
        # (2 + hypot(18, 2) * 0.996 / 0.004) * 5 / 2^14
        bound = pcsim.deviation_bound(*study_schedule(13), eta=0.996)
        assert bound == pytest.approx(1.38, abs=0.01)
        assert bound == pytest.approx(1.3768255001197602, rel=1e-15)

    def test_halves_per_extra_bit(self):
        # only the 2^(b+1) denominator depends on b, and dividing by a
        # power of two is exact
        assert pcsim.deviation_bound(*study_schedule(20), eta=0.996) == (
            pcsim.deviation_bound(*study_schedule(13), eta=0.996) / 2**7
        )

    def test_vanishes_as_bits_grow(self):
        bounds = [pcsim.deviation_bound(*study_schedule(b), eta=0.996) for b in (13, 20, 40)]
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[2] < 1e-7

    def test_eta_defaults_to_window_decay_rate(self):
        sched = study_schedule(13)
        eta = pcsim.effective_eta(25, 0.992, 13)
        assert pcsim.deviation_bound(*sched) == pcsim.deviation_bound(*sched, eta)

    def test_monotone_in_eta(self):
        vals = [pcsim.deviation_bound(*study_schedule(13), eta=e) for e in (0.993, 0.996, 0.999)]
        assert vals[0] < vals[1] < vals[2]

    def test_eta_out_of_range(self):
        with pytest.raises(EtaOutOfRange):
            pcsim.deviation_bound(*study_schedule(13), eta=0.5)  # below |lambda_2|
        with pytest.raises(EtaOutOfRange):
            pcsim.deviation_bound(*study_schedule(13), eta=1.0)

    @pytest.mark.parametrize("x_range", [(6.0, 4.0), (4.0, math.nan), (-math.inf, 6.0)])
    def test_bad_state_range(self, x_range):
        with pytest.raises(ValueError, match="state range"):
            pcsim.deviation_bound(25, 0.992, 13, x_range, eta=0.996)


class TestConvergenceStep:
    def test_detects_settling(self, ring25, x0_ring):
        trace = pcsim.run_classical(ring25, x0_ring, 2200)
        k0 = pcsim.convergence_step(trace)
        assert k0 is not None
        width = trace.x.max(axis=1) - trace.x.min(axis=1)
        threshold = 1e-6 * np.max(np.abs(trace.x[0]))
        assert np.all(width[k0:] < threshold)
        assert width[k0 - 1] >= threshold  # earliest such step

    def test_hold_semantics(self):
        # widths 5, eps, eps, 5, eps, eps, eps: the first run of three
        # consecutive settled steps starts at k = 4
        widths = [5.0, 1e-9, 1e-9, 5.0, 1e-9, 1e-9, 1e-9]
        x = np.column_stack([np.zeros(len(widths)), widths])
        trace = types.SimpleNamespace(x=x)
        assert pcsim.convergence_step(trace, tol=1e-6, hold=3) == 4
        assert pcsim.convergence_step(trace, tol=1e-6, hold=4) is None

    def test_unsettled_trace_returns_none(self, ring25, x0_ring):
        trace = pcsim.run_classical(ring25, x0_ring, 100)
        assert pcsim.convergence_step(trace, tol=0.0) is None

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(widths=st.lists(st.sampled_from([0.0, 1e-9, 2.0, 5.0, math.inf, math.nan]),
                           min_size=1, max_size=40),
           hold=st.integers(1, 12))
    @example(widths=[5.0, 1e-9, 1e-9], hold=4)  # hold longer than the trace
    @example(widths=[5.0, 5.0, 1e-9, 1e-9, 1e-9], hold=3)  # a run that ends on the last step
    @example(widths=[5.0, 5.0, 1e-9, 1e-9], hold=3)  # one step short of it
    @example(widths=[1e-9] * 9, hold=9)  # every step settled
    @example(widths=[5.0, 1e-9, math.nan, 1e-9, 1e-9], hold=2)  # a NaN width breaks a run
    @example(widths=[math.nan, 1e-9, 1e-9], hold=1)  # a NaN x(0): no tolerance, never settled
    def test_matches_the_step_by_step_scan(self, widths, hold):
        # agent 2 sits `width` above agent 1 at 1.0, so row k's envelope width is about widths[k]
        x = np.column_stack([np.ones(len(widths)), 1.0 + np.array(widths)])
        trace = types.SimpleNamespace(x=x)
        threshold = 1e-6 * float(np.max(np.abs(x[0])))
        expected = convergence_step_scan(x.max(axis=1) - x.min(axis=1), threshold, hold)
        assert pcsim.convergence_step(trace, tol=1e-6, hold=hold) == expected

    @pytest.mark.parametrize("hold", [0, -3])
    def test_hold_below_one_is_rejected(self, hold):
        trace = types.SimpleNamespace(x=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="hold"):
            pcsim.convergence_step(trace, hold=hold)


class TestVerifyDeviation:
    def test_unquantized_trace_has_no_bound(self, ring25, spectral25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 4000)
        report = pcsim.verify_deviation(trace, spectral25, x0_ring)
        assert report.bound is None and report.eta is None
        assert report.x_inf_ideal == pytest.approx(float(spectral25.w_left @ x0_ring))
        # exact averaging settles on the ideal value to fp precision
        assert report.deviation < 1e-9
        assert 1200 < report.converged_at < 1900

    def test_two_agent_quantized(self):
        # lambda2 = 0.4, not the equal-weight pair: that one mixes in a
        # single step, which the two-step-lagged window cannot track
        net = pcsim.build_network(2, [(1, 2, 0.4), (2, 1, 0.2)])
        sp = pcsim.spectral_analysis(net)
        trace = pcsim.run_bicc(net, sp, np.array([4.4, 5.6]), 16, (4.0, 6.0), 200)
        report = pcsim.verify_deviation(trace, sp, np.array([4.4, 5.6]))
        assert report.eta == pcsim.effective_eta(2, sp.lambda2_mag, 16)
        assert 0.0 <= report.deviation <= report.bound

    def test_no_bound_below_the_bit_threshold(self):
        # at 4 bits this pair's windows grow, yet both agents decode to the
        # same value inside [x_min - beta(1), x_max + beta(1)], so the
        # envelope settles with no certified bound
        net = pcsim.build_network(2, [(1, 2, 0.2736), (2, 1, 0.1197)])
        sp = pcsim.spectral_analysis(net)
        x0 = np.random.default_rng(2).uniform(-1.0, 1.0, 2)
        trace = pcsim.run_bicc(net, sp, x0, 4, (-1.0, 1.0), 65)
        assert pcsim.effective_eta(2, sp.lambda2_mag, 4) > 1.0
        report = pcsim.verify_deviation(trace, sp, x0)
        assert report.bound is None and report.eta is None
        assert report.converged_at == 0
        assert -4.0 <= report.x_inf_observed <= 4.0
        with pytest.raises(EtaOutOfRange):  # an explicit rate is still checked
            pcsim.verify_deviation(trace, sp, x0, eta=1.5)

    def test_agreement_on_a_diverging_value_below_the_threshold(self):
        # at 1 bit both agents decode to the same value, but it lies far
        # outside [x_min - beta(1), x_max + beta(1)]: that is no consensus
        net = pcsim.build_network(2, [(1, 2, 0.2736), (2, 1, 0.1197)])
        sp = pcsim.spectral_analysis(net)
        x0 = np.array([1.0, 2.0])
        trace = pcsim.run_bicc(net, sp, x0, 1, (-0.00112, 12.885), 65)
        assert pcsim.convergence_step(trace) == 0
        with pytest.raises(NotConverged, match=r"settled on -1.433e\+33, outside \[-3.866e\+01"):
            pcsim.verify_deviation(trace, sp, x0)

    def test_deviation_shrinks_with_bits(self, ring25, spectral25, x0_ring):
        deviations = {}
        for bits, horizon in [(12, 9000), (15, 3000), (20, 3000)]:
            trace = pcsim.run_bicc(ring25, spectral25, x0_ring, bits, (4.0, 6.0), horizon)
            report = pcsim.verify_deviation(trace, spectral25, x0_ring)
            assert report.deviation <= report.bound
            deviations[bits] = report.deviation
        assert deviations[12] > deviations[15] > deviations[20]
        assert abs(deviations[12]) / math.sqrt(25) < 0.01  # close to the ideal value

    def test_x0_of_wrong_length_raises(self, ring25, spectral25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 4000)
        with pytest.raises(DimensionMismatch):
            pcsim.verify_deviation(trace, spectral25, x0_ring[:-1])

    def test_diverging_run_raises(self, ring25, spectral25, x0_ring):
        trace = pcsim.run_bicc(ring25, spectral25, x0_ring, 10, (4.0, 6.0), 1200)
        with pytest.raises(NotConverged):
            pcsim.verify_deviation(trace, spectral25, x0_ring)

    def test_bound_holds_on_random_networks(self):
        """Observed deviation never exceeds the bound at adequate rates.

        eta must sit inside (|lambda_2|, 1) and above the window decay
        envelope's step-1 floor beta(1)/bbar, so draws are filtered to
        networks whose |lambda_2| leaves room for that.
        """
        rng = np.random.default_rng(91)
        checked = 0
        while checked < 50:
            net = random_network(rng, n=int(rng.integers(3, 13)))
            sp = pcsim.spectral_analysis(net)
            if sp.lambda2_mag > 0.9:
                continue
            eta = max(sp.lambda2_mag + 0.02, 18.0 / math.hypot(18.0, 2.0) + 1e-3)
            bits = pcsim.bits_for_rate(net.n, sp.lambda2_mag, eta)
            x0 = rng.uniform(4.0, 6.0, net.n)
            trace = pcsim.run_bicc(net, sp, x0, bits, (4.0, 6.0), 2600)
            report = pcsim.verify_deviation(trace, sp, x0, eta=eta)
            assert report.deviation <= report.bound
            checked += 1
