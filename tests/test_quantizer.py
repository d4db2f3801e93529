import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcsim
from pcsim import quantizer
from pcsim.errors import (
    CodeOutOfRange,
    EtaOutOfRange,
    Lambda2NotContractive,
    NonPositiveBeta,
)


class TestEncodeDecode:
    def test_interior_point(self):
        assert pcsim.encode(0.5, 0.0, 1.0, 3) == 4

    def test_lower_saturation(self):
        assert pcsim.encode(-5.0, 0.0, 1.0, 3) == 0

    def test_upper_saturation(self):
        assert pcsim.encode(2.0, 0.0, 1.0, 3) == 7

    def test_decode_midpoint(self):
        assert pcsim.decode(4, 0.0, 1.0, 3) == 0.5625
        assert pcsim.decode(0, 0.0, 1.0, 1) == 0.25

    def test_round_trip_error_at_hand_example(self):
        xq = pcsim.decode(pcsim.encode(0.5, 0.0, 1.0, 3), 0.0, 1.0, 3)
        assert abs(0.5 - xq) == 0.0625  # exactly delta/2 here

    def test_window_edges(self):
        # x == alpha -> code 0; x == alpha + beta saturates to the top cell
        b = 5
        assert pcsim.encode(2.0, 2.0, 3.0, b) == 0
        assert pcsim.encode(5.0, 2.0, 3.0, b) == 2**b - 1
        err = abs(5.0 - pcsim.decode(2**b - 1, 2.0, 3.0, b))
        assert err == pytest.approx(3.0 / 2 ** (b + 1))

    def test_code_range_for_wild_inputs(self):
        x = np.array([-np.inf, -1e300, -1.0, 0.0, 0.5, 1.0, 1e300, np.inf])
        codes = pcsim.encode(x, 0.0, 1.0, 4)
        assert codes.min() >= 0 and codes.max() <= 15
        assert codes[0] == 0 and codes[-1] == 15

    def test_nonpositive_beta(self):
        with pytest.raises(NonPositiveBeta):
            pcsim.encode(0.5, 0.0, 0.0, 3)
        with pytest.raises(NonPositiveBeta):
            pcsim.encode(0.5, 0.0, -1.0, 3)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, [1.0, np.nan]])
    def test_encode_rejects_non_finite_beta(self, beta):
        # a NaN width used to slip past `beta <= 0` and give the most
        # negative int64 as a code
        with pytest.raises(NonPositiveBeta):
            pcsim.encode([0.5, 0.5], 0.0, beta, 3)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, [1.0, np.inf]])
    def test_decode_rejects_non_finite_beta(self, beta):
        # an infinite width used to decode to inf, a NaN one to NaN
        with pytest.raises(NonPositiveBeta):
            pcsim.decode([3, 3], 0.0, beta, 3)

    def test_bits_bound(self):
        # 53 is the widest width whose codes are all exact float64 integers
        assert pcsim.encode(0.5, 0.0, 1.0, 53) == 2**52
        assert pcsim.encode(1.0, 0.0, 1.0, 53) == 2**53 - 1
        assert abs(pcsim.decode(2**52, 0.0, 1.0, 53) - 0.5) <= 2.0**-54
        with pytest.raises(ValueError, match="bits"):
            pcsim.encode(0.5, 0.0, 1.0, 54)
        with pytest.raises(ValueError, match="bits"):
            pcsim.decode(0, 0.0, 1.0, 54)
        with pytest.raises(ValueError, match="bits"):
            pcsim.decode(0, 0.0, 1.0, 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: pcsim.beta_sequence(5, 0.5, 12.5, (4.0, 6.0), 3),
            lambda: pcsim.beta_sequence(5, 0.5, True, (4.0, 6.0), 3),
            lambda: pcsim.beta_sequence(5, 0.5, 12.0, (4.0, 6.0), 3),
            lambda: pcsim.beta_sequence_summed(5, 0.5, 12.5, (4.0, 6.0), 3),
            lambda: pcsim.decode(3, 0.0, 1.0, 2.5),
            lambda: pcsim.decode(1, 0.0, 1.0, True),
            lambda: pcsim.encode(0.5, 0.0, 1.0, 3.5),
            lambda: pcsim.encode(0.5, 0.0, 1.0, np.True_),
        ],
    )
    def test_width_must_be_an_integer(self, call):
        # a float width is refused even when integral: the codec's code
        # arithmetic needs an integer type (encode cannot cast 4095.0)
        with pytest.raises(ValueError, match="bits must be an integer"):
            call()

    @pytest.mark.parametrize("int_type", [np.int32, np.int64, np.uint8])
    def test_numpy_integer_widths_accepted(self, int_type):
        bits = int_type(3)
        assert pcsim.encode(0.5, 0.0, 1.0, bits) == pcsim.encode(0.5, 0.0, 1.0, 3)
        assert pcsim.decode(4, 0.0, 1.0, bits) == pcsim.decode(4, 0.0, 1.0, 3)
        np.testing.assert_array_equal(
            pcsim.beta_sequence(5, 0.5, bits, (4.0, 6.0), 3),
            pcsim.beta_sequence(5, 0.5, 3, (4.0, 6.0), 3),
        )

    def test_code_out_of_range(self):
        with pytest.raises(CodeOutOfRange):
            pcsim.decode(8, 0.0, 1.0, 3)
        with pytest.raises(CodeOutOfRange):
            pcsim.decode(-1, 0.0, 1.0, 3)

    @pytest.mark.parametrize(
        "code", [np.nan, 2.5, True, np.True_, [1.0, np.nan], [2.0, 2.5], [True, False]]
    )
    def test_decode_rejects_values_that_are_not_codes(self, code):
        # NaN, 2.5 and True used to decode to nan, 0.375 and 0.1875
        with pytest.raises(CodeOutOfRange, match=r"^code outside 0\.\.7$"):
            pcsim.decode(code, 0.0, 1.0, 3)

    @pytest.mark.parametrize("code", [3, 3.0, -0.0, np.int64(3), np.uint8(3), np.float32(3.0)])
    def test_integral_codes_of_any_number_type_decode(self, code):
        assert pcsim.decode(code, 0.0, 1.0, 3) == (float(code) + 0.5) / 8

    def test_round_trip_bound_sweep(self):
        """100k random in-window points never exceed beta / 2^(b+1).

        Scales keep the quantization cell well above float rounding of
        x - alpha; with beta/|alpha| below ~1e-9 at b=20 the half-cell
        margin is no longer meaningful in 64-bit arithmetic.
        """
        rng = np.random.default_rng(99)
        m = 100_000
        alpha = rng.uniform(-100, 100, m)
        beta = 10.0 ** rng.uniform(-3, 2, m)
        x = alpha + beta * rng.uniform(0.0, 1.0, m)
        for b in range(1, 21):
            pick = slice(b - 1, None, 20)  # disjoint strided subsets, all b used
            code = pcsim.encode(x[pick], alpha[pick], beta[pick], b)
            xq = pcsim.decode(code, alpha[pick], beta[pick], b)
            assert np.all(np.abs(x[pick] - xq) <= beta[pick] / 2 ** (b + 1))

    def test_scalar_in_scalar_out(self):
        code = pcsim.encode(0.3, 0.0, 1.0, 6)
        assert isinstance(code, int)
        assert isinstance(pcsim.decode(code, 0.0, 1.0, 6), float)


def reference_encode(x, alpha, beta, bits):
    """The codec arithmetic as it stood before its kernel was split out."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    top = 2**bits - 1
    delta = beta / 2**bits
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = np.floor((x - alpha) / delta)
        code = np.clip(raw, 0, top)
        code = np.where(x <= alpha, 0, code)
        code = np.where(x >= alpha + beta, top, code)
        return code.astype(np.int64)


def window_points(rng, alpha, beta, m=64):
    """In-window samples plus the window edges and both infinities."""
    x = alpha + beta * rng.uniform(0.0, 1.0, m)
    edges = [alpha, alpha + beta, np.nextafter(alpha, np.inf),
             np.nextafter(alpha + beta, -np.inf), -np.inf, np.inf]
    return np.concatenate([x, edges])


def codec_cases(test):
    """Run `test` over every allowed width and a spread of windows."""
    cases = given(
        bits=st.integers(1, quantizer.MAX_BITS),
        alpha=st.floats(-1e6, 1e6),
        beta=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    return settings(derandomize=True, deadline=None, database=None, max_examples=200)(cases(test))


class TestCodecProperties:
    """encode/decode over every allowed width, and the kernels the bicc loop calls."""

    @codec_cases
    @example(bits=53, alpha=0.0, beta=1.0, seed=0)
    @example(bits=1, alpha=-1e6, beta=1e-6, seed=0)
    def test_codes_fit_the_width(self, bits, alpha, beta, seed):
        x = window_points(np.random.default_rng(seed), alpha, beta)
        x = np.concatenate([x, alpha + beta * np.array([-2.0, 3.0]), [-1e300, 1e300]])
        codes = pcsim.encode(x, alpha, beta, bits)
        assert codes.min() >= 0 and codes.max() <= 2**bits - 1

    @codec_cases
    @example(bits=53, alpha=0.0, beta=1.0, seed=0)
    def test_round_trip_within_half_cell(self, bits, alpha, beta, seed):
        # beta / 2^(b+1) in exact arithmetic, plus the rounding of
        # x - alpha and of the three-term decode sum
        x = window_points(np.random.default_rng(seed), alpha, beta)[:-2]
        xq = pcsim.decode(pcsim.encode(x, alpha, beta, bits), alpha, beta, bits)
        slack = 4 * 2.0**-53 * (abs(alpha) + beta)
        assert np.all(np.abs(x - xq) <= beta / 2 ** (bits + 1) + slack)

    @codec_cases
    def test_codes_non_decreasing_in_x(self, bits, alpha, beta, seed):
        x = np.sort(window_points(np.random.default_rng(seed), alpha, beta))
        x = np.concatenate([[-np.inf, alpha - beta], x, [alpha + 2 * beta, np.inf]])
        assert np.all(np.diff(pcsim.encode(x, alpha, beta, bits)) >= 0)

    @codec_cases
    @example(bits=12, alpha=4.0, beta=2.0, seed=0)
    def test_public_codec_equals_the_loop_kernels(self, bits, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([window_points(rng, alpha, beta), [np.nan]])
        expected = reference_encode(x, alpha, beta, bits)
        codes = pcsim.encode(x, alpha, beta, bits)
        out = np.empty(x.shape, dtype=np.int64)
        with np.errstate(all="ignore"):
            quantizer.encode_kernel(x, alpha, beta, bits, out)
        np.testing.assert_array_equal(codes, expected, strict=True)
        np.testing.assert_array_equal(out, expected, strict=True)
        valid = codes[:-1]  # the NaN input's code is out of range
        xq = np.empty(valid.shape)
        quantizer.decode_kernel(valid, alpha, beta, bits, xq)
        delta = beta / 2**bits
        np.testing.assert_array_equal(xq, valid * delta + delta / 2 + alpha, strict=True)
        np.testing.assert_array_equal(pcsim.decode(valid, alpha, beta, bits), xq, strict=True)
        with pytest.raises(CodeOutOfRange, match=f"code outside 0..{2**bits - 1}"):
            pcsim.decode(codes, alpha, beta, bits)

    def test_window_edges_and_infinities_per_kernel(self):
        alpha, beta, bits = 2.0, 3.0, 5
        x = np.array([alpha, alpha + beta, -np.inf, np.inf])
        out = np.empty(4, dtype=np.int64)
        quantizer.encode_kernel(x, alpha, beta, bits, out)
        np.testing.assert_array_equal(out, [0, 31, 0, 31])
        assert [pcsim.encode(v, alpha, beta, bits) for v in x] == [0, 31, 0, 31]

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, 2.0, 5.0])
    def test_scalar_inputs_match_the_reference(self, x):
        # a scalar NaN gets the same out-of-range code as an array one,
        # which decode then rejects
        code = pcsim.encode(x, 2.0, 3.0, 5)
        assert code == int(reference_encode(x, 2.0, 3.0, 5))
        if np.isnan(x):
            with pytest.raises(CodeOutOfRange):
                pcsim.decode(code, 2.0, 3.0, 5)

    def test_cell_width_underflow(self):
        # beta / 2^bits rounds to 0: only the window tests keep x = alpha
        # (0/0) and x = alpha + beta (inf) at their edge codes
        alpha, beta, bits = 0.0, 5e-324, 3
        x = np.array([alpha, 1e-300, alpha + beta, -0.5])
        out = np.empty(4, dtype=np.int64)
        with np.errstate(all="ignore"):
            quantizer.encode_kernel(x, alpha, beta, bits, out)
        np.testing.assert_array_equal(out, [0, 7, 7, 0])
        np.testing.assert_array_equal(reference_encode(x, alpha, beta, bits), out)
        # every such input lands in the clamp, so encode warns of none
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(pcsim.encode(x, alpha, beta, bits), out)


def reference_beta_sequence(n, lambda2_mag, bits, x_range, k_max):
    """beta(0..k_max) as the stateful per-step window schedule stepped it.

    The schedule held (beta(k), beta(k-1)) and recomputed the recursion
    coefficients at every step after the first.
    """
    x_min, x_max = x_range
    beta, beta_prev = x_max - x_min, None
    out = [beta]
    for k in range(k_max):
        if k == 0:
            new = 3.0 * max(abs(x_min), abs(x_max))
        else:
            root = math.sqrt(n) / 2**bits
            a = 3.0 * root + lambda2_mag
            c = root * (4.0 - 3.0 * lambda2_mag)
            new = max(a * beta + c * beta_prev, np.finfo(float).tiny)
        beta_prev, beta = beta, new
        out.append(new)
    return np.array(out)


class TestBetaSchedule:
    def test_initial_pair_from_state_range(self):
        seq = pcsim.beta_sequence(25, 0.992, 12, (4.0, 6.0), 1)
        assert seq[0] == 2.0  # x_max - x_min
        assert seq[1] == 18.0  # 3 * max(|x_min|, |x_max|)

    def test_negative_range_uses_magnitude(self):
        seq = pcsim.beta_sequence(4, 0.5, 8, (-5.0, 3.0), 1)
        assert seq[0] == 8.0
        assert seq[1] == 15.0

    def test_second_step_value(self):
        b2 = pcsim.beta_sequence(25, 0.992, 12, (4.0, 6.0), 2)[2]
        assert b2 == pytest.approx(17.924, abs=1e-3)
        assert b2 == pytest.approx(17.924417968750003, rel=1e-15)

    @pytest.mark.parametrize("bits", range(1, 54))
    def test_matches_the_stepped_schedule_at_every_width(self, bits):
        for lam in (0.0, 0.5, 0.992):
            expected = reference_beta_sequence(25, lam, bits, (4.0, 6.0), 400)
            np.testing.assert_array_equal(
                pcsim.beta_sequence(25, lam, bits, (4.0, 6.0), 400), expected, strict=True
            )

    @pytest.mark.parametrize("x_range", [(-2.5, 2.5), (-7.0, 0.5), (-0.25, 3.0), (-6.0, -1.0)])
    def test_matches_the_stepped_schedule_across_zero(self, x_range):
        for bits in (3, 12, 30):
            expected = reference_beta_sequence(9, 0.7, bits, x_range, 600)
            np.testing.assert_array_equal(
                pcsim.beta_sequence(9, 0.7, bits, x_range, 600), expected, strict=True
            )

    def test_matches_the_stepped_schedule_at_the_tiny_floor(self):
        # at 53 bits with |lambda_2| = 0 every two steps shrink beta by
        # about 1e-15, so from about step 42 the products underflow and
        # the floor holds beta
        tiny = np.finfo(float).tiny
        seq = pcsim.beta_sequence(4, 0.0, 53, (1.0, 2.0), 100)
        assert seq[-1] == tiny and np.sum(seq == tiny) > 50
        np.testing.assert_array_equal(seq, reference_beta_sequence(4, 0.0, 53, (1.0, 2.0), 100))

    @pytest.mark.parametrize("k_max", [0, 1, 2])
    def test_short_sequences(self, k_max):
        np.testing.assert_array_equal(
            pcsim.beta_sequence(25, 0.992, 12, (4.0, 6.0), k_max),
            reference_beta_sequence(25, 0.992, 12, (4.0, 6.0), k_max),
        )

    def test_zero_state_stays_zero(self):
        n, lam, bits = 9, 0.7, 10
        a = 3 * np.sqrt(n) / 2**bits + lam
        c = np.sqrt(n) / 2**bits * (4 - 3 * lam)
        prev, cur = 0.0, 0.0
        for _ in range(50):
            prev, cur = cur, a * cur + c * prev
            assert cur == 0.0

    def test_sequence_nonnegative(self):
        for bits in (6, 10, 14):
            seq = pcsim.beta_sequence(16, 0.85, bits, (-2.0, 7.0), 300)
            assert np.all(seq >= 0.0)

    @pytest.mark.parametrize("bits", [0, 54])
    def test_width_outside_range(self, bits):
        with pytest.raises(ValueError, match="bits"):
            pcsim.beta_sequence(25, 0.992, bits, (4.0, 6.0), 10)
        with pytest.raises(ValueError, match="bits"):
            pcsim.beta_sequence_summed(25, 0.992, bits, (4.0, 6.0), 10)

    def test_recursion_matches_summed_form(self):
        for n in (4, 25, 100):
            for bits in (6, 12, 16):
                for lam in (0.3, 0.9, 0.992):
                    a = pcsim.beta_sequence(n, lam, bits, (-3.0, 5.0), 200)
                    b = pcsim.beta_sequence_summed(n, lam, bits, (-3.0, 5.0), 200)
                    rel = np.abs(a - b) / np.maximum(np.abs(a), 1e-300)
                    assert np.max(rel) <= 1e-9, (n, bits, lam)

    @pytest.mark.parametrize(
        "route", [pcsim.beta_sequence, pcsim.beta_sequence_summed]
    )
    @pytest.mark.parametrize(
        "x_range", [(6.0, 4.0), (4.0, 4.0), (4.0, np.nan), (np.nan, 6.0), (-np.inf, 6.0),
                    (4.0, np.inf), (-1e308, 1e308), (0.0, 1e308)]
    )
    def test_bad_state_range(self, route, x_range):
        # (6, 4) used to give beta(0) = -2 through the summed route; the
        # last two have finite ends but overflow beta(0) or beta(1) = 3e308
        with pytest.raises(ValueError, match="state range"):
            route(25, 0.992, 12, x_range, 10)

    def test_alpha_window_centers_on_previous_decode(self, ring25, spectral25, x0_ring):
        # alpha(1) = x_q(0) - beta(1)/2 and alpha(k) = xi_q(k-2) - beta(k)/2
        trace = pcsim.run_bicc(ring25, spectral25, x0_ring, 12, (4.0, 6.0), 50)
        alpha = trace.quantizer_columns(0, trace.horizon + 1)[1]
        assert np.all(alpha[0] == 4.0)  # k = 0 window starts at x_min
        np.testing.assert_array_equal(alpha[1], trace.x[0] - trace.beta[1] / 2)
        np.testing.assert_array_equal(
            alpha[2:], trace.sent[1:-1] - trace.beta[2:, None] / 2
        )
        # window [-beta/2, +beta/2] around the centre brackets it
        centre = alpha[1:] + trace.beta[1:, None] / 2
        np.testing.assert_array_equal(centre[0], trace.x[0])

    def test_decay_bound_with_rate_derived_bits(self):
        """beta(k) <= hypot(beta1, beta0) * eta^k whenever eta is feasible."""
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            lam = float(rng.uniform(0.2, 0.85))
            x_min, x_max = sorted(rng.uniform(-8, 8, 2))
            if x_max - x_min < 0.5:
                continue
            b0 = x_max - x_min
            b1 = 3 * max(abs(x_min), abs(x_max))
            bbar = np.hypot(b1, b0)
            # the k=1 step needs beta(1) <= bbar*eta, so eta >= b1/bbar
            lo = max(lam + 0.02, b1 / bbar + 1e-3)
            if lo >= 0.995:
                continue
            eta = float(rng.uniform(lo, 0.995))
            bits = pcsim.bits_for_rate(n, lam, eta)
            seq = pcsim.beta_sequence(n, lam, bits, (x_min, x_max), 500)
            bound = bbar * eta ** np.arange(501)
            assert np.all(seq <= bound * (1 + 1e-12))

    def test_decay_bound_fails_below_its_eta_floor(self):
        # with x_range [4, 6]: beta(1) = 18 > hypot(18, 2) * eta once
        # eta < 18/hypot(18,2) ~ 0.9939, independent of the bit width —
        # the k = 1 comparison alone rules such eta out
        bbar = np.hypot(18.0, 2.0)
        assert 18.0 > bbar * 0.993
        assert 18.0 <= bbar * 0.994


class TestBitThresholds:
    def test_threshold_at_study_size(self):
        rhs = pcsim.min_bits_threshold(25, 0.992)
        assert rhs == pytest.approx(11.296342684692888, rel=1e-15)
        assert pcsim.min_bits(25, 0.992) == 12

    def test_threshold_small_network(self):
        rhs = pcsim.min_bits_threshold(2, 0.0)
        assert rhs == pytest.approx(0.5 + np.log2(7.0), rel=1e-14)
        assert pcsim.min_bits(2, 0.0) == 4

    def test_integer_threshold_is_exceeded_strictly(self):
        # min_bits must be strictly above the threshold even when the
        # threshold is itself an integer
        lam = 1.0 - (7.0 - 3.0) / (2**4 / np.sqrt(4) * 1.0 + 3.0)  # contrived
        rhs = pcsim.min_bits_threshold(4, lam)
        b = pcsim.min_bits(4, lam)
        assert b > rhs

    def test_not_contractive(self):
        for lam in (1.0, 1.5):
            with pytest.raises(Lambda2NotContractive):
                pcsim.min_bits_threshold(25, lam)
            with pytest.raises(Lambda2NotContractive):
                pcsim.min_bits(25, lam)

    def test_bits_for_rate_study_point(self):
        b = pcsim.bits_for_rate(25, 0.992, 0.996)
        assert b == 13
        assert pcsim.effective_eta(25, 0.992, b) <= 0.996

    def test_bits_for_rate_blows_up_near_lambda2(self):
        # the requirement grows like log2(1/(eta - |lambda2|))
        near = [pcsim.bits_for_rate(25, 0.992, 0.992 + gap) for gap in (1e-3, 1e-4, 1e-6, 1e-8)]
        assert near == sorted(near)
        assert near[-1] > near[0] + 10

    def test_bits_for_rate_monotone_in_eta(self):
        lam = 0.8
        etas = np.linspace(0.81, 0.999, 40)
        bs = [pcsim.bits_for_rate(10, lam, float(e)) for e in etas]
        assert all(b2 <= b1 for b1, b2 in zip(bs, bs[1:]))

    def test_eta_out_of_range(self):
        with pytest.raises(EtaOutOfRange):
            pcsim.bits_for_rate(25, 0.992, 0.9)  # below |lambda2|
        with pytest.raises(EtaOutOfRange):
            pcsim.bits_for_rate(25, 0.992, 1.0)

    def test_effective_eta_limit_is_lambda2(self):
        assert pcsim.effective_eta(25, 0.992, 60) == pytest.approx(0.992, abs=1e-12)

    def test_effective_eta_below_one_at_sufficient_bits(self):
        assert pcsim.effective_eta(25, 0.992, 12) < 1.0

    def test_decay_iff_threshold_exceeded(self):
        for lam in (0.0, 0.5, 0.9, 0.992):
            threshold = pcsim.min_bits_threshold(25, lam)
            for b in range(1, 33):
                assert (pcsim.effective_eta(25, lam, b) < 1.0) == (b > threshold)

    def test_threshold_sharpness_on_study_parameters(self):
        # one bit below the threshold the schedule grows; at the
        # threshold it contracts to (numerical) zero
        grow = pcsim.beta_sequence(25, 0.992, 11, (4.0, 6.0), 500)
        assert grow[-1] > grow[1]
        decay = pcsim.beta_sequence(25, 0.992, 12, (4.0, 6.0), 5000)
        assert decay[-1] < 1e-3 * decay[0]


class TestRateBudget:
    def test_study_rate(self, ring25, spectral25):
        total = pcsim.required_total_rate(ring25, spectral25)
        assert total == pytest.approx(25 * pcsim.min_bits_threshold(25, spectral25.lambda2_mag))
        assert int(np.ceil(total)) == 283

    def test_overhead_is_linear(self, ring25, spectral25):
        base = pcsim.required_total_rate(ring25, spectral25, overhead_bits=0)
        plus8 = pcsim.required_total_rate(ring25, spectral25, overhead_bits=8)
        assert plus8 - base == pytest.approx(25 * 8)

    def test_rate_scales_with_link_count(self, ring25, spectral25):
        two_step = pcsim.ring_lattice(25, 2, "uniform")
        # same N and |lambda2| by construction of the comparison: reuse
        # the ring's spectral data, double the links via a denser net
        links = [
            (int(s) + 1, int(t) + 1, 0.25)
            for net in (ring25, two_step)
            for s, t in zip(net.edge_src, net.edge_dst)
        ]
        dense = pcsim.build_network(25, links)
        assert dense.link_count == 2 * ring25.link_count
        ratio = pcsim.required_total_rate(dense, spectral25) / pcsim.required_total_rate(
            ring25, spectral25
        )
        assert ratio == pytest.approx(2.0)
