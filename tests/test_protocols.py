import dataclasses
import itertools
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcsim
from pcsim import _compiled, protocols
from pcsim.errors import (CodeOutOfRange, DimensionMismatch, InitialStateOutOfRange,
                          NonPositiveBeta)
from pcsim.quantizer import decode_kernel, encode_kernel

from conftest import random_network, two_agent_doubly_stochastic
from test_adversary import same_bits
from test_quantizer import reference_beta_sequence, reference_encode


def envelope(trace):
    """Per-step (min_i x_i(k), max_i x_i(k)) of a trace."""
    return trace.x.min(axis=1), trace.x.max(axis=1)


def reference_innovations(network, x, values):
    terms = network.edge_gain * (values - x[network.edge_dst])
    return np.bincount(network.edge_dst, weights=terms, minlength=network.n)


def loop_edges(network):
    """(src, dst, gain, edges, n): the step loops' first arguments, as the network stores them."""
    return (network.edge_src, network.edge_dst, network.edge_gain, network.link_count,
            network.n)


def reference_run_classical(network, x0, horizon):
    """The per-step classical loop that stored every innovation."""
    n, K = network.n, horizon
    xs = np.empty((K + 1, n))
    xis = np.empty((K, n))
    xs[0] = x0
    x = x0.copy()
    for k in range(K):
        xi = reference_innovations(network, x, x[network.edge_src])
        xis[k] = xi
        x = x + xi
        xs[k + 1] = x
    return {"x": xs, "xi": xis, "sent": xs}


def reference_run_icc(network, x0, horizon):
    """The per-step icc loop that computed every column inside the loop."""
    n, K = network.n, horizon
    src = network.edge_src
    xs = np.empty((K + 1, n))
    xis = np.empty((K, n))
    xs[0] = x0
    x = x0.copy()
    xhat = np.zeros(len(src))
    broadcast = x0.copy()
    worst = 0.0
    # a state that holds inf or NaN steps on silently, as in run_icc
    with np.errstate(all="ignore"):
        for k in range(K):
            xhat = xhat + broadcast[src]
            worst = max(worst, float(np.max(np.abs(xhat - x[src]))))
            xi = reference_innovations(network, x, xhat)
            xis[k] = xi
            x = x + xi
            xs[k + 1] = x
            broadcast = xi
    return {"x": xs, "xi": xis, "integrator_residual": worst}


def reference_run_bicc(network, spectral, x0, bits, x_range, horizon):
    """The per-step bicc loop, decoding through the checked public codec.

    It encodes with the codec arithmetic as it stood before the kernel
    split.  A width whose beta(k) overflows to inf within the horizon is
    refused before the first step, naming the first such k.
    """
    x_min, x_max = x_range
    n, K = network.n, horizon
    src = network.edge_src
    betas = reference_beta_sequence(n, spectral.lambda2_mag, bits, x_range, K)
    if np.isinf(betas).any():
        k = int(np.argmax(np.isinf(betas)))
        raise NonPositiveBeta(
            f"beta({k}) = inf: the {bits}-bit window widths overflow before horizon {K}"
        )
    xs = np.empty((K + 1, n))
    xis = np.empty((K, n))
    xiqs = np.empty((K, n))
    codes = np.zeros((K + 1, n), dtype=np.int64)
    alphas = np.empty((K + 1, n))
    sat = np.zeros((K + 1, n), dtype=bool)
    codes[0] = pcsim.encode(x0, x_min, betas[0], bits)
    alphas[0] = x_min
    # sat[0] stays False: x0 lies strictly inside (x_min, x_max)
    x = pcsim.decode(codes[0], x_min, betas[0], bits)
    xs[0] = x
    xhat = np.zeros(len(src))
    xi_q_prev = x.copy()
    worst = 0.0
    for k in range(K):
        xhat = xhat + xi_q_prev[src]
        worst = max(worst, float(np.max(np.abs(xhat - x[src]))))
        xi = reference_innovations(network, x, xhat)
        xis[k] = xi
        beta_next = betas[k + 1]
        alpha = xi_q_prev - beta_next / 2.0
        codes[k + 1] = reference_encode(xi, alpha, beta_next, bits)
        xi_q = pcsim.decode(codes[k + 1], alpha, beta_next, bits)
        alphas[k + 1] = alpha
        sat[k + 1] = (xi < alpha) | (xi > alpha + beta_next)
        xiqs[k] = xi_q
        x = x + xi_q
        xs[k + 1] = x
        xi_q_prev = xi_q
    return {
        "x": xs, "xi": xis, "integrator_residual": worst, "xi_q": xiqs,
        "codes": codes, "alpha": alphas, "beta": betas, "saturated": sat,
    }


def assert_same_run(run, reference, *args):
    """run(*args) matches reference(*args) bit for bit, or fails the same way.

    The reference's per-edge integrators must reproduce the senders'
    states exactly (residual 0.0, NaN steps passed over), which is why
    the runners step the states directly.
    """
    try:
        expected = reference(*args)
    except Exception as exc:  # the reference's failure is the expectation
        with pytest.raises(type(exc)) as raised:
            run(*args)
        assert str(raised.value) == str(exc)
        return exc
    trace = run(*args)
    columns = {"x": trace.x, "sent": trace.sent, "xi": trace.innovations(0, trace.horizon),
               "beta": trace.beta, "saturated": trace.saturated}
    if trace.protocol == "bicc":
        columns["codes"], columns["alpha"] = trace.quantizer_columns(0, trace.horizon + 1)
        columns["xi_q"] = trace.sent[1:]
    for name, value in expected.items():
        if name == "integrator_residual":
            assert value == 0.0
        else:
            np.testing.assert_array_equal(columns[name], value, err_msg=name, strict=True)
    return trace


def random_bicc_case(seed, n, zero_centred):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n)
    if zero_centred:
        half = rng.uniform(0.5, 8.0)
        x_lo, x_hi = -half, half
    else:
        lo = rng.uniform(2.0, 8.0)
        x_lo, x_hi = lo, lo + rng.uniform(0.2, lo / 2)
        if rng.random() < 0.5:
            x_lo, x_hi = -x_hi, -x_lo
    width = x_hi - x_lo
    x0 = rng.uniform(x_lo + 0.01 * width, x_hi - 0.01 * width, n)
    return net, pcsim.spectral_analysis(net), x0, (x_lo, x_hi)


def assert_same_run_on_both_loops(run, reference, *args):
    """assert_same_run with the compiled step loops, where they build, then with the numpy twins."""
    built = _compiled.function("state_steps") and _compiled.library
    with pytest.MonkeyPatch.context() as patch:
        for loops in [built, None] if built else [None]:
            patch.setattr(_compiled, "library", loops)
            assert_same_run(run, reference, *args)


class TestStepLoopReference:
    """The feedback-only step loops reproduce the per-step loops they replaced."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        bits=st.integers(1, 53),
        horizon=st.integers(1, 400),
        zero_centred=st.booleans(),
    )
    @example(seed=0, n=2, bits=1, horizon=1, zero_centred=False)
    @example(seed=1, n=12, bits=53, horizon=400, zero_centred=True)
    @example(seed=2, n=7, bits=2, horizon=400, zero_centred=False)
    def test_bicc_property(self, seed, n, bits, horizon, zero_centred):
        net, sp, x0, x_range = random_bicc_case(seed, n, zero_centred)
        assert_same_run(pcsim.run_bicc, reference_run_bicc, net, sp, x0, bits, x_range, horizon)

    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), horizon=st.integers(1, 400))
    def test_icc_property(self, seed, n, horizon):
        net, _, x0, _ = random_bicc_case(seed, n, zero_centred=True)
        assert_same_run_on_both_loops(pcsim.run_icc, reference_run_icc, net, x0, horizon)

    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), horizon=st.integers(1, 1100))
    def test_classical_property(self, seed, n, horizon):
        net, _, x0, _ = random_bicc_case(seed, n, zero_centred=True)
        assert_same_run_on_both_loops(pcsim.run_classical, reference_run_classical, net, x0,
                                      horizon)

    @pytest.mark.parametrize("bits", [8, 16])
    def test_saturating_two_agent_network(self, bits):
        net = two_agent_doubly_stochastic()
        sp = pcsim.spectral_analysis(net)
        args = (net, sp, np.array([4.4, 5.6]), bits, (4.0, 6.0), 200)
        trace = assert_same_run(pcsim.run_bicc, reference_run_bicc, *args)
        assert trace.saturated.any() and not trace.saturated.all()

    def test_diverging_low_width_run_is_refused_before_the_loop(self, ring25, spectral25, x0_ring):
        # at 2 bits beta(k) grows until it overflows at k = 441; a run
        # to a later horizon is refused before its first step, and one
        # that stops just short of the overflow runs to the end
        args = (ring25, spectral25, x0_ring, 2, (4.0, 6.0))
        exc = assert_same_run(pcsim.run_bicc, reference_run_bicc, *args, 1500)
        assert isinstance(exc, NonPositiveBeta)
        assert str(exc) == "beta(441) = inf: the 2-bit window widths overflow before horizon 1500"
        trace = assert_same_run(pcsim.run_bicc, reference_run_bicc, *args, 440)
        assert np.isfinite(trace.beta).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_icc_with_a_non_finite_state(self, bad):
        net = random_network(np.random.default_rng(41), 6)
        x0 = np.array([1.0, 2.0, bad, 4.0, 5.0, 6.0])
        trace = assert_same_run(pcsim.run_icc, reference_run_icc, net, x0, 600)
        assert np.isnan(trace.x[-1]).any()

    def test_long_runs_across_blocks(self, ring25, spectral25, x0_ring):
        assert_same_run(
            pcsim.run_bicc, reference_run_bicc, ring25, spectral25, x0_ring, 12, (4.0, 6.0), 1100
        )
        assert_same_run(pcsim.run_icc, reference_run_icc, ring25, x0_ring, 1100)


TINY = float(np.finfo(float).tiny)

# (xi, alpha, beta, bits): encoder inputs at and around the window edges
EDGE_CASES = {
    "interior": ([0.3, 0.7, 0.25], 0.0, 1.0, 12),
    "on_the_lower_edge": ([0.0, -0.0, -1e-300], 0.0, 1.0, 12),
    "on_the_upper_edge": ([1.0, 1.5, 1.0 - 1e-16], 0.0, 1.0, 12),
    # alpha + beta == alpha: xi = alpha is on both edges, and the top code wins
    "beta_below_half_an_ulp_of_alpha": ([1.0, 1.0 + 2**-52, 1.0 - 2**-53], 1.0, 1e-17, 12),
    # xi - alpha is a whole ulp of alpha short of beta, many cells at 53 bits
    "upper_edge_rounded_at_53_bits": ([1.0 + 2**-52, 1.0, 0.5], 1.0, 3e-16, 53),
    # delta = beta / 2^53 underflows to 0, so xi = alpha gives 0 / 0
    "cell_width_underflow_at_53_bits": ([5.0, 5.0 + 2**-50, 5.0 - 2**-50], 5.0, TINY, 53),
    "wide_window_at_1_bit": ([1e299, -1e300, 4e299, 0.0], -5e299, 1e300, 1),
    "infinities": (
        [np.inf, -np.inf, np.inf, -np.inf, 1.0], [0.0, 0.0, np.inf, -np.inf, np.inf], 1.0, 12
    ),
    "nan": ([np.nan, 0.5, np.nan, 0.5], [0.0, np.nan, np.nan, 0.0], 1.0, 12),
}


class TestOneStep:
    """One bicc step, compiled or numpy, encodes, flags and decodes as the codec does."""

    @pytest.mark.parametrize("case", EDGE_CASES)
    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_step_matches_the_codec(self, request, path, case):
        xi, alpha, beta, bits = EDGE_CASES[case]
        m = len(xi)
        # agent i < m sits at 0.0 and hears agent i + m, at xi_i, with gain 1:
        # its innovation is xi_i exactly (-0.0 comes out +0.0, the sum's start)
        net = pcsim.ConsensusNetwork(n=2 * m, edge_src=np.arange(m, 2 * m),
                                     edge_dst=np.arange(m), edge_gain=np.ones(m))
        inputs = np.concatenate([np.add(xi, 0.0), np.zeros(m)])
        xs, sent = np.zeros((2, 2 * m)), np.zeros((2, 2 * m))
        xs[0, m:] = xi
        sat, codes, betas = np.zeros((2, 2 * m), dtype=bool), np.empty((1, 2 * m)), [beta, beta]
        xis = np.empty((1, 2 * m))
        with np.errstate(all="ignore"):
            sent[0, :m] = np.add(alpha, beta / 2.0)
            window = sent[0] - beta / 2.0  # alpha as the step forms it
        np.testing.assert_array_equal(window[:m], np.broadcast_to(alpha, m))  # as crafted
        steps = (request.getfixturevalue("library").bicc_steps if path == "compiled"
                 else protocols._numpy_bicc_steps)
        with np.errstate(all="ignore"):
            steps(*loop_edges(net), np.array(betas), bits, 0, 1, xs, sent, codes,
                  sat, xis)
            expected = encode_kernel(inputs, window, beta, bits, np.empty(2 * m, dtype=np.int64))
            # the int cast turns a NaN code into a negative one; the float code stays NaN
            expected = np.where(expected < 0, np.nan, expected)
            decoded = decode_kernel(expected, window, beta, bits, np.empty(2 * m))
            saturated = (inputs < window) | (inputs > window + beta)
        assert same_bits(xis[0], inputs)  # xi before quantization
        np.testing.assert_array_equal(codes[0], expected, strict=True)
        np.testing.assert_array_equal(sat[1], saturated, strict=True)
        np.testing.assert_array_equal(sent[1], decoded, strict=True)
        np.testing.assert_array_equal(xs[1], xs[0] + decoded, strict=True)


def sweep_case(bits):
    """The benchmark sweep's network, ring_lattice(60, 1, random, seed=3), at a short horizon."""
    net = pcsim.ring_lattice(60, 1, "random", seed=3)
    x0 = np.random.default_rng(0).uniform(4.0, 6.0, 60)
    return net, pcsim.spectral_analysis(net), x0, bits, (4.0, 6.0), 1100


def ring25_case(bits):
    """Widths 1-3 grow their windows towards overflow (1 bit at k = 327); 53 settles."""
    net = pcsim.ring_lattice(25, 1, "uniform")
    x0 = np.random.default_rng(2024).uniform(4, 6, 25)
    return net, pcsim.spectral_analysis(net), x0, bits, (4.0, 6.0), 300


def pair_case(bits):
    """Two agents averaging in one step: 3 and 53 bits saturate from step 1, 1 bit overflows."""
    net = two_agent_doubly_stochastic()
    return net, pcsim.spectral_analysis(net), np.array([-0.9, 0.9]), bits, (-1.0, 1.0), 1100


def ring5_case(bits, x_range):
    """A 5-ring with x0[0] = -0.0; at 49-50 bits the windows shrink below the states' ulp."""
    net = pcsim.ring_lattice(5, 1, "uniform")
    lo, hi = x_range
    x0 = np.random.default_rng(7).uniform(0.9 * lo + 0.1 * hi, 0.9 * hi + 0.1 * lo, 5)
    x0[0] = -0.0
    return net, pcsim.spectral_analysis(net), x0, bits, x_range, 1100


def pair_network(gains):
    """Two agents, 0 hearing 1 and 1 hearing 0, without build_network's row-sum check."""
    return pcsim.ConsensusNetwork(n=2, edge_src=np.array([1, 0]), edge_dst=np.array([0, 1]),
                                  edge_gain=np.array(gains))


def overflowing_case(bits, lambda2_mag):
    """Gains of 1e300, which build_network refuses, overflow every innovation.

    At 12 bits and |lambda_2| = 0.9 the saturated windows walk the
    states to +-inf; at 4 bits and 0.5 an inf - inf gives a NaN code,
    which fails the code check.
    """
    net, spectral = pair_network([1e300, 1e300]), types.SimpleNamespace(lambda2_mag=lambda2_mag)
    return net, spectral, np.array([-3e307, 3e307]), bits, (-4e307, 4e307), 600


HUGE_RANGE = (-4.5293509682968535e18, 3.9826188381358484e18)

# name: the run_bicc arguments
COMPILED_CASES = {
    **{f"sweep-{b}": lambda b=b: sweep_case(b) for b in (12, 13, 14, 15, 16, 20)},
    **{f"ring25-{b}": lambda b=b: ring25_case(b) for b in (1, 2, 3, 53)},
    **{f"pair-{b}": lambda b=b: pair_case(b) for b in (1, 2, 3, 53)},
    "huge-range-47": lambda: ring5_case(47, HUGE_RANGE),
    "huge-range-50": lambda: ring5_case(50, HUGE_RANGE),
    "signed-zero-12": lambda: ring5_case(12, (-1.0, 1.0)),
    "signed-zero-49": lambda: ring5_case(49, (-1.0, 1.0)),
    "infinite-states": lambda: overflowing_case(12, 0.9),
    "nan-cell": lambda: overflowing_case(4, 0.5),
}


def bicc_outputs(*args):
    """Every stored and derived column of run_bicc(*args) as bytes, or its error's type and text."""
    try:
        trace = pcsim.run_bicc(*args)
    except Exception as exc:
        return type(exc), str(exc)
    codes, alpha = trace.quantizer_columns(0, trace.horizon + 1)
    return [a.tobytes() for a in (trace.x, trace.sent, trace.saturated, codes, alpha)]


class TestCompiledStep:
    """The compiled bicc step loop writes the numpy step's bytes, or fails the same way."""

    @pytest.mark.parametrize("case", COMPILED_CASES)
    def test_same_bytes_as_the_numpy_step(self, library, monkeypatch, case):
        args = COMPILED_CASES[case]()
        runs = {}
        for name, loops in (("compiled", library), ("numpy", None)):
            monkeypatch.setattr(_compiled, "library", loops)
            with np.errstate(all="ignore"):
                runs[name] = bicc_outputs(*args)
        assert runs["compiled"] == runs["numpy"]

    def test_cases_reach_saturation_infinity_and_the_code_check(self):
        saturated = ["pair-3", "pair-53", "huge-range-47", "huge-range-50", "signed-zero-12",
                     "signed-zero-49", "infinite-states"]
        for name in saturated:
            assert pcsim.run_bicc(*COMPILED_CASES[name]()).saturated.any(), name
        trace = pcsim.run_bicc(*COMPILED_CASES["infinite-states"]())
        assert np.isinf(trace.x).any()
        with pytest.raises(CodeOutOfRange, match=r"^code outside 0\.\.15$"):
            pcsim.run_bicc(*COMPILED_CASES["nan-cell"]())

    @pytest.mark.parametrize("case", ["special-0", "special-1", "special-2", "sweep-12"])
    def test_twin_takes_the_c_arguments(self, library, case):
        # one argument list for both loops, with codes and xis given and
        # with both None; NaN entries are compared as NaN (same_bits)
        K = 200
        if case == "sweep-12":
            net, spectral, x0, bits, x_range, _ = sweep_case(12)
            betas = pcsim.beta_sequence(net.n, spectral.lambda2_mag, bits, x_range, K)
            xs, sent = np.full((K + 1, net.n), 7.0), np.full((K + 1, net.n), 7.0)
            xs[0] = sent[0] = x0
        else:
            rng = np.random.default_rng(int(case[-1]))
            net, betas, bits, xs, sent = bicc_loop_inputs(rng, int(rng.integers(2, 30)), K)
        n, runs = net.n, {}
        for loop, steps in (("compiled", library.bicc_steps),
                            ("numpy", protocols._numpy_bicc_steps)):
            for given in (True, False):
                out = [xs.copy(), sent.copy(), np.zeros(xs.shape, dtype=bool)]
                extra = [np.full((K, n), 7.0), np.full((K, n), 7.0)] if given else [None, None]
                with np.errstate(all="ignore"):
                    steps(*loop_edges(net), betas, bits, 0, K, out[0], out[1],
                          extra[0], out[2], extra[1])
                runs[loop, given] = out + extra
        for loop in ("compiled", "numpy"):
            for got, want in zip(runs[loop, False][:3], runs[loop, True]):
                assert got.tobytes() == want.tobytes()  # the outputs change no step
            xs_out, _, _, _, xis = runs[loop, True]
            with np.errstate(all="ignore"):
                for k in range(K):
                    assert same_bits(xis[k], reference_innovations(net, xs_out[k],
                                                                   xs_out[k][net.edge_src]))
        for got, want in zip(runs["compiled", True], runs["numpy", True]):
            if got.dtype == bool:
                assert got.tobytes() == want.tobytes()
            else:
                assert same_bits(got, want)

    def test_a_nan_code_is_a_nan_broadcast(self):
        # run_bicc checks its codes by the NaNs in sent[1:]: for finite
        # widths, the codes and the decoded values are NaN at the same
        # places, so also from the same first step, under both loops
        built = _compiled.function("bicc_steps")
        loops = [built, protocols._numpy_bicc_steps] if built else [protocols._numpy_bicc_steps]
        rng = np.random.default_rng(2034)
        seen = {False: 0, True: 0}
        for _ in range(300):
            net, betas, bits, xs0, sent0 = bicc_loop_inputs(rng, int(rng.integers(2, 9)),
                                                            int(rng.integers(1, 40)))
            K, n = len(betas) - 1, net.n
            for steps in loops:
                xs, sent, codes = xs0.copy(), sent0.copy(), np.empty((K, n))
                with np.errstate(all="ignore"):
                    steps(*loop_edges(net), betas, bits, 0, K, xs, sent, codes,
                          np.empty(xs.shape, dtype=bool), None)
                nan_codes, nan_sent = np.isnan(codes), np.isnan(sent[1:])
                assert np.array_equal(nan_codes, nan_sent), (bits, betas.tolist())
                assert np.argmax(nan_codes.any(axis=1)) == np.argmax(nan_sent.any(axis=1))
            seen[bool(nan_codes.any())] += 1
        assert min(seen.values()) > 50, seen  # both kinds of run are drawn


def special_states(rng, n):
    """n uniform states, about half of them +-0.0, +-inf, NaN or +-1.7e308."""
    x0 = rng.uniform(-5.0, 5.0, n)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.7e308, -1.7e308])
    pick = rng.random(n) < 0.5
    x0[pick] = rng.choice(special, pick.sum())
    return x0


def bicc_loop_inputs(rng, n, horizon):
    """(network, betas, bits, xs, sent) for bicc_steps over steps 0..horizon-1.

    Unsorted random links; row 0 of xs and of sent from special_states;
    widths beta(0..horizon) from 1e-300 to 1e300 and bits in 1..53.
    """
    net = unsorted_network(rng, n)
    xs, sent = np.full((horizon + 1, n), 7.0), np.full((horizon + 1, n), 7.0)
    xs[0], sent[0] = special_states(rng, n), special_states(rng, n)
    betas = 10.0 ** rng.uniform(-300.0, 300.0, horizon + 1)
    return net, betas, int(rng.integers(1, 54)), xs, sent


def unsorted_network(rng, n):
    """A ConsensusNetwork made directly, its random links in an order not sorted by receiver."""
    net = random_network(rng, n)
    order = rng.permutation(net.link_count)
    while np.all(np.diff(net.edge_dst[order]) >= 0):
        order = rng.permutation(net.link_count)
    return pcsim.ConsensusNetwork(n=n, edge_src=net.edge_src[order],
                                  edge_dst=net.edge_dst[order], edge_gain=net.edge_gain[order])


class TestCompiledStateStep:
    """The compiled classical and icc step loop and its numpy twin write the same bytes."""

    @pytest.mark.parametrize("icc", [False, True])
    @pytest.mark.parametrize("horizon", [1, 2, 300])
    @pytest.mark.parametrize("n", [2, 5, 25, 60])
    def test_twin_takes_the_c_arguments(self, library, n, horizon, icc):
        # one argument list for both; each from x0 with special values
        # and from uniform x0, on a ring and on unsorted links.  Which NaN
        # an add keeps when both operands are NaN is fixed by neither, so
        # NaN entries are compared as NaN (same_bits)
        rng = np.random.default_rng(n * horizon)
        networks = [pcsim.ring_lattice(n, 1, "random", seed=n) if n > 2
                    else two_agent_doubly_stochastic(), unsorted_network(rng, n)]
        for net, x0 in itertools.product(networks,
                                         (special_states(rng, n), rng.uniform(-5.0, 5.0, n))):
            results = []
            for steps in (library.state_steps, protocols._numpy_state_steps):
                xs = np.full((horizon + 1, n), 7.0)
                xs[0] = x0
                sent = np.full((horizon + 1, n), 7.0) if icc else None
                with np.errstate(all="ignore"):
                    steps(*loop_edges(net), 0, horizon, xs, sent)
                results.append((xs,) if sent is None else (xs, sent))
            for got, want in zip(*results):
                assert same_bits(got, want), (n, horizon, icc, net.edge_dst.tolist())

    def test_steps_a_range_of_rows(self, library):
        # steps lo..hi-1 read row lo and write rows lo+1..hi, nothing else
        net = unsorted_network(np.random.default_rng(3), 9)
        xs = np.random.default_rng(4).uniform(-1.0, 1.0, (40, 9))
        results = []
        for steps in (library.state_steps, protocols._numpy_state_steps):
            got, sent = xs.copy(), np.zeros_like(xs)
            steps(*loop_edges(net), 10, 30, got, sent)
            results.append((got, sent))
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()
        got, sent = results[0]
        assert got[:11].tobytes() == xs[:11].tobytes() and got[31:].tobytes() == xs[31:].tobytes()
        assert not sent[:11].any() and not sent[31:].any() and sent[11:31].all()


def narrow_network(agents, gains):
    """A 6-ring built by build_network, and the same links given directly as `agents` and `gains`.

    Both hold the gains exactly: 1/4 each way for float32, 1 from the
    right-hand neighbour for integers.
    """
    n = 6
    if np.dtype(gains).kind == "f":
        links = [((i + 1) % n + 1, i + 1, 0.25) for i in range(n)]
        links += [(i + 1, (i + 1) % n + 1, 0.25) for i in range(n)]
    else:
        links = [((i + 1) % n + 1, i + 1, 1) for i in range(n)]
    built = pcsim.build_network(n, links)
    direct = pcsim.ConsensusNetwork(n=n, edge_src=built.edge_src.astype(agents),
                                    edge_dst=built.edge_dst.astype(agents),
                                    edge_gain=built.edge_gain.astype(gains))
    return built, direct


class TestNetworkDtypes:
    """A network made with narrow agents or gains stores intp/float64 and runs as build_network's."""

    @pytest.mark.parametrize("agents, gains", [(np.int32, np.float32), (np.uint16, np.int64)])
    def test_stored_as_the_loops_read_them(self, monkeypatch, agents, gains):
        networks = narrow_network(agents, gains)
        direct = networks[1]
        for array, dtype in zip((direct.edge_src, direct.edge_dst, direct.edge_gain),
                                (np.intp, np.intp, np.float64)):
            assert array.dtype == dtype and array.flags.c_contiguous
            assert not array.flags.writeable
        spectral = types.SimpleNamespace(lambda2_mag=0.75)  # the float32 ring's
        x0 = np.random.default_rng(6).uniform(-0.9, 0.9, 6)
        _compiled.function("state_steps")  # builds the library where it can
        for loops in (_compiled.library, None):
            monkeypatch.setattr(_compiled, "library", loops)
            runs = []
            for net in networks:
                traces = pcsim.run_classical(net, x0, 40), pcsim.run_icc(net, x0, 40)
                runs.append([[a.tobytes() for a in (t.x, t.sent, t.innovations(0, 40))]
                             for t in traces])
                runs[-1].append(bicc_outputs(net, spectral, x0, 12, (-1.0, 1.0), 40))
            assert runs[0] == runs[1], loops


class TestClassical:
    def test_two_agent_one_step_average(self):
        trace = pcsim.run_classical(two_agent_doubly_stochastic(), np.array([0.0, 2.0]), 5)
        np.testing.assert_array_equal(trace.x[0], [0.0, 2.0])
        for k in range(1, 6):
            np.testing.assert_array_equal(trace.x[k], [1.0, 1.0])

    def test_uniform_state_is_fixed_point(self):
        rng = np.random.default_rng(31)
        net = random_network(rng, 7)
        trace = pcsim.run_classical(net, np.full(7, 2.5), 20)
        assert np.all(trace.x == 2.5)
        assert np.all(trace.innovations(0, 20) == 0.0)

    def test_matches_matrix_powers(self, ring25, x0_ring):
        trace = pcsim.run_classical(ring25, x0_ring, 60)
        L = ring25.matrix
        y = x0_ring.copy()
        for k in range(1, 61):
            y = L @ y
            np.testing.assert_allclose(trace.x[k], y, rtol=0, atol=1e-12)

    def test_innovation_rows_drive_the_state_update(self, ring25, x0_ring):
        # x(k+1) is literally x(k) + xi(k); note np.diff would NOT match
        # bitwise because fl(x + xi) - x != xi in general
        trace = pcsim.run_classical(ring25, x0_ring, 40)
        np.testing.assert_array_equal(trace.x[1:], trace.x[:-1] + trace.innovations(0, 40))

    def test_envelope_contracts(self, ring25, x0_ring):
        trace = pcsim.run_classical(ring25, x0_ring, 2000)
        lo, hi = envelope(trace)
        assert np.all(np.diff(hi) <= 1e-14)
        assert np.all(np.diff(lo) >= -1e-14)
        assert hi[-1] - lo[-1] < 1e-3 * (hi[0] - lo[0])

    def test_dimension_mismatch(self, ring25):
        with pytest.raises(DimensionMismatch):
            pcsim.run_classical(ring25, np.zeros(24), 10)

    def test_trace_shapes(self, ring25, x0_ring):
        trace = pcsim.run_classical(ring25, x0_ring, 17)
        assert trace.x.shape == (18, 25)
        assert trace.innovations(0, 17).shape == (17, 25)
        assert trace.horizon == 17 and trace.n == 25
        assert trace.beta is None and trace.saturated is None and trace.bits is None


class TestIcc:
    def test_bit_exact_equivalence_sweep(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            net = random_network(rng)
            x0 = rng.uniform(-5, 5, net.n)
            a = pcsim.run_classical(net, x0, 300)
            b = pcsim.run_icc(net, x0, 300)
            assert np.array_equal(a.x, b.x)  # not just close: identical floats

    def test_local_estimates_track_sender_exactly(self):
        # a receiver's estimate is the running sum of the stream; NaN-equal
        rng = np.random.default_rng(33)
        runs = [pcsim.run_icc(net, rng.uniform(-5, 5, net.n), 200)
                for net in (random_network(rng) for _ in range(10))]
        net = random_network(np.random.default_rng(41), 6)
        runs.append(pcsim.run_icc(net, np.array([-0.0, 2.0, -0.0, 4.0, 0.0, 6.0]), 200))
        runs.append(pcsim.run_icc(net, np.array([1.0, np.inf, 3.0, -np.inf, 5.0, 6.0]), 600))
        assert np.isnan(runs[-1].x[-1]).any()
        for trace in runs:
            with np.errstate(invalid="ignore"):  # inf + (-inf)
                running_sum = np.cumsum(trace.sent, axis=0)
            np.testing.assert_array_equal(running_sum, trace.x)

    def test_two_agent_single_innovation(self):
        trace = pcsim.run_icc(two_agent_doubly_stochastic(), np.array([0.0, 2.0]), 6)
        np.testing.assert_array_equal(trace.innovations(0, 1)[0], [1.0, -1.0])
        assert np.all(trace.innovations(1, 6) == 0.0)

    def test_zero_disagreement_means_zero_innovations(self):
        rng = np.random.default_rng(34)
        net = random_network(rng, 9)
        trace = pcsim.run_icc(net, np.full(9, -1.75), 50)
        assert np.all(trace.innovations(0, 50) == 0.0)

    def test_conservation_over_long_run(self, ring25, spectral25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 10_000)
        target = spectral25.w_left @ x0_ring
        drift = np.abs(trace.x @ spectral25.w_left - target)
        assert drift.max() <= 1e-9 * np.linalg.norm(x0_ring)

    def test_recorded_ideal_innovation_is_deflected_state(self, ring25, x0_ring):
        # the local estimates equal the senders' states exactly, so the
        # broadcast innovation is the ideal (L - I) x(k)
        trace = pcsim.run_icc(ring25, x0_ring, 30)
        L = ring25.matrix
        xi = trace.innovations(0, 30)
        for k in range(30):
            np.testing.assert_allclose(xi[k], (L - np.eye(25)) @ trace.x[k], atol=1e-13)


class TestBicc:
    def test_initial_state_must_be_strictly_inside(self, ring25, spectral25):
        x0 = np.full(25, 5.0)
        x0[3] = 6.0  # on the boundary
        with pytest.raises(InitialStateOutOfRange):
            pcsim.run_bicc(ring25, spectral25, x0, 12, (4.0, 6.0), 10)
        x0[3] = 7.0
        with pytest.raises(InitialStateOutOfRange):
            pcsim.run_bicc(ring25, spectral25, x0, 12, (4.0, 6.0), 10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_state_is_outside(self, value):
        # NaN fails every comparison, so it must be refused by the range
        # test itself, not end in a CodeOutOfRange at step 0
        net = pcsim.ring_lattice(5, 1, "uniform")
        x0 = np.array([5.0, 5.0, value, 5.0, 5.0])
        with pytest.raises(InitialStateOutOfRange):
            pcsim.run_bicc(net, pcsim.spectral_analysis(net), x0, 8, (4.0, 6.0), 20)

    def test_uniform_start_stays_uniform(self):
        net = two_agent_doubly_stochastic()
        sp = pcsim.spectral_analysis(net)
        trace = pcsim.run_bicc(net, sp, np.array([1.3, 1.3]), 16, (0.0, 2.0), 200)
        assert np.all(trace.innovations(0, 200) == 0.0)
        assert np.all(np.ptp(trace.x, axis=1) == 0.0)
        # only the initial-state quantization offset plus a vanishing
        # mid-cell drift separates the states from 1.3
        assert abs(trace.x[-1, 0] - 1.3) < 1e-3

    def test_study_ring_converges_without_saturation(self, ring25, spectral25, x0_ring):
        trace = pcsim.run_bicc(ring25, spectral25, x0_ring, 12, (4.0, 6.0), 9000)
        assert not trace.saturated.any()
        lo, hi = envelope(trace)
        assert hi[-1] - lo[-1] < 1e-6

    def test_low_rate_envelope_diverges(self, ring25, spectral25, x0_ring):
        trace = pcsim.run_bicc(ring25, spectral25, x0_ring, 10, (4.0, 6.0), 1500)
        lo, hi = envelope(trace)
        assert hi[-1] - lo[-1] > hi[0] - lo[0]

    def test_codes_fit_bit_width(self, ring25, spectral25, x0_ring):
        bits = 12
        trace = pcsim.run_bicc(ring25, spectral25, x0_ring, bits, (4.0, 6.0), 300)
        codes = trace.quantizer_columns(0, 301)[0]
        assert codes.min() >= 0
        assert codes.max() <= 2**bits - 1
        assert trace.bits == bits and trace.x_range == (4.0, 6.0)

    def test_trace_columns_decode_consistently(self, ring25, spectral25, x0_ring):
        """codes[k+1] with (alpha, beta)[k+1] must reproduce xi_q[k] = sent[k+1]."""
        bits = 12
        trace = pcsim.run_bicc(ring25, spectral25, x0_ring, bits, (4.0, 6.0), 100)
        codes, alpha = trace.quantizer_columns(0, 101)
        np.testing.assert_array_equal(
            pcsim.decode(codes[0], 4.0, trace.beta[0], bits), trace.x[0]
        )
        for k in range(100):
            redecoded = pcsim.decode(codes[k + 1], alpha[k + 1], trace.beta[k + 1], bits)
            np.testing.assert_array_equal(redecoded, trace.sent[k + 1])

    def test_estimates_track_quantized_stream(self, ring25, spectral25, x0_ring):
        x0 = np.where(np.arange(25) % 5 == 0, -0.0, x0_ring - 5.0)  # some states -0.0
        for trace in (
            pcsim.run_bicc(ring25, spectral25, x0_ring, 12, (4.0, 6.0), 500),
            pcsim.run_bicc(ring25, spectral25, x0, 12, (-1.0, 1.0), 500),
        ):
            np.testing.assert_array_equal(np.cumsum(trace.sent, axis=0), trace.x)

    def test_non_saturation_across_random_networks(self):
        """Bit widths from the threshold formula never saturate the window.

        The step-1 window is centered on the quantized initial state with
        half-width 1.5 * max(|x_min|, |x_max|), while the first innovation
        can sit up to range_width + max(|x_min|, |x_max|) away from that
        center.  The guarantee therefore needs the admissible range to be
        narrow relative to its magnitude (width <= half the max), so the
        sampled ranges honor that; a zero-centered range such as
        (-2.5, 2.5) can genuinely saturate at step 1.
        """
        rng = np.random.default_rng(35)
        count = 0
        while count < 100:
            net = random_network(rng)
            sp = pcsim.spectral_analysis(net)
            bits = pcsim.min_bits(net.n, sp.lambda2_mag)
            if bits > 24:
                continue  # nearly-periodic draw; keep runtimes sane
            lo = rng.uniform(2.0, 8.0)
            width = rng.uniform(0.2, lo / 2)
            x_lo, x_hi = (lo, lo + width)
            if rng.random() < 0.5:
                x_lo, x_hi = -x_hi, -x_lo
            x0 = rng.uniform(x_lo + 0.01 * width, x_hi - 0.01 * width, net.n)
            trace = pcsim.run_bicc(net, sp, x0, bits, (x_lo, x_hi), 200)
            assert not trace.saturated.any()
            count += 1

    def test_fast_mixing_network_outruns_window_memory(self):
        """Equal-weight two-agent averaging defeats the window schedule.

        That network reaches consensus in one step, but the quantizer
        window recenters on the innovation from two steps back; the
        signal collapses far faster than the window shrinks toward it,
        every later encode clamps at the stale center, and the clamped
        innovations drive the states apart.  More bits do not help —
        the mismatch is between the mixing rate and the window decay
        rate, not the cell size.
        """
        net = two_agent_doubly_stochastic()
        sp = pcsim.spectral_analysis(net)
        for bits in (8, 16):
            trace = pcsim.run_bicc(net, sp, np.array([4.4, 5.6]), bits, (4.0, 6.0), 200)
            assert trace.saturated.any()
            lo, hi = envelope(trace)
            assert hi[-1] - lo[-1] > hi[0] - lo[0]

    def test_envelope_meets_decay_bound(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            net = random_network(rng, 6)
            sp = pcsim.spectral_analysis(net)
            eta = max(0.95, sp.lambda2_mag + 0.01)
            bits = pcsim.bits_for_rate(net.n, sp.lambda2_mag, eta)
            x0 = rng.uniform(4, 6, net.n)
            K = 120
            trace = pcsim.run_bicc(net, sp, x0, bits, (4.0, 6.0), K)
            lo, hi = envelope(trace)
            bbar = np.hypot(18.0, 2.0)
            assert hi[K] - lo[K] <= bbar * eta**K * np.sqrt(net.n)

    @pytest.mark.parametrize("bits", [0, 54])
    def test_width_checked_before_the_loop(self, ring25, spectral25, x0_ring, bits):
        with pytest.raises(ValueError, match=f"bits must be in 1..53, got {bits}"):
            pcsim.run_bicc(ring25, spectral25, x0_ring, bits, (4.0, 6.0), 10)

    @pytest.mark.parametrize("bits", [12.7, True])
    def test_non_integer_width_checked_before_the_loop(self, ring25, spectral25, x0_ring, bits):
        with pytest.raises(ValueError, match=f"bits must be an integer, got {bits}"):
            pcsim.run_bicc(ring25, spectral25, x0_ring, bits, (4.0, 6.0), 10)

    def test_dimension_mismatch(self, ring25, spectral25):
        with pytest.raises(DimensionMismatch):
            pcsim.run_bicc(ring25, spectral25, np.full(10, 5.0), 12, (4.0, 6.0), 10)


class TestBroadcastStream:
    """trace.sent: row k is the last broadcast a listener can use for x(k)."""

    def test_classical_sends_its_states(self, ring25, x0_ring):
        trace = pcsim.run_classical(ring25, x0_ring, 30)
        assert trace.sent is trace.x

    def test_icc_sends_the_initial_states_then_the_innovations(self, ring25, x0_ring):
        trace = pcsim.run_icc(ring25, x0_ring, 30)
        assert trace.sent.shape == (31, 25)
        xi = trace.innovations(0, 30)
        assert np.shares_memory(xi, trace.sent[1:])
        np.testing.assert_array_equal(xi, trace.sent[1:])
        np.testing.assert_array_equal(trace.sent[0], x0_ring)

    def test_bicc_sends_the_quantized_states_then_the_decoded_innovations(
        self, ring25, spectral25, x0_ring
    ):
        trace = pcsim.run_bicc(ring25, spectral25, x0_ring, 12, (4.0, 6.0), 30)
        assert trace.sent.shape == (31, 25)
        np.testing.assert_array_equal(trace.x[1:], trace.x[:-1] + trace.sent[1:])
        np.testing.assert_array_equal(trace.sent[0], trace.x[0])

    def test_running_sum_of_the_stream_is_the_state(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            net = random_network(rng)
            sp = pcsim.spectral_analysis(net)
            x0 = rng.uniform(4, 6, net.n)
            for trace in (
                pcsim.run_icc(net, x0, 80),
                pcsim.run_bicc(net, sp, x0, 14, (4.0, 6.0), 80),
            ):
                assert np.all(np.isfinite(trace.x))
                np.testing.assert_array_equal(np.cumsum(trace.sent, axis=0), trace.x)


class TestTraceMemory:
    """A trace holds the state and the broadcast stream; the other columns are derived.

    The growth of the traced peak from K = 2048 to K = 6144 steps, in
    (K, n) float64 arrays: x alone for classical, x and sent for icc,
    and for bicc also the boolean saturation flags (1/8) and beta.
    """

    @pytest.mark.parametrize("protocol, bound", [("bicc", 2.25), ("classical", 1.1), ("icc", 2.1)])
    def test_growth_per_step(self, protocol, bound):
        network = pcsim.ring_lattice(60, 1, "random", seed=3)
        spectral = pcsim.spectral_analysis(network)
        x0 = np.random.default_rng(0).uniform(4.2, 5.8, network.n)

        def run(horizon):
            if protocol == "bicc":
                return pcsim.run_bicc(network, spectral, x0, 16, (4.0, 6.0), horizon)
            runner = pcsim.run_classical if protocol == "classical" else pcsim.run_icc
            return runner(network, x0, horizon)

        peaks = []
        tracemalloc.start()
        try:
            for horizon in (2048, 6144):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                trace = run(horizon)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                del trace
        finally:
            tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (4096 * network.n * 8) <= bound

    def test_derived_columns_are_computed_on_each_read(self, ring25, spectral25, x0_ring):
        trace = pcsim.run_bicc(ring25, spectral25, x0_ring, 12, (4.0, 6.0), 40)
        classical = pcsim.run_classical(ring25, x0_ring, 40)
        for read in (
            lambda: [trace.innovations(0, 40)],
            lambda: list(trace.quantizer_columns(0, 41)),
            lambda: [classical.innovations(0, 40)],
        ):
            for first, second in zip(read(), read()):
                assert not np.shares_memory(first, second)
                assert not np.shares_memory(first, trace.x)
                assert not np.shares_memory(first, classical.x)
                np.testing.assert_array_equal(first, second)
        icc = pcsim.run_icc(ring25, x0_ring, 40)
        assert np.shares_memory(icc.innovations(0, 40), icc.sent)  # the stream is xi
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.sent = None

    @pytest.mark.parametrize("protocol", ["classical", "icc", "bicc"])
    @pytest.mark.parametrize(
        "cuts", [(512,), (1, 513), (300, 700), (511, 512, 1024), (0, 0, 1, 1, 1100)]
    )
    def test_ranges_concatenate_to_the_whole(self, ring25, spectral25, x0_ring, protocol, cuts):
        # trace_csv derives its columns one chunk of steps at a time, each
        # by running the step loop again from the chunk's first stored row,
        # so any split, at the first steps, the last or in between, must
        # give the same bits
        K = 1100
        if protocol == "bicc":
            trace = pcsim.run_bicc(ring25, spectral25, x0_ring, 12, (4.0, 6.0), K)
        else:
            trace = getattr(pcsim, f"run_{protocol}")(ring25, x0_ring, K)
        bounds = (0, *cuts, K)
        parts = [trace.innovations(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert np.concatenate(parts).tobytes() == trace.innovations(0, K).tobytes()
        if protocol == "bicc":
            bounds = (*bounds, K + 1)
            parts = [trace.quantizer_columns(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            whole = trace.quantizer_columns(0, K + 1)
            for column, part in zip(whole, zip(*parts)):
                assert np.concatenate(part).tobytes() == column.tobytes()


class TestConsensusEnvelope:
    def test_terminal_width_never_exceeds_initial(self):
        rng = np.random.default_rng(38)
        for runner in (pcsim.run_classical, pcsim.run_icc):
            for _ in range(5):
                net = random_network(rng)
                trace = runner(net, rng.uniform(-3, 3, net.n), 100)
                lo, hi = envelope(trace)
                assert hi[-1] - lo[-1] <= hi[0] - lo[0]
