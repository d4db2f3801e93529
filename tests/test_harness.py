"""Config parsing, experiment commands, output files, CLI exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcsim
from pcsim import _compiled, cli, harness
from pcsim.errors import ConfigError


RING5 = {"n": 5, "generator": {"type": "ring", "step": 1}}
PAIR = {"n": 2, "generator": {"type": "explicit", "edges": [[1, 2, 0.5], [2, 1, 0.5]]}}
# |lambda_2| = 1: every agent copies its neighbour, so disagreement never decays
CYCLE5 = {"n": 5, "generator": {"type": "ring", "step": 1, "weights": [1.0] * 5}}
# slow mixing: the left-eigenvector power iteration does not converge
RING300 = {"n": 300, "seed": 0, "generator": {"type": "ring", "step": 1, "weights": "random"}}

# 1 bit is below this pair's bit threshold, yet its envelope settles
# 4 bits are below this pair's threshold (4.2): no bound is certified, yet
# the agents settle at -0.608, inside [x_min - beta(1), x_max + beta(1)]
BELOW_THRESHOLD = {
    "network": {"n": 2, "generator": {"type": "explicit",
                                      "edges": [[1, 2, 0.2736], [2, 1, 0.1197]]}},
    "protocol": "bicc", "bits": 4, "gamma": 0.3, "horizon": 65, "trials": 3, "seed": 2,
    "x_range": [-1.0, 1.0],
}
# at 1 bit the same pair's decoded values agree, but on 2.03e33
DIVERGING_AGREEMENT = dict(BELOW_THRESHOLD, bits=1, seed=11, x_range=[-0.00112, 12.885])


def ring5_config(**overrides):
    data = {"network": RING5, "horizon": 200, "trials": 200, "seed": 3}
    data.update(overrides)
    return pcsim.parse_config(data)


def scaled_moments(monkeypatch, factor):
    """Make closed_form_moments return tr Sigma(k) scaled by `factor`."""
    real = pcsim.adversary.closed_form_moments

    def tampered(trace, gamma, **kw):
        cf = real(trace, gamma, **kw)
        return dataclasses.replace(cf, trace_second_moment=factor * cf.trace_second_moment)

    monkeypatch.setattr("pcsim.adversary.closed_form_moments", tampered)


class TestParseConfig:
    def test_defaults(self):
        config = pcsim.parse_config({"network": RING5})
        assert config.protocol == "icc"
        assert config.bits == 12
        assert config.gamma == 0.5
        assert config.horizon == 1000
        assert config.trials == 10_000
        assert config.seed == 0
        assert config.x_range == (4.0, 6.0)
        assert config.overhead_bits == 0
        assert config.out_dir is None
        assert config.x0_spec == {"uniform": [4.0, 6.0]}

    def test_bare_network_file_is_wrapped(self):
        config = pcsim.parse_config(dict(RING5))
        assert config.network == RING5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            pcsim.parse_config({"network": RING5, "horizons": 10})

    def test_network_required(self):
        with pytest.raises(ConfigError, match="network"):
            pcsim.parse_config({"horizon": 10})

    @pytest.mark.parametrize("x_range", [[-1e308, 1e308], [0.0, 1e308]])
    def test_overflowing_window_schedule_rejected(self, x_range):
        # beta(0) = 2e308 or beta(1) = 3e308 is inf, though both ends are finite
        with pytest.raises(ConfigError, match="x_range"):
            pcsim.parse_config({"network": RING5, "x_range": x_range})

    @pytest.mark.parametrize(
        "bad",
        [
            {"protocol": "gossip"},
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"horizon": 0},
            {"trials": 1},
            {"bits": 0},
            {"bits": 54},
            {"x_range": [4.0, math.inf]},
            {"x_range": [math.nan, 6.0]},
            {"x_range": [6.0, 4.0]},
            {"x_range": [1.0, 2.0, 3.0]},
            {"overhead_bits": -1},
        ],
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            pcsim.parse_config({"network": RING5, **bad})

    def test_widest_bits_accepted(self):
        assert pcsim.parse_config({"network": RING5, "bits": 53}).bits == 53

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            pcsim.parse_config([1, 2, 3])


class TestNetworkFromSpec:
    def test_ring(self):
        net = pcsim.network_from_spec({"n": 25, "generator": {"type": "ring", "step": 2}})
        np.testing.assert_array_equal(net.matrix, pcsim.ring_lattice(25, 2, "uniform").matrix)

    def test_random_ring_weights_reproducible(self):
        spec = {"n": 8, "generator": {"type": "ring", "step": 1, "weights": "random"}, "seed": 5}
        a = pcsim.network_from_spec(spec)
        b = pcsim.network_from_spec(spec)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_explicit_edge_rows_follow_send_direction(self):
        # row [1, 2, 0.6]: agent 1 sends to agent 2 with gain 0.6, so
        # the matrix entry is (receiver 2, sender 1)
        net = pcsim.network_from_spec(
            {"n": 2, "generator": {"type": "explicit", "edges": [[1, 2, 0.6], [2, 1, 0.7]]}}
        )
        np.testing.assert_allclose(net.matrix, [[0.3, 0.7], [0.6, 0.4]])

    def test_invalid_network_reports_cause(self):
        spec = {"n": 3, "generator": {"type": "explicit", "edges": [[1, 2, 0.5], [2, 1, 0.5]]}}
        with pytest.raises(ConfigError, match="NotStronglyConnected"):
            pcsim.network_from_spec(spec)
        heavy = {"n": 2, "generator": {"type": "explicit", "edges": [[1, 2, 1.5], [2, 1, 0.5]]}}
        with pytest.raises(ConfigError, match="RowSumExceeded"):
            pcsim.network_from_spec(heavy)

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf])
    def test_non_finite_gains_rejected(self, gain):
        explicit = {"n": 2, "generator": {"type": "explicit", "edges": [[1, 2, gain], [2, 1, 0.5]]}}
        with pytest.raises(ConfigError, match="finite"):
            pcsim.network_from_spec(explicit)
        ring = {"n": 3, "generator": {"type": "ring", "step": 1, "weights": [0.5, gain, 0.5]}}
        with pytest.raises(ConfigError, match="finite"):
            pcsim.network_from_spec(ring)

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({**RING5, "sed": 3}, "unknown network keys: ['sed']"),
            ({"n": 5, "generator": {"type": "ring", "step": 1, "wieghts": "random"}},
             "unknown ring generator keys: ['wieghts']"),
            ({**PAIR, "generator": {**PAIR["generator"], "step": 1}},
             "unknown explicit generator keys: ['step']"),
            ({**PAIR, "generator": {"type": "explicit", "edges": [[1, 2, 0.5, 0.1], [2, 1, 0.5]]}},
             "edge row must be [i, j, kappa]"),
            ({**PAIR, "generator": {"type": "explicit", "edges": [[1, 2], [2, 1, 0.5]]}},
             "edge row must be [i, j, kappa]"),
            ({**PAIR, "generator": {"type": "explicit", "edges": ["120", [2, 1, 0.5]]}},
             "edge row must be [i, j, kappa]"),
            ({"n": 5, "generator": {"type": "ring", "step": 1, "weights": "random"}},
             "random ring weights need a network seed"),
            ([5], "network must be a JSON object"),
        ],
    )
    def test_spec_read_strictly(self, spec, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            pcsim.network_from_spec(spec)

    def test_malformed_spec(self):
        with pytest.raises(ConfigError, match="bad network spec"):
            pcsim.network_from_spec({"n": 5})
        with pytest.raises(ConfigError, match="unknown generator"):
            pcsim.network_from_spec({"n": 5, "generator": {"type": "mesh"}})


class TestInitialStates:
    def test_explicit_list(self):
        np.testing.assert_array_equal(
            pcsim.initial_states([1.0, 2.0, 3.0], 3, 0), [1.0, 2.0, 3.0]
        )

    def test_wrong_length(self):
        with pytest.raises(ConfigError):
            pcsim.initial_states([1.0, 2.0], 3, 0)

    def test_uniform_draw_seeded(self):
        x0 = pcsim.initial_states({"uniform": [4, 6], "seed": 11}, 25, 0)
        np.testing.assert_array_equal(x0, np.random.default_rng(11).uniform(4, 6, 25))
        # falls back to the experiment seed when none is given
        x0 = pcsim.initial_states({"uniform": [4, 6]}, 25, 7)
        np.testing.assert_array_equal(x0, np.random.default_rng(7).uniform(4, 6, 25))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ConfigError, match="finite"):
            pcsim.initial_states([1.0, value, 3.0], 3, 0)
        with pytest.raises(ConfigError, match="finite"):
            pcsim.initial_states({"uniform": [1.0, value]}, 3, 0)

    def test_range_wider_than_a_float_rejected(self):
        with pytest.raises(ConfigError, match="x0 uniform range"):
            pcsim.initial_states({"uniform": [-1e308, 1e308]}, 3, 0)

    def test_scale_limits(self):
        tiny = math.sqrt(np.finfo(float).tiny)
        big = math.sqrt(np.finfo(float).max / 3)
        for x0 in ([0.0, 0.0, 0.0], [tiny, 0.0, -tiny], [big, -big, 1.0]):
            np.testing.assert_array_equal(pcsim.initial_states(x0, 3, 0), x0)
        for x0 in ([tiny / 2, 0.0, -tiny / 2], [1.0001 * big, 0.0, 1.0]):
            with pytest.raises(ConfigError, match=r"^x0 is out of scale"):
                pcsim.initial_states(x0, 3, 0)

    def test_unknown_keys_rejected(self):
        # a misspelt "seed" would otherwise draw with the experiment seed
        with pytest.raises(ConfigError, match=r"unknown x0 keys: \['sed'\]"):
            pcsim.initial_states({"uniform": [4, 6], "sed": 3}, 25, 0)

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            pcsim.initial_states({"uniform": [6, 4]}, 5, 0)
        with pytest.raises(ConfigError):
            pcsim.initial_states("everywhere", 5, 0)


# JSON values a config file may hold where a number, a string or a list
# belongs: json.load reads 1e400 as inf and also takes NaN/Infinity tokens.
# No integral float above 40 is among them, so no valid network gets a
# large L wherever one lands.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([1e400, -1e400, math.nan, 0.5, 2.5, -1.5, 5.9, 12.0]),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not v.is_integer()),
    st.lists(st.integers(-2, 6), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
DELETE = object()  # a corruption that removes the key
VALUE = st.one_of(JUNK, st.integers(-3, 60), st.floats(-2.0, 2.0), st.just(DELETE))
NUMBER_PATHS = [
    ("x_range", 0), ("x_range", 1), ("x0", "uniform", 0), ("x0", "uniform", 1), ("x0", 0),
    ("network", "generator", "weights", 0), ("network", "generator", "edges", 0, 2),
]
PATHS = NUMBER_PATHS + [
    (), ("network",), ("x0",), ("protocol",), ("bits",), ("gamma",), ("horizon",),
    ("trials",), ("seed",), ("x_range",), ("overhead_bits",), ("out",), ("extra",),
    ("network", "seed"), ("network", "generator"), ("network", "generator", "type"),
    ("network", "generator", "step"), ("network", "generator", "weights"),
    ("network", "generator", "edges"), ("network", "generator", "edges", 0),
    ("network", "generator", "edges", 0, 0), ("network", "generator", "edges", 0, 1),
    ("x0", "uniform"), ("x0", "seed"),
]
CORRUPTION = st.one_of(
    st.tuples(st.sampled_from(PATHS), VALUE),
    # huge finite numbers, whose difference overflows
    st.tuples(st.sampled_from(NUMBER_PATHS), st.sampled_from([1.7e308, -1.7e308])),
    # n is never above 40: a valid ring or edge list of n agents is built
    st.tuples(st.just(("network", "n")), st.one_of(JUNK, st.integers(-3, 40))),
)


def corrupt(data, path, value):
    """data with the value at `path` (keys and list indices) replaced or deleted."""
    if not path:
        return None if value is DELETE else value
    node = data
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return data
    key = path[-1]
    if isinstance(node, list) and not (isinstance(key, int) and key < len(node)):
        return data
    if isinstance(node, (dict, list)):
        if value is not DELETE:
            node[key] = value
        elif key in node or isinstance(node, list):
            del node[key]
    return data


@st.composite
def configs(draw):
    """A valid config with up to three values replaced, deleted or added."""
    n = draw(st.integers(2, 40))
    if n >= 3 and draw(st.booleans()):
        weights = draw(st.sampled_from(["uniform", "random", "list"]))
        generator = {"type": "ring", "step": 1,
                     "weights": [0.5] * n if weights == "list" else weights}
        network = {"n": n, "seed": draw(st.integers(0, 2**40)), "generator": generator}
    else:
        edges = [[i, i % n + 1, 0.5] for i in range(1, n + 1)]
        network = {"n": n, "generator": {"type": "explicit", "edges": edges}}
    x0 = draw(st.sampled_from(["list", "uniform"]))
    data = {
        "network": network,
        "x0": [5.0] * n if x0 == "list" else {"uniform": [4.0, 6.0], "seed": 3},
        "protocol": draw(st.sampled_from(["classical", "icc", "bicc"])),
        "bits": draw(st.integers(1, 53)),
        "gamma": draw(st.floats(0.01, 0.99)),
        "horizon": draw(st.integers(1, 10**6)),
        "trials": draw(st.integers(2, 10**6)),
        "seed": draw(st.integers(0, 2**70)),
        "x_range": [4.0, 6.0],
        "overhead_bits": draw(st.integers(0, 8)),
        "out": "out",
    }
    for path, value in draw(st.lists(CORRUPTION, max_size=3)):
        data = corrupt(data, path, value)
    return data


class TestConfigValidationProperty:
    @settings(derandomize=True, deadline=None, database=None, max_examples=600)
    @given(data=configs())
    def test_valid_or_config_error(self, data):
        """Any JSON value gives a checked config, network and x0, or ConfigError."""
        try:
            config = pcsim.parse_config(data)
            network = pcsim.network_from_spec(config.network)
            x0 = pcsim.initial_states(config.x0_spec, network.n, config.seed)
        except ConfigError:
            return
        assert config.protocol in ("classical", "icc", "bicc")
        assert 0.0 < config.gamma < 1.0
        for value in (config.bits, config.horizon, config.trials, config.seed,
                      config.overhead_bits):
            assert type(value) is int
        assert 1 <= config.bits <= 53 and config.horizon >= 1 and config.trials >= 2
        assert config.seed >= 0 and config.overhead_bits >= 0
        lo, hi = config.x_range
        assert type(lo) is float and type(hi) is float and lo < hi
        assert math.isfinite(lo) and math.isfinite(hi)
        assert config.out_dir is None or isinstance(config.out_dir, str)
        assert type(network.n) is int and 2 <= network.n <= 40
        assert np.all(np.isfinite(network.edge_gain))
        assert x0.dtype == float and x0.shape == (network.n,) and np.all(np.isfinite(x0))


def magnitudes():
    """Positive floats m * 10^e, m in [1, 10) and e in -300..300: both ends of the float range."""
    return st.builds(lambda e, m: m * 10.0**e, st.integers(-300, 300), st.floats(1.0, 9.99))


GAIN = st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.5, 1.0]))


@st.composite
def small_runs(draw):
    """A valid-shaped config of 2 to 7 agents, and the widths of a sweep over it.

    Values the CLI may still refuse: a ring step sharing a factor with
    n, ranges and states too large or too small for their squares, a
    bicc x0 outside x_range.  A gain of 1 on every ring link makes a
    non-contractive network.
    """
    n = draw(st.integers(2, 7))
    if n >= 3 and draw(st.booleans()):
        weights = draw(st.one_of(st.sampled_from(["uniform", "random"]),
                                 st.lists(GAIN, min_size=n, max_size=n)))
        generator = {"type": "ring", "step": draw(st.integers(1, n - 1)), "weights": weights}
    else:
        # a directed cycle plus chords, each gain divided by its receiver's in-degree
        pairs = [(i, i % n + 1) for i in range(1, n + 1)]
        chords = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n))
        pairs += [p for p in dict.fromkeys(chords) if p[0] != p[1] and p not in pairs]
        degree = {t: sum(1 for _, r in pairs if r == t) for _, t in pairs}
        edges = [[s, t, draw(GAIN) / degree[t]] for s, t in pairs]
        generator = {"type": "explicit", "edges": edges}
    centre = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(magnitudes())
    width = draw(magnitudes())
    data = {
        "network": {"n": n, "seed": draw(st.integers(0, 2**32 - 1)), "generator": generator},
        "protocol": draw(st.sampled_from(["classical", "icc", "bicc"])),
        "bits": draw(st.integers(1, 53)),
        "gamma": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        "horizon": draw(st.integers(1, 80)),
        "trials": draw(st.integers(2, 6)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "x_range": [centre - width / 2, centre + width / 2],
    }
    x0 = draw(st.sampled_from(["drawn from x_range", "uniform", "list", "zeros"]))
    if x0 == "uniform":
        lo = draw(st.sampled_from([-1.0, 1.0])) * draw(magnitudes())
        data["x0"] = {"uniform": [lo, lo + draw(magnitudes())], "seed": draw(st.integers(0, 99))}
    elif x0 == "list":
        signs = st.sampled_from([-1.0, 0.0, 1.0])
        data["x0"] = [draw(signs) * draw(magnitudes()) for _ in range(n)]
    elif x0 == "zeros":
        data["x0"] = [0.0] * n
    return data, draw(st.lists(st.integers(1, 53), min_size=1, max_size=3))


def run_main(args):
    """(exit code, stdout, stderr) of cli.main(args), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


NOT_CONTRACTIVE = re.compile(r"error: NoConvergence: \|lambda_2\| = \S+ is not contractive; ")


class TestExitContractProperty:
    """run, sweep-bits and spectral on generated configs keep the CLI's exit contract."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(case=small_runs())
    def test_exit_codes_and_outputs(self, case):
        data, widths = case
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(data))
            for command in (["run"], ["sweep-bits", "--bits", ",".join(map(str, widths))],
                            ["spectral"]):
                out_dir = Path(tmp) / command[0]
                args = [command[0], "--config", str(config), "--out", str(out_dir), *command[1:]]
                code, out, err = run_main(args)  # no exception escapes
                if code == 2:
                    assert err.startswith("config error:"), err
                elif code == 1 and err:
                    # README: a bicc run or spectral on a non-contractive network
                    assert out == "" and NOT_CONTRACTIVE.match(err), err
                elif code == 1:
                    lines = out.splitlines()
                    assert lines and all(line.startswith("invariant breach: ") for line in lines)
                else:
                    assert code == 0 and err == ""
                    check_outputs(command[0], out, out_dir)


@st.composite
def scalable_runs(draw):
    """A small_runs config with x_range and x0 of moderate magnitude, and j for a 2^j rescaling.

    Magnitudes are m * 10^e with |e| <= 30 and |j| <= 60, so the states
    at either scale lie far inside the x0 scale check.
    """
    data, _ = draw(small_runs())
    moderate = st.builds(lambda e, m: m * 10.0**e, st.integers(-30, 30), st.floats(1.0, 9.99))
    centre = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(moderate)
    width = draw(moderate)
    data["x_range"] = [centre - width / 2, centre + width / 2]
    x0 = draw(st.sampled_from(["drawn from x_range", "list", "zeros"]))
    data.pop("x0", None)
    if x0 == "list":
        data["x0"] = [draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(moderate)
                      for _ in range(data["network"]["n"])]
    elif x0 == "zeros":
        data["x0"] = [0.0] * data["network"]["n"]
    return data, draw(st.sampled_from([-60, -40, -20, 20, 40, 60]))


FLOAT = re.compile(r"-?\d+\.\d*(e[-+]?\d+)?|-?\d+e[-+]?\d+")


def run_in(tmp, name, data):
    """`pcsim run` on `data` in tmp/name: (exit code, breaches and errors, output directory).

    Breaches and errors are the printed lines with every float masked,
    unless the code is 2: a config error may quote a scaled value.
    """
    config = Path(tmp) / f"{name}.json"
    config.write_text(json.dumps(data))
    out = Path(tmp) / name
    code, stdout, stderr = run_main(["run", "--config", str(config), "--out", str(out)])
    return code, "" if code == 2 else FLOAT.sub("#", stdout + stderr), out


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_scaled(rows, scaled_rows, powers):
    """Each column of `powers` scaled by 2^power exactly, every other column equal."""
    assert len(rows) == len(scaled_rows)
    for row, scaled in zip(rows, scaled_rows):
        for key, value in row.items():
            if key in powers and value != "":
                expected = math.ldexp(float(value), powers[key])
                got = float(scaled[key])
                assert got == expected or math.isnan(got) and math.isnan(expected), (key, row)
            else:
                assert scaled[key] == value, (key, row)


class TestScaleAndPrefixProperty:
    """`pcsim run` answers the same in any power-of-2 unit, and a longer horizon extends a run.

    Every step of every protocol is linear in the states, or a square of
    them, so multiplying x0 and x_range by 2^j scales each state-valued
    column by 2^j, each second moment by 4^j, and leaves codes, flags,
    protection levels and every verdict unchanged.  A horizon K is a
    prefix of a longer one: trace.csv rows before step K and the
    closed-form columns of adversary.csv do not depend on the steps after
    K (the Monte Carlo columns do, because a trial's tie draws follow all
    of its byte draws).
    """

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(case=scalable_runs())
    def test_power_of_2_units_and_horizon_prefix(self, case):
        data, j = case
        scaled = dict(data, x_range=[math.ldexp(v, j) for v in data["x_range"]])
        if "x0" in data:
            scaled["x0"] = [math.ldexp(v, j) for v in data["x0"]]
        longer = dict(data, horizon=data["horizon"] + 7)
        with tempfile.TemporaryDirectory() as tmp:
            code, said, out = run_in(tmp, "unit", data)
            scaled_code, scaled_said, scaled_out = run_in(tmp, "scaled", scaled)
            assert (scaled_code, scaled_said) == (code, said)
            if not (out / "adversary.csv").exists():
                return  # a config error, or a non-contractive bicc network
            state = {"x": j, "xi": j, "xi_q": j, "alpha": j, "beta": j}
            assert_scaled(csv_rows(out / "trace.csv"), csv_rows(scaled_out / "trace.csv"), state)
            moments = {"e_mean_mc": j, "e_mean_cf": j, "trace_sigma_mc": 2 * j,
                       "trace_sigma_cf": 2 * j}
            assert_scaled(csv_rows(out / "adversary.csv"),
                          csv_rows(scaled_out / "adversary.csv"), moments)

            longer_code, _, longer_out = run_in(tmp, "longer", longer)
            if longer_code == 2:
                return  # e.g. a window schedule that overflows in the extra steps
            steps = data["horizon"] * data["network"]["n"]
            assert csv_rows(longer_out / "trace.csv")[:steps] == csv_rows(out / "trace.csv")[:steps]
            closed_form = ["k", "agent", "e_mean_cf", "trace_sigma_cf", "protection_level"]
            rows = csv_rows(out / "adversary.csv")
            longer_rows = csv_rows(longer_out / "adversary.csv")[: len(rows)]
            assert ([[r[c] for c in closed_form] for r in longer_rows]
                    == [[r[c] for c in closed_form] for r in rows])


def check_outputs(command, out, out_dir):
    """What a command that exits 0 promises about what it printed and wrote."""
    if command == "run":
        summary = json.loads((out_dir / "summary.json").read_text())
        for key, value in summary.items():
            if value == "inf":  # README: the protection of a state that is exactly zero
                assert key in ("min_protection", "asymptotic_protection")
                with open(out_dir / "trace.csv", newline="") as fh:
                    assert all(float(row["x"]) == 0.0 for row in csv.DictReader(fh))
            else:
                assert math.isfinite(value), (key, value)
    elif command == "sweep-bits":
        with open(out_dir / "sweep.csv", newline="") as fh:
            assert list(csv.reader(io.StringIO(out))) == list(csv.reader(fh))[1:]
    else:
        assert json.loads(out) == json.loads((out_dir / "spectral.json").read_text())


def reference_fmt(value):
    """The per-cell formatter the CSV writer used to call for every value."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def reference_csv(header, rows):
    """CSV text as csv.writer writes it (the writer this one replaced)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def reference_trace_csv(trace):
    K = trace.horizon
    quantized = trace.protocol == "bicc"
    # each derived column is read once, for the whole range of steps
    xi, xi_q = trace.innovations(0, K), trace.sent[1:]
    codes, alpha = trace.quantizer_columns(0, K + 1) if quantized else (None, None)
    rows = []
    for k in range(K + 1):
        for agent in range(trace.n):
            has_xi = k < K
            rows.append([
                k,
                agent + 1,
                reference_fmt(trace.x[k, agent]),
                reference_fmt(xi[k, agent]) if has_xi else "",
                reference_fmt(xi_q[k, agent]) if quantized and has_xi else "",
                str(int(codes[k, agent])) if quantized else "",
                reference_fmt(alpha[k, agent]) if quantized else "",
                reference_fmt(trace.beta[k]) if quantized else "",
                reference_fmt(trace.saturated[k, agent]) if quantized else "",
            ])
    return reference_csv(
        ["k", "agent", "x", "xi", "xi_q", "code", "alpha", "beta", "saturated"], rows
    )


def reference_adversary_csv(trace, mc, moments, report):
    cf_mean = moments.mean  # derived on each read: read once
    rows = []
    for k in range(trace.x.shape[0]):
        for agent in range(trace.n):
            protection = report.protection[k]
            rows.append([
                k,
                agent + 1,
                reference_fmt(mc.mean[k, agent]),
                reference_fmt(cf_mean[k, agent]),
                reference_fmt(mc.sq_norm[k]),
                reference_fmt(moments.trace_second_moment[k]),
                reference_fmt(protection) if math.isfinite(protection)
                else "nan" if math.isnan(protection) else "inf",
            ])
    return reference_csv(
        ["k", "agent", "e_mean_mc", "e_mean_cf", "trace_sigma_mc", "trace_sigma_cf",
         "protection_level"],
        rows,
    )


def parsed(chunks):
    return list(csv.reader(io.StringIO(b"".join(chunks).decode(), newline="")))[1:]


def special_states_trace():
    """An icc trace whose states hold NaN, +-inf and -0.0 among finite values."""
    net = pcsim.ring_lattice(5, 1, "uniform")
    with np.errstate(all="ignore"):
        return pcsim.run_icc(net, np.array([np.nan, np.inf, -np.inf, -0.0, 2.5]), 4)


class TestRowGenerators:
    """The rows of both files, from the compiled row writer (the Python one in the subclass)."""

    @pytest.fixture(autouse=True)
    def writer(self, library):
        """The compiled writer; skipped where no compiler can build the library."""

    def test_classical_trace_rows(self, ring25, x0_ring):
        trace = pcsim.run_classical(ring25, x0_ring, 3)
        rows = parsed(harness.trace_csv(trace))
        assert len(rows) == 4 * 25
        k, agent, x, xi, xi_q, code, alpha, beta, sat = rows[0]
        assert (k, agent) == ("0", "1")
        assert float(x) == trace.x[0, 0] and float(xi) == trace.innovations(0, 1)[0, 0]
        assert xi_q == code == alpha == beta == sat == ""
        assert rows[-1][3] == ""  # no innovation at the final step

    def test_bicc_trace_rows_redecode(self, ring25, spectral25, x0_ring):
        trace = pcsim.run_bicc(ring25, spectral25, x0_ring, 12, (4.0, 6.0), 5)
        rows = parsed(harness.trace_csv(trace))
        for row in rows:
            k, agent = int(row[0]), int(row[1])
            code, alpha, beta = int(row[5]), float(row[6]), float(row[7])
            # the printed code/window columns reproduce the printed
            # quantity they encode: x(0) at step 0, xi_q(k-1) after
            target = trace.x[0, agent - 1] if k == 0 else trace.sent[k, agent - 1]
            assert pcsim.decode(code, alpha, beta, 12) == target
            assert row[8] in ("0", "1")

    def test_adversary_rows_mark_infinite_protection(self):
        net = pcsim.build_network(2, [(1, 2, 0.5), (2, 1, 0.5)])
        trace = pcsim.run_icc(net, np.array([1.0, -1.0]), 4)
        cf = pcsim.closed_form_moments(trace, 0.5)
        mc = pcsim.run_adversary_icc_mc(trace, 0.5, 10, seed=0)
        report = pcsim.protection_report(trace, cf)
        rows = parsed(harness.adversary_csv(trace, mc, cf, report))
        assert len(rows) == 5 * 2
        assert rows[0][6] != "inf" and rows[-1][6] == "inf"

    def test_nan_state_writes_nan_protection(self):
        net = pcsim.build_network(2, [(1, 2, 0.5), (2, 1, 0.5)])
        trace = pcsim.run_icc(net, np.array([1.0, np.nan]), 3)
        cf = pcsim.closed_form_moments(trace, 0.5)
        mc = pcsim.run_adversary_icc_mc(trace, 0.5, 4, seed=0)
        report = pcsim.protection_report(trace, cf)
        assert np.isnan(report.protection).all()
        rows = parsed(harness.adversary_csv(trace, mc, cf, report))
        assert [row[6] for row in rows] == ["nan"] * 8


class TestRowGeneratorsInPython(TestRowGenerators):
    @pytest.fixture(autouse=True)
    def writer(self, monkeypatch):
        monkeypatch.setattr(_compiled, "library", None)


class TestCsvWriterMatchesReference:
    """The compiled row writer (the Python one in the subclass) against the per-cell
    csv.writer it replaced."""

    @pytest.fixture(autouse=True)
    def writer(self, library):
        """The compiled writer; skipped where no compiler can build the library."""

    def check(self, trace, gamma=0.5):
        assert b"".join(harness.trace_csv(trace)) == reference_trace_csv(trace).encode()
        cf = pcsim.closed_form_moments(trace, gamma)
        if trace.protocol == "classical":
            mc = pcsim.run_adversary_classical_mc(trace, gamma, 16, seed=1)
        else:
            mc = pcsim.run_adversary_icc_mc(trace, gamma, 16, seed=1)
        report = pcsim.protection_report(trace, cf)
        text = b"".join(harness.adversary_csv(trace, mc, cf, report)).decode()
        assert text == reference_adversary_csv(trace, mc, cf, report)
        return text

    @pytest.mark.parametrize("protocol", ["classical", "icc"])
    def test_unquantized(self, ring25, x0_ring, protocol):
        # 400 steps span several write chunks
        run = pcsim.run_classical if protocol == "classical" else pcsim.run_icc
        self.check(run(ring25, x0_ring, 400))

    def test_bicc_with_saturation(self):
        # the 5-ring at 12 bits saturates on some steps within 250
        network = pcsim.ring_lattice(5, 1, "uniform")
        spectral = pcsim.spectral_analysis(network)
        x0 = np.random.default_rng(3).uniform(4.0, 6.0, 5)
        trace = pcsim.run_bicc(network, spectral, x0, 12, (4.0, 6.0), 250)
        assert trace.saturated.any() and not trace.saturated.all()
        self.check(trace)

    def test_infinite_protection(self):
        net = pcsim.build_network(2, [(1, 2, 0.5), (2, 1, 0.5)])
        trace = pcsim.run_icc(net, np.array([1.0, -1.0]), 6)
        text = self.check(trace)
        assert text.endswith(",inf\r\n")

    def test_written_file_is_byte_identical(self, tmp_path):
        config = ring5_config(protocol="bicc", bits=7, horizon=250, trials=20, out=str(tmp_path))
        assert pcsim.cmd_run(config) == 0
        network = pcsim.network_from_spec(config.network)
        spectral = pcsim.spectral_analysis(network)
        x0 = pcsim.initial_states(config.x0_spec, network.n, config.seed)
        trace = pcsim.run_bicc(network, spectral, x0, 7, config.x_range, 250)
        assert (tmp_path / "trace.csv").read_bytes() == reference_trace_csv(trace).encode()

    def test_nan_infinite_and_negative_zero_states(self):
        # both files, so the closed form of this path (moment_rows, or its
        # numpy twin in the subclass) meets NaN, +-inf and -0.0 states too
        trace = special_states_trace()
        adversary = self.check(trace)
        text = b"".join(harness.trace_csv(trace))
        for value in (b",nan,", b",inf,", b",-inf,", b",-0,"):
            assert value in text
        assert adversary.endswith(",nan\r\n")  # a NaN protection level

    def test_widest_fields_fill_the_row_bound(self):
        # each field at its longest text, k crossing into one more digit:
        # the longest row is exactly the bound that sizes csv_rows' buffer
        steps, n, k0 = 7, 12, 10**12 - 3
        columns = [(harness._FLOAT, np.full((steps, n), -2.2250738585072014e-308)),
                   (harness._INT, np.full((steps, n), np.iinfo(np.int64).min)),
                   (harness._FLAG, np.ones((steps, n), bool)),
                   (harness._STEP, np.full(steps, -1.2345678901234567e-100)),
                   (harness._BLANK, None)]
        text = b"".join(harness._csv_lines(columns, k0)).decode()
        assert text == "".join(
            f"{k},{agent},-2.2250738585072014e-308,-9223372036854775808,1,"
            "-1.2345678901234567e-100,\r\n"
            for k in range(k0, k0 + steps) for agent in range(1, n + 1))
        bound = harness._row_bytes([kind for kind, _ in columns], k0 + steps, n)
        assert max(len(line) + 2 for line in text.split("\r\n")[:-1]) == bound


class TestCsvWriterMatchesReferenceInPython(TestCsvWriterMatchesReference):
    @pytest.fixture(autouse=True)
    def writer(self, monkeypatch):
        monkeypatch.setattr(_compiled, "library", None)


def test_special_states_write_the_same_bytes_on_both_paths(library, monkeypatch):
    trace = special_states_trace()
    mc = pcsim.run_adversary_icc_mc(trace, 0.5, 16, seed=1)
    written = []
    for loops in (library, None):  # each path's writer and closed form
        monkeypatch.setattr(_compiled, "library", loops)
        cf = pcsim.closed_form_moments(trace, 0.5)
        report = pcsim.protection_report(trace, cf)
        written.append([b"".join(harness.trace_csv(trace)),
                        b"".join(harness.adversary_csv(trace, mc, cf, report))])
    assert written[0] == written[1]
    assert b",nan\r\n" in written[0][1] and b",inf," in written[0][1]


def edge_floats():
    """Where an exact %.17g can go wrong: signs, ends of the range, decades, halfway cases."""
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, sys.float_info.max]
    for k in range(-330, 309):  # every 10^k and its two neighbours
        x = float(f"1e{k}")
        values += [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]
    # exact halfways of the 17th digit: these have 18 digits, the last a 5
    values += [2.0**50 + 0.25, 2.0**50 + 0.75, 123456789012345.125, 123456789012345.375,
               12345678901234.0625, 0.5, 2.5]
    return np.array(values)


def compiled_texts(values):
    """Each float as the compiled csv_rows writes it (one row each, one agent, one field)."""
    if _compiled.function("csv_rows") is None:
        pytest.skip("no C compiler: the Python writer is Python's own %.17g")
    column = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    text = b"".join(harness._csv_lines([(harness._FLOAT, column)])).decode()
    return [line.split(",")[2] for line in text.split("\r\n")[:-1]]


# Drives the compiled library, built with UBSan (argv[1]), over the edge
# floats (argv[2], their bytes in hex) and, for NaN/inf icc and classical
# traces, a bicc trace and two traces of 150 agents (rows longer than
# the pairwise sum's 128), built by its step loops, over both files,
# whose closed form runs in moment_rows; exits 1 on any byte that the
# numpy step loops, the Python writer and the numpy closed form write
# otherwise, and aborts on undefined behaviour.
UBSAN_CHILD = """
import ctypes, sys
import numpy as np
import pcsim
from pcsim import _compiled, harness

built = _compiled.function("csv_rows") and _compiled.library
checked = ctypes.CDLL(sys.argv[1])
for name in ("mc_block", "state_steps", "bicc_steps", "csv_rows", "moment_rows"):
    getattr(checked, name).argtypes = getattr(built, name).argtypes
    getattr(checked, name).restype = getattr(built, name).restype
values = np.frombuffer(bytes.fromhex(sys.argv[2])).reshape(-1, 1)
ring, wide = pcsim.ring_lattice(5, 1, "uniform"), pcsim.ring_lattice(150, 1, "uniform")
special = np.array([np.nan, np.inf, -np.inf, -0.0, 2.5])
written = []
for loops in (checked, None):
    _compiled.library = loops
    with np.errstate(all="ignore"):
        traces = [pcsim.run_icc(ring, special, 30), pcsim.run_classical(ring, special, 30),
                  pcsim.run_bicc(ring, pcsim.spectral_analysis(ring), np.linspace(4.5, 5.5, 5),
                                 12, (4.0, 6.0), 30),
                  pcsim.run_icc(wide, np.linspace(4.0, 6.0, 150), 20),
                  pcsim.run_classical(wide, np.linspace(4.0, 6.0, 150), 20)]
        mcs = [(pcsim.run_adversary_classical_mc if t.protocol == "classical"
                else pcsim.run_adversary_icc_mc)(t, 0.5, 8, seed=0) for t in traces]
    files = [b"".join(harness._csv_lines([(harness._FLOAT, values)]))]
    for trace, mc in zip(traces, mcs):
        with np.errstate(all="ignore"):
            cf = pcsim.closed_form_moments(trace, 0.5)
            report = pcsim.protection_report(trace, cf)
        files += [b"".join(harness.trace_csv(trace)),
                  b"".join(harness.adversary_csv(trace, mc, cf, report)),
                  repr(cf.min_eigenvalue).encode()]
    written.append(files)
sys.exit(written[0] != written[1])
"""


class TestCompiledFloatText:
    """csv_rows' exact %.17g against Python's, NaN of either sign written as nan."""

    def test_edge_values(self):
        values = edge_floats()
        assert compiled_texts(values) == ["%.17g" % v for v in values.tolist()]
        texts = dict(zip(values.tolist(), compiled_texts(values)))
        # the double nearest 1e-38 lies below it; the one nearest 1e-14 also
        # lies below its decade, but its 17 digits round up into it
        assert texts[1e-38] == "9.9999999999999996e-39"
        assert Fraction(1e-14) < Fraction(1, 10**14) and texts[1e-14] == "1e-14"
        # the ends of the exact route, whose neighbours are in the list: 1e17
        # goes to snprintf, and so does 1e-39, which lies below 10^-39
        assert texts[1e17] == "1e+17" and texts[1e-39] == "9.9999999999999993e-40"
        assert texts[2.0**50 + 0.25] == "1125899906842624.2"  # a halfway, to even

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert compiled_texts(values) == ["%.17g" % v for v in values.tolist()]

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(st.lists(st.floats(allow_subnormal=True) | st.floats(1e-39, 1e17), min_size=1,
                    max_size=64))
    def test_any_float(self, values):
        assert compiled_texts(values) == ["%.17g" % v for v in values]

    def test_writers_under_the_undefined_behaviour_sanitizer(self, tmp_path):
        # the formatter's 192-bit shifts are where an out-of-range shift would
        # hide; the closed form's split of long rows is where an index would
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        path = tmp_path / "ubsan.so"
        build = subprocess.run(
            [*_compiled._BUILD, "-fsanitize=undefined", "-fno-sanitize-recover=all", "-o",
             str(path)],
            input=Path(_compiled.__file__).with_name("_loops.c").read_bytes(),
            capture_output=True, timeout=120)
        if build.returncode:
            pytest.skip(f"cc cannot link UBSan: {build.stderr.decode()[-500:]}")
        src = str(Path(pcsim.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run(
            [sys.executable, "-c", UBSAN_CHILD, str(path), edge_floats().tobytes().hex()],
            env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert "runtime error" not in child.stderr


class TestCmdSpectral:
    def test_payload(self, capsys, tmp_path):
        config = pcsim.parse_config({"network": PAIR, "out": str(tmp_path)})
        assert pcsim.cmd_spectral(config) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 2
        assert abs(payload["lambda2"]) < 1e-12
        np.testing.assert_allclose(payload["w_left"], [0.5, 0.5], atol=1e-12)
        assert payload["b_min"] == 4
        net = pcsim.network_from_spec(config.network)
        sp = pcsim.spectral_analysis(net)
        assert payload["total_rate_min"] == math.ceil(
            pcsim.required_total_rate(net, sp, 0)
        )

    def test_writes_file(self, capsys, tmp_path):
        config = pcsim.parse_config({"network": RING5, "out": str(tmp_path)})
        pcsim.cmd_spectral(config)
        on_disk = json.loads((tmp_path / "spectral.json").read_text())
        assert on_disk == json.loads(capsys.readouterr().out)


class TestCmdRun:
    def test_icc_run_writes_artifacts(self, tmp_path, capsys):
        config = ring5_config(horizon=60, trials=300, out=str(tmp_path))
        assert pcsim.cmd_run(config) == 0
        assert capsys.readouterr().out == ""  # no breaches reported
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["floor"] == 0.25
        assert summary["min_protection"] >= 0.25
        assert summary["gamma"] == 0.5 and summary["trials"] == 300
        assert not (tmp_path / "deviation.json").exists()

        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 61 * 5
        assert rows[0]["x"] != "" and rows[0]["code"] == ""
        with open(tmp_path / "adversary.csv") as fh:
            a_rows = list(csv.DictReader(fh))
        assert len(a_rows) == 61 * 5
        assert float(a_rows[0]["protection_level"]) > 0

    def test_reruns_are_byte_identical_across_thread_counts(self, tmp_path, monkeypatch):
        names = ["trace.csv", "adversary.csv", "summary.json"]
        outs = {}
        for label, threads in [("a", "1"), ("b", "1"), ("c", "7")]:
            monkeypatch.setenv("PCSIM_THREADS", threads)
            out = tmp_path / label
            assert pcsim.cmd_run(ring5_config(horizon=40, trials=260, out=str(out))) == 0
            outs[label] = {name: (out / name).read_bytes() for name in names}
        assert outs["a"] == outs["b"] == outs["c"]

    def test_bad_thread_env_rejected(self, monkeypatch):
        monkeypatch.setenv("PCSIM_THREADS", "many")
        with pytest.raises(ConfigError):
            pcsim.cmd_run(ring5_config(horizon=5, trials=10))

    @pytest.mark.parametrize("threads", ["many", "0", "-2"])
    def test_bad_thread_env_rejected_before_the_run(self, monkeypatch, threads):
        def build_network(spec):
            raise AssertionError("the network was built before PCSIM_THREADS was read")

        monkeypatch.setattr(harness, "network_from_spec", build_network)
        monkeypatch.setenv("PCSIM_THREADS", threads)
        with pytest.raises(ConfigError, match="PCSIM_THREADS"):
            pcsim.cmd_run(ring5_config(horizon=5, trials=10))

    def test_large_thread_count_accepted(self, monkeypatch):
        # only read here: no worker pool is started
        monkeypatch.setenv("PCSIM_THREADS", "100000")
        assert harness._workers() == 100000

    def test_quantized_run_reports_deviation(self, tmp_path):
        # the 5-ring's |lambda_2| = |cos 144deg| = 0.809 puts the
        # minimum width at 6 bits; 7 settles comfortably inside k = 250
        config = ring5_config(protocol="bicc", bits=7, horizon=250, trials=100, out=str(tmp_path))
        assert pcsim.cmd_run(config) == 0
        dev = json.loads((tmp_path / "deviation.json").read_text())
        assert dev["converged"] is True and dev["b"] == 7
        assert 0 <= dev["deviation"] <= dev["bound"]
        with open(tmp_path / "trace.csv") as fh:
            row0 = next(csv.DictReader(fh))
        assert pcsim.decode(
            int(row0["code"]), float(row0["alpha"]), float(row0["beta"]), 7
        ) == float(row0["x"])

    @pytest.mark.parametrize("protocol", ["icc", "bicc"])
    def test_moments_below_the_floor_are_a_breach(self, capsys, monkeypatch, protocol):
        # the floor is tested on the recursion that the run writes, so
        # tr Sigma(k) at 0.9 of its value falls below (1-g)^2 ||x||^2 + c
        scaled_moments(monkeypatch, 0.9)
        config = ring5_config(protocol=protocol, bits=7, horizon=250, trials=64)
        assert pcsim.cmd_run(config) == 1
        out = capsys.readouterr().out
        assert re.fullmatch(r"invariant breach: protection floor violated by \S+\n", out)

    def test_bicc_x0_outside_x_range_is_a_config_error(self, monkeypatch):
        def spectral_analysis(network):
            raise AssertionError("the spectral analysis ran before x0 was checked")

        monkeypatch.setattr(harness.graph, "spectral_analysis", spectral_analysis)
        config = ring5_config(protocol="bicc", x0=[3.0, 5.0, 5.0, 5.0, 5.0], horizon=20)
        with pytest.raises(ConfigError, match="x0: initial states must lie strictly inside"):
            pcsim.cmd_run(config)

    def test_overflowing_window_schedule_is_a_config_error(self, tmp_path):
        # 3 bits on the 5-ring: beta(1120) = inf, inside the horizon
        config = ring5_config(protocol="bicc", bits=3, horizon=2000, trials=50, out=str(tmp_path))
        message = r"^bits: beta\(1120\) = inf: the 3-bit window widths overflow before horizon 2000$"
        with pytest.raises(ConfigError, match=message):
            pcsim.cmd_run(config)
        assert list(tmp_path.iterdir()) == []

    def test_converged_run_below_the_bit_threshold_has_no_bound(self, tmp_path, capsys):
        # 4 bits are below this pair's threshold, so the window decay rate
        # is outside (|lambda_2|, 1) and no bound is certified; the run
        # used to end in "error: EtaOutOfRange" and write nothing
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BELOW_THRESHOLD))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        dev = json.loads((out / "deviation.json").read_text())
        assert dev["converged"] is True and dev["b"] == 4
        assert dev["bound"] is None and dev["eta"] is None
        assert dev["deviation"] == pytest.approx(0.217, abs=1e-3)

    def test_agreement_on_a_diverging_value_is_no_consensus(self, tmp_path, capsys):
        # both agents decode to the same value, 2.03e33, far outside the window
        config = tmp_path / "config.json"
        config.write_text(json.dumps(DIVERGING_AGREEMENT))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
        breach = "invariant breach: quantized run did not reach consensus\n"
        assert capsys.readouterr().out == breach
        dev = json.loads((out / "deviation.json").read_text())
        assert dev["converged"] is False and dev["deviation"] is None

    def test_deviation_beyond_its_bound_is_a_breach(self, monkeypatch, capsys):
        config = ring5_config(protocol="bicc", bits=7, horizon=250, trials=4)
        network = pcsim.network_from_spec(config.network)
        spectral = pcsim.spectral_analysis(network)
        x0 = pcsim.initial_states(config.x0_spec, network.n, config.seed)
        trace = pcsim.run_bicc(network, spectral, x0, 7, config.x_range, config.horizon)
        deviation = pcsim.verify_deviation(trace, spectral, x0).deviation
        monkeypatch.setattr(pcsim.metrics, "deviation_bound", lambda *args: deviation / 4)
        assert pcsim.cmd_run(config) == 1
        assert capsys.readouterr().out == (
            f"invariant breach: deviation {deviation:.3e} exceeds its certified bound "
            f"{deviation / 4:.3e}\n"
        )

    def test_unsettled_drift_inside_the_final_envelope_is_no_breach(self, tmp_path, capsys):
        # settled at step 971, but the envelope at K = 1021 is still 3.4e-6 wide:
        # its mean is 2.3e-7 off the ideal value, above the 40-bit bound of
        # 3.7e-9 on the limit, yet the ideal value lies inside the envelope
        data = {"network": {"n": 25, "seed": 3, "generator": {"type": "ring", "step": 1,
                                                              "weights": "random"}},
                "protocol": "bicc", "bits": 40, "horizon": 1021, "trials": 64, "seed": 3,
                "x_range": [4.0, 6.0]}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert (out / "deviation.json").read_text() == json.dumps({
            "b": 40, "bound": 3.655153547588457e-09, "converged": True,
            "deviation": 2.3467253917885955e-07, "eta": 0.9888457421495291,
            "x_inf_ideal": 4.700380567778693, "x_inf_observed": 4.700380520844186,
        }, indent=2) + "\n"

    def test_diverging_run_reports_overflowed_moments(self, capsys):
        # at 1 bit the 5-ring's windows grow until tr Sigma(k) overflows:
        # a NaN min eigenvalue here is no loss of PSD
        config = ring5_config(protocol="bicc", bits=1, horizon=250, trials=4)
        assert pcsim.cmd_run(config) == 1
        assert capsys.readouterr().out == (
            "invariant breach: moments overflowed: tr Sigma(k) is not finite from step 235\n"
            "invariant breach: quantized run did not reach consensus\n"
        )

    def test_starved_quantizer_is_a_breach(self, tmp_path, capsys):
        config = ring5_config(protocol="bicc", bits=3, horizon=250, trials=50, out=str(tmp_path))
        assert pcsim.cmd_run(config) == 1
        assert "invariant breach" in capsys.readouterr().out
        dev = json.loads((tmp_path / "deviation.json").read_text())
        assert dev["converged"] is False
        assert dev["deviation"] is None and dev["bound"] is None


    @pytest.mark.parametrize("protocol", ["classical", "icc"])
    def test_rounding_on_the_scale_of_the_moments_is_no_loss_of_psd(self, capsys, protocol):
        # at gamma = 1e-17 the error is almost surely the state itself, so
        # v = Sigma_ii - m_i^2 is rounding on the scale of x^2 = 3.7e5: about
        # -3e-10, below an absolute tolerance of -1e-10
        config = ring5_config(protocol=protocol, gamma=1e-17, horizon=30, trials=4,
                              x_range=[604.0, 606.0])
        assert pcsim.cmd_run(config) == 0
        assert capsys.readouterr().out == ""

    def test_lost_psd_is_a_breach(self, capsys, monkeypatch):
        real = pcsim.adversary.closed_form_moments

        def tampered(trace, gamma, **kw):
            cf = real(trace, gamma, **kw)
            return dataclasses.replace(cf, min_eigenvalue=-1e-9 * cf.trace_second_moment.max())

        monkeypatch.setattr("pcsim.adversary.closed_form_moments", tampered)
        assert pcsim.cmd_run(ring5_config(horizon=30, trials=4)) == 1
        out = capsys.readouterr().out
        assert re.fullmatch(r"invariant breach: second-moment matrix lost PSD: min eig -\S+\n", out)


@contextlib.contextmanager
def no_thread_left():
    """Check that no thread started inside the block outlives it."""
    before = set(threading.enumerate())
    yield
    assert set(threading.enumerate()) == before


class TestTraceWriter:
    """trace.csv comes from a writer thread: same bytes, no leftovers."""

    def test_failed_analysis_kills_the_writer(self, tmp_path, monkeypatch):
        def failing_mc(*args):
            raise RuntimeError("MC failed")

        monkeypatch.setattr(harness, "_adversary_mc", failing_mc)
        config = ring5_config(horizon=3000, trials=10, out=str(tmp_path))
        with no_thread_left(), pytest.raises(RuntimeError, match="MC failed"):
            pcsim.cmd_run(config)
        assert list(tmp_path.iterdir()) == []  # neither trace.csv nor trace.csv.part

    def test_failed_analysis_stops_the_writer_between_chunks(self, tmp_path, monkeypatch):
        started, chunks = threading.Event(), []

        def long_trace_csv(trace):
            for i in range(10**7):
                chunks.append(i)
                started.set()
                yield b"k,agent\r\n"

        def failing_mc(*args):
            assert started.wait(60)
            raise RuntimeError("MC failed")

        monkeypatch.setattr(harness, "trace_csv", long_trace_csv)
        monkeypatch.setattr(harness, "_adversary_mc", failing_mc)
        with no_thread_left(), pytest.raises(RuntimeError, match="MC failed"):
            pcsim.cmd_run(ring5_config(horizon=40, trials=10, out=str(tmp_path)))
        assert 0 < len(chunks) < 10**7
        assert list(tmp_path.iterdir()) == []

    def test_failed_writer_is_an_os_error(self, tmp_path, monkeypatch):
        def failing_trace_csv(trace):
            yield b"k,agent\r\n"
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(harness, "trace_csv", failing_trace_csv)
        config = ring5_config(horizon=40, trials=10, out=str(tmp_path))
        with no_thread_left(), pytest.raises(OSError, match="trace.csv") as info:
            pcsim.cmd_run(config)
        cause = info.value.__cause__
        assert "RuntimeError: formatting failed" in str(info.value)
        assert f"{type(cause).__name__}: {cause}" == "RuntimeError: formatting failed"
        names = {p.name for p in tmp_path.iterdir()}
        assert "trace.csv" not in names and "trace.csv.part" not in names

    @pytest.mark.parametrize("protocol", ["classical", "icc", "bicc"])
    def test_writer_thread_writes_the_inline_bytes(self, tmp_path, protocol):
        config = ring5_config(protocol=protocol, bits=7, horizon=250, trials=130,
                              out=str(tmp_path))
        assert pcsim.cmd_run(config) == 0
        network, x0 = harness._network_and_states(config)
        trace = harness._run_protocol(config, network, pcsim.spectral_analysis(network), x0)
        assert (tmp_path / "trace.csv").read_bytes() == b"".join(harness.trace_csv(trace))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_live_thread_costs_no_warning_and_no_byte(self, tmp_path, monkeypatch, threads):
        # Python 3.12+ warns when a process with threads forks, and numpy's
        # BLAS may start one at import: a run beside a thread must not warn.
        # A short switch interval interleaves the writer, the MC and the
        # other thread as finely as it can.
        def outputs(out):
            config = ring5_config(protocol="bicc", bits=7, horizon=250, trials=130,
                                  out=str(out))
            assert pcsim.cmd_run(config) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        monkeypatch.setenv("PCSIM_THREADS", threads)
        alone = outputs(tmp_path / "alone")
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            with warnings.catch_warnings(), no_thread_left():
                warnings.simplefilter("error")
                beside = outputs(tmp_path / "beside")
            assert other.is_alive()
        finally:
            sys.setswitchinterval(interval)
            release.set()
            other.join(60)
        assert not other.is_alive()
        assert sorted(alone) == ["adversary.csv", "deviation.json", "summary.json", "trace.csv"]
        assert beside == alone


class TestCmdSweepBits:
    def test_rows_cover_requested_widths(self, tmp_path, capsys):
        config = ring5_config(protocol="bicc", horizon=250, trials=50, out=str(tmp_path))
        assert pcsim.cmd_sweep_bits(config, [5, 7, 10]) == 0
        capsys.readouterr()
        with open(tmp_path / "sweep.csv") as fh:
            rows = {int(r["b"]): r for r in csv.DictReader(fh)}
        assert sorted(rows) == [5, 7, 10]
        assert rows[5]["converged"] == "0"  # below the 6-bit threshold
        assert rows[7]["converged"] == "1" and rows[10]["converged"] == "1"
        assert float(rows[10]["deviation"]) < float(rows[7]["deviation"])
        assert all(r["error"] == "" for r in rows.values())

    def test_failures_recorded_not_fatal(self, tmp_path, capsys):
        config = ring5_config(
            protocol="bicc", x0=[3.0, 5.0, 5.0, 5.0, 5.0], horizon=50, trials=50,
            out=str(tmp_path),
        )
        assert pcsim.cmd_sweep_bits(config, [5, 8]) == 0
        capsys.readouterr()
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all("InitialStateOutOfRange" in r["error"] for r in rows)

    def test_overflowing_window_schedule_is_recorded_not_fatal(self, tmp_path, capsys):
        config = ring5_config(protocol="bicc", horizon=2000, out=str(tmp_path))
        assert pcsim.cmd_sweep_bits(config, [3, 8]) == 0
        capsys.readouterr()
        with open(tmp_path / "sweep.csv") as fh:
            rows = {int(r["b"]): r for r in csv.DictReader(fh)}
        assert rows[3]["error"] == (
            "NonPositiveBeta: beta(1120) = inf: the 3-bit window widths overflow before horizon 2000"
        )
        assert rows[3]["converged"] == "0" and rows[3]["min_protection"] == ""
        assert rows[8]["error"] == "" and rows[8]["converged"] == "1"

    def test_one_trace_alive_at_a_time(self, capsys):
        config = ring5_config(protocol="bicc", horizon=3000)

        def peak(bits_list):
            tracemalloc.start()
            try:
                pcsim.cmd_sweep_bits(config, bits_list)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak([8])  # first call: lazy set-up allocations
        assert peak([8, 9, 10]) <= 1.2 * peak([8])
        capsys.readouterr()

    def test_width_below_the_threshold_keeps_its_convergence(self, tmp_path, capsys):
        config = pcsim.parse_config(dict(BELOW_THRESHOLD, out=str(tmp_path)))
        assert pcsim.cmd_sweep_bits(config, [4, 3]) == 0
        capsys.readouterr()
        with open(tmp_path / "sweep.csv") as fh:
            row = next(csv.DictReader(fh))
        assert row["b"] == "4" and row["error"] == ""
        assert row["converged"] == "1" and row["convergence_step"] != ""
        assert row["deviation"] != "" and row["bound"] == ""

    def test_empty_bits_rejected(self):
        with pytest.raises(ConfigError):
            pcsim.cmd_sweep_bits(ring5_config(), [])

    @pytest.mark.parametrize("width", [12.7, True, "12"])
    def test_non_integral_width_rejected(self, width, capsys):
        # 12.7 used to run 12 bits and True 1 bit
        with pytest.raises(ConfigError, match="bits"):
            pcsim.cmd_sweep_bits(ring5_config(protocol="bicc"), [12, width])
        assert capsys.readouterr().out == ""

    def test_integral_float_width_accepted(self, capsys):
        config = ring5_config(protocol="bicc", horizon=50)
        assert pcsim.cmd_sweep_bits(config, [12.0]) == 0
        assert capsys.readouterr().out.startswith("12,")


    def test_printed_rows_are_the_file_rows(self, tmp_path, capsys):
        # the InitialStateOutOfRange text holds commas, so its field is quoted
        for x0, name in ([3.0, 5.0, 5.0, 5.0, 5.0], "error"), (None, "normal"):
            config = ring5_config(protocol="bicc", horizon=50, out=str(tmp_path / name),
                                  **({"x0": x0} if x0 else {}))
            assert pcsim.cmd_sweep_bits(config, [5, 8]) == 0
            printed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
            with open(tmp_path / name / "sweep.csv", newline="") as fh:
                written = list(csv.reader(fh))
            assert printed == written[1:]
            assert [len(row) for row in printed] == [9, 9]
            errors = ["InitialStateOutOfRange" in row[-1] for row in printed]
            assert errors == [name == "error"] * 2


class TestCmdVerify:
    def test_all_checks_pass(self, capsys):
        assert pcsim.cmd_verify() == 0
        out = capsys.readouterr().out
        assert out.count("[pass]") == 7 and "[FAIL]" not in out
        assert "all checks passed" in out

    def test_broken_moments_are_caught(self, capsys, monkeypatch):
        real = pcsim.adversary.closed_form_moments

        def tampered(trace, gamma, **kw):
            cf = real(trace, gamma, **kw)
            return dataclasses.replace(cf, trace_second_moment=-cf.trace_second_moment)

        monkeypatch.setattr("pcsim.adversary.closed_form_moments", tampered)
        assert pcsim.cmd_verify() == 1
        out = capsys.readouterr().out
        assert "[FAIL] adversary moments vs monte carlo" in out

    def test_a_wrong_mean_is_caught(self, capsys, monkeypatch):
        # tr Sigma(k) stays right: only the mean check can fail
        real = pcsim.adversary.MomentRecursion.mean
        monkeypatch.setattr(
            pcsim.adversary.MomentRecursion, "mean", property(lambda cf: 1.1 * real.fget(cf))
        )
        assert pcsim.cmd_verify() == 1
        out = capsys.readouterr().out
        assert "[FAIL] adversary moments vs monte carlo" in out
        assert out.count("[FAIL]") == 1

    def test_moments_below_the_floor_are_caught(self, capsys, monkeypatch):
        scaled_moments(monkeypatch, 0.9)
        assert pcsim.cmd_verify() == 1
        out = capsys.readouterr().out
        assert "[FAIL] protection floor: floor violated by" in out


class TestCli:
    def write(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        assert cli.main(["spectral", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_run_with_overrides(self, tmp_path, capsys):
        config = self.write(
            tmp_path, {"network": RING5, "horizon": 250, "trials": 60, "seed": 3}
        )
        out = tmp_path / "out"
        code = cli.main(
            ["run", "--config", config, "--protocol", "bicc", "--bits", "7", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert json.loads((out / "deviation.json").read_text())["b"] == 7

    def test_thread_count_below_one_is_exit_2(self, tmp_path, capsys, monkeypatch):
        config = self.write(tmp_path, {"network": RING5, "horizon": 5, "trials": 10})
        monkeypatch.setenv("PCSIM_THREADS", "0")
        assert cli.main(["run", "--config", config]) == 2
        assert "PCSIM_THREADS" in capsys.readouterr().err

    def test_bad_override_is_exit_2(self, tmp_path, capsys):
        config = self.write(tmp_path, {"network": RING5})
        assert cli.main(["run", "--config", config, "--gamma", "1.5"]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_overrides_on_a_bare_network_file(self, tmp_path, capsys):
        # the flags are merged after the bare network is wrapped, so
        # they set the run, not keys of the network description
        config = self.write(tmp_path, {**RING5, "seed": 4})
        out = tmp_path / "out"
        code = cli.main(
            ["run", "--config", config, "--protocol", "bicc", "--bits", "7",
             "--horizon", "250", "--trials", "20", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert json.loads((out / "deviation.json").read_text())["b"] == 7
        assert json.loads((out / "summary.json").read_text())["trials"] == 20

    def test_overrides_replace_file_values(self, tmp_path, capsys):
        config = self.write(
            tmp_path, {"network": RING5, "protocol": "icc", "gamma": 0.3, "horizon": 40,
                       "trials": 10, "seed": 3}
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--gamma", "0.6", "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gamma"] == 0.6 and summary["trials"] == 10

    def test_bits_list_validation(self, tmp_path, capsys):
        config = self.write(tmp_path, {"network": RING5})
        assert cli.main(["sweep-bits", "--config", config, "--bits", "4,x"]) == 2
        assert cli.main(["sweep-bits", "--config", config, "--bits", ","]) == 2
        assert cli.main(["sweep-bits", "--config", config, "--bits", "0,5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"protocol": "icc", "x0": [math.nan, 5.0, 5.0, 5.0, 5.0]},
            {"protocol": "classical", "x0": [4.0, 5.0, math.inf, 5.0, 5.0]},
            {"network": {**PAIR, "generator": {"type": "explicit",
                                               "edges": [[1, 2, math.nan], [2, 1, 0.5]]}}},
            {"network": {**PAIR, "generator": {"type": "explicit",
                                               "edges": [[1, 2, 0.5], [2, 1, math.inf]]}}},
            {"protocol": "bicc", "bits": 64},
            # beta(0) = inf (NonPositiveBeta) and beta(1) = inf (CodeOutOfRange)
            {"protocol": "bicc", "x_range": [-1e308, 1e308], "x0": [5.0] * 5},
            {"protocol": "bicc", "x_range": [0.0, 1e308], "x0": [5.0] * 5},
            # InitialStateOutOfRange: x0 outside the default x_range [4, 6]
            {"protocol": "bicc", "x0": [3.0, 5.0, 5.0, 5.0, 5.0]},
            # NonPositiveBeta: at 3 bits beta(1120) = inf, inside the horizon
            {"protocol": "bicc", "bits": 3, "horizon": 2000},
        ],
    )
    def test_invalid_run_inputs_are_exit_2(self, tmp_path, capsys, overrides):
        # json writes NaN/Infinity tokens, which the config loader reads back
        config = self.write(tmp_path, {"network": RING5, "horizon": 20, "trials": 10, **overrides})
        assert cli.main(["run", "--config", config]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("gamma", "half"),
            ("x_range", 5),
            ("x_range", [4.0, "six"]),
            ("horizon", None),
            ("trials", "many"),
            ("bits", 1e400),
            ("seed", [3]),
            ("overhead_bits", {}),
            ("x0", ["a", 5.0, 5.0, 5.0, 5.0]),
            ("x0", {"uniform": 5}),
        ],
    )
    def test_non_numeric_values_are_exit_2(self, tmp_path, capsys, key, value):
        config = self.write(tmp_path, {"network": RING5, "horizon": 20, "trials": 10, key: value})
        assert cli.main(["run", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("bits", 12.7),
            ("bits", True),
            ("bits", "12"),
            ("horizon", True),
            ("horizon", 20.5),
            ("trials", 10.5),
            ("trials", False),
            ("seed", 2.5),
            ("seed", True),
            ("seed", -3),
            ("overhead_bits", 0.5),
            ("overhead_bits", True),
            ("x_range", "45"),
            ("x_range", ["4", "6"]),
            ("x_range", [True, 6.0]),
            ("x0", {"uniform": "45"}),
            ("x0", {"uniform": [4.0, 6.0], "seed": -1}),
            ("x0", {"uniform": [4.0, 6.0], "seed": 1.5}),
            ("x0", ["4.5", 5.0, 5.0, 5.0, 5.0]),
            ("x0", {"uniform": [4.0, 6.0], "sed": 3}),
            ("gamma", "0.5"),
        ],
    )
    def test_lenient_conversions_are_exit_2(self, tmp_path, capsys, key, value):
        config = self.write(tmp_path, {"network": RING5, "horizon": 20, "trials": 10, key: value})
        assert cli.main(["run", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize(
        "network, out, named",
        [
            ({"n": "5", "generator": {"type": "ring", "step": 1}}, None, "network n"),
            ({"n": 1e400, "generator": {"type": "ring", "step": 1}}, None, "network n"),
            ({"n": 5, "generator": {"type": "ring", "step": 1.5}}, None, "ring step"),
            ({"n": 5, "generator": {"type": "ring", "step": True}}, None, "ring step"),
            ({"n": 5, "generator": {"type": "ring", "step": 1e400}}, None, "ring step"),
            ({**RING5, "seed": 2.5}, None, "network seed"),
            ({**RING5, "seed": -1}, None, "network seed"),
            ({**RING5, "seed": True}, None, "network seed"),
            ({**RING5, "generator": {"type": "ring", "step": 1, "weights": [0.5, True, 1, 1, 1]}},
             None, "ring weights"),
            ({**PAIR, "generator": {"type": "explicit", "edges": [[1, 5.9, 0.5], [2, 1, 0.5]]}},
             None, "edge id"),
            ({**PAIR, "generator": {"type": "explicit", "edges": [[1, 2, True], [2, 1, 0.5]]}},
             None, "gain of edge [1, 2]"),
            ({**PAIR, "generator": {"type": "explicit", "edges": [[1, 2, "0.5"], [2, 1, 0.5]]}},
             None, "gain of edge [1, 2]"),
            (RING5, 5, "out"),
            (RING5, True, "out"),
            # a zero gain is no link: L would be the chain 1 -> 2 -> 3
            ({"n": 3, "generator": {"type": "explicit",
                                    "edges": [[1, 2, 0.5], [2, 3, 0.5], [3, 1, 0.0]]}},
             None, "NegativeWeight"),
        ],
    )
    @pytest.mark.parametrize("command", ["spectral", "run"])
    def test_strict_network_spec_and_out_are_exit_2(
        self, tmp_path, capsys, command, network, out, named
    ):
        data = {"network": network, "horizon": 20, "trials": 10}
        if out is not None:
            data["out"] = out
        assert cli.main([command, "--config", self.write(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err

    @pytest.mark.parametrize(
        "command, data",
        [
            # a dense 10^8 x 10^8 L: 71.1 PiB
            (["spectral"], {"network": {**PAIR, "n": 100_000_000}}),
            # beta(0..K) for K = 10^15: 7.11 PiB
            (["run"], {"network": RING5, "protocol": "bicc", "horizon": 10**15}),
            (["sweep-bits", "--bits", "12"],
             {"network": RING5, "protocol": "bicc", "horizon": 10**15}),
        ],
    )
    def test_unallocatable_sizes_are_exit_2(self, tmp_path, capsys, command, data):
        # both sizes exceed any address space, so numpy refuses them at once
        config = self.write(tmp_path, data)
        assert cli.main([command[0], "--config", config, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: Unable to allocate") and "PiB" in err

    @pytest.mark.parametrize("horizon", [10**18, 10**19])
    @pytest.mark.parametrize("command", [
        ["run", "--protocol", "classical"], ["run", "--protocol", "icc"],
        ["run", "--protocol", "bicc"], ["sweep-bits", "--bits", "12"],
    ])
    def test_unaddressable_horizons_are_exit_2(self, tmp_path, capsys, command, horizon):
        # (K+1) x n floats beyond numpy's index range: "array is too big" and
        # "Maximum allowed dimension exceeded", not a MemoryError
        config = self.write(tmp_path, {"network": RING5, "horizon": horizon})
        assert cli.main([command[0], "--config", config, *command[1:]]) == 2
        assert capsys.readouterr().err == (
            f"config error: horizon {horizon} is too long for 5 agents: a (horizon + 1) x n "
            "float array is larger than numpy can address\n"
        )

    def test_integral_floats_are_integers(self):
        config = pcsim.parse_config(
            {"network": RING5, "bits": 12.0, "horizon": 20.0, "trials": 10.0, "seed": 3.0,
             "overhead_bits": 0.0}
        )
        fields = (config.bits, config.horizon, config.trials, config.seed, config.overhead_bits)
        assert fields == (12, 20, 10, 3, 0)
        assert all(type(v) is int for v in fields)

    def test_bits_upper_bound(self, tmp_path, capsys):
        config = self.write(
            tmp_path, {"network": RING5, "protocol": "bicc", "horizon": 100, "trials": 10}
        )
        assert cli.main(["sweep-bits", "--config", config, "--bits", "12,64"]) == 2
        assert cli.main(["sweep-bits", "--config", config, "--bits", "54"]) == 2
        assert "config error" in capsys.readouterr().err
        assert cli.main(["run", "--config", config, "--bits", "54"]) == 2
        capsys.readouterr()
        assert cli.main(["sweep-bits", "--config", config, "--bits", "12,53"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[0] for row in rows] == ["12", "53"]
        assert all(row.endswith(",") for row in rows)  # empty error column

    @pytest.mark.parametrize("protocol", ["classical", "icc"])
    def test_slow_mixing_unquantized_run_completes(self, tmp_path, capsys, protocol):
        # these runs read no spectral data, so the w_left iteration that
        # fails on this ring is never started
        data = {"network": RING300, "protocol": protocol, "horizon": 200, "trials": 64}
        out = tmp_path / "out"
        assert cli.main(["run", "--config", self.write(tmp_path, data), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert {"trace.csv", "adversary.csv", "summary.json"} <= {p.name for p in out.iterdir()}

    @pytest.mark.parametrize("protocol", ["classical", "icc"])
    def test_non_contractive_network_runs_unquantized(self, tmp_path, capsys, protocol):
        data = {"network": CYCLE5, "protocol": protocol, "horizon": 50, "trials": 16}
        assert cli.main(["run", "--config", self.write(tmp_path, data)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["run", "--protocol", "bicc"], ["spectral"]])
    def test_non_contractive_network_rejected_where_spectrum_is_read(
        self, tmp_path, capsys, command
    ):
        data = {"network": CYCLE5, "horizon": 50, "trials": 16}
        config = self.write(tmp_path, data)
        assert cli.main([command[0], "--config", config, *command[1:]]) == 1
        assert "|lambda_2|" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["sweep-bits", "--bits", "8"]])
    def test_bad_x0_reported_before_the_spectral_analysis(self, tmp_path, capsys, command):
        # the spectral analysis of this network fails with NoConvergence
        # (exit 1); the misspelt x0 key is reported first
        data = {"network": CYCLE5, "protocol": "bicc", "horizon": 50, "trials": 16,
                "x0": {"uniform": [4.0, 6.0], "sed": 3}}
        config = self.write(tmp_path, data)
        assert cli.main([command[0], "--config", config, *command[1:]]) == 2
        assert capsys.readouterr().err == "config error: unknown x0 keys: ['sed']\n"

    @pytest.mark.parametrize("protocol", ["classical", "icc"])
    def test_overflowing_states_print_no_warnings(self, tmp_path, protocol):
        # x0 at the scale limit (5 * 5.9e153^2 is finite): the adversary's
        # squared errors, (2 * 5.9e153)^2, overflow to inf in the MC while
        # the closed form stays finite, which is a breach
        data = {"network": RING5, "protocol": protocol, "horizon": 50, "trials": 130,
                "x0": [5.9e153, -5.9e153, 1, 2, 3]}
        out = tmp_path / "out"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env.update(PYTHONPATH=str(Path(pcsim.__file__).parents[1]), PCSIM_THREADS="2")
        child = subprocess.run(
            [sys.executable, "-m", "pcsim.cli", "run", "--config", self.write(tmp_path, data),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 1
        assert child.stdout == (
            "invariant breach: Monte Carlo moments overflowed: E||e(k)||^2 is not finite "
            "from step 0\n"
        )
        assert child.stderr == ""
        with open(out / "adversary.csv", newline="") as fh:
            sigma_mc = [float(row["trace_sigma_mc"]) for row in csv.DictReader(fh)]
        assert math.inf in sigma_mc

    def test_diverging_states_print_no_warnings(self, tmp_path):
        # an x0 whose squared norm overflows is a config error, so the
        # states overflow here on their own, in a diverging 1-bit run
        data = {"network": RING5, "protocol": "bicc", "bits": 1, "horizon": 250,
                "trials": 130}
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env.update(PYTHONPATH=str(Path(pcsim.__file__).parents[1]), PCSIM_THREADS="2")
        child = subprocess.run(
            [sys.executable, "-m", "pcsim.cli", "run", "--config", self.write(tmp_path, data)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 1
        assert child.stdout == (
            "invariant breach: moments overflowed: tr Sigma(k) is not finite from step 235\n"
            "invariant breach: quantized run did not reach consensus\n"
        )
        assert child.stderr == ""

    @pytest.mark.parametrize("data", [
        {"x0": [1e200, 1, 2, 3, 4]},  # ||x||^2 overflows, and c with it
        {"x_range": [1e-300, 2e-300]},  # ||x||^2 underflows to 0: the floor test cannot fail
    ], ids=["overflow", "underflow"])
    def test_x0_out_of_scale_is_exit_2(self, tmp_path, capsys, data):
        config = self.write(tmp_path, {"network": RING5, "protocol": "icc", "horizon": 50,
                                       "trials": 4, **data})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: x0 is out of scale")
        assert not out.exists()
        assert cli.main(["sweep-bits", "--config", config, "--bits", "8"]) == 2
        assert capsys.readouterr().err.startswith("config error: x0 is out of scale")

    @pytest.mark.parametrize("x_range", [[-4.5e-299, 4.5e-299], [-5e168, 5e168]],
                             ids=["underflow", "overflow"])
    def test_quantized_x0_out_of_scale_is_exit_2(self, tmp_path, capsys, x_range):
        # x0 = 0 is in scale, but bicc starts from x0 quantized on the window's
        # scale: 3.4e-307 (||x||^2 underflows) or about 2e160 (it overflows)
        config = self.write(tmp_path, {"network": RING5, "protocol": "bicc", "bits": 27,
                                       "horizon": 20, "trials": 4, "x0": [0.0] * 5,
                                       "x_range": x_range})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: x(0), the quantized x0, is out")
        assert not out.exists()
        # sweep-bits records it in the width's row, as it does a bicc x0 outside x_range
        assert cli.main(["sweep-bits", "--config", config, "--bits", "27", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out / "sweep.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["error"].startswith("ConfigError: x(0), the quantized x0, is out of scale")
        assert row["converged"] == "0" and row["min_protection"] == ""

    def test_windows_below_float_resolution_are_no_saturation(self, tmp_path, capsys):
        # from step 181 beta(k) = 8.85e-16 is below the spacing of the states
        # near 5 (8.88e-16): trace.csv keeps the 255 raw flags, but they are
        # rounding, not a starved quantizer
        config = self.write(tmp_path, {"network": RING5, "protocol": "bicc", "bits": 12,
                                       "horizon": 250, "trials": 10, "seed": 3})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        with open(out / "trace.csv", newline="") as fh:
            flags = [(int(row["k"]), row["saturated"]) for row in csv.DictReader(fh)]
        assert sum(flag == "1" for _, flag in flags) == 255
        assert min(k for k, flag in flags if flag == "1") == 181
        assert cli.main(["sweep-bits", "--config", config, "--bits", "12", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out / "sweep.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["saturated"] == "0" and row["converged"] == "1"

    def test_verdict_does_not_depend_on_the_units_of_x(self, tmp_path):
        # a relative tolerance with an absolute floor of 1e-6 let these tiny
        # states "settle" at step 0, and the deviation then measured was the
        # initial disagreement: exit 1 "exceeds its certified bound" here,
        # "did not reach consensus" for the same run in units 1e17 smaller
        tiny = {"network": {"n": 4, "seed": 5, "generator": {"type": "ring", "step": 1,
                                                             "weights": "random"}},
                "protocol": "bicc", "bits": 43, "horizon": 54, "seed": 16,
                "x_range": [-8.318136294422058e-18, 5.775939452790221e-17]}
        large = dict(tiny, x_range=[v * 1e17 for v in tiny["x_range"]])
        verdicts = [run_in(tmp_path, name, data)[:2]
                    for name, data in (("tiny", tiny), ("large", large))]
        assert verdicts[0] == verdicts[1]
        assert verdicts[0] == (1, "invariant breach: quantized run did not reach consensus\n")

    def test_saturation_above_float_resolution_is_a_breach(self, tmp_path, capsys):
        # equal-weight averaging outruns the window schedule: the states
        # drift apart while every encode clamps at a stale window
        data = {"network": PAIR, "protocol": "bicc", "bits": 8, "horizon": 200, "trials": 4,
                "x0": [4.4, 5.6]}
        assert cli.main(["run", "--config", self.write(tmp_path, data)]) == 1
        out = capsys.readouterr().out
        assert "invariant breach: quantizer saturated at " in out

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under_a_file"])
    @pytest.mark.parametrize("command", [["run"], ["spectral"], ["sweep-bits", "--bits", "8"]])
    def test_unusable_out_is_exit_2(self, tmp_path, capsys, monkeypatch, command, below):
        def build_network(spec):
            raise AssertionError("the network was built before out was checked")

        monkeypatch.setattr(harness, "network_from_spec", build_network)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "x" if below else taken
        config = self.write(tmp_path, {"network": RING5, "protocol": "bicc", "horizon": 20,
                                       "trials": 4})
        assert cli.main([command[0], "--config", config, "--out", str(out), *command[1:]]) == 2
        assert capsys.readouterr().err == (
            f"config error: out {str(out)!r} is unusable: {str(taken)!r} is not a directory\n"
        )
        assert taken.read_text() == ""

    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "config"])
    @pytest.mark.parametrize("command", [["run"], ["spectral"], ["sweep-bits", "--bits", "8"]])
    def test_empty_out_is_exit_2(self, tmp_path, capsys, monkeypatch, command, flag):
        # an empty path names no directory: the run would write nothing and exit 0
        def build_network(spec):
            raise AssertionError("the network was built before out was checked")

        monkeypatch.setattr(harness, "network_from_spec", build_network)
        data = {"network": RING5, "protocol": "bicc", "horizon": 20, "trials": 4}
        config = self.write(tmp_path, data if flag else dict(data, out=""))
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        out = ["--out", ""] if flag else []
        assert cli.main([command[0], "--config", config, *out, *command[1:]]) == 2
        assert capsys.readouterr().err == (
            "config error: out must be a directory path (a non-empty string), got ''\n"
        )
        assert sorted(tmp_path.iterdir()) == before

    def test_spectral_prints_json(self, tmp_path, capsys):
        config = self.write(tmp_path, PAIR)  # bare network file
        assert cli.main(["spectral", "--config", config]) == 0
        assert json.loads(capsys.readouterr().out)["b_min"] == 4

    def test_verify_subcommand(self, capsys):
        assert cli.main(["verify"]) == 0
        capsys.readouterr()
