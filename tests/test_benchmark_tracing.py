"""The benchmark's traced mode still finds every layer it wraps.

perfbench/traced.py wraps module attributes of the package from outside
(protocol runners, codec, adversary, spectral analysis, commands) and
reduces the calls to per-layer self times.  A renamed or inlined
attribute silently drops its span, so these tests run the script on
tiny configs and check that each layer shows up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcsim import graph, harness, protocols

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"
RING5 = {"n": 5, "generator": {"type": "ring", "step": 1}}
EVERY_COMMAND = {"graph.build", "protocols.run", "adversary.cf", "adversary.protection",
                 "harness.cmd"}


def traced(tmp_path, config, *args):
    """Run one CLI command under traced.py; return its spans JSON."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PCSIM_THREADS="1")
    child = subprocess.run(
        [sys.executable, str(TRACED), str(spans), "--", *args,
         "--config", str(config_path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    return json.loads(spans.read_text())


@pytest.mark.parametrize("protocol", ["classical", "icc", "bicc"])
def test_run_spans(tmp_path, protocol):
    # 7 bits: no saturation flag is raised (at 12 bits this 5-ring run flags
    # 255 raw events, where its windows fall below float resolution)
    config = {"network": RING5, "protocol": protocol, "bits": 7, "horizon": 250,
              "trials": 4, "seed": 3}
    spans = traced(tmp_path, config, "run")
    expected = EVERY_COMMAND | {"adversary.mc"}
    if protocol == "bicc":
        expected |= {"graph.spectral", "metrics.deviation", "quantizer.codec"}
        # the step-0 encode and decode; trace.csv derives its codes with the kernel
        assert spans["counts"]["quantizer.codec_calls"] == 2
        assert spans["counts"]["graph.spectral_iterations"] > 0
    else:
        # only bicc reads spectral data
        assert "graph.spectral" not in spans["self_s"]
        assert "graph.spectral_iterations" not in spans["counts"]
    assert expected <= set(spans["self_s"])
    assert spans["counts"]["protocols.steps"] == 250
    assert spans["counts"]["adversary.mc_trial_steps"] == 4 * 251


def test_sweep_bits_spans(tmp_path):
    config = {"network": RING5, "protocol": "bicc", "horizon": 250, "seed": 3}
    spans = traced(tmp_path, config, "sweep-bits", "--bits", "7,8")
    expected = EVERY_COMMAND | {"graph.spectral", "metrics.deviation", "quantizer.codec"}
    assert expected <= set(spans["self_s"])
    assert "adversary.mc" not in spans["self_s"]
    assert spans["counts"]["graph.spectral_iterations"] > 0
    assert spans["counts"]["protocols.steps"] == 2 * 250
    assert spans["counts"]["quantizer.codec_calls"] == 2 * 2


def test_sweep_bits_saturation_count(tmp_path):
    config = {"network": RING5, "protocol": "bicc", "horizon": 250, "seed": 3}
    spans = traced(tmp_path, config, "sweep-bits", "--bits", "7,12")
    parsed = harness.parse_config(config)
    network = harness.network_from_spec(parsed.network)
    spectral = graph.spectral_analysis(network)
    x0 = harness.initial_states(parsed.x0_spec, network.n, parsed.seed)
    events = [
        int(protocols.run_bicc(network, spectral, x0, bits, parsed.x_range, 250).saturated.sum())
        for bits in (7, 12)
    ]
    # 12 bits raises raw flags on this ring (no breach: they are below float
    # resolution); the counter counts every raw flag
    assert events[1] > 0
    assert spans["counts"]["quantizer.saturated_events"] == sum(events)
