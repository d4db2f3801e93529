"""Every workload writes the benchmark's recorded bytes, and the bicc lean step is exact.

Runs the workloads of perfbench/workloads.json at seed 0 in process,
as the benchmark's CLI invocations do, and compares perfbench/check.py's
deterministic digests with the seed-0 entries in perfbench/digests/.
The `run` workloads run 2 trials instead of 2000 or 300: their
deterministic columns (the closed-form mean and tr Sigma(k) of
adversary.csv among them) do not depend on the trial count.  No bicc
run may rerun a block through the codec kernels, because the
benchmark's timing rests on the lean step doing all the work.

The same digests, and every byte of two full runs, must come out of a
child process that runs numpy at its baseline SIMD level, with every
dispatch target above it disabled.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcsim import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]


def load_check():
    spec = importlib.util.spec_from_file_location("perfbench_check", PERFBENCH / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, trials",
    [("sweep-bits-ring60", None), ("run-bicc-study", 2), ("run-classical-study", 2)],
)
def test_recorded_digests_without_a_rerun(tmp_path, capsys, reruns, name, trials):
    check = load_check()
    workload = WORKLOADS[name]
    config = dict(workload["config"], seed=0)
    if trials is not None:
        config["trials"] = trials
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    args = [workload["command"], "--config", str(config_path), "--out", str(out)]
    if "bits" in workload:
        args += ["--bits", workload["bits"]]
    assert cli.main(args) == 0
    capsys.readouterr()

    files = check.expected_files(workload["command"], config["protocol"])
    recorded = json.loads((PERFBENCH / "digests" / f"{name}.json").read_text())["0"]
    assert check.deterministic_digests(out, files) == {f: recorded[f] for f in files}
    assert reruns == []


def enabled_dispatch():
    """numpy's dispatch targets above its baseline that this CPU runs."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


# MC columns included: every byte of these runs is compared
FULL_RUNS = {
    protocol: {"network": {"n": 25, "generator": {"type": "ring", "step": 1}},
               "protocol": protocol, "bits": 12, "gamma": 0.3, "horizon": 2000,
               "trials": 256, "seed": 0}
    for protocol in ("bicc", "classical")
}

# argv: the disabled targets, this file, the full runs as JSON, the output directory
BASELINE_CHILD = """
import json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
disabled, here, runs, out = sys.argv[1].split(), sys.argv[2], json.loads(sys.argv[3]), Path(sys.argv[4])
if any(__cpu_features__[target] for target in disabled):
    sys.exit("NPY_DISABLE_CPU_FEATURES took no effect")
import pytest
from pcsim import cli
if pytest.main(["-q", "-p", "no:cacheprovider", here + "::test_recorded_digests_without_a_rerun"]):
    sys.exit("the recorded digests differ")
for name, config in runs.items():
    (out / name).mkdir(parents=True)
    (out / name / "config.json").write_text(json.dumps(config))
    cli.main(["run", "--config", str(out / name / "config.json"), "--out", str(out / name / "out")])
"""


def full_outputs(out):
    return {name: {p.name: p.read_bytes() for p in (out / name / "out").iterdir()}
            for name in FULL_RUNS}


@pytest.mark.skipif(not enabled_dispatch(), reason="numpy dispatches nothing above its baseline")
def test_same_bytes_at_the_baseline_simd_level(tmp_path, capsys):
    disabled = " ".join(enabled_dispatch())
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, "-c", BASELINE_CHILD, disabled, __file__, json.dumps(FULL_RUNS),
         str(tmp_path / "baseline")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]

    for name, config in FULL_RUNS.items():
        (tmp_path / "default" / name).mkdir(parents=True)
        config_path = tmp_path / "default" / name / "config.json"
        config_path.write_text(json.dumps(config))
        cli.main(["run", "--config", str(config_path), "--out", str(config_path.parent / "out")])
    capsys.readouterr()
    default = full_outputs(tmp_path / "default")
    assert all(len(files) >= 3 for files in default.values())
    assert full_outputs(tmp_path / "baseline") == default
