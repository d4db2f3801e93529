"""Every workload writes the benchmark's recorded bytes, and the bicc lean step is exact.

Runs the workloads of perfbench/workloads.json at seed 0 in process,
as the benchmark's CLI invocations do, and compares perfbench/check.py's
deterministic digests with the seed-0 entries in perfbench/digests/.
The `run` workloads run 2 trials instead of 2000 or 300: their
deterministic columns (the closed-form mean and tr Sigma(k) of
adversary.csv among them) do not depend on the trial count.  No bicc
run may rerun a block through the codec kernels, because the
benchmark's timing rests on the lean step doing all the work.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from pcsim import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
