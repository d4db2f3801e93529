"""The package root's public surface: each module's __all__, re-exported."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pcsim
from pcsim import adversary, errors, graph, harness, metrics, protocols, quantizer

MODULES = [adversary, errors, graph, harness, metrics, protocols, quantizer]
ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "CodeOutOfRange", "ConfigError", "ConsensusError", "ConsensusNetwork", "DeviationReport",
    "DimensionMismatch", "EmpiricalMoments", "EtaOutOfRange", "ExperimentConfig",
    "InitialStateOutOfRange", "Lambda2NotContractive", "MAX_BITS", "MomentRecursion",
    "NegativeWeight", "NoConvergence", "NonPositiveBeta", "NotConverged",
    "NotStronglyConnected", "ProtectionReport", "ProtocolMismatch", "RowSumExceeded",
    "SimulationTrace", "SpectralData", "__version__", "beta_sequence", "beta_sequence_summed",
    "bits_for_rate", "build_network", "check_x0_inside", "closed_form_moments", "cmd_run",
    "cmd_spectral", "cmd_sweep_bits", "cmd_verify", "consensus_value", "convergence_step",
    "decode", "deviation_bound", "effective_eta", "encode", "initial_states", "load_config",
    "min_bits", "min_bits_threshold", "network_from_spec", "parse_config",
    "protection_report", "random_network", "read_config", "required_total_rate",
    "ring_lattice", "run_adversary_classical_mc", "run_adversary_icc_mc", "run_bicc",
    "run_classical", "run_icc", "spectral_analysis", "verify_deviation",
    "verify_projector_identities",
}


def test_all_has_no_duplicates():
    assert len(pcsim.__all__) == len(set(pcsim.__all__))
    for module in MODULES:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__


def test_all_is_the_union_of_the_module_lists():
    union = {name for module in MODULES for name in module.__all__}
    assert set(pcsim.__all__) == union | {"__version__"}
    # the 55 names of the hand-written root, plus the four it used to leave out
    assert set(pcsim.__all__) == PUBLIC and len(PUBLIC) == 59


def test_each_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pcsim, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_errors_lists_every_error_class():
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.ConsensusError)}
    assert set(errors.__all__) == classes and len(classes) == 14


def test_star_import_binds_exactly_all():
    code = ("g = set(globals())\nfrom pcsim import *\nimport json\n"
            "print(json.dumps(sorted(set(globals()) - g - {'g', 'json'})))")
    env = {**os.environ, "PYTHONPATH": str(Path(pcsim.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60, check=True)
    union = {name for module in MODULES for name in module.__all__} | {"__version__"}
    assert json.loads(child.stdout) == sorted(pcsim.__all__) == sorted(union)


def test_names_read_as_pcsim_attributes_resolve():
    sources = [ROOT / "README.md", *sorted((ROOT / "tests").glob("*.py"))]
    names = set()
    for path in sources:
        names |= set(re.findall(r"\bpcsim\.([A-Za-z_]\w*)", path.read_text()))
    assert names  # the scan found the library's uses
    for name in sorted(names):
        if not hasattr(pcsim, name):
            importlib.import_module(f"pcsim.{name}")  # a submodule such as pcsim.cli
