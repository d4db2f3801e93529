"""Digest checks for the benchmark's pcsim invocations.

Deterministic artifacts (trace.csv, deviation.json, sweep.csv, the
closed-form columns of adversary.csv, floor and c in summary.json) must
hash to the digests recorded for the workload and seed.  The Monte
Carlo columns, whose random draws a later version may change, are
checked by mc_check.py instead.  Files are hashed in chunks so that
the benchmark process stays small (see run.py).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CHUNK = 1 << 20
ADVERSARY_CF_COLUMNS = (0, 1, 3, 5, 6)  # k, agent, e_mean_cf, trace_sigma_cf, protection_level


class CheckFailed(Exception):
    """A pcsim output differs from what the benchmark expects."""


def expected_files(command, protocol):
    if command == "sweep-bits":
        return ["sweep.csv"]
    files = ["adversary.csv", "summary.json", "trace.csv"]
    return files + ["deviation.json"] if protocol == "bicc" else files


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(CHUNK):
            h.update(chunk)
    return h.hexdigest()


def file_digests(out_dir, files):
    """SHA-256 of each whole output file."""
    return {name: _sha256(Path(out_dir) / name) for name in files}


def deterministic_digests(out_dir, files):
    """SHA-256 of the parts of each output that do not depend on MC draws."""
    out = Path(out_dir)
    digests = {}
    for name in files:
        path = out / name
        if name == "adversary.csv":
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for line in fh:
                    fields = line.rstrip(b"\r\n").split(b",")
                    h.update(b",".join(fields[i] for i in ADVERSARY_CF_COLUMNS) + b"\n")
            digests[name] = h.hexdigest()
        elif name == "summary.json":
            summary = json.loads(path.read_text())
            part = json.dumps({key: summary[key] for key in ("floor", "c")}, sort_keys=True)
            digests[name] = hashlib.sha256(part.encode()).hexdigest()
        else:
            digests[name] = _sha256(path)
    return digests


def check_outputs(out_dir, files, reference):
    """Compare the deterministic digests of out_dir against a reference dict."""
    got = deterministic_digests(out_dir, files)
    wrong = sorted(name for name in files if got[name] != reference[name])
    if wrong:
        raise CheckFailed(f"deterministic outputs differ from the recorded digests: {wrong}")
