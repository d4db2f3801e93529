"""Command-line entry point.

    pcsim spectral   --config FILE            spectral gap + bit budget
    pcsim run        --config FILE [...]      one experiment, full outputs
    pcsim sweep-bits --config FILE --bits ... quantized runs across bit widths
    pcsim verify                              built-in invariant suite

--out sets the config's "out", and the run flags its keys of the same
names, for one parse of the merged config.
Exit codes: 0 success, 1 invariant breach / failed check (among them
Monte Carlo moments that overflow where the closed form is finite, a
deviation beyond its certified bound, and agents that settle with no
certified bound on a value that is not finite or lies outside
[x_min - beta(1), x_max + beta(1)], which is no consensus), 2 bad config
(a gain not > 0, an x_range whose beta(0) or beta(1) overflows, an x0
whose squared norm overflows or underflows, a run's bicc x0 outside
x_range or bicc bits whose beta(k) overflows before the horizon, arrays
that cannot be allocated).  sweep-bits records the two bicc causes in
the width's row instead, and exits 0.
PCSIM_THREADS caps the Monte Carlo worker pool only (default 1; below 1
is a bad config), which also never outgrows the CPU count or the number
of 64-trial blocks.  `run` writes trace.csv from one forked child process
while the Monte Carlo runs; a failed run leaves no trace.csv.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import ConfigError, ConsensusError


def _parse_bits_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--bits expects comma-separated integers, got {text!r}") from None
    return values  # cmd_sweep_bits checks each width


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcsim",
        description="Privacy-protected consensus simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options of all but verify
    common.add_argument("--config", required=True)
    common.add_argument("--out", default=None)

    sub.add_parser("spectral", parents=[common], help="spectral summary and bit requirements")

    run = sub.add_parser("run", parents=[common], help="run one experiment")
    run.add_argument("--protocol", choices=("classical", "icc", "bicc"))
    run.add_argument("--bits", type=int)
    run.add_argument("--gamma", type=float)
    run.add_argument("--horizon", type=int)
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", type=int)

    sweep = sub.add_parser("sweep-bits", parents=[common], help="compare bit widths on one config")
    sweep.add_argument("--bits", required=True, help="comma-separated widths, e.g. 10,12,15")

    sub.add_parser("verify", help="run the built-in invariant checks")
    return parser


_RUN_FLAGS = ("protocol", "bits", "gamma", "horizon", "trials", "seed")


def _config(args):
    """The config file with --out, and for run the run flags, merged in; parsed once."""
    data = harness.read_config(args.config)
    keys = ("out", *_RUN_FLAGS) if args.command == "run" else ("out",)
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    if isinstance(data, dict):
        data = {**data, **flags}
    return harness.parse_config(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return harness.cmd_verify()
        config = _config(args)
        if args.command == "run":
            return harness.cmd_run(config)
        if args.command == "spectral":
            return harness.cmd_spectral(config)
        return harness.cmd_sweep_bits(config, _parse_bits_list(args.bits))
    except (ConfigError, MemoryError) as exc:
        # a network or horizon too large to allocate is a bad config
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConsensusError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
