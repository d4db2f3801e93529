"""Command-line entry point.

    pcsim spectral   --config FILE            spectral gap + bit budget
    pcsim run        --config FILE [...]      one experiment, full outputs
    pcsim sweep-bits --config FILE --bits ... quantized runs across bit widths
    pcsim verify                              built-in invariant suite

Exit codes: 0 success, 1 invariant breach / failed check, 2 bad config
(including a config whose arrays cannot be allocated).
PCSIM_THREADS caps the Monte Carlo worker pool (default 1; below 1 is a
bad config).
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

    spectral = sub.add_parser("spectral", help="network spectral summary and bit requirements")
    spectral.add_argument("--config", required=True)
    spectral.add_argument("--out", default=None)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--protocol", choices=("classical", "icc", "bicc"))
    run.add_argument("--bits", type=int)
    run.add_argument("--gamma", type=float)
    run.add_argument("--horizon", type=int)
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep-bits", help="compare bit widths on one config")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--bits", required=True, help="comma-separated widths, e.g. 10,12,15")
    sweep.add_argument("--out", default=None)

    sub.add_parser("verify", help="run the built-in invariant checks")
    return parser


_RUN_FLAGS = ("protocol", "bits", "gamma", "horizon", "trials", "seed")


def _run_config(args):
    """The config file with the run flags given on the command line merged in, parsed once."""
    data = harness.read_config(args.config)
    flags = {key: getattr(args, key) for key in _RUN_FLAGS if getattr(args, key) is not None}
    if isinstance(data, dict):
        data = {**data, **flags}
    return harness.parse_config(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return harness.cmd_verify()
        if args.command == "run":
            return harness.cmd_run(_run_config(args), out_dir=args.out)
        config = harness.load_config(args.config)
        if args.command == "spectral":
            return harness.cmd_spectral(config, out_dir=args.out)
        return harness.cmd_sweep_bits(config, _parse_bits_list(args.bits), out_dir=args.out)
    except (ConfigError, MemoryError) as exc:
        # a network or horizon too large to allocate is a bad config
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConsensusError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
