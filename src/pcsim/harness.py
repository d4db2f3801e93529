"""Experiment orchestration: configs, runners, and file outputs.

Reads JSON experiment configs, builds the network and initial states,
drives the protocol + adversary + metrics pipeline, and writes the
plot-ready artifacts:

* trace.csv      — k, agent, x, xi, xi_q, code, alpha, beta, saturated
* adversary.csv  — k, agent, e_mean_mc, e_mean_cf, trace_sigma_mc,
                   trace_sigma_cf, protection_level
* summary.json   — gamma, trials, min_protection, asymptotic_protection,
                   floor, c
* deviation.json — x_inf_ideal, x_inf_observed, deviation, bound, eta,
                   b, converged (quantized runs)
* spectral.json  — n, lambda2, w_left, b_min, total_rate_min
* sweep.csv      — per-bit-width convergence/protection comparison

All outputs are pure functions of (config contents, CLI flags): rerunning
the same config with the same seed reproduces them byte for byte,
regardless of PCSIM_THREADS and of numpy's SIMD dispatch level.

`cmd_run` writes trace.csv from a forked child process (inline where
os.fork is missing) while it runs the Monte Carlo adversary, into
trace.csv.part, renamed onto trace.csv once the child exits 0.  A run
that fails kills and reaps the child and removes the part file, so it
leaves no trace.csv and no process behind.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adversary as adversary_mod
from . import graph, metrics, protocols, quantizer
from .errors import (ConfigError, ConsensusError, InitialStateOutOfRange, NonPositiveBeta,
                     NotConverged)

__all__ = [
    "ExperimentConfig",
    "read_config",
    "load_config",
    "parse_config",
    "network_from_spec",
    "initial_states",
    "cmd_spectral",
    "cmd_run",
    "cmd_sweep_bits",
    "cmd_verify",
]

_PROTOCOLS = ("classical", "icc", "bicc")
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # below it a square underflows past normal floats


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters (defaults: the 25-ring study)."""

    network: dict
    x0_spec: dict | list
    protocol: str = "icc"
    bits: int = 12
    gamma: float = 0.5
    horizon: int = 1000
    trials: int = 10_000
    seed: int = 0
    x_range: tuple[float, float] = (4.0, 6.0)
    overhead_bits: int = 0
    out_dir: str | None = None


def _workers() -> int:
    """The MC worker count from PCSIM_THREADS (default 1); ConfigError unless >= 1."""
    raw = os.environ.get("PCSIM_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"PCSIM_THREADS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"PCSIM_THREADS must be at least 1, got {raw!r}")
    return workers


def _check_bits(bits) -> int:
    """A quantizer width in 1..quantizer.MAX_BITS, else ConfigError."""
    if not 1 <= bits <= quantizer.MAX_BITS:
        raise ConfigError(f"bits must be in 1..{quantizer.MAX_BITS}, got {bits}")
    return bits


def _check_finite(values, what):
    bad = [float(v) for v in values if not math.isfinite(v)]
    if bad:
        raise ConfigError(f"{what} must be finite, got {bad[0]}")


def _convert(value, what, convert):
    """convert(value); a value it cannot take is a ConfigError naming `what`."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} has a bad value: {value!r}") from None


def _real(value) -> float:
    """A real number as a float; strings and booleans are not numbers."""
    is_number = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, (bool, np.bool_)) or not is_number:
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _integral(value) -> int:
    """An integral number (12 or 12.0, not 12.7, True or "12") as an int."""
    if not _real(value).is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _floats(values):
    return tuple(_real(v) for v in values)


def _at_least(value, what, lo) -> int:
    """An integral config value no smaller than lo, else ConfigError naming `what`."""
    value = _convert(value, what, _integral)
    if value < lo:
        raise ConfigError(f"{what} must be >= {lo}, got {value}")
    return value


def _check_keys(data, known, what):
    """ConfigError unless `data` is a mapping whose keys are all in `known`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _wrapped(data):
    """A bare network description (a mapping with "n" and no "network") as {"network": data}."""
    if isinstance(data, dict) and "n" in data and "network" not in data:
        return {"network": data}
    return data


def read_config(path):
    """The JSON value of a config file, with a bare network description wrapped."""
    try:
        with open(path) as fh:
            return _wrapped(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse a JSON config file into an ExperimentConfig."""
    return parse_config(read_config(path))


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config mapping; unknown keys and bad values raise ConfigError."""
    data = _wrapped(data)
    known = {
        "network", "x0", "protocol", "bits", "gamma", "horizon",
        "trials", "seed", "x_range", "overhead_bits", "out",
    }
    _check_keys(data, known, "config")
    if "network" not in data:
        raise ConfigError("config needs a 'network' section")

    protocol = data.get("protocol", "icc")
    if protocol not in _PROTOCOLS:
        raise ConfigError(f"protocol must be one of {_PROTOCOLS}, got {protocol!r}")
    gamma = _convert(data.get("gamma", 0.5), "gamma", _real)
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma must be in (0, 1), got {gamma}")
    horizon = _at_least(data.get("horizon", 1000), "horizon", 1)
    trials = _at_least(data.get("trials", 10_000), "trials", 2)
    bits = _check_bits(_convert(data.get("bits", 12), "bits", _integral))
    x_range = _convert(data.get("x_range", (4.0, 6.0)), "x_range", _floats)
    try:
        quantizer._schedule_start(x_range)  # also a ValueError unless two values
    except ValueError as exc:
        raise ConfigError(f"x_range: {exc}") from None
    seed = _at_least(data.get("seed", 0), "seed", 0)
    x0_spec = data.get("x0", {"uniform": list(x_range)})
    overhead = _at_least(data.get("overhead_bits", 0), "overhead_bits", 0)
    out_dir = data.get("out")
    if "out" in data and not isinstance(out_dir, str):
        raise ConfigError(f"out must be a directory path (a string), got {out_dir!r}")
    return ExperimentConfig(
        network=data["network"],
        x0_spec=x0_spec,
        protocol=protocol,
        bits=bits,
        gamma=gamma,
        horizon=horizon,
        trials=trials,
        seed=seed,
        x_range=x_range,
        overhead_bits=overhead,
        out_dir=out_dir,
    )


def network_from_spec(spec: dict) -> graph.ConsensusNetwork:
    """Build a network from its file description (1-based agent ids).

    Edge row [i, j, kappa] is build_network's link (i, j, kappa); unknown
    keys, other rows and random ring weights without a seed are ConfigErrors.
    """
    try:
        _check_keys(spec, {"n", "seed", "generator"}, "network")
        n = _convert(spec["n"], "network n", _integral)
        seed = None if spec.get("seed") is None else _at_least(spec["seed"], "network seed", 0)
        gen = spec["generator"]
        kind = gen["type"]
        if kind == "ring":
            _check_keys(gen, {"type", "step", "weights"}, "ring generator")
            step = _convert(gen["step"], "ring step", _integral)
            weights = gen.get("weights", "uniform")
            if not isinstance(weights, str):
                weights = _convert(weights, "ring weights", _floats)
                _check_finite(weights, "ring weights")
            if weights == "random" and seed is None:
                raise ConfigError("random ring weights need a network seed")
            return graph.ring_lattice(n, step, weights, seed=seed)
        if kind == "explicit":
            _check_keys(gen, {"type", "edges"}, "explicit generator")
            links = []
            for row in gen["edges"]:
                if not isinstance(row, (list, tuple)) or len(row) != 3:
                    raise ConfigError(f"edge row must be [i, j, kappa], got {row!r}")
                i = _convert(row[0], "edge id", _integral)
                j = _convert(row[1], "edge id", _integral)
                kappa = _convert(row[2], f"gain of edge [{i}, {j}]", _real)
                _check_finite([kappa], f"gain of edge [{i}, {j}]")
                links.append((i, j, kappa))
            return graph.build_network(n, links)
        raise ConfigError(f"unknown generator type {kind!r}")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad network spec: {exc!r}") from exc
    except ConsensusError as exc:
        raise ConfigError(f"invalid network: {type(exc).__name__}: {exc}") from exc


def initial_states(x0_spec, n, default_seed):
    """Initial state vector from an explicit list or a seeded uniform draw.

    A draw is {"uniform": [lo, hi]} with an optional "seed", which
    defaults to default_seed; any other key is a ConfigError.  So is an
    x0 whose squared norm overflows (n max|x0|^2 is inf) or underflows
    (0 < max|x0| < the square root of the smallest normal float).
    """
    if isinstance(x0_spec, (list, tuple)):
        x0 = np.array(_convert(x0_spec, "x0", _floats))
        if x0.shape != (n,):
            raise ConfigError(f"x0 has {x0.size} entries for {n} agents")
        _check_finite(x0, "x0")
    elif isinstance(x0_spec, dict) and "uniform" in x0_spec:
        _check_keys(x0_spec, {"uniform", "seed"}, "x0")
        bounds = _convert(x0_spec["uniform"], "x0 uniform range", _floats)
        if len(bounds) != 2:
            raise ConfigError(f"x0 uniform range must be [lo, hi], got {bounds}")
        lo, hi = bounds
        _check_finite([lo, hi, hi - lo], "x0 uniform range and its width")
        if hi <= lo:
            raise ConfigError(f"x0 uniform range [{lo}, {hi}] is empty")
        rng = np.random.default_rng(_at_least(x0_spec.get("seed", default_seed), "x0 seed", 0))
        x0 = rng.uniform(lo, hi, size=n)
    else:
        spec = "a list or {'uniform': [lo, hi], 'seed': s}"
        raise ConfigError(f"x0 must be {spec}, got {x0_spec!r}")
    peak = float(np.max(np.abs(x0), initial=0.0))
    if not math.isfinite(n * peak * peak) or 0.0 < peak < _SQRT_TINY:
        raise ConfigError(f"x0 is out of scale: n * max|x0|^2 must be finite and max|x0| "
                          f"0 or at least {_SQRT_TINY:.3g}, got max|x0| = {peak:.3g}")
    return x0


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    if isinstance(value, np.integer):
        return int(value)
    return value


_CHUNK_ROWS = 4096  # about this many lines per write: bounds the text held in memory


def _csv_lines(row, cells, per_step, k0=0):
    """CSV text for rows (k, agent), steps k0, k0+1, ..., in chunks of steps.

    `row` is one line: "{0}" takes the step, "{1}", "{2}", ... the
    per-step columns `per_step` (written with %.17g), and its
    %-fields the agent id and then the (step, agent) columns `cells`.
    Each chunk is converted with .tolist() once; lines end in CRLF,
    as csv.writer ends them.
    """
    steps, n = cells[0].shape
    agents = range(1, n + 1)
    chunk = max(1, _CHUNK_ROWS // n)
    for lo in range(0, steps, chunk):
        hi = min(lo + chunk, steps)
        values = [c[lo:hi].tolist() for c in cells]
        shared = [["%.17g" % v for v in c[lo:hi].tolist()] for c in per_step]
        lines = []
        for j in range(hi - lo):
            line = row.format(k0 + lo + j, *[s[j] for s in shared])
            lines.extend(map(line.__mod__, zip(agents, *[v[j] for v in values])))
        yield "".join(lines)


def trace_csv(trace):
    """trace.csv as text chunks (quantizer columns only for bicc).

    Row (k, agent) holds the state x(k) and the innovation xi(k)
    applied during [k, k+1] (blank at the final k); the quantizer
    columns describe the quantization event at step k, whose input is
    the previous innovation xi(k-1) (step 0 quantizes the initial
    state).  The trace derives its innovations, codes and windows one
    chunk of steps at a time, so no whole column is built.
    """
    yield "k,agent,x,xi,xi_q,code,alpha,beta,saturated\r\n"
    K, x = trace.horizon, trace.x
    bicc = trace.protocol == "bicc"
    steps = max(1, _CHUNK_ROWS // trace.n)
    for lo in range(0, K, steps):
        hi = min(lo + steps, K)
        cells = [x[lo:hi], trace.innovations(lo, hi)]
        if bicc:
            codes, alpha = trace.quantizer_columns(lo, hi)
            yield from _csv_lines(
                "{0},%d,%.17g,%.17g,%.17g,%d,%.17g,{1},%d\r\n",
                [*cells, trace.sent[lo + 1 : hi + 1], codes, alpha, trace.saturated[lo:hi]],
                [trace.beta[lo:hi]],
                lo,
            )
        else:
            yield from _csv_lines("{0},%d,%.17g,%.17g,,,,,\r\n", cells, [], lo)
    if bicc:
        codes, alpha = trace.quantizer_columns(K, K + 1)
        yield from _csv_lines(
            "{0},%d,%.17g,,,%d,%.17g,{1},%d\r\n",
            [x[K:], codes, alpha, trace.saturated[K:]],
            [trace.beta[K:]],
            K,
        )
    else:
        yield from _csv_lines("{0},%d,%.17g,,,,,,\r\n", [x[K:]], [], K)


def adversary_csv(trace, mc, moments, report):
    """adversary.csv as text chunks: per-step adversary statistics."""
    yield ("k,agent,e_mean_mc,e_mean_cf,trace_sigma_mc,trace_sigma_cf,"
           "protection_level\r\n")
    yield from _csv_lines(
        "{0},%d,%.17g,%.17g,{1},{2},{3}\r\n",
        [mc.mean, moments.mean],
        [mc.sq_norm, moments.trace_second_moment, report.protection],
    )


def _write_text(path, chunks):
    with open(path, "w", newline="") as fh:
        fh.writelines(chunks)


def _write_in_child(path, chunks):
    """Start writing `chunks` to `path` in a forked child process; (pid, fork warnings).

    The child never returns into the caller's frames: it leaves through
    os._exit, with 0 once the file is written and 1 after printing the
    traceback of any error.  Warnings that os.fork issues are recorded,
    not raised, so that a warning filter set to "error" cannot lose the
    pid; the caller reissues them once it holds the pid.  Where os.fork
    is missing the text is written here, inline, and the pid is None.
    """
    fork = getattr(os, "fork", None)
    if fork is None:
        _write_text(path, chunks)
        return None, []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pid = fork()
    if pid:
        return pid, caught
    try:
        _write_text(path, chunks)
        os._exit(0)
    except BaseException:
        try:
            import sys
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(1)


def _out_path(config):
    """The config's output directory, created if missing; None if it names none."""
    path = Path(config.out_dir) if config.out_dir else None
    if path:
        path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_spectral(config: ExperimentConfig) -> int:
    """Write/print the network's spectral summary and bit requirements."""
    network = network_from_spec(config.network)
    spectral = graph.spectral_analysis(network)
    b_min = quantizer.min_bits(network.n, spectral.lambda2_mag)
    total = quantizer.required_total_rate(network, spectral, config.overhead_bits)
    payload = {
        "n": network.n,
        "lambda2": _jsonable(spectral.lambda2_mag),
        "w_left": _jsonable(spectral.w_left),
        "b_min": b_min,
        "total_rate_min": int(math.ceil(total)),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    path = _out_path(config)
    if path:
        _write_json(path / "spectral.json", payload)
    return 0


def _run_protocol(config, network, spectral, x0):
    if config.protocol == "classical":
        return protocols.run_classical(network, x0, config.horizon)
    if config.protocol == "icc":
        return protocols.run_icc(network, x0, config.horizon)
    return protocols.run_bicc(network, spectral, x0, config.bits, config.x_range, config.horizon)


def _adversary_mc(trace, gamma, trials, seed, workers=1):
    """The MC ensemble of the adversary that listens to the trace's protocol."""
    if trace.protocol == "classical":
        return adversary_mod.run_adversary_classical_mc(trace, gamma, trials, seed, workers)
    return adversary_mod.run_adversary_icc_mc(trace, gamma, trials, seed, workers)


def cmd_run(config: ExperimentConfig) -> int:
    """Run one experiment end to end; 0 iff every runtime invariant held.

    Only `bicc` reads spectral data, so classical and icc runs take any
    network that build_network accepts, a non-contractive one included.
    A `bicc` x0 outside x_range is a ConfigError, before any analysis,
    and so is a width whose window schedule overflows within the horizon.
    """
    workers = _workers()
    network = network_from_spec(config.network)
    x0 = initial_states(config.x0_spec, network.n, config.seed)
    if config.protocol == "bicc":
        try:
            protocols.check_x0_inside(x0, config.x_range)
        except InitialStateOutOfRange as exc:
            raise ConfigError(f"x0: {exc}") from None
    spectral = graph.spectral_analysis(network) if config.protocol == "bicc" else None
    try:
        trace = _run_protocol(config, network, spectral, x0)
    except NonPositiveBeta as exc:
        raise ConfigError(f"bits: {exc}") from None

    # trace.csv depends on the trace alone, so a child process writes it
    # while this one runs the MC; the fork precedes the MC's threads
    path = _out_path(config)
    part = path / "trace.csv.part" if path else None
    pid = None
    try:
        if part:
            pid, caught = _write_in_child(part, trace_csv(trace))
            for warning in caught:  # raised here, the finally below reaps the child
                warnings.warn(warning.message)
        breaches = _analyse_and_write(config, spectral, x0, trace, workers, path)
        if pid is not None:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = None
            if status:
                raise OSError(f"writing {path / 'trace.csv'} failed (exit status {status})")
        if part:
            os.replace(part, path / "trace.csv")
            part = None
    finally:
        if pid is not None:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if part is not None:
            part.unlink(missing_ok=True)
    for breach in breaches:
        print(f"invariant breach: {breach}")
    return 1 if breaches else 0


def _analyse_and_write(config, spectral, x0, trace, workers, path):
    """The adversary and deviation analysis of a run; its breaches.

    Writes adversary.csv, summary.json and deviation.json into `path`,
    if it is set.
    """
    mc = _adversary_mc(trace, config.gamma, config.trials, config.seed, workers)
    moments = adversary_mod.closed_form_moments(trace, config.gamma)
    report = adversary_mod.protection_report(trace, moments)

    breaches = []
    finite_cf = np.isfinite(moments.trace_second_moment)
    if math.isnan(moments.min_eigenvalue):  # x0 is finite and in scale: the run diverged
        step = int(np.argmin(finite_cf))
        breaches.append(f"moments overflowed: tr Sigma(k) is not finite from step {step}")
    else:
        if moments.min_eigenvalue < -1e-10:
            breaches.append(f"second-moment matrix lost PSD: min eig {moments.min_eigenvalue:.3e}")
        # a trial's squared error can overflow where the expectation does not
        finite_mc = np.isfinite(mc.sq_norm) & np.isfinite(mc.mean).all(axis=1)
        lost = np.flatnonzero(finite_cf & ~finite_mc)
        if lost.size:
            breaches.append("Monte Carlo moments overflowed: E||e(k)||^2 is not finite "
                            f"from step {int(lost[0])}")
    shortfall = report.floor - report.epsilon_observed
    if shortfall > 1e-9:  # False for an overflowed trace, which is reported above
        breaches.append(f"protection floor violated by {shortfall:.3e}")

    deviation_payload = None
    if config.protocol == "bicc":
        if bool(trace.saturated.any()):
            breaches.append(f"quantizer saturated at {int(trace.saturated.sum())} events")
        try:
            dev = metrics.verify_deviation(trace, spectral, x0)
        except NotConverged:
            dev = None
            breaches.append("quantized run did not reach consensus")
        if dev is not None and dev.slack is not None and dev.slack < 0:
            breaches.append(f"deviation {dev.deviation:.3e} exceeds its certified bound "
                            f"{dev.bound:.3e}")
        deviation_payload = {
            "x_inf_ideal": _jsonable(graph.consensus_value(spectral, x0)),
            **{key: None if dev is None else _jsonable(getattr(dev, key))
               for key in ("x_inf_observed", "deviation", "bound", "eta")},
            "b": trace.bits,
            "converged": dev is not None,
        }

    if path:
        _write_text(path / "adversary.csv", adversary_csv(trace, mc, moments, report))
        _write_json(
            path / "summary.json",
            {
                "gamma": config.gamma,
                "trials": config.trials,
                "min_protection": _jsonable(report.min_protection),
                "asymptotic_protection": _jsonable(report.asymptotic_protection),
                "floor": _jsonable(report.floor),
                "c": _jsonable(report.c),
            },
        )
        if deviation_payload is not None:
            _write_json(path / "deviation.json", deviation_payload)
    return breaches


def cmd_sweep_bits(config: ExperimentConfig, bits_list) -> int:
    """Compare quantized runs across bit widths; failures are recorded, not fatal."""
    if not bits_list:
        raise ConfigError("sweep needs a non-empty bits list")
    bits_list = [_check_bits(_convert(bits, "bits", _integral)) for bits in bits_list]
    network = network_from_spec(config.network)
    x0 = initial_states(config.x0_spec, network.n, config.seed)
    spectral = graph.spectral_analysis(network)

    rows = [_sweep_row(config, network, spectral, x0, bits) for bits in bits_list]

    header = ["b", "converged", "convergence_step", "final_envelope_width",
              "deviation", "bound", "min_protection", "saturated", "error"]
    path = _out_path(config)
    if path:
        _write_csv(path / "sweep.csv", header, ([row.get(h, "") for h in header] for row in rows))
    for row in rows:
        print(",".join(str(row.get(h, "")) for h in header))
    return 0


def _sweep_row(config, network, spectral, x0, bits):
    """One sweep.csv row; the width's trace is freed before the next is built."""
    row = {"b": int(bits)}
    try:
        trace = protocols.run_bicc(network, spectral, x0, bits, config.x_range, config.horizon)
        moments = adversary_mod.closed_form_moments(trace, config.gamma)
        report = adversary_mod.protection_report(trace, moments)
        row.update(
            final_envelope_width=_fmt(trace.x[-1].max() - trace.x[-1].min()),
            saturated=_fmt(bool(trace.saturated.any())),
            min_protection=_fmt(report.min_protection),
            error="",
        )
        try:
            dev = metrics.verify_deviation(trace, spectral, x0)
            row.update(
                converged=_fmt(True),
                convergence_step=str(dev.converged_at),
                deviation=_fmt(dev.deviation),
                bound=_fmt(dev.bound),
            )
        except NotConverged:
            row.update(converged=_fmt(False), convergence_step="", deviation="", bound="")
    except ConsensusError as exc:
        row.update(
            converged=_fmt(False), convergence_step="", final_envelope_width="",
            deviation="", bound="", min_protection="", saturated="",
            error=f"{type(exc).__name__}: {exc}",
        )
    return row


def _verify_checks():
    """The canned invariant suite behind `pcsim verify`."""
    rng = np.random.default_rng(20260823)

    def projector_identities():
        worst = 0.0
        for network in (
            graph.build_network(2, [(1, 2, 0.5), (2, 1, 0.5)]),
            graph.ring_lattice(9, 2, "uniform"),
            graph.random_network(rng),
        ):
            spectral = graph.spectral_analysis(network)
            res = graph.verify_projector_identities(network, spectral, horizon=60)
            worst = max(
                worst,
                *(res[k] for k in ("j_idempotent", "l1j_zero", "jl1_zero",
                                   "lj_equals_j", "deflation_power",
                                   "innovation_equivalence", "rho_deflated")),
            )
        return worst <= 1e-8, f"max residual {worst:.2e}"

    def quantizer_round_trip():
        m = 20_000
        alpha = rng.uniform(-50, 50, size=m)
        beta = rng.uniform(1e-6, 100, size=m)
        bits = rng.integers(1, 24, size=m)
        x = alpha + beta * rng.uniform(0, 1, size=m)
        worst = 0.0
        for b in np.unique(bits):
            pick = bits == b
            code = quantizer.encode(x[pick], alpha[pick], beta[pick], int(b))
            xq = quantizer.decode(code, alpha[pick], beta[pick], int(b))
            margin = beta[pick] / 2 ** (int(b) + 1)
            worst = max(worst, float(np.max(np.abs(x[pick] - xq) - margin)))
        return worst <= 0.0, f"worst bound excess {worst:.2e}"

    def beta_dual_route():
        worst = 0.0
        for n, bits, lam in ((4, 6, 0.3), (25, 12, 0.992), (100, 16, 0.9)):
            a = quantizer.beta_sequence(n, lam, bits, (-3.0, 5.0), 100)
            b = quantizer.beta_sequence_summed(n, lam, bits, (-3.0, 5.0), 100)
            worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300))))
        return worst <= 1e-9, f"worst relative gap {worst:.2e}"

    def threshold_consistency():
        for lam in (0.0, 0.5, 0.9, 0.992):
            threshold = quantizer.min_bits_threshold(25, lam)
            for b in range(1, 33):
                decays = quantizer.effective_eta(25, lam, b) < 1.0
                if decays != (b > threshold):
                    return False, f"b={b}, |lambda2|={lam}"
        return True, ""

    def trajectory_equivalence():
        for _ in range(10):
            network = graph.random_network(rng)
            x0 = rng.uniform(-5, 5, size=network.n)
            a = protocols.run_classical(network, x0, 200)
            b = protocols.run_icc(network, x0, 200)
            if not np.array_equal(a.x, b.x):
                return False, "state trajectories differ"
        return True, ""

    def moments_vs_monte_carlo():
        network = graph.ring_lattice(5, 1, "uniform")
        spectral = graph.spectral_analysis(network)
        x0 = rng.uniform(4, 6, size=5)
        gamma, trials = 0.5, 4000
        worst = worst_mean = -np.inf
        for trace in (
            protocols.run_classical(network, x0, 50),
            protocols.run_icc(network, x0, 50),
            protocols.run_bicc(network, spectral, x0, 8, (4.0, 6.0), 50),
        ):
            mc = _adversary_mc(trace, gamma, trials, 99)
            steps = range(trace.horizon + 1)
            cf = adversary_mod.closed_form_moments(trace, gamma, sigma_at=steps)
            # per entry, the MC mean's standard error is sqrt(v / trials)
            # with v = Sigma_ii(k) - m_i(k)^2 the error's variance
            mean = cf.mean
            var = np.array([np.diag(cf.sigma_samples[k]) for k in steps]) - mean**2
            mean_se = np.maximum(np.sqrt(np.maximum(var, 0.0) / trials), 1e-300)
            worst_mean = max(worst_mean, float(np.max(np.abs(mc.mean - mean) / mean_se)))
            se = np.maximum(mc.se_sq_norm, 1e-300)
            gap = np.abs(mc.sq_norm - cf.trace_second_moment)
            if trace.protocol == "classical":
                # an agent never intercepted by step k contributes an
                # ||x||^2-sized lump with probability (1-g)^(k+1); once
                # the expected count of such trials drops below ~25 the
                # sample mean AND its SE can both miss that mass, so
                # discount it explicitly rather than trusting the SE.
                survive = (1.0 - gamma) ** (np.arange(trace.x.shape[0]) + 1.0)
                unsampled = trials * trace.n * survive < 25.0
                tail = survive * np.einsum("kn,kn->k", trace.x, trace.x)
                gap = gap - np.where(unsampled, tail, 0.0)
            worst = max(worst, float(np.max(gap / se)))
        ok = worst <= 4.0 and worst_mean <= 5.0
        return ok, (f"worst deviation {worst:.2f} standard errors in tr Sigma, "
                    f"{worst_mean:.2f} in the mean")

    def protection_floor():
        network = graph.ring_lattice(5, 1, "uniform")
        x0 = rng.uniform(4, 6, size=5)
        trace = protocols.run_icc(network, x0, 200)
        cf = adversary_mod.closed_form_moments(trace, 0.5)
        report = adversary_mod.protection_report(trace, cf)
        shortfall = report.floor - report.epsilon_observed
        ok = shortfall <= 1e-9
        return ok, "" if ok else f"floor violated by {shortfall:.3e}"

    return [
        ("projector identities", projector_identities),
        ("quantizer round trip", quantizer_round_trip),
        ("beta schedule dual route", beta_dual_route),
        ("bit threshold consistency", threshold_consistency),
        ("trajectory equivalence", trajectory_equivalence),
        ("adversary moments vs monte carlo", moments_vs_monte_carlo),
        ("protection floor", protection_floor),
    ]


def cmd_verify() -> int:
    """Run the built-in invariant suite; print one line per check."""
    failures = 0
    for name, check in _verify_checks():
        ok, detail = check()
        if ok:
            print(f"[pass] {name}")
        else:
            failures += 1
            print(f"[FAIL] {name}: {detail}")
    print(f"{'all checks passed' if not failures else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1
