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

`cmd_run` submits trace.csv, written into trace.csv.part, to a
one-thread executor while it runs the analysis, and renames the part
file onto trace.csv once the writer's future is done.  Any failure, the
wait included, stops the writer before the executor joins it and
removes the part file: a failed run leaves no trace.csv and no thread.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adversary as adversary_mod
from . import _compiled, graph, metrics, protocols, quantizer
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

    protocol = data.get("protocol", ExperimentConfig.protocol)
    if protocol not in _PROTOCOLS:
        raise ConfigError(f"protocol must be one of {_PROTOCOLS}, got {protocol!r}")
    gamma = _convert(data.get("gamma", ExperimentConfig.gamma), "gamma", _real)
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma must be in (0, 1), got {gamma}")
    horizon = _at_least(data.get("horizon", ExperimentConfig.horizon), "horizon", 1)
    trials = _at_least(data.get("trials", ExperimentConfig.trials), "trials", 2)
    bits = _check_bits(_convert(data.get("bits", ExperimentConfig.bits), "bits", _integral))
    x_range = _convert(data.get("x_range", ExperimentConfig.x_range), "x_range", _floats)
    try:
        quantizer._schedule_start(x_range)  # also a ValueError unless two values
    except ValueError as exc:
        raise ConfigError(f"x_range: {exc}") from None
    seed = _at_least(data.get("seed", ExperimentConfig.seed), "seed", 0)
    x0_spec = data.get("x0", {"uniform": list(x_range)})
    overhead = _at_least(data.get("overhead_bits", ExperimentConfig.overhead_bits),
                         "overhead_bits", 0)
    out_dir = data.get("out", ExperimentConfig.out_dir)
    if "out" in data:
        _check_out(out_dir)
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


def _check_out(out):
    """ConfigError unless `out` is a non-empty path string that is, or can become, a directory.

    The path itself, or else its nearest ancestor that exists, must be a
    directory; a file there would only fail once the outputs are written.
    An empty path would name no directory, and the run would write nothing.
    """
    if not (isinstance(out, str) and out):
        raise ConfigError(f"out must be a directory path (a non-empty string), got {out!r}")
    for path in (Path(out), *Path(out).parents):
        if os.path.exists(path):
            if not path.is_dir():
                raise ConfigError(f"out {out!r} is unusable: {str(path)!r} is not a directory")
            return


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


def _network_and_states(config):
    """The config's network and x0; ConfigError if (K+1) x n floats exceed numpy's size limit."""
    network = network_from_spec(config.network)
    if (config.horizon + 1) * network.n * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"horizon {config.horizon} is too long for {network.n} agents: a "
                          "(horizon + 1) x n float array is larger than numpy can address")
    return network, initial_states(config.x0_spec, network.n, config.seed)


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
    _check_scale(x0, "x0")
    return x0


def _check_scale(x, what):
    """ConfigError unless the squared norm of state x neither overflows nor underflows."""
    peak = float(np.max(np.abs(x), initial=0.0))
    if not math.isfinite(x.size * peak * peak) or 0.0 < peak < _SQRT_TINY:
        raise ConfigError(f"{what} is out of scale: n * max|x|^2 must be finite and max|x| "
                          f"0 or at least {_SQRT_TINY:.3g}, got max|x| = {peak:.3g}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv_line(fields) -> str:
    """One CSV line as csv.writer writes it: quoted where needed, ending in CRLF."""
    text = io.StringIO()
    csv.writer(text).writerow(fields)
    return text.getvalue()


def _write_json(path, payload):
    _write(path, [json.dumps(payload, indent=2, sort_keys=True).encode(), b"\n"])


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    return value


_CHUNK_ROWS = 4096  # about this many lines per write: bounds the text held in memory

# The kinds of field after k and agent, numbered as _loops.c's csv_rows
# numbers them: blank; the float64, int64 or bool of (step, agent); the
# float64 of the step, on each of its rows.  Per kind: its dtype, its
# longest text (-2.2250738585072014e-308, an int64's 20 characters) and
# its %-field in the Python writer's row template.
_BLANK, _FLOAT, _INT, _FLAG, _STEP = range(5)
_DTYPES = (None, np.float64, np.int64, np.bool_, np.float64)
_WIDTHS = (0, 24, 20, 1, 24)
_FIELDS = ("", "%.17g", "%d", "%d", None)


def _row_bytes(kinds, k_last, n):
    """The longest row that csv_rows writes with these field kinds, k <= k_last and n agents."""
    return len(str(k_last)) + 1 + len(str(n)) + sum(1 + _WIDTHS[kind] for kind in kinds) + 2


def _csv_lines(columns, k0=0):
    """CSV bytes for rows (k, agent), steps k0, k0+1, ..., in chunks of steps.

    `columns` describes the fields after k and agent (at most 16,
    csv_rows' FIELDS), as (kind, array) pairs: a steps x n array for
    _FLOAT, _INT and _FLAG (the first field is one), a steps-long one
    for _STEP, anything for _BLANK.  Floats are written as "%.17g"
    writes them, NaN as nan; lines end in CRLF, as csv.writer ends them.
    The compiled csv_rows writes each chunk into a buffer of its own,
    sized from the fields' longest texts, and a view of that buffer is
    yielded.  Without the library, each chunk's columns are converted
    with .tolist() once, and each step's _STEP values are formatted once
    into the row template ("{0}" the step, "{1}", ... its _STEP fields),
    whose %-fields then take each agent's id and cells.
    """
    kinds = [kind for kind, _ in columns]
    arrays = [None if kind == _BLANK else np.ascontiguousarray(a, _DTYPES[kind])
              for kind, a in columns]
    steps, n = arrays[0].shape
    for kind, a in zip(kinds, arrays):  # csv_rows reads each pointer this far
        if a is not None and a.shape != ((steps,) if kind == _STEP else (steps, n)):
            raise ValueError(f"CSV column of shape {a.shape} in rows of shape {(steps, n)}")
    chunk = max(1, _CHUNK_ROWS // n)
    rows = _compiled.function("csv_rows")
    if rows:
        kinds_c = np.array(kinds, np.intc)
        row_bytes = _row_bytes(kinds, k0 + steps, n)
        for lo in range(0, steps, chunk):
            cols = np.array([0 if a is None else a[lo:].ctypes.data for a in arrays], np.uintp)
            out = np.empty(min(chunk, steps - lo) * n * row_bytes, np.uint8)
            size = rows(k0 + lo, min(chunk, steps - lo), n, len(kinds), kinds_c, cols, out)
            yield out[:size].data  # a view: the chunk's one copy is its buffer
        return
    fields = [_FIELDS[kind] for kind in kinds]
    shared = [f for f, kind in enumerate(kinds) if kind == _STEP]
    for i, f in enumerate(shared, 1):
        fields[f] = "{%d}" % i
    row = ",".join(["{0},%d", *fields]) + "\r\n"
    cells = [a for kind, a in zip(kinds, arrays) if kind in (_FLOAT, _INT, _FLAG)]
    agents = range(1, n + 1)
    for lo in range(0, steps, chunk):
        hi = min(lo + chunk, steps)
        values = [c[lo:hi].tolist() for c in cells]
        texts = [["%.17g" % v for v in arrays[f][lo:hi].tolist()] for f in shared]
        lines = []
        for j in range(hi - lo):
            line = row.format(k0 + lo + j, *[t[j] for t in texts])
            lines.extend(map(line.__mod__, zip(agents, *[v[j] for v in values])))
        yield "".join(lines).encode()


def trace_csv(trace):
    """trace.csv as byte chunks (quantizer columns only for bicc).

    Row (k, agent) holds the state x(k) and the innovation xi(k)
    applied during [k, k+1] (blank at the final k); the quantizer
    columns describe the quantization event at step k, whose input is
    the previous innovation xi(k-1) (step 0 quantizes the initial
    state).  The trace derives its innovations, codes and windows one
    chunk of steps at a time, so no whole column is built.
    """
    yield b"k,agent,x,xi,xi_q,code,alpha,beta,saturated\r\n"
    K, bicc = trace.horizon, trace.protocol == "bicc"
    steps = max(1, _CHUNK_ROWS // trace.n)
    blank = (_BLANK, None)
    for lo, hi in [*((lo, min(lo + steps, K)) for lo in range(0, K, steps)), (K, K + 1)]:
        moving = hi <= K  # the final step applies no innovation
        columns = [(_FLOAT, trace.x[lo:hi]),
                   (_FLOAT, trace.innovations(lo, hi)) if moving else blank]
        if bicc:
            codes, alpha = trace.quantizer_columns(lo, hi)
            columns += [(_FLOAT, trace.sent[lo + 1 : hi + 1]) if moving else blank,
                        (_INT, codes), (_FLOAT, alpha), (_STEP, trace.beta[lo:hi]),
                        (_FLAG, trace.saturated[lo:hi])]
        else:
            columns += [blank] * 5
        yield from _csv_lines(columns, lo)


def adversary_csv(mc, moments, report):
    """adversary.csv as byte chunks: per-step adversary statistics."""
    yield b"k,agent,e_mean_mc,e_mean_cf,trace_sigma_mc,trace_sigma_cf,protection_level\r\n"
    yield from _csv_lines([(_FLOAT, mc.mean), (_FLOAT, moments.mean), (_STEP, mc.sq_norm),
                           (_STEP, moments.trace_second_moment), (_STEP, report.protection)])


def _write(path, chunks):
    with open(path, "wb") as fh:
        fh.writelines(chunks)


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
    return _run_bicc(config, network, spectral, x0, config.bits)


def _run_bicc(config, network, spectral, x0, bits):
    """A bicc trace; ConfigError if x(0), x0 quantized on the window's scale, is out of scale."""
    trace = protocols.run_bicc(network, spectral, x0, bits, config.x_range, config.horizon)
    _check_scale(trace.x[0], "x(0), the quantized x0,")
    return trace


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
    trace.csv is written on a one-thread executor (see the module
    docstring); a failed writer is an OSError caused by its exception.
    """
    workers = _workers()
    network, x0 = _network_and_states(config)
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

    # trace.csv depends on the trace alone, so a writer thread writes it
    # while this one runs the analysis; both sides hold the GIL only
    # between their compiled calls
    path = _out_path(config)
    part = path / "trace.csv.part" if path else None
    stop = threading.Event()
    try:
        with ThreadPoolExecutor(1, thread_name_prefix="pcsim trace.csv writer") as pool:
            try:
                if part:
                    # function()'s first call is not thread-safe: only this thread builds the library
                    _compiled.function("csv_rows")
                    rows = itertools.takewhile(lambda _: not stop.is_set(), trace_csv(trace))
                    written = pool.submit(_write, part, rows)
                breaches = _analyse_and_write(config, spectral, trace, workers, path)
                failed = written.exception() if part else None
            except BaseException:
                stop.set()  # a failed run needs no more rows
                raise
        if failed:
            raise OSError(f"writing {path / 'trace.csv'} failed: "
                          f"{type(failed).__name__}: {failed}") from failed
        if part:
            os.replace(part, path / "trace.csv")
    finally:
        if part:  # a no-op once the part file is renamed
            part.unlink(missing_ok=True)
    for breach in breaches:
        print(f"invariant breach: {breach}")
    return 1 if breaches else 0


def _floor_violation(moments, report) -> str:
    """The protection floor test of `run` and `verify`: "" or "floor violated by <shortfall>"."""
    shortfall = moments.floor_coefficient - report.epsilon_observed
    return f"floor violated by {shortfall:.3e}" if shortfall > 1e-9 else ""


def _quantized_verdict(trace, spectral):
    """(deviation report, or None without consensus; saturation events) of a bicc trace.

    A flagged quantization event counts unless its window width beta(k)
    is below np.spacing of the largest |x(k-1)|, the states the step
    reads: their innovation is rounded by about that much, so the flag
    marks the float resolution, not a starved quantizer.  Step 0 is
    never flagged (run_bicc).  trace.csv keeps every raw flag.
    """
    try:
        dev = metrics.verify_deviation(trace, spectral, trace.x0)
    except NotConverged:
        dev = None
    counts = np.count_nonzero(trace.saturated, axis=1)
    flagged = np.flatnonzero(counts)  # the states of unflagged steps are not read
    read = np.empty(flagged.size)
    for a in range(0, flagged.size, 256):  # 256 rows at a time: nothing K x n is made
        x = trace.x[flagged[a : a + 256] - 1]  # x(k-1)
        read[a : a + 256] = np.maximum(x.max(axis=1), -x.min(axis=1))
    # states that overflowed have a NaN spacing, which keeps their flags
    resolved = ~(trace.beta[flagged] < np.spacing(read))
    return dev, int(counts[flagged][resolved].sum())


def _analyse_and_write(config, spectral, trace, workers, path):
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
        # v = Sigma_ii - m_i^2 is rounded on the scale of the moments themselves
        scale = float(np.max(moments.trace_second_moment, where=finite_cf, initial=0.0))
        if moments.min_eigenvalue < -1e-10 * scale:
            breaches.append(f"second-moment matrix lost PSD: min eig {moments.min_eigenvalue:.3e}")
        # a trial's squared error can overflow where the expectation does not
        finite_mc = np.isfinite(mc.sq_norm) & np.isfinite(mc.mean).all(axis=1)
        lost = np.flatnonzero(finite_cf & ~finite_mc)
        if lost.size:
            breaches.append("Monte Carlo moments overflowed: E||e(k)||^2 is not finite "
                            f"from step {int(lost[0])}")
    violation = _floor_violation(moments, report)  # none for an overflowed trace, reported above
    if violation:
        breaches.append(f"protection {violation}")

    deviation_payload = None
    if config.protocol == "bicc":
        dev, events = _quantized_verdict(trace, spectral)
        if events:
            breaches.append(f"quantizer saturated at {events} events")
        if dev is None:
            breaches.append("quantized run did not reach consensus")
        elif dev.bound is not None:
            # w x(K) lies in the final envelope, and the bound covers |w x(K) - w x(0)| at any K
            lo, hi = trace.x[-1].min(), trace.x[-1].max()
            if math.sqrt(trace.n) * max(lo - dev.x_inf_ideal, dev.x_inf_ideal - hi) > dev.bound:
                breaches.append(f"deviation {dev.deviation:.3e} exceeds its certified bound "
                                f"{dev.bound:.3e}")
        deviation_payload = {
            "x_inf_ideal": _jsonable(graph.consensus_value(spectral, trace.x0)),
            **{key: None if dev is None else _jsonable(getattr(dev, key))
               for key in ("x_inf_observed", "deviation", "bound", "eta")},
            "b": trace.bits,
            "converged": dev is not None,
        }

    if path:
        _write(path / "adversary.csv", adversary_csv(mc, moments, report))
        _write_json(
            path / "summary.json",
            {
                "gamma": config.gamma,
                "trials": config.trials,
                "min_protection": _jsonable(report.min_protection),
                "asymptotic_protection": _jsonable(report.asymptotic_protection),
                "floor": _jsonable(moments.floor_coefficient),
                "c": _jsonable(moments.c_constant),
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
    network, x0 = _network_and_states(config)
    spectral = graph.spectral_analysis(network)

    rows = [_sweep_row(config, network, spectral, x0, bits) for bits in bits_list]

    header = ["b", "converged", "convergence_step", "final_envelope_width",
              "deviation", "bound", "min_protection", "saturated", "error"]
    lines = [_csv_line(header), *(_csv_line(row.get(h, "") for h in header) for row in rows)]
    path = _out_path(config)
    if path:
        _write(path / "sweep.csv", [line.encode() for line in lines])
    for line in lines[1:]:
        print(line.removesuffix("\r\n"))
    return 0


def _sweep_row(config, network, spectral, x0, bits):
    """The sweep.csv columns one width has; the width's trace is freed before the next is built."""
    try:
        trace = _run_bicc(config, network, spectral, x0, bits)
        moments = adversary_mod.closed_form_moments(trace, config.gamma)
        report = adversary_mod.protection_report(trace, moments)
        dev, events = _quantized_verdict(trace, spectral)
    except ConsensusError as exc:
        return {"b": int(bits), "converged": _fmt(False), "error": f"{type(exc).__name__}: {exc}"}
    row = {"b": int(bits), "converged": _fmt(dev is not None), "saturated": _fmt(events > 0),
           "final_envelope_width": _fmt(trace.x[-1].max() - trace.x[-1].min()),
           "min_protection": _fmt(report.min_protection)}
    if dev is not None:
        row.update(convergence_step=_fmt(dev.converged_at), deviation=_fmt(dev.deviation),
                   bound=_fmt(dev.bound))
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
        violation = _floor_violation(cf, adversary_mod.protection_report(trace, cf))
        return not violation, violation

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
