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
regardless of PCSIM_THREADS.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adversary as adversary_mod
from . import graph, metrics, protocols, quantizer
from .errors import ConfigError, ConsensusError, NotConverged

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


def _seed(value, what) -> int:
    seed = _convert(value, what, _integral)
    if seed < 0:
        raise ConfigError(f"{what} must be >= 0, got {seed}")
    return seed


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
    horizon = _convert(data.get("horizon", 1000), "horizon", _integral)
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    trials = _convert(data.get("trials", 10_000), "trials", _integral)
    if trials < 2:
        raise ConfigError(f"trials must be >= 2, got {trials}")
    bits = _check_bits(_convert(data.get("bits", 12), "bits", _integral))
    x_range = _convert(data.get("x_range", (4.0, 6.0)), "x_range", _floats)
    _check_finite(x_range, "x_range")
    if len(x_range) != 2 or x_range[1] <= x_range[0]:
        raise ConfigError(f"x_range must be [lo, hi] with lo < hi, got {x_range}")
    seed = _seed(data.get("seed", 0), "seed")
    x0_spec = data.get("x0", {"uniform": list(x_range)})
    overhead = _convert(data.get("overhead_bits", 0), "overhead_bits", _integral)
    if overhead < 0:
        raise ConfigError(f"overhead_bits must be >= 0, got {overhead}")
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

    Unknown keys, edge rows other than [i, j, kappa], and random ring
    weights without a network seed are ConfigErrors.
    """
    try:
        _check_keys(spec, {"n", "seed", "generator"}, "network")
        n = _convert(spec["n"], "network n", _integral)
        seed = None if spec.get("seed") is None else _seed(spec["seed"], "network seed")
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
            edges = []
            weights = {}
            for row in gen["edges"]:
                if not isinstance(row, (list, tuple)) or len(row) != 3:
                    raise ConfigError(f"edge row must be [i, j, kappa], got {row!r}")
                i = _convert(row[0], "edge id", _integral)
                j = _convert(row[1], "edge id", _integral)
                kappa = _convert(row[2], f"gain of edge [{i}, {j}]", _real)
                _check_finite([kappa], f"gain of edge [{i}, {j}]")
                edges.append((i, j))
                weights[(j, i)] = kappa
            return graph.build_network(n, edges, weights)
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
    defaults to default_seed; any other key is a ConfigError.
    """
    if isinstance(x0_spec, (list, tuple)):
        x0 = np.array(_convert(x0_spec, "x0", _floats))
        if x0.shape != (n,):
            raise ConfigError(f"x0 has {x0.size} entries for {n} agents")
        _check_finite(x0, "x0")
        return x0
    if isinstance(x0_spec, dict) and "uniform" in x0_spec:
        _check_keys(x0_spec, {"uniform", "seed"}, "x0")
        bounds = _convert(x0_spec["uniform"], "x0 uniform range", _floats)
        if len(bounds) != 2:
            raise ConfigError(f"x0 uniform range must be [lo, hi], got {bounds}")
        lo, hi = bounds
        _check_finite([lo, hi, hi - lo], "x0 uniform range and its width")
        if hi <= lo:
            raise ConfigError(f"x0 uniform range [{lo}, {hi}] is empty")
        rng = np.random.default_rng(_seed(x0_spec.get("seed", default_seed), "x0 seed"))
        return rng.uniform(lo, hi, size=n)
    raise ConfigError(f"x0 must be a list or {{'uniform': [lo, hi], 'seed': s}}, got {x0_spec!r}")


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
                [*cells, trace.xi_q[lo:hi], codes, alpha, trace.saturated[lo:hi]],
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


def cmd_spectral(config: ExperimentConfig, out_dir=None) -> int:
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
    out = out_dir or config.out_dir
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
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


def cmd_run(config: ExperimentConfig, out_dir=None) -> int:
    """Run one experiment end to end; 0 iff every runtime invariant held.

    Only `bicc` reads spectral data, so classical and icc runs take any
    network that build_network accepts, a non-contractive one included.
    """
    workers = _workers()
    network = network_from_spec(config.network)
    x0 = initial_states(config.x0_spec, network.n, config.seed)
    spectral = graph.spectral_analysis(network) if config.protocol == "bicc" else None
    trace = _run_protocol(config, network, spectral, x0)

    mc = _adversary_mc(trace, config.gamma, config.trials, config.seed, workers)
    moments = adversary_mod.closed_form_moments(trace, config.gamma)
    report = adversary_mod.protection_report(trace, moments)

    breaches = []
    if not moments.min_eigenvalue >= -1e-10:  # also catches NaN
        breaches.append(f"second-moment matrix lost PSD: min eig {moments.min_eigenvalue:.3e}")
    shortfall = report.floor - report.epsilon_observed
    if shortfall > 1e-9:  # False for a NaN trace, which the PSD check reports
        breaches.append(f"protection floor violated by {shortfall:.3e}")

    deviation_payload = None
    if config.protocol == "bicc":
        if bool(trace.saturated.any()):
            breaches.append(f"quantizer saturated at {int(trace.saturated.sum())} events")
        try:
            dev = metrics.verify_deviation(trace, spectral, x0)
            deviation_payload = {
                "x_inf_ideal": _jsonable(dev.x_inf_ideal),
                "x_inf_observed": _jsonable(dev.x_inf_observed),
                "deviation": _jsonable(dev.deviation),
                "bound": _jsonable(dev.bound),
                "eta": _jsonable(dev.eta),
                "b": dev.bits,
                "converged": True,
            }
        except NotConverged:
            ideal = graph.consensus_value(spectral, x0)
            deviation_payload = {
                "x_inf_ideal": _jsonable(ideal),
                "x_inf_observed": None,
                "deviation": None,
                "bound": None,
                "eta": None,
                "b": trace.bits,
                "converged": False,
            }
            breaches.append("quantized run did not reach consensus")

    out = out_dir or config.out_dir
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        _write_text(path / "trace.csv", trace_csv(trace))
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
    for breach in breaches:
        print(f"invariant breach: {breach}")
    return 1 if breaches else 0


def cmd_sweep_bits(config: ExperimentConfig, bits_list, out_dir=None) -> int:
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
    out = out_dir or config.out_dir
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
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
            graph.build_network(2, [(1, 2), (2, 1)], {(1, 2): 0.5, (2, 1): 0.5}),
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
        worst = -np.inf
        for trace in (
            protocols.run_classical(network, x0, 50),
            protocols.run_icc(network, x0, 50),
            protocols.run_bicc(network, spectral, x0, 8, (4.0, 6.0), 50),
        ):
            mc = _adversary_mc(trace, gamma, trials, 99)
            cf = adversary_mod.closed_form_moments(trace, gamma)
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
        return worst <= 4.0, f"worst deviation {worst:.2f} standard errors"

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
