"""pcsim benchmark: the paper's eavesdropper studies and bit-threshold sweep.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all        # every workload, one table each
    python3 perfbench/run.py --workload NAME --smoke   # tiny sizes, for the tests
    python3 perfbench/run.py --workload NAME --record-digests 0-31

Run from the root of a source checkout; the program is imported from
./src.  One client drives the `pcsim` CLI as a closed loop: each
invocation starts after the previous one has exited, at
PCSIM_THREADS=1 and a BLAS thread cap of 1, on a config generated from
the workload's fixed parameters and the seed (which sets x0 and the MC
seed).  Invocations run until the next one would end after --seconds
(at least one).  Every invocation's outputs are checked (check.py,
mc_check.py); a non-zero exit or a failed check counts as a failed
operation.

With --trace 0 the result line carries the end-to-end metrics: wall_s
(spawn to exit, median), peak_rss_mb (per child, from wait4, median)
and setup_s (fresh interpreter: import pcsim, load_config,
network_from_spec; median of several).  With --trace 1 one more
invocation runs in process under traced.py, and the result line
carries the per-layer self times and counters.  Failures are counted
in `attempted`/`failed`; error_rate = failed / attempted is printed in
the table above the result line.  Outputs go to a fresh directory in
the checkout, deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

# Standard library only: an exec'd child's ru_maxrss starts at the
# high-water RSS of the process that spawned it, so this process stays
# small (no numpy; the MC check runs in mc_check.py as its own child).
import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
SETUP_REPEATS = 11
CLI = [sys.executable, "-m", "pcsim.cli"]
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = 1
SETUP_SNIPPET = (
    "import sys\n"
    "from pcsim import harness\n"
    "config = harness.load_config(sys.argv[1])\n"
    "harness.network_from_spec(config.network)\n"
)
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "adversary.mc_s": "s",
    "adversary.mc_ns_per_trial_step": "ns",
    "adversary.mc_rss_growth_mb": "MB",
    "adversary.cf_s": "s",
    "adversary.protection_s": "s",
    "harness.self_s": "s",
    "harness.bytes_written": "bytes",
    "protocols.run_self_s": "s",
    "protocols.steps": "count",
    "protocols.us_per_step": "us",
    "quantizer.codec_s": "s",
    "quantizer.codec_calls": "count",
    "quantizer.saturated_events": "count",
    "graph.spectral_s": "s",
    "graph.spectral_iterations": "count",
    "graph.build_s": "s",
    "metrics.deviation_s": "s",
    "metrics.convergence_step": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
LAYER_SPANS = (
    "graph.build", "graph.spectral", "protocols.run", "quantizer.codec", "adversary.mc",
    "adversary.cf", "adversary.protection", "metrics.deviation", "harness.cmd",
)
# Layer self times plus the harness self time must cover the traced
# cli.main wall up to this share of it plus a fixed allowance: config
# loading and argument parsing run outside every layer span.
TRACE_SLACK_SHARE = 0.02
TRACE_SLACK_S = 0.05


@dataclass(frozen=True)
class Child:
    """Exit status and resource use of one finished child process."""

    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    log: str


def spawn(argv, env, log_path):
    """Run argv to completion; resources come from wait4 for this child alone."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
        Path(log_path).read_text(errors="replace")[-2000:],
    )


def child_env(work, threads=1):
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PCSIM_THREADS=str(threads),
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
        TMPDIR=str(work),
    )
    return env


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": BLAS_THREADS,
        "pcsim_threads": 1,
    }


def make_config(spec, seed, smoke):
    config = dict(spec["config"], seed=seed)
    if smoke:
        config.update(spec["smoke"])
    return config


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[len(ordered) - 11]


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, name, seed, seconds, trace, smoke, work):
        self.name, self.seed, self.seconds, self.trace, self.smoke = name, seed, seconds, trace, smoke
        self.spec = WORKLOADS["workloads"][name]
        self.work = work
        self.config = make_config(self.spec, seed, smoke)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2, sort_keys=True))
        self.files = check.expected_files(self.spec["command"], self.config["protocol"])
        self.attempted = 0
        self.failed = 0
        self.first_digests = None  # whole-file digests of the first good invocation
        self.count = 0

    def cli_args(self, out):
        args = [self.spec["command"], "--config", str(self.config_path), "--out", str(out)]
        return args + ["--bits", self.spec["bits"]] if "bits" in self.spec else args

    def reference(self):
        if self.smoke:
            return None
        path = HERE / "digests" / f"{self.name}.json"
        table = json.loads(path.read_text()) if path.is_file() else {}
        return table.get(str(self.seed))

    def fail(self, what, detail):
        self.failed += 1
        print(f"[{self.name}] FAILED {what}: {detail}", file=sys.stderr)

    def invoke(self, prefix, threads=1):
        """Run prefix + the workload's CLI arguments with a fresh output directory."""
        self.count += 1
        self.attempted += 1
        out = self.work / f"out{self.count}"
        argv = [*prefix, *self.cli_args(out)]
        child = spawn(argv, child_env(self.work, threads), self.work / f"log{self.count}")
        return child, out

    def verify(self, child, out, what):
        """Output check; returns True when the invocation succeeded."""
        try:
            if child.code != 0:
                raise check.CheckFailed(f"exit code {child.code}: {child.log.strip()[-500:]}")
            missing = [f for f in self.files if not (out / f).is_file()]
            if missing:
                raise check.CheckFailed(f"missing outputs {missing}")
            digests = check.file_digests(out, self.files)
            if self.first_digests is None:
                reference = self.reference()
                if reference is None:
                    print(f"[{self.name}] no recorded digests for seed {self.seed}"
                          f"{' (smoke sizes)' if self.smoke else ''}; later invocations "
                          "are checked against the first", file=sys.stderr)
                else:
                    check.check_outputs(out, self.files, reference)
                if self.spec["command"] == "run":
                    print(f"[{self.name}] {self.mc_check(out)}", file=sys.stderr)
                self.first_digests = digests
            elif digests != self.first_digests:
                changed = sorted(f for f in self.files if digests[f] != self.first_digests[f])
                raise check.CheckFailed(f"outputs differ from the first invocation: {changed}")
            return True
        except (check.CheckFailed, OSError, ValueError, KeyError) as exc:
            self.fail(what, exc)
            return False
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def mc_check(self, out):
        args = [out, self.config["protocol"], self.config["gamma"], self.config["trials"]]
        child = spawn([sys.executable, str(HERE / "mc_check.py"), *map(str, args)],
                      child_env(self.work), self.work / "mc_check.log")
        if child.code != 0:
            raise check.CheckFailed(child.log.strip())
        return child.log.strip()

    def setup_times(self):
        argv = [sys.executable, "-c", SETUP_SNIPPET, str(self.config_path)]
        times = []
        for i in range(SETUP_REPEATS):
            self.attempted += 1
            child = spawn(argv, child_env(self.work), self.work / f"setup{i}.log")
            if child.code != 0:
                self.fail("setup", child.log.strip()[-500:])
            times.append(child.wall_s)
        return times

    def timed_loop(self):
        """Closed loop of untraced invocations for --seconds; returns good Child records."""
        samples = []
        start = time.perf_counter()
        while True:
            child, out = self.invoke(CLI)
            if self.verify(child, out, "invocation"):
                samples.append(child)
            elapsed = time.perf_counter() - start
            if elapsed + child.wall_s > self.seconds:
                return samples

    def thread_check(self):
        """Untimed: the multi-threaded MC must write the same bytes."""
        threads = min(max(2, nproc()), 8)
        child, out = self.invoke(CLI, threads)
        if self.verify(child, out, f"PCSIM_THREADS={threads} determinism check"):
            print(f"[{self.name}] PCSIM_THREADS={threads} outputs identical", file=sys.stderr)

    def traced(self, untraced_wall):
        spans_path = self.work / "spans.json"
        child, out = self.invoke([sys.executable, str(HERE / "traced.py"), str(spans_path), "--"])
        bytes_written = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
        if not self.verify(child, out, "traced invocation"):
            return None
        spans = json.loads(spans_path.read_text())
        own = spans["self_s"]
        counts = spans["counts"]
        main_s = spans["main_s"]
        layers = sum(own.get(name, 0.0) for name in LAYER_SPANS)
        unaccounted = main_s - layers
        if abs(unaccounted) > TRACE_SLACK_SHARE * main_s + TRACE_SLACK_S:
            self.fail("trace sanity", f"layer self times sum to {layers:.3f} s of a "
                      f"{main_s:.3f} s traced wall")
        mc_s = own.get("adversary.mc", 0.0)
        trial_steps = counts.get("adversary.mc_trial_steps", 0)
        run_self = own.get("protocols.run", 0.0)
        steps = counts.get("protocols.steps", 0)
        return {
            "adversary.mc_s": mc_s,
            "adversary.mc_ns_per_trial_step": 1e9 * mc_s / trial_steps if trial_steps else 0.0,
            "adversary.mc_rss_growth_mb": counts.get("adversary.mc_rss_growth_kb", 0) / 1024.0,
            "adversary.cf_s": own.get("adversary.cf", 0.0),
            "adversary.protection_s": own.get("adversary.protection", 0.0),
            "harness.self_s": own.get("harness.cmd", 0.0),
            "harness.bytes_written": bytes_written,
            "protocols.run_self_s": run_self,
            "protocols.steps": steps,
            "protocols.us_per_step": 1e6 * run_self / steps if steps else 0.0,
            "quantizer.codec_s": own.get("quantizer.codec", 0.0),
            "quantizer.codec_calls": counts.get("quantizer.codec_calls", 0),
            "quantizer.saturated_events": counts.get("quantizer.saturated_events", 0),
            "graph.spectral_s": own.get("graph.spectral", 0.0),
            "graph.spectral_iterations": counts.get("graph.spectral_iterations", 0),
            "graph.build_s": own.get("graph.build", 0.0),
            "metrics.deviation_s": own.get("metrics.deviation", 0.0),
            "metrics.convergence_step": counts.get("metrics.convergence_step", 0),
            "cli.self_s": own.get("cli.main", 0.0),
            "trace.wall_s": main_s,
            "trace.overhead_s": child.wall_s - untraced_wall,
        }

    def run(self):
        setup = [] if self.trace else self.setup_times()
        samples = self.timed_loop()
        if self.spec.get("thread_check"):
            self.thread_check()
        walls = [c.wall_s for c in samples]
        rows = []
        if walls:
            tail = tail_percentile(walls)
            rows.append(("wall_s", statistics.median(walls), "s", f"median of {len(walls)}; "
                         + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
                            "no tail percentile (needs 11 samples)")))
            rows.append(("peak_rss_mb", statistics.median(c.rss_mb for c in samples), "MB",
                         f"median of {len(samples)}"))
            rows.append(("cpu_s", statistics.median(c.cpu_s for c in samples), "s",
                         f"median of {len(samples)}"))
        if setup:
            rows.append(("setup_s", statistics.median(setup), "s", f"median of {len(setup)}"))
        layer = self.traced(statistics.median(walls)) if self.trace and walls else None
        rows.append(("error_rate", self.failed / self.attempted, "1",
                     f"{self.failed} failed of {self.attempted} attempted"))

        print(f"workload {self.name}  seed {self.seed}  seconds {self.seconds}  "
              f"trace {self.trace}{'  smoke' if self.smoke else ''}")
        for name, value, unit, note in rows:
            print(f"  {name:<14} {value:>12.4f} {unit:<3} {note}")
        if layer:
            for name, value in layer.items():
                print(f"  {name:<32} {value:>14.6g} {PER_LAYER_UNITS[name]}")
        values = {name: value for name, value, _, _ in rows}
        if self.trace:
            wanted = PER_LAYER_UNITS
            values = layer or {}
        else:
            wanted = END_TO_END_UNITS
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in wanted.items() if name in values}
        return {
            "correct": self.failed == 0 and len(metrics) == len(wanted),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def record_digests(name, seeds):
    """Write the deterministic-output digests of `name` for each seed."""
    path = HERE / "digests" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    table = json.loads(path.read_text()) if path.is_file() else {}
    spec = WORKLOADS["workloads"][name]
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            bench = Bench(name, seed, 0, 0, False, Path(tmp))
            out = Path(tmp) / "out"
            child = spawn([*CLI, *bench.cli_args(out)], child_env(Path(tmp)), Path(tmp) / "log")
            if child.code != 0:
                raise SystemExit(f"{name} seed {seed}: exit {child.code}: {child.log}")
            if spec["command"] == "run":
                bench.mc_check(out)
            table[str(seed)] = check.deterministic_digests(out, bench.files)
        print(f"{name} seed {seed}: {child.wall_s:.2f} s", file=sys.stderr)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=WORKLOADS["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes from workloads.json; no recorded digests")
    parser.add_argument("--record-digests", metavar="SEEDS",
                        help="record reference digests for seeds LO-HI and exit")
    args = parser.parse_args(argv)

    if not (SRC / "pcsim" / "cli.py").is_file():
        print(f"no pcsim sources under {SRC}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS["workloads"]) if args.workload == "all" else [args.workload]
    if args.record_digests:
        for name in names:
            record_digests(name, parse_seeds(args.record_digests))
        return 0

    print(json.dumps({"environment": environment()}))
    results = {}
    for name in names:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            bench = Bench(name, args.seed, args.seconds, args.trace, args.smoke, Path(tmp))
            results[name] = bench.run()
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
