"""Run one pcsim CLI command in process, with timing spans around each layer.

    PYTHONPATH=src python3 perfbench/traced.py SPANS_JSON -- run --config cfg.json --out DIR

The wrappers are installed from outside the program, on the module
attributes the harness looks up at call time; nothing in the package
changes.  Each wrapped call records a span (name, start, end, parent).
When the command returns, the span tree is reduced to per-layer self
time (a span's duration minus the time its child spans cover) plus the
layer counters, and written to SPANS_JSON.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from pcsim import adversary, cli, graph, harness, metrics, protocols


class Tracer:
    """In-memory span recorder for one single-threaded command."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index]
        self.stack = []
        self.counts = {}

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.perf_counter_ns(), 0, parent]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, module, attr, name, observe=None):
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.call(name, inner, *args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        setattr(module, attr, traced)

    def self_seconds(self):
        """Per-name self time: duration minus the durations of direct children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {}
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            totals[name] = totals.get(name, 0.0) + (end - start - covered) / 1e9
        return totals


def install(tracer):
    """Wrap every layer boundary the harness crosses."""
    t = tracer

    def on_trace(args, trace):
        t.count("protocols.steps", trace.horizon)
        if trace.saturated is not None:
            t.count("quantizer.saturated_events", int(trace.saturated.sum()))

    def on_codec(args, result):
        t.count("quantizer.codec_calls", 1)

    def on_spectral(args, spectral):
        t.count("graph.spectral_iterations", int(spectral.residuals["iterations"]))

    def on_deviation(args, report):
        step = t.counts.get("metrics.convergence_step", 0)
        t.counts["metrics.convergence_step"] = max(step, report.converged_at)

    t.wrap(harness, "network_from_spec", "graph.build")
    t.wrap(graph, "spectral_analysis", "graph.spectral", on_spectral)
    for attr in ("run_classical", "run_icc", "run_bicc"):
        t.wrap(protocols, attr, "protocols.run", on_trace)
    for attr in ("encode", "decode"):
        t.wrap(protocols, attr, "quantizer.codec", on_codec)
    for attr in ("run_adversary_classical_mc", "run_adversary_icc_mc"):
        inner = getattr(adversary, attr)

        def mc(trace, gamma, trials, *rest, _inner=inner, **kwargs):
            # ru_maxrss is the process high-water mark: its rise across
            # the call is the memory the MC reduction added on top
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result = _inner(trace, gamma, trials, *rest, **kwargs)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            t.count("adversary.mc_rss_growth_kb", after - before)
            t.count("adversary.mc_trial_steps", trials * trace.x.shape[0])
            return result

        setattr(adversary, attr, mc)
        t.wrap(adversary, attr, "adversary.mc")
    t.wrap(adversary, "closed_form_moments", "adversary.cf")
    t.wrap(adversary, "protection_report", "adversary.protection")
    t.wrap(metrics, "verify_deviation", "metrics.deviation", on_deviation)
    for attr in ("cmd_run", "cmd_sweep_bits"):
        t.wrap(harness, attr, "harness.cmd")


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- <pcsim arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    start = time.perf_counter_ns()
    code = tracer.call("cli.main", cli.main, argv[2:])
    main_s = (time.perf_counter_ns() - start) / 1e9
    with open(argv[0], "w") as fh:
        json.dump(
            {"main_s": main_s, "self_s": tracer.self_seconds(), "counts": tracer.counts},
            fh,
            indent=2,
            sort_keys=True,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
