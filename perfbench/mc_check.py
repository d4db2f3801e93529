"""Check the Monte Carlo columns of a pcsim run against its closed form.

    python3 perfbench/mc_check.py OUT_DIR PROTOCOL GAMMA TRIALS

The random draws behind e_mean_mc and trace_sigma_mc may change in a
later version of the program, so they are not compared by digest: each
must lie within a Bernstein bound of its closed-form column, derived
from the trial count and the recorded trace.  Prints the largest
deviation as a share of its bound; exits 1 if any entry exceeds it.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

# Per-entry failure probability.  With about 2e5 compared entries per
# run a correct program fails the check at a rate below 1e-3.
MC_DELTA = 1e-9


def _bernstein(var, spread, trials):
    """Half-width eps with P(|mean - mu| >= eps) <= MC_DELTA for |X - mu| <= spread."""
    log_term = math.log(2.0 / MC_DELTA)
    a = spread * log_term / 3.0
    return (a + np.sqrt(a * a + 2.0 * trials * var * log_term)) / trials


def check_mc(out_dir, protocol, gamma, trials):
    """Check the MC columns of adversary.csv against the closed-form columns.

    Interception is independent across agents, steps and trials, so the
    per-agent error e_i(k) of one trial lies in a range computable from
    the trace: for icc/bicc it is a sum of missed broadcasts, with
    variance gamma(1-gamma) sum xi^2; for classical it is x_i(k) minus a
    past state or zero.  ||e(k)||^2 is a sum of independent per-agent
    squares.  Returns the largest deviation as a share of its bound.
    """
    out = Path(out_dir)
    x = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, usecols=(2,))
    adv = np.loadtxt(out / "adversary.csv", delimiter=",", skiprows=1, usecols=(1, 2, 3, 4, 5))
    n = int(adv[:, 0].max())
    steps = adv.shape[0] // n
    x = x.reshape(steps, n)
    mean_mc, mean_cf = adv[:, 1].reshape(steps, n), adv[:, 2].reshape(steps, n)
    sq_mc, sq_cf = adv[::n, 3], adv[::n, 4]
    if not (np.all(np.isfinite(mean_mc)) and np.all(np.isfinite(sq_mc))):
        raise ValueError("MC columns hold non-finite values")

    if protocol == "classical":
        lo = np.minimum(x - np.maximum.accumulate(x, axis=0), x)
        hi = np.maximum(x - np.minimum.accumulate(x, axis=0), x)
        spread = hi - lo
        var = spread**2 / 4.0
    else:
        column = 4 if protocol == "bicc" else 3  # xi_q, else xi
        xi = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, usecols=(column,),
                        max_rows=(steps - 1) * n).reshape(steps - 1, n)
        observed = np.vstack([x[0], xi])
        lo = np.cumsum(np.minimum(observed, 0.0), axis=0)
        hi = np.cumsum(np.maximum(observed, 0.0), axis=0)
        spread = hi - lo
        var = gamma * (1.0 - gamma) * np.cumsum(observed**2, axis=0)
    top = np.maximum(-lo, hi) ** 2  # largest e_i^2
    worst = 0.0
    for mc, cf, v, s in (
        (mean_mc, mean_cf, var, spread),
        (sq_mc, sq_cf, np.sum(top**2, axis=1) / 4.0, np.sum(top, axis=1)),
    ):
        tol = _bernstein(v, s, trials) + 1e-9 * np.max(np.abs(cf)) + 1e-300
        ratio = float(np.max(np.abs(mc - cf) / tol))
        if ratio > 1.0:
            raise ValueError(f"MC column differs from closed form by {ratio:.2f}x its bound")
        worst = max(worst, ratio)
    return worst


def main(argv):
    out_dir, protocol, gamma, trials = argv
    try:
        ratio = check_mc(out_dir, protocol, float(gamma), int(trials))
    except (OSError, ValueError) as exc:
        print(f"MC check failed: {exc}")
        return 1
    print(f"MC vs closed form: worst deviation {ratio:.3f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
