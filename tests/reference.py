"""Test-only oracles: tr Sigma(k) along a route independent of the recursion.

closed_form_moments steps tr Sigma(k) by a per-agent recursion; the
functions here reach the same quantity by other arithmetic (the
telescoped closed form for icc/bicc; for classical the
last-interception sum, truncated within 2^-52 max_t ||x(k) - x(t)||^2
of the full sum), as the dual-route tests' reference.  No command
reads them, so they live with the tests.
"""

import math

import numpy as np

_EPS = 2.0**-52  # float64 machine epsilon: truncation level of the classical cross-check


def trace_second_moment_direct(moments):
    """tr Sigma(k) along the independent route, derived from the moments' trace."""
    if moments.trace.protocol == "classical":
        return _last_interception_route(moments.trace.x, moments.gamma)
    return _telescoped_route(moments.trace.x, moments.trace.sent, moments.gamma)


def _last_interception_route(x, gamma):
    """tr Sigma(k) of the hold estimator, conditioned on the last interception.

    The last interception of an agent at or before k falls at t with
    probability g(1-g)^(k-t), leaving error x(k) - x(t); with
    probability (1-g)^(k+1) there was none and the error is x(k).  Only
    the last W = ceil(ln eps / ln(1-g)) + 1 terms of the t-sum are added
    (eps = 2^-52).  The dropped terms carry total weight at most
    (1-g)^W <= eps, so the result differs from the full sum by at most
    (1-g)^W max_t ||x(k) - x(t)||^2 <= eps max_t ||x(k) - x(t)||^2
    (t <= k), besides rounding.  W = 1 at g = 0, where every term has
    weight 0, and at g = 1, where only t = k counts.
    """
    steps = x.shape[0]
    if gamma in (0.0, 1.0):
        window = 1
    else:
        window = math.log(_EPS) / math.log1p(-gamma)
        window = steps if window >= steps else math.ceil(window) + 1
    pow_miss = (1.0 - gamma) ** np.arange(steps + 1)
    direct = np.empty(steps)
    for k in range(steps):
        lo = max(0, k - window + 1)
        diff = x[k] - x[lo : k + 1]
        direct[k] = gamma * (
            pow_miss[k - lo :: -1] @ np.einsum("tn,tn->t", diff, diff)
        ) + pow_miss[k + 1] * (x[k] @ x[k])
    return direct


def _telescoped_route(x, sent, gamma):
    """tr Sigma(k) of the integrating estimator in its telescoped form.

    tr Sigma(k) = (1-g)^2 ||x(k)||^2 + g(1-g) sum_{t<=k} ||sent(t)||^2.
    """
    power = np.einsum("kn,kn->k", sent, sent)
    power[0] = x[0] @ x[0]  # row 0 as c takes it: an einsum row may round differently
    np.cumsum(power, out=power)
    return (1.0 - gamma) ** 2 * np.einsum("kn,kn->k", x, x) + gamma * (1.0 - gamma) * power
