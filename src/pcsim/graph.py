"""Consensus networks and their spectral structure.

Builds the row-stochastic update matrix L of a directed agent network
from its (sender, receiver, gain) links, checks strong connectivity,
and extracts the quantities the rest of the library runs on: the left
unit eigenvector w_l (normalized to w_l^T 1 = 1) and the magnitude of
the second-largest eigenvalue |lambda_2| = rho(L - 1 w_l^T), which is
the contraction rate of the disagreement dynamics.

Agent ids are 1-based in the public API (matching the network file
format); internal arrays are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeWeight,
    NoConvergence,
    NotStronglyConnected,
    RowSumExceeded,
)

__all__ = [
    "ConsensusNetwork",
    "SpectralData",
    "build_network",
    "ring_lattice",
    "random_network",
    "spectral_analysis",
    "consensus_value",
    "verify_projector_identities",
]


@dataclass(frozen=True)
class ConsensusNetwork:
    """A strongly connected directed network, stored as its links.

    Link e, build_network's (edge_src[e] + 1, edge_dst[e] + 1, edge_gain[e]),
    sets L[dst, src] = gain > 0.  The arrays are sorted by (receiver,
    sender), the fixed accumulation order of every protocol step, whatever
    order the links came in; ``matrix`` builds L from them.

    Construction checks what build_network guarantees, for records made
    without it: at least 2 agents (ValueError), 1-D edge arrays of one
    length and integer agents in 0..n-1 (DimensionMismatch), and finite
    gains > 0 (ValueError).  The record keeps read-only copies of the
    arrays, so they stay valid: the compiled step indexes with them
    unchecked.  The copies are stored as the step loops read them:
    C-contiguous intp agents, converted after their checks, and float64
    gains, checked as float64.
    """

    n: int
    edge_src: np.ndarray = field(repr=False)  # 0-based senders
    edge_dst: np.ndarray = field(repr=False)  # 0-based receivers
    edge_gain: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError(f"need an integer number of at least 2 agents, got {self.n!r}")
        names = ("edge_src", "edge_dst", "edge_gain")
        src, dst, gain = (np.asarray(getattr(self, name)) for name in names)
        if not (src.ndim == 1 and src.shape == dst.shape == gain.shape):
            raise DimensionMismatch(
                f"edge arrays must be 1-D of one length, got shapes {src.shape}, {dst.shape} "
                f"and {gain.shape}")
        for name, agents in (("edge_src", src), ("edge_dst", dst)):
            if not (agents.dtype.kind in "iu" and np.all((agents >= 0) & (agents < self.n))):
                raise DimensionMismatch(f"{name} must hold integer agents in 0..{self.n - 1}")
        # checked as float64, as the loops read it: a longdouble gain may round to 0 or inf
        with np.errstate(over="ignore"):
            gain = gain.astype(np.float64) if gain.dtype.kind in "iuf" else gain
        if not (gain.dtype.kind == "f" and np.all(np.isfinite(gain) & (gain > 0))):
            raise ValueError("edge_gain must hold finite gains > 0")
        for name, array in zip(names, (src.astype(np.intp), dst.astype(np.intp), gain)):
            array.flags.writeable = False  # astype copies: the caller cannot change it
            object.__setattr__(self, name, array)

    @property
    def link_count(self) -> int:
        """Total number of directed communication links."""
        return len(self.edge_src)

    @property
    def matrix(self) -> np.ndarray:
        """The update matrix L, a new dense n x n array on each read."""
        return _matrix(self.n, self.edge_src, self.edge_dst, self.edge_gain)[0]


@dataclass(frozen=True)
class SpectralData:
    """Spectral quantities of a consensus matrix.

    lambda2_mag is the spectral radius of L - J, with J = 1 w_left^T the
    rank-one limit matrix; w_left is the left eigenvector of L at
    eigenvalue 1 with w_left @ 1 = 1.  ``residuals`` records the
    diagnostics checked at construction time.
    """

    lambda2_mag: float
    w_left: np.ndarray = field(repr=False)
    residuals: dict[str, float] = field(repr=False)


def _reachable(n, adjacency, start):
    """Set of nodes reachable from `start` along adjacency lists."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _strongly_connected(n, edges_zero_based):
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for s, t in edges_zero_based:
        fwd[s].append(t)
        bwd[t].append(s)
    return len(_reachable(n, fwd, 0)) == n and len(_reachable(n, bwd, 0)) == n


def _matrix(n, src, dst, gain):
    """L from 0-based links, and its off-diagonal row sums."""
    # summed in the dense rows, so the self gains 1 - row sum keep
    # their bits whatever the link order
    L = np.zeros((n, n))
    L[dst, src] = gain
    row_sums = L.sum(axis=1)
    np.fill_diagonal(L, 1.0 - row_sums)
    return L, row_sums


def build_network(n, links) -> ConsensusNetwork:
    """Assemble a ConsensusNetwork from 1-based (sender, receiver, gain) links.

    Link (i, j, kappa), the shape of a config row [i, j, kappa], sets
    L[j, i] = kappa.  Raises DimensionMismatch or ValueError (self link,
    duplicate) in input order, then NegativeWeight for a gain that is
    not > 0 (zero and NaN included), RowSumExceeded, or
    NotStronglyConnected.
    """
    if n < 2:
        raise ValueError(f"need at least 2 agents, got {n}")
    links = [(int(s), int(t), kappa) for s, t, kappa in links]
    seen = set()
    for s, t, _ in links:
        if not (1 <= s <= n and 1 <= t <= n):
            raise DimensionMismatch(f"edge ({s},{t}) references agents outside 1..{n}")
        if s == t:
            raise ValueError(f"self-edge ({s},{t}) not allowed; the self gain is implicit")
        if (s, t) in seen:
            raise ValueError(f"duplicate edge ({s},{t})")
        seen.add((s, t))

    rows = []  # (receiver, sender, gain), 0-based
    for s, t, kappa in links:
        kappa = float(kappa)
        if not kappa > 0:  # also catches NaN
            raise NegativeWeight(f"kappa[{t},{s}] = {kappa} must be > 0")
        rows.append((t - 1, s - 1, kappa))

    # (receiver, sender) order: the deterministic accumulation order
    # shared by all protocol kernels.
    rows.sort()
    dst = np.array([d for d, _, _ in rows], dtype=np.intp)
    src = np.array([s for _, s, _ in rows], dtype=np.intp)
    gain = np.array([g for _, _, g in rows], dtype=float)

    row_sums = _matrix(n, src, dst, gain)[1]
    worst = int(np.argmax(row_sums))
    if row_sums[worst] > 1.0 + 1e-12:
        raise RowSumExceeded(
            f"agent {worst + 1} has incoming gains summing to {row_sums[worst]:.6g} > 1"
        )
    if not _strongly_connected(n, zip(src.tolist(), dst.tolist())):
        raise NotStronglyConnected(f"digraph on {n} agents is not strongly connected")
    return ConsensusNetwork(n=n, edge_src=src, edge_dst=dst, edge_gain=gain)


def ring_lattice(n, step, weight_mode="uniform", seed=None) -> ConsensusNetwork:
    """Directed ring where agent i listens to agent i - step (mod n).

    weight_mode is "uniform" (every gain 0.5), "random" (seeded: each
    agent's incoming gains are drawn positive and scaled to a row sum
    uniform in (0.2, 1)), or an explicit sequence of n gains, one per
    agent in agent order.  Requires gcd(step, n) = 1, otherwise the ring
    splits into disjoint cycles.
    """
    if n < 3:
        raise ValueError(f"ring needs at least 3 agents, got {n}")
    if math.gcd(step, n) != 1:
        raise NotStronglyConnected(
            f"gcd(step={step}, n={n}) != 1: ring splits into disjoint cycles"
        )

    # receiver i (1-based) listens to sender i - step
    senders = [((i - 1 - step) % n) + 1 for i in range(1, n + 1)]

    if isinstance(weight_mode, str):
        if weight_mode == "uniform":
            gains = [0.5] * n
        elif weight_mode == "random":
            # One incoming edge per agent, so the scaled gain is exactly
            # the per-agent row-sum draw in (0.2, 1).
            rng = np.random.default_rng(seed)
            gains = list(rng.uniform(0.2, 1.0, size=n))
        else:
            raise ValueError(f"unknown weight_mode {weight_mode!r}")
    else:
        gains = [float(g) for g in weight_mode]
        if len(gains) != n:
            raise DimensionMismatch(f"need {n} gains, got {len(gains)}")

    return build_network(n, zip(senders, range(1, n + 1), gains))


def random_network(rng, n=None) -> ConsensusNetwork:
    """Random strongly connected network: a directed cycle plus chords.

    n defaults to a draw from 3..30.  Up to 2n chords are drawn from
    `rng` one (sender, receiver) pair at a time, and each receiver's
    incoming gains are scaled to a row sum in (0.3, 0.95), so every row
    keeps positive self-weight.
    """
    if n is None:
        n = int(rng.integers(3, 31))
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    seen = set(edges)
    for _ in range(2 * n):
        s, t = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        if s != t and (s, t) not in seen:
            seen.add((s, t))
            edges.append((s, t))
    incoming = {}
    for s, t in edges:
        incoming.setdefault(t, []).append(s)
    links = []
    for t, senders in incoming.items():
        raw = rng.uniform(0.1, 1.0, size=len(senders))
        raw *= rng.uniform(0.3, 0.95) / raw.sum()
        links.extend((s, t, w) for s, w in zip(senders, raw))
    return build_network(n, links)


_TOL = 1e-10  # residual at which the left-eigenvector iteration stops
_MAX_ITERS = 100_000


def spectral_analysis(network) -> SpectralData:
    """Left eigenvector and |lambda_2| of the network's L (J = 1 w_left^T is only checked).

    w_left comes from power iteration on L^T (the unit eigenvalue is
    simple and dominant for a strongly connected network, so iteration
    converges at rate |lambda_2|).  |lambda_2| itself is the spectral
    radius of the deflated matrix L - J from a dense eigensolver: the
    dominant eigenvalues of L - J form a complex pair for directed
    rings, which unshifted power iteration cannot resolve.

    A slow-mixing network can stall the iteration: if its residual is
    still above 1e-10 after 100 000 iterations, w_left is solved for
    directly.  Raises NoConvergence if that residual too is above 1e-10,
    or the resulting data violates its own consistency checks.
    """
    L = network.matrix
    n = network.n
    v = np.full(n, 1.0 / n)
    moved = v @ L
    residual = math.inf
    iterations = 0
    for iterations in range(1, _MAX_ITERS + 1):
        v = moved  # the last residual's product is this iteration's step
        v /= v.sum()
        moved = v @ L
        residual = float(np.max(np.abs(moved - v)))
        if residual <= _TOL:
            break
    if not residual <= _TOL:
        # w^T (L - I) = 0 and w^T 1 = 1: the columns of L - I sum to zero, so
        # any n - 1 of them are independent and the ones row replaces the last
        A = L.T - np.eye(n)
        A[-1] = 1.0
        try:
            v = np.linalg.solve(A, np.eye(n)[-1])
            residual = float(np.max(np.abs(v @ L - v)))
        except np.linalg.LinAlgError:
            pass
    if not residual <= _TOL:
        raise NoConvergence(
            f"left-eigenvector iteration residual {residual:.3e} > tol {_TOL:.1e} "
            f"after {iterations} iterations and a direct solve"
        )

    J = np.outer(np.ones(n), v)
    lambda2 = float(np.max(np.abs(np.linalg.eigvals(L - J))))

    # Independent consistency check: second-largest |eigenvalue| of L
    # itself must match the spectral radius of the deflated matrix.
    mags = np.sort(np.abs(np.linalg.eigvals(L)))
    rho_residual = float(abs(mags[-2] - lambda2))

    residuals = {
        "w_left": residual,
        "j_idempotent": float(np.max(np.abs(J @ J - J))),
        "lj_equals_j": float(np.max(np.abs(L @ J - J))),
        "rho_deflated": rho_residual,
        "iterations": float(iterations),
    }
    if lambda2 >= 1.0 - 1e-12:
        raise NoConvergence(
            f"|lambda_2| = {lambda2:.12f} is not contractive; "
            "the disagreement dynamics do not decay"
        )
    if residuals["j_idempotent"] > 1e-9 or residuals["lj_equals_j"] > 1e-9:
        raise NoConvergence(f"projector residuals too large: {residuals}")
    if rho_residual > 1e-8:
        raise NoConvergence(
            f"deflated spectral radius disagrees with |lambda_2(L)| by {rho_residual:.3e}"
        )
    return SpectralData(lambda2_mag=lambda2, w_left=v, residuals=residuals)


def consensus_value(spectral: SpectralData, x0) -> float:
    """The conserved value w_left^T x0 that all agents converge to."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != spectral.w_left.shape:
        raise DimensionMismatch(f"x0 has shape {x0.shape}, expected {spectral.w_left.shape}")
    return float(spectral.w_left @ x0)


def verify_projector_identities(network, spectral, horizon=50) -> dict[str, float]:
    """Max residuals of the projector/deflation identities up to `horizon`.

    Checks, for k = 1..horizon: J^2 = J, (L-J)J = J(L-J) = 0, LJ = J,
    (L-J)^k = L^k - J, (L-I)L^k = (L-I)(L-J)^k, the deflated spectral
    radius against |lambda_2|, and the power limit L^k -> J.  Returns a
    dict of named residuals; report-only (raises nothing).
    """
    L = network.matrix
    n = network.n
    J = np.outer(np.ones(n), spectral.w_left)
    eye = np.eye(n)
    D = L - J

    out = {
        "j_idempotent": float(np.max(np.abs(J @ J - J))),
        "l1j_zero": float(np.max(np.abs(D @ J))),
        "jl1_zero": float(np.max(np.abs(J @ D))),
        "lj_equals_j": float(np.max(np.abs(L @ J - J))),
        "rho_deflated": spectral.residuals["rho_deflated"],
    }
    Lk = eye.copy()
    Dk = eye.copy()
    deflation = 0.0
    innovation = 0.0
    for _ in range(horizon):
        Lk = Lk @ L
        Dk = Dk @ D
        deflation = max(deflation, float(np.max(np.abs(Dk - (Lk - J)))))
        innovation = max(innovation, float(np.max(np.abs((L - eye) @ Lk - (L - eye) @ Dk))))
    out["deflation_power"] = deflation
    out["innovation_equivalence"] = innovation
    out["power_limit"] = float(np.max(np.abs(Lk - J)))
    return out
